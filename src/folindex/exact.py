"""Exact vector and matrix helpers over the integers.

Matrices are tuples of tuples, vectors are tuples.  Everything is immutable
and exact; no floating point.  The unit lower-triangular inverse, products
and determinants cost O(n^3) in the number of exceptional components.  The
lattice pairings use none of the matrix helpers: they work over the center
lists (see blowup), and the dense F and A are built on first read.  Here
the matrix helpers serve the independent checks and reference values, the
only readers of those dense rows.
"""

from .errors import DimensionMismatch


def ones(n):
    return (1,) * n


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(tuple(row) for row in zip(*m))


def vec_add(u, v):
    _same_len(u, v)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    _same_len(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def dot(u, v):
    _same_len(u, v)
    return sum(a * b for a, b in zip(u, v))


def matvec(m, v):
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"matrix is {len(m)}x{len(m[0])}, vector has {len(v)}")
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_neg(m):
    return tuple(tuple(-e for e in row) for row in m)


def is_symmetric(m):
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def unit_lower_inverse(l):
    """Invert a unit lower-triangular integer matrix; the inverse is integer."""
    n = len(l)
    inv = [[0] * n for _ in range(n)]
    for i in range(n):
        inv[i][i] = 1
        for j in range(i - 1, -1, -1):
            # entry (i, j) from forward substitution along column j
            s = sum(l[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s
    return tuple(tuple(row) for row in inv)


def det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _same_len(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
