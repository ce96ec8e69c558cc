"""Blow-up programs and their matrix encodings.

A blow-up program records a finite sequence of point blow-ups over a smooth
surface germ: the k-th center either is the origin of the previous chart
(free point, empty center set), sits on one existing exceptional component
E_i (center {i}), or is the corner point of two components that currently
meet (center {i, j}).  Component indices are 1-based throughout, matching
the usual E_1, ..., E_n labels.

Two matrices encode the combinatorics.  The proximity matrix F is unit lower
triangular with F[k][i] = -1 exactly when i is in the k-th center.  The
intersection matrix of the exceptional components factors through it:

    A = -F^T F

so A is symmetric negative definite with det = 1, and -A^{-1} = F^{-1} F^{-T}
has positive integer entries.  Both factorizations are exact integer
computations here.  Each row of F has at most two off-diagonal entries, so
F^{-1} v and F^{-T} v are single substitutions over the center lists, O(n)
per vector; the dense inverses are kept only as an independent reference.
"""

from dataclasses import dataclass, field

from . import exact
from .errors import DimensionMismatch, IndexOutOfRange, InvalidCenter


@dataclass(frozen=True)
class BlowUpProgram:
    """Ordered centers; centers[k-1] holds the 1-based components through center k."""

    centers: tuple

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(frozenset(c) for c in self.centers))
        _validate(self.centers)

    @classmethod
    def from_lists(cls, lists):
        for k, c in enumerate(lists, start=1):
            if len(set(c)) != len(list(c)):
                raise InvalidCenter(f"center {k} repeats a component: {sorted(c)}")
        return cls(tuple(frozenset(c) for c in lists))

    def to_lists(self):
        return [sorted(c) for c in self.centers]

    @property
    def n(self):
        return len(self.centers)

    def prefix(self, k):
        """The program of the first k blow-ups (valid by construction)."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"prefix length {k} not in 1..{self.n}")
        return BlowUpProgram(self.centers[:k])


def _validate(centers):
    if not centers:
        raise InvalidCenter("a blow-up program needs at least one center")
    if centers[0]:
        raise InvalidCenter("the first blow-up must be at the origin (empty center)")
    # Replay the geometry: adjacency changes as corners are blown up, so a
    # pair center is only legal against the running intersection prefix.
    adj = set()
    for k, center in enumerate(centers, start=1):
        if len(center) > 2:
            raise InvalidCenter(f"center {k} lists {len(center)} components; a point "
                                "lies on at most two")
        for i in center:
            if not (isinstance(i, int) and 1 <= i < k):
                raise IndexOutOfRange(f"center {k} references component {i!r}")
        if len(center) == 2:
            i, j = sorted(center)
            if (i, j) not in adj:
                raise InvalidCenter(f"center {k}: components {i} and {j} do not meet "
                                    "at this stage")
            adj.discard((i, j))
        for i in center:
            adj.add((i, k))


def intersection_by_steps(program):
    """Intersection matrix built by replaying the blow-ups one at a time.

    Independent of the Cholesky route: each blow-up appends a -1 on the
    diagonal, joins the new component to its centers, drops the centers'
    self-intersections by one, and separates a blown-up corner pair.
    """
    n = program.n
    a = [[0] * n for _ in range(n)]
    for k, center in enumerate(program.centers, start=1):
        a[k - 1][k - 1] = -1
        for i in center:
            a[i - 1][i - 1] -= 1
            a[i - 1][k - 1] = a[k - 1][i - 1] = 1
        if len(center) == 2:
            i, j = sorted(center)
            a[i - 1][j - 1] = a[j - 1][i - 1] = 0
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class CholeskyMatrix:
    """Unit lower-triangular proximity matrix F of a blow-up program."""

    rows: tuple
    program: BlowUpProgram = field(compare=False)

    @property
    def n(self):
        return len(self.rows)

    def prefix(self, k):
        """Leading k x k block; equals the matrix of the truncated program."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"prefix length {k} not in 1..{self.n}")
        return CholeskyMatrix(tuple(row[:k] for row in self.rows[:k]),
                              self.program.prefix(k))

    def inverse(self):
        """F^{-1}; integer entries, all nonnegative."""
        return exact.unit_lower_inverse(self.rows)

    def solve(self, v):
        """F^{-1} v by forward substitution: x_k = v_k + sum of x_i over center k."""
        x = self._checked_copy(v)
        for k, center in enumerate(self.program.centers):
            for i in center:
                x[k] += x[i - 1]
        return tuple(x)

    def solve_transpose(self, v):
        """F^{-T} v by backward substitution: each final x_k adds to its centers."""
        x = self._checked_copy(v)
        for k in range(self.n - 1, -1, -1):
            for i in self.program.centers[k]:
                x[i - 1] += x[k]
        return tuple(x)

    def _checked_copy(self, v):
        if len(v) != self.n:
            raise DimensionMismatch(f"vector has length {len(v)}, program has "
                                    f"{self.n}")
        return list(v)

    def transpose(self):
        return exact.transpose(self.rows)


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric negative-definite matrix A = -F^T F of a blow-up program."""

    rows: tuple
    cholesky: CholeskyMatrix = field(compare=False)

    @property
    def n(self):
        return len(self.rows)

    def prefix(self, k):
        """Intersection matrix of the truncated program (not a submatrix slice)."""
        return build_intersection(self.cholesky.prefix(k))

    def neg_inverse(self):
        return neg_inverse(self)


def build_cholesky(program):
    """Proximity matrix F: row k carries -1 at the k-th center's components."""
    n = program.n
    rows = tuple(
        tuple(1 if i == k else (-1 if i + 1 in program.centers[k] else 0)
              for i in range(n))
        for k in range(n)
    )
    return CholeskyMatrix(rows, program)


def build_intersection(f):
    """A = -F^T F as a sum of rank-one terms, one per row of F.

    Row k of F is e_k minus the unit vectors of its center, so each term
    touches at most three rows and columns of A.
    """
    n = f.n
    a = [[0] * n for _ in range(n)]
    for k, center in enumerate(f.program.centers):
        row = [(k, 1)] + [(i - 1, -1) for i in center]
        for p, x in row:
            for q, y in row:
                a[p][q] -= x * y
    return IntersectionMatrix(tuple(tuple(r) for r in a), f)


def neg_inverse(a):
    """-A^{-1} = F^{-1} F^{-T} as a dense matrix; positive integer entries.

    The pairings never build it (see CholeskyMatrix.solve); it is the
    independent reference for verify's positive-inverse check.  Computed
    through the Cholesky factor, which keeps the arithmetic integral.
    """
    finv = a.cholesky.inverse()
    return exact.matmul(finv, exact.transpose(finv))


def valence(a, i):
    """Number of components meeting E_i: sum of the off-diagonal row entries."""
    rows = a.rows if isinstance(a, IntersectionMatrix) else a
    if not 1 <= i <= len(rows):
        raise IndexOutOfRange(f"component {i} not in 1..{len(rows)}")
    return sum(e for j, e in enumerate(rows[i - 1]) if j != i - 1)


def proximity_check(f, a):
    """The defining identity F^T u = 2u + diag(A), as an exact boolean."""
    u = exact.ones(f.n)
    lhs = exact.matvec(f.transpose(), u)
    rhs = tuple(2 + a.rows[i][i] for i in range(f.n))
    return lhs == rhs


def dual_graph_dot(a, marking=None, labels=None):
    """DOT source for the dual graph; dicritical components drawn as boxes.

    `marking` may be an InvariantMarking or a plain 0/1 tuple.
    """
    rows = a.rows if isinstance(a, IntersectionMatrix) else a
    iota = getattr(marking, "iota", marking)
    n = len(rows)
    lines = ["graph dual {"]
    for i in range(1, n + 1):
        name = labels[i - 1] if labels else f"E{i}"
        shape = "box" if iota is not None and iota[i - 1] == 0 else "ellipse"
        lines.append(f'  e{i} [label="{name} ({rows[i-1][i-1]})", shape={shape}];')
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j]:
                lines.append(f"  e{i+1} -- e{j+1};")
    lines.append("}")
    return "\n".join(lines)
