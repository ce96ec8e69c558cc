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
F v, F^{-1} v and F^{-T} v are single passes over the center lists, O(n)
per vector, and the components that meet are the pairs the program's own
replay leaves adjacent (`BlowUpProgram.meets`).  The dense rows of F and A
are laid out on first read only; the references that compare against them
(intersection_by_steps, neg_inverse, proximity_check, verify's checks) are
their only readers.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from . import exact
from .errors import DimensionMismatch, IndexOutOfRange, InvalidCenter


@dataclass(frozen=True)
class BlowUpProgram:
    """Ordered centers; centers[k-1] holds the 1-based components through center k.

    `meets` holds the pairs (i, j), i < j, of components that meet after the
    last blow-up: exactly the non-zero off-diagonal entries of A.
    """

    centers: tuple
    meets: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(frozenset(c) for c in self.centers))
        object.__setattr__(self, "meets", _validate(self.centers))

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

    @cached_property
    def valences(self):
        """valences[i - 1]: how many components meet E_i; one pass over meets."""
        counts = Counter(i for pair in self.meets for i in pair)
        return tuple(counts[i] for i in range(1, self.n + 1))

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
    return frozenset(adj)


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

    program: BlowUpProgram
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.program.n)

    @cached_property
    def rows(self):
        """Dense F, built on first read: row k carries -1 at the k-th center's
        components."""
        n, centers = self.n, self.program.centers
        return tuple(
            tuple(1 if i == k else (-1 if i + 1 in centers[k] else 0)
                  for i in range(n))
            for k in range(n)
        )

    def prefix(self, k):
        """Proximity matrix of the first k blow-ups (its leading k x k block)."""
        return CholeskyMatrix(self.program.prefix(k))

    def inverse(self):
        """F^{-1}; integer entries, all nonnegative."""
        return exact.unit_lower_inverse(self.rows)

    def apply(self, v):
        """F v: x_k = v_k - sum of v_i over center k."""
        v = self._checked_copy(v)
        return tuple(v[k] - sum(v[i - 1] for i in center)
                     for k, center in enumerate(self.program.centers))

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

    cholesky: CholeskyMatrix
    n: int = field(init=False, repr=False, compare=False)
    meets: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.cholesky.n)
        object.__setattr__(self, "meets", self.cholesky.program.meets)

    @cached_property
    def rows(self):
        """Dense A = -F^T F, built on first read as a sum of rank-one terms.

        Row k of F is e_k minus the unit vectors of its center, so each term
        touches at most three rows and columns of A.
        """
        n = self.n
        a = [[0] * n for _ in range(n)]
        for k, center in enumerate(self.cholesky.program.centers):
            row = [(k, 1)] + [(i - 1, -1) for i in center]
            for p, x in row:
                for q, y in row:
                    a[p][q] -= x * y
        return tuple(tuple(r) for r in a)

    def prefix(self, k):
        """Intersection matrix of the truncated program (not a submatrix slice)."""
        return build_intersection(self.cholesky.prefix(k))

    def neg_inverse(self):
        return neg_inverse(self)


def build_cholesky(program):
    """Proximity matrix F of a program; its dense rows wait for a reader."""
    return CholeskyMatrix(program)


def build_intersection(f):
    """A = -F^T F over the factor f; its dense rows wait for a reader."""
    return IntersectionMatrix(f)


def neg_inverse(a):
    """-A^{-1} = F^{-1} F^{-T} as a dense matrix; positive integer entries.

    The pairings never build it (see CholeskyMatrix.solve); it is the
    independent reference for verify's positive-inverse check.  Computed
    through the Cholesky factor, which keeps the arithmetic integral.
    """
    finv = a.cholesky.inverse()
    return exact.matmul(finv, exact.transpose(finv))


def valence(a, i):
    """Number of components meeting E_i (the off-diagonal sum of row i of A)."""
    if not 1 <= i <= a.n:
        raise IndexOutOfRange(f"component {i} not in 1..{a.n}")
    return a.cholesky.program.valences[i - 1]


def proximity_check(f, a):
    """The defining identity F^T u = 2u + diag(A), as an exact boolean."""
    u = exact.ones(f.n)
    lhs = exact.matvec(f.transpose(), u)
    rhs = tuple(2 + a.rows[i][i] for i in range(f.n))
    return lhs == rhs


def dual_graph_dot(a, marking=None, labels=None):
    """DOT source for the dual graph; dicritical components drawn as boxes.

    `marking` may be an InvariantMarking or a plain 0/1 tuple.  A node's
    label carries E_i . E_i = -1 - (number of later centers on E_i).
    """
    iota = getattr(marking, "iota", marking)
    self_int = [-1] * a.n
    for center in a.cholesky.program.centers:
        for i in center:
            self_int[i - 1] -= 1
    lines = ["graph dual {"]
    for i in range(1, a.n + 1):
        name = labels[i - 1] if labels else f"E{i}"
        shape = "box" if iota is not None and iota[i - 1] == 0 else "ellipse"
        lines.append(f'  e{i} [label="{name} ({self_int[i - 1]})", shape={shape}];')
    lines.extend(f"  e{i} -- e{j};" for i, j in sorted(a.meets))
    lines.append("}")
    return "\n".join(lines)
