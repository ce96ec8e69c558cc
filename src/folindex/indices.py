"""Local invariants from resolution combinatorics.

All formulas are exact pairings against -A^{-1} = F^{-1}F^{-T} and the
proximity data of a blow-up program.  Writing u for the all-ones vector,
S_B for the total vector of a balanced divisor and S_C for the attachment
vector of a curve, the operations compute:

  multiplicity sequence of C      (F^{-1})^T S_C
  vanishing orders of C           M = -A^{-1} S_C,  m = F(M - u)
  discrepancies                   l = (F^{-1})^T S_B - F iota
  mu_0(foliation)                 <-A^{-1}S_B, S_B> - <S_B, (I + F^{-1})u> + 1
  mu_0(curve C)                   same formula with S_C
  i_0(f, g)                       <-A^{-1}S_f, S_g>
  GSV_0(C)                        <-A^{-1}(S_B - S_C), S_C>
  mu_0 along an invariant D       <-A^{-1}S_B - (I + F^{-1})u, S_D> + 1
  CS_0(C)                         sum of local CS + <-A^{-1}S_C, S_C>
  Var_0(C)                        sum of signed local Var + <-A^{-1}S_B - iota, S_C>
  BB_0                            sum of local BB + <-A^{-1}S_B, S_B>
                                                  - 2<S_B, iota> - <A iota, iota>

No inverse and no dense matrix is built.  Each pairing is a backward
substitution F^{-T} s followed by a forward substitution F^{-1}, both O(n)
over the center lists of the program (CholeskyMatrix.solve_transpose and
solve); products with F (CholeskyMatrix.apply) and the corner set
(BlowUpProgram.meets) read the same lists, and <A iota, iota> is computed
as -|F iota|^2.  The dense F, A and -A^{-1} are built on first read, and
only independent references read them: verify's checks and the tests'
reference values.

The local sums run over the finitely many reduced singular points that
survive on the exceptional divisor; their values enter as exact rationals
(or exact algebraic numbers) through ReducedSingularity records.

The Milnor number also splits as a count of reduced singular points plus a
discrepancy term:

  mu_0 = [<S_I, u> + (n - 1) - sum of dicritical valences]
         + [<l, l> - <l, u> - n]

which milnor_decomposition returns piecewise; the two routes agreeing is a
standing consistency check.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import exact
from .blowup import valence
from .errors import (DimensionMismatch, HypothesisMissing, InputError,
                     MissingReducedData, NonIntegerResult)

# ---------------------------------------------------------------------------
# hypothesis bookkeeping

_STATUSES = ("asserted", "verified", "violated")
FLAGS = ("second_class", "generalized_curve", "balanced_divisor_checked")


class HypothesisLedger:
    """Tracks which hypotheses hold and which operations consumed them.

    A flag is one of 'asserted', 'verified', 'violated', or absent.
    Asserting generalized_curve also covers second_class, since a
    generalized curve has no saddle-node anywhere in its reduction.
    """

    def __init__(self, **flags):
        self.flags = {}
        self.consumed = []
        for name, status in flags.items():
            self.set(name, status)

    def set(self, name, status):
        if name not in FLAGS:
            raise InputError(f"unknown hypothesis flag {name!r}")
        if status not in _STATUSES:
            raise InputError(f"hypothesis status must be one of {_STATUSES}")
        self.flags[name] = status
        if name == "generalized_curve" and status in ("asserted", "verified"):
            self.flags.setdefault("second_class", status)

    def status(self, name):
        return self.flags.get(name)

    def require(self, operation, name):
        status = self.flags.get(name)
        if status is None:
            raise HypothesisMissing(f"{operation} needs hypothesis {name!r}, "
                                    "which was never asserted")
        if status == "violated":
            raise HypothesisMissing(f"{operation} needs hypothesis {name!r}, "
                                    "which is marked violated")
        self.consumed.append((operation, name, status))
        return status


# ---------------------------------------------------------------------------
# reduced singularity data

@dataclass(frozen=True)
class ReducedSingularity:
    """Local data of one reduced singular point of the resolved foliation.

    Location is either a component index (attachment of a branch, named when
    several live on one component) or a corner pair.  Values are exact:
    Fraction or a sympy algebraic expression.  A missing Var falls back to
    CS + 1 (GSV of a reduced nondegenerate point along its separatrix is 1);
    a missing BB falls back to r + 1/r + 2 for eigenvalue ratio r.
    """

    component: int = None
    corner: tuple = None
    branch: str = None
    coefficient: int = 1
    cs: object = None
    var: object = None
    bb: object = None
    eigenratio: object = None

    def __post_init__(self):
        if (self.component is None) == (self.corner is None):
            raise InputError("a reduced point sits either on one component or "
                             "at one corner")
        if self.coefficient not in (1, -1):
            raise InputError("reduced-point coefficient must be +1 or -1")

    def var_value(self, ledger=None):
        if self.var is not None:
            return self.var
        if self.cs is None:
            raise MissingReducedData(f"point {self._where()} has neither Var nor CS")
        if ledger is not None:
            ledger.require("var_total", "generalized_curve")
        return self.cs + 1

    def bb_value(self):
        if self.bb is not None:
            return self.bb
        if self.eigenratio is None:
            raise MissingReducedData(f"point {self._where()} has neither BB nor "
                                     "an eigenvalue ratio")
        r = self.eigenratio
        if r == 0:
            raise InputError("eigenvalue ratio of a nondegenerate point is nonzero")
        return r + _invert(r) + 2

    def _where(self):
        if self.corner is not None:
            return f"corner E{self.corner[0]}&E{self.corner[1]}"
        return f"E{self.component}" + (f"/{self.branch}" if self.branch else "")


def _invert(r):
    if isinstance(r, (int, Fraction)):
        return Fraction(1) / Fraction(r)
    return 1 / r


# ---------------------------------------------------------------------------
# core pairings

def _neg_inv_apply(a, s):
    """-A^{-1} s = F^{-1}(F^{-T} s)."""
    f = a.cholesky
    return f.solve(f.solve_transpose(s))


def _check_len(a, s, what):
    if len(s) != a.n:
        raise DimensionMismatch(f"{what} has length {len(s)}, program has {a.n}")


def quadratic_pairing(s, t, a):
    """<-A^{-1} s, t>: the basic exact pairing behind every invariant."""
    _check_len(a, s, "first vector")
    _check_len(a, t, "second vector")
    return exact.dot(_neg_inv_apply(a, s), t)


def curve_multiplicity_sequence(s_c, f):
    """(F^{-1})^T S_C: multiplicities of the curve at the blow-up centers."""
    if len(s_c) != f.n:
        raise DimensionMismatch(f"vector length {len(s_c)} vs program {f.n}")
    return f.solve_transpose(s_c)


def vanishing_orders(s_c, a):
    """(M, m): pull-back orders M = -A^{-1}S_C and residues m = F(M - u)."""
    f = a.cholesky
    _check_len(a, s_c, "S_C")
    big_m = _neg_inv_apply(a, s_c)
    small_m = f.apply(exact.vec_sub(big_m, exact.ones(a.n)))
    return big_m, small_m


def discrepancies(s_b, marking, f, ledger):
    """l = (F^{-1})^T S_B - F iota; needs the second-class hypothesis."""
    ledger.require("discrepancies", "second_class")
    if len(s_b) != f.n or marking.n != f.n:
        raise DimensionMismatch("S_B, marking and program sizes disagree")
    lhs = f.solve_transpose(s_b)
    rhs = f.apply(marking.iota)
    return exact.vec_sub(lhs, rhs)


def _mu_form(s, a):
    f = a.cholesky
    u = exact.ones(a.n)
    iu = exact.vec_add(u, f.solve(u))
    value = quadratic_pairing(s, s, a) - exact.dot(s, iu) + 1
    if not isinstance(value, int):
        raise NonIntegerResult(f"milnor formula produced {value}")
    return value


def milnor_foliation(s_b, a, ledger):
    """mu_0 of the foliation from the total vector of a balanced divisor."""
    ledger.require("milnor_foliation", "second_class")
    return _mu_form(s_b, a)


def milnor_curve(s_c, a):
    """mu_0 of a reduced curve germ from its attachment vector."""
    return _mu_form(s_c, a)


def intersection_number(s_f, s_g, a):
    """i_0(f, g) = <-A^{-1} S_f, S_g>; symmetric, positive on germ pairs."""
    return quadratic_pairing(s_f, s_g, a)


def gsv(s_b, s_c, a):
    """GSV_0 of the foliation along the invariant curve C."""
    _check_len(a, s_c, "S_C")
    return quadratic_pairing(exact.vec_sub(s_b, s_c), s_c, a)


def cs_combinatorial(s_c, a):
    """The integer correction term <-A^{-1}S_C, S_C> of the CS index.

    Equals the sum of squared multiplicities of C along the blow-up
    centers, so it is an integer even for polar vectors S_C0 - S_Cinf.
    """
    value = quadratic_pairing(s_c, s_c, a)
    if not isinstance(value, int):
        raise NonIntegerResult(f"CS correction term produced {value}")
    return value


@dataclass(frozen=True)
class SumRuleRecord:
    lhs: int
    rhs: int
    parts: dict = field(compare=False)

    @property
    def ok(self):
        return self.lhs == self.rhs


def gsv_sum_rule_check(s_b, s_c1, s_c2, a):
    """GSV(C1 + C2) = GSV(C1) + GSV(C2) - 2 i_0(C1, C2), exactly."""
    union = exact.vec_add(s_c1, s_c2)
    lhs = gsv(s_b, union, a)
    g1, g2 = gsv(s_b, s_c1, a), gsv(s_b, s_c2, a)
    i12 = intersection_number(s_c1, s_c2, a)
    return SumRuleRecord(lhs, g1 + g2 - 2 * i12,
                         {"gsv_union": lhs, "gsv_1": g1, "gsv_2": g2, "i0": i12})


def milnor_along(s_b, s_d, a):
    """mu_0 of the foliation along the invariant divisor D.

    D may be an attachment vector or a whole SeparatrixDivisor (its total
    vector is used).  For an effective invariant curve C this equals
    gsv(C) + mu_0(C); summing a_C * milnor_along(C) - a_C over the terms
    of a balanced divisor and adding 1 recovers mu_0 of the foliation.
    """
    f = a.cholesky
    _check_len(a, s_b, "S_B")
    if hasattr(s_d, "terms"):
        from .divisors import total_vector
        s_d = total_vector(s_d, a.n)
    _check_len(a, s_d, "S_D")
    u = exact.ones(a.n)
    iu = exact.vec_add(u, f.solve(u))
    vec = exact.vec_sub(_neg_inv_apply(a, s_b), iu)
    return exact.dot(vec, s_d) + 1


# ---------------------------------------------------------------------------
# index totals with local reduced data

def _validate_attachments(s_c, marking, reduced, operation):
    """Every invariant-component attachment needs exactly its reduced points."""
    for i in marking.invariant():
        signed = sum(r.coefficient for r in reduced
                     if r.component == i and r.corner is None)
        if signed != s_c[i - 1]:
            raise MissingReducedData(
                f"{operation}: component E{i} carries attachment total "
                f"{s_c[i - 1]} but reduced records sum to {signed}")
    for r in reduced:
        if r.component is not None and marking.iota[r.component - 1] == 0:
            raise InputError(f"{operation}: record on E{r.component} attaches to a "
                             "dicritical component; reduced points live on "
                             "invariant ones")


def cs_total(s_c, a, reduced, marking):
    """CS_0 along C: local CS values plus the self-pairing of S_C.

    C may be a difference of effective parts (polar situation); records for
    both parts enter the local sum positively, the sign lives in S_C.
    """
    marking.validate_against(a)
    _check_len(a, s_c, "S_C")
    _validate_attachments(s_c, marking, reduced, "cs_total")
    local = 0
    for r in reduced:
        if r.corner is None:
            if r.cs is None:
                raise MissingReducedData(f"point {r._where()} lacks a CS value")
            local = local + r.cs
    return local + quadratic_pairing(s_c, s_c, a)


def var_total(s_b, s_c, a, reduced, marking, ledger=None):
    """Var_0 along C: signed local Var values plus <-A^{-1}S_B - iota, S_C>."""
    marking.validate_against(a)
    _check_len(a, s_b, "S_B")
    _check_len(a, s_c, "S_C")
    _validate_attachments(s_c, marking, reduced, "var_total")
    local = 0
    for r in reduced:
        if r.corner is None:
            local = local + r.coefficient * r.var_value(ledger)
    vec = exact.vec_sub(_neg_inv_apply(a, s_b), marking.iota)
    return local + exact.dot(vec, s_c)


def bb_total(s_b, a, reduced, marking):
    """Baum-Bott residue from local values and the marking.

    The local sum runs over every singular point of the resolved foliation:
    corners of two invariant components and attachment points of the
    isolated branches.  Validation insists on exactly that set.
    """
    marking.validate_against(a)
    _check_len(a, s_b, "S_B")
    iota = marking.iota
    expected_corners = {(i, j) for i, j in a.meets if iota[i - 1] and iota[j - 1]}
    seen_corners = {tuple(sorted(r.corner)) for r in reduced if r.corner is not None}
    if seen_corners != expected_corners:
        missing = expected_corners - seen_corners
        extra = seen_corners - expected_corners
        raise MissingReducedData(f"bb_total: corner records mismatch "
                                 f"(missing {sorted(missing)}, extra {sorted(extra)})")
    for r in reduced:
        if r.component is not None and iota[r.component - 1] == 0:
            raise InputError(f"bb_total: record on dicritical E{r.component}; "
                             "leaves cross dicritical components at regular points")
    for i in marking.invariant():
        count = sum(1 for r in reduced if r.component == i)
        if count != s_b[i - 1]:
            raise MissingReducedData(f"bb_total: E{i} needs {s_b[i - 1]} attachment "
                                     f"records, got {count}")
    local = 0
    for r in reduced:
        local = local + r.bb_value()
    quad = quadratic_pairing(s_b, s_b, a)
    f_iota = a.cholesky.apply(iota)
    return local + quad - 2 * exact.dot(s_b, iota) + exact.dot(f_iota, f_iota)


# ---------------------------------------------------------------------------
# Milnor number decomposition

@dataclass(frozen=True)
class MilnorDecomposition:
    singularity_count: int
    discrepancy_term: int
    discrepancies: tuple

    @property
    def total(self):
        return self.singularity_count + self.discrepancy_term


def milnor_decomposition(s_b, marking, a, ledger):
    """Split mu_0 into reduced-singularity count plus discrepancy excess.

    The count is <S_I, u> + (n - 1) - (sum of valences of dicritical
    components); the excess is <l, l> - <l, u> - n for the discrepancy
    vector l.  Their sum must equal milnor_foliation on the same data.
    """
    f = a.cholesky
    marking.validate_against(a)
    ell = discrepancies(s_b, marking, f, ledger)
    n = a.n
    n_ell = exact.dot(ell, ell) - sum(ell) - n
    s_inv = tuple(s * i for s, i in zip(s_b, marking.iota))
    dic_val = sum(valence(a, i) for i in marking.dicritical())
    count = sum(s_inv) + (n - 1) - dic_val
    return MilnorDecomposition(count, n_ell, ell)
