"""Invariant markings, branch attachments, and balanced separatrix divisors.

A marking iota assigns 1 to exceptional components invariant under the
foliation and 0 to dicritical ones; no two dicritical components may meet.
A branch attachment records how the strict transform of one separatrix
branch meets the exceptional components (the vector S with S_i = B.E_i).
A separatrix divisor is a finite integer combination of branches; it is
balanced when

  (a) every isolated branch appears with coefficient +1,
  (b) coefficient -1 occurs only on dicritical branches, and
  (c) on each dicritical component E_i the total vector equals 2 - val(E_i).

Balanced divisors exist for every marking, and all of them share the same
total vector, which is what the invariant formulas consume.
"""

import functools
import itertools
from dataclasses import dataclass

from . import exact
from .blowup import valence
from .errors import DimensionMismatch, InputError, NotBalanced


@dataclass(frozen=True)
class InvariantMarking:
    """iota in {0,1}^n, validated against the intersection matrix."""

    iota: tuple

    def __post_init__(self):
        object.__setattr__(self, "iota", tuple(self.iota))
        if any(e not in (0, 1) for e in self.iota):
            raise InputError("marking entries must be 0 (dicritical) or 1 (invariant)")

    @property
    def n(self):
        return len(self.iota)

    def delta(self):
        """delta = u - iota: the indicator of the dicritical components."""
        return tuple(1 - e for e in self.iota)

    def dicritical(self):
        return tuple(i + 1 for i, e in enumerate(self.iota) if e == 0)

    def invariant(self):
        return tuple(i + 1 for i, e in enumerate(self.iota) if e == 1)

    def validate_against(self, a):
        if a.n != self.n:
            raise DimensionMismatch(f"marking length {self.n} vs matrix size {a.n}")
        iota = self.iota
        bad = [(i, j) for i, j in a.meets if not iota[i - 1] and not iota[j - 1]]
        if bad:
            i, j = min(bad)
            raise InputError(f"dicritical components {i} and {j} meet; "
                             "a reduced foliation does not allow that")
        return self


@dataclass(frozen=True)
class BranchAttachment:
    """One separatrix branch and its intersection counts with the components."""

    name: str
    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(self.s))
        if any(e < 0 for e in self.s) or not any(self.s):
            raise InputError(f"branch {self.name!r}: S must be nonnegative and nonzero")

    def is_dicritical(self, marking):
        """True iff the branch meets only dicritical components."""
        return all(marking.iota[i] == 0 for i, e in enumerate(self.s) if e)

    def is_isolated(self, marking):
        return not self.is_dicritical(marking)


@dataclass(frozen=True)
class SeparatrixDivisor:
    """Integer combination of branches: terms is a tuple of (branch, coefficient)."""

    terms: tuple

    def __post_init__(self):
        names = [b.name for b, _ in self.terms]
        if len(set(names)) != len(names):
            raise InputError("duplicate branch names in divisor")

    @property
    def branches(self):
        return tuple(b for b, _ in self.terms)

    def coefficient(self, name):
        for b, a in self.terms:
            if b.name == name:
                return a
        return 0

    def __add__(self, other):
        merged = {}
        for b, a in self.terms + other.terms:
            if b.name in merged:
                prev, pa = merged[b.name]
                if prev.s != b.s:
                    raise InputError(f"branch {b.name!r} has two different S vectors")
                merged[b.name] = (b, pa + a)
            else:
                merged[b.name] = (b, a)
        return SeparatrixDivisor(tuple((b, a) for b, a in merged.values() if a != 0))


def total_vector(divisor, n=None):
    """Sum of coefficient * S over the branches; the vector the formulas use."""
    if not divisor.terms:
        if n is None:
            raise InputError("empty divisor needs an explicit length")
        return (0,) * n
    sizes = {len(b.s) for b, _ in divisor.terms}
    if len(sizes) != 1 or (n is not None and sizes != {n}):
        raise DimensionMismatch(f"branch vector lengths disagree: {sorted(sizes)}")
    total = [0] * sizes.pop()
    for b, a in divisor.terms:
        for j, e in enumerate(b.s):
            total[j] += a * e
    return tuple(total)


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def is_balanced(divisor, marking, a):
    """Check the three balanced conditions; returns a per-component report."""
    marking.validate_against(a)
    failures = []
    for b, coeff in divisor.terms:
        if b.is_isolated(marking) and coeff != 1:
            failures.append(("isolated-coefficient", b.name,
                             f"isolated branch has coefficient {coeff}, needs +1"))
        if coeff == -1 and not b.is_dicritical(marking):
            failures.append(("negative-on-invariant", b.name,
                             "coefficient -1 is only allowed on dicritical branches"))
        if coeff not in (-1, 0, 1):
            failures.append(("coefficient-range", b.name,
                             f"coefficient {coeff} outside {{-1, 0, 1}}"))
    total = total_vector(divisor, marking.n)
    for i in marking.dicritical():
        want = 2 - valence(a, i)
        if total[i - 1] != want:
            failures.append(("dicritical-total", f"E{i}",
                             f"total is {total[i - 1]}, balance needs {want}"))
    return BalanceReport(not failures, tuple(failures))


def require_balanced(divisor, marking, a):
    report = is_balanced(divisor, marking, a)
    if not report.ok:
        raise NotBalanced("; ".join(f"{c} [{s}]: {d}" for c, s, d in report.failures))
    return report


def bal_pairing_check(divisor, marking, a, f):
    """The pairing <delta, S + (A - F^T) u>; identically 0 on balanced divisors."""
    u = exact.ones(marking.n)
    s = total_vector(divisor, marking.n)
    au = exact.matvec(a.rows, u)
    ftu = exact.matvec(f.transpose(), u)
    vec = exact.vec_add(s, exact.vec_sub(au, ftu))
    return exact.dot(marking.delta(), vec)


def enumerate_balanced(marking, a, isolated_branches=(), max_branches=100,
                       max_divisors=100):
    """Yield balanced divisors for a marking, smallest branch counts first.

    The isolated part is fixed input (coefficient +1 each).  On each
    dicritical component the target total 2 - val is met by p transverse
    branches with +1 and q with -1, p - q = target; enumeration walks the
    extra pair count q upward, so divisors come out deterministically.
    """
    marking.validate_against(a)
    fixed = tuple((b, 1) for b in isolated_branches)
    for b in isolated_branches:
        if not b.is_isolated(marking):
            raise InputError(f"branch {b.name!r} is attached only to dicritical "
                             "components; it cannot be isolated")
    dic = marking.dicritical()
    targets = {i: 2 - valence(a, i) for i in dic}
    base = sum(abs(t) for t in targets.values()) + len(fixed)
    if base > max_branches:
        return      # the smallest divisor already needs more branches

    @functools.cache    # one vector per dicritical component, not per branch
    def unit(i):
        return tuple(1 if j == i - 1 else 0 for j in range(marking.n))

    emitted = 0
    for extra in itertools.count(0):
        if emitted >= max_divisors:
            return
        budget = max_branches - base
        if extra > 0 and 2 * extra > max(budget, 0):
            return
        # distribute `extra` additional (+1, -1) pairs over the dicritical set
        for combo in _compositions(extra, len(dic)):
            terms = list(fixed)
            count = len(fixed)
            for i, extra_i in zip(dic, combo):
                t = targets[i]
                pos = max(t, 0) + extra_i
                neg = max(-t, 0) + extra_i
                count += pos + neg
                for k in range(pos):
                    terms.append((BranchAttachment(f"E{i}.plus{k+1}", unit(i)), 1))
                for k in range(neg):
                    terms.append((BranchAttachment(f"E{i}.minus{k+1}", unit(i)), -1))
            if count > max_branches:
                continue
            d = SeparatrixDivisor(tuple(terms))
            if is_balanced(d, marking, a).ok:
                yield d
                emitted += 1
                if emitted >= max_divisors:
                    return
        if not dic:
            return


def _compositions(total, parts):
    """The ways to write total as an ordered sum of `parts` nonnegative
    integers, in lexicographic order: stars and bars, where the chosen bar
    positions among total + parts - 1 slots cut the stars into parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        cuts = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))
