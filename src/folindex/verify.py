"""Randomized verification of the combinatorial identities.

`verify_battery` builds random blow-up programs, markings and balanced
divisors from one seed, then asserts every structural identity the
calculus rests on.  A failure raises PropertyViolation carrying a
minimized reproduction scene: the battery re-runs the broken check on
smaller and smaller truncations of the offending data and reports the
smallest one that still fails, as a combinatorial scene document.

Each check is a pure predicate of the parts built once from a
scene-shaped dict, so the document in the exception is exactly what a
re-run needs.  The balanced divisors and their total vectors are derived
once per program, on first use, and the checks that need them share them.
"""

import functools
import itertools
import random

from . import exact
from .blowup import (BlowUpProgram, build_cholesky, build_intersection,
                     intersection_by_steps, proximity_check)
from .divisors import (BranchAttachment, InvariantMarking,
                       bal_pairing_check, enumerate_balanced, total_vector)
from .errors import FolindexError, InputError, PropertyViolation
from .indices import (HypothesisLedger, gsv, gsv_sum_rule_check,
                      milnor_along, milnor_curve, milnor_decomposition,
                      milnor_foliation, quadratic_pairing)

PROBES = ("probe.1", "probe.2")


# -- random data ------------------------------------------------------------

def random_program_lists(rng, max_n=12):
    """Center lists of a random valid program: corners stay adjacent pairs."""
    n = rng.randint(1, max_n)
    centers = [[]]
    adjacency = {1: set()}
    for k in range(2, n + 1):
        i = rng.randint(1, k - 1)
        neighbors = sorted(adjacency[i])
        if neighbors and rng.random() < 0.45:
            j = rng.choice(neighbors)
            center = sorted((i, j))
            adjacency[i].discard(j)
            adjacency[j].discard(i)
            adjacency[k] = {i, j}
        else:
            center = [i]
            adjacency[k] = {i}
        for m in adjacency[k]:
            adjacency[m].add(k)
        centers.append(center)
    return centers


def random_marking_iota(rng, a):
    """Random 0/1 marking with no two adjacent dicritical components."""
    n = a.n
    neighbors = [[] for _ in range(n)]
    for i, j in a.meets:
        neighbors[i - 1].append(j - 1)
        neighbors[j - 1].append(i - 1)
    iota = [1] * n
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        if all(iota[j] == 1 for j in neighbors[i]) and rng.random() < 0.4:
            iota[i] = 0
    return iota


def _random_vector(rng, n, invariant_only, iota):
    where = [i for i in range(n) if iota[i]] if invariant_only \
        else list(range(n))
    if not where:
        return None
    s = [0] * n
    for _ in range(rng.randint(1, 2)):
        s[rng.choice(where)] += rng.randint(1, 3)
    return s


def random_scene_doc(rng, max_n=12):
    """Scene-shaped dict with program, marking, isolated and probe branches."""
    lists = random_program_lists(rng, max_n)
    program = BlowUpProgram.from_lists(lists)
    a = build_intersection(build_cholesky(program))
    iota = random_marking_iota(rng, a)
    branches = []
    for k in range(rng.randint(0, 2)):
        s = _random_vector(rng, a.n, True, iota)
        if s is not None:
            branches.append({"name": f"c{k + 1}", "s": s})
    for name in PROBES:
        s = _random_vector(rng, a.n, False, iota)
        branches.append({"name": name, "s": s})
    return {"kind": "combinatorial", "blowups": lists, "invariant": iota,
            "branches": branches}


# -- evaluation of one check over a scene document ---------------------------

class _Parts:
    """What one scene document builds: program, Cholesky factor F,
    intersection matrix A, marking, isolated and probe branches."""

    def __init__(self, doc):
        self.program = BlowUpProgram.from_lists(doc["blowups"])
        self.f = build_cholesky(self.program)
        self.a = build_intersection(self.f)
        self.marking = InvariantMarking(
            tuple(doc["invariant"])).validate_against(self.a)
        self.isolated, self.probes = [], []
        for entry in doc["branches"]:
            b = BranchAttachment(entry["name"], tuple(entry["s"]))
            (self.probes if entry["name"] in PROBES
             else self.isolated).append(b)

    @functools.cached_property
    def divisors(self):
        """The first four balanced divisors, each with its total vector.

        Derived on first read, so an enumeration error surfaces in the
        first check that needs the divisors."""
        found = itertools.islice(
            enumerate_balanced(self.marking, self.a, tuple(self.isolated)), 4)
        return [(d, total_vector(d, self.a.n)) for d in found]


def _ledger():
    return HypothesisLedger(second_class="asserted",
                            generalized_curve="asserted")


def _holds(parts, check):
    """True iff the named identity holds on a document's built parts.

    The balanced divisors and their total vectors are derived once per
    parts object, on first use, and shared by the checks that read them."""
    program, f, a = parts.program, parts.f, parts.a
    marking, isolated, probes = parts.marking, parts.isolated, parts.probes
    n = a.n
    if check == "steps-factorization":
        return intersection_by_steps(program) == a.rows and \
            exact.mat_neg(exact.matmul(f.transpose(), f.rows)) == a.rows
    if check == "column-sums":
        return proximity_check(f, a)
    if check == "offdiagonal-sum":
        total = sum(a.rows[i][j] for i in range(n) for j in range(i + 1, n))
        return total == n - 1
    if check == "determinant":
        return exact.det(f.rows) == 1
    if check == "positive-inverse":
        return all(e > 0 for row in a.neg_inverse() for e in row)
    if check == "prefix-consistency":
        for k in range(1, n + 1):
            sub = build_cholesky(program.prefix(k))
            if tuple(row[:k] for row in f.rows[:k]) != sub.rows:
                return False
        return True
    if check == "balanced-pairing":
        return all(bal_pairing_check(d, marking, a, f) == 0
                   for d, _ in parts.divisors)
    if check == "balanced-independence":
        mus = {milnor_foliation(s_b, a, _ledger())
               for _, s_b in parts.divisors}
        return len(mus) <= 1
    if check == "decomposition":
        for _, s_b in parts.divisors:
            dec = milnor_decomposition(s_b, marking, a, _ledger())
            if dec.total != milnor_foliation(s_b, a, _ledger()):
                return False
        return True
    if check == "telescoping":
        for d, s_b in parts.divisors:
            mu = milnor_foliation(s_b, a, _ledger())
            tele = sum(c * (milnor_along(s_b, b.s, a) - 1)
                       for b, c in d.terms) + 1
            if tele != mu:
                return False
        return True
    if check == "gsv-along":
        for _, s_b in parts.divisors:
            for b in isolated:
                along = milnor_along(s_b, b.s, a)
                if along != gsv(s_b, b.s, a) + milnor_curve(b.s, a):
                    return False
        return True
    if check == "gsv-sum-rule":
        if len(probes) < 2:
            return True
        s1, s2 = probes[0].s, probes[1].s
        for _, s_b in parts.divisors:
            if not gsv_sum_rule_check(s_b, s1, s2, a).ok:
                return False
        return True
    if check == "quadratic-bilinearity":
        if len(probes) < 2:
            return True
        s1, s2 = probes[0].s, probes[1].s
        both = exact.vec_add(s1, s2)
        return quadratic_pairing(both, both, a) == (
            quadratic_pairing(s1, s1, a) + quadratic_pairing(s2, s2, a)
            + 2 * quadratic_pairing(s1, s2, a))
    raise ValueError(f"unknown check {check!r}")


CHECKS = (
    "steps-factorization", "column-sums", "offdiagonal-sum", "determinant",
    "positive-inverse", "prefix-consistency", "balanced-pairing",
    "balanced-independence", "decomposition", "telescoping", "gsv-along",
    "gsv-sum-rule", "quadratic-bilinearity",
)


def _fails(doc, check):
    try:
        parts = _Parts(doc)
    except FolindexError:
        return False
    try:
        return not _holds(parts, check)
    except InputError:
        return False
    except FolindexError:
        return True


def _truncate(doc, m):
    branches = []
    for entry in doc["branches"]:
        s = list(entry["s"][:m])
        if any(s):
            branches.append({"name": entry["name"], "s": s})
    return {"kind": "combinatorial",
            "blowups": [list(c) for c in doc["blowups"][:m]],
            "invariant": list(doc["invariant"][:m]),
            "branches": branches}


def _shrink(doc, check):
    """Smallest failing truncation of the document, for the exception."""
    best = doc
    for m in range(1, len(doc["blowups"])):
        candidate = _truncate(doc, m)
        if _fails(candidate, check):
            best = candidate
            break
    changed = True
    while changed:
        changed = False
        for k in range(len(best["branches"])):
            candidate = dict(best)
            candidate["branches"] = (best["branches"][:k]
                                     + best["branches"][k + 1:])
            if _fails(candidate, check):
                best = candidate
                changed = True
                break
    return best


def verify_battery(count=200, seed=0, max_n=12):
    """Run every check on `count` random programs; stats on success.

    Raises PropertyViolation on the first broken identity; the exception's
    `scene` attribute holds a minimized reproduction document.  A negative
    count or a largest program size below 1 is an InputError.
    """
    if count < 0:
        raise InputError(f"program count must be nonnegative, got {count}")
    if max_n < 1:
        raise InputError(f"largest program size must be at least 1, got {max_n}")
    rng = random.Random(f"verify-{seed}")
    runs = {check: 0 for check in CHECKS}
    for trial in range(count):
        doc = random_scene_doc(rng, max_n)
        parts = None
        for check in CHECKS:
            ok = False
            try:
                if parts is None:
                    parts = _Parts(doc)
                ok = _holds(parts, check)
            finally:
                if not ok:
                    scene = _shrink(doc, check)
                    scene["name"] = f"violation-{check}-trial{trial}"
                    error = PropertyViolation(
                        f"identity {check!r} failed on trial {trial} "
                        f"(seed {seed}); minimized scene attached")
                    error.scene = scene
                    raise error
            runs[check] += 1
    return {"programs": count, "seed": seed, "max_n": max_n, "checks": runs}
