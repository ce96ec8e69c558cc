import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from folindex.blowup import BlowUpProgram, build_cholesky, build_intersection
from folindex.divisors import (BranchAttachment, InvariantMarking,
                               SeparatrixDivisor, _compositions,
                               bal_pairing_check, enumerate_balanced,
                               is_balanced, require_balanced, total_vector)
from folindex.errors import InputError, NotBalanced
from folindex.verify import random_program_lists, random_marking_iota


@pytest.fixture
def tower():
    p = BlowUpProgram.from_lists([[], [1], [1, 2]])
    f = build_cholesky(p)
    return f, build_intersection(f)


H = BranchAttachment("h", (0, 0, 1))
F_ = BranchAttachment("f", (1, 1, 0))
G = BranchAttachment("g", (1, 1, 0))
PHI = BranchAttachment("phi", (1, 1, 0))
MARK = InvariantMarking((0, 0, 1))


def test_marking_validation(tower):
    _, a = tower
    MARK.validate_against(a)
    with pytest.raises(InputError):
        # E1 and E3 meet, so they cannot both be dicritical
        InvariantMarking((0, 1, 0)).validate_against(a)
    with pytest.raises(InputError):
        InvariantMarking((0, 2, 1))


def test_marking_parts():
    assert MARK.dicritical() == (1, 2)
    assert MARK.invariant() == (3,)
    assert MARK.delta() == (1, 1, 0)


def test_attachment_classification():
    assert H.is_isolated(MARK)
    assert PHI.is_dicritical(MARK)
    with pytest.raises(InputError):
        BranchAttachment("bad", (0, -1, 1))
    with pytest.raises(InputError):
        BranchAttachment("zero", (0, 0, 0))


def test_total_vector_and_addition():
    d = SeparatrixDivisor(((H, 1), (F_, 1), (G, 1), (PHI, -1)))
    assert total_vector(d) == (1, 1, 1)
    e = d + SeparatrixDivisor(((BranchAttachment("phi", (1, 1, 0)), 1),))
    assert total_vector(e, 3) == (2, 2, 1)
    assert e.coefficient("phi") == 0
    assert total_vector(SeparatrixDivisor(()), 3) == (0, 0, 0)


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        SeparatrixDivisor(((H, 1), (BranchAttachment("h", (0, 1, 0)), 1)))


def test_balanced_fiber_divisor(tower):
    _, a = tower
    d = SeparatrixDivisor(((H, 1), (F_, 1), (G, 1), (PHI, -1)))
    report = is_balanced(d, MARK, a)
    assert report.ok and bool(report)
    require_balanced(d, MARK, a)


def test_unbalanced_divisor_reported(tower):
    _, a = tower
    d = SeparatrixDivisor(((H, 1), (F_, 1), (G, 1)))
    report = is_balanced(d, MARK, a)
    assert not report.ok
    kinds = {c for c, _, _ in report.failures}
    assert kinds == {"dicritical-total"}
    with pytest.raises(NotBalanced):
        require_balanced(d, MARK, a)


def test_isolated_branch_needs_plus_one(tower):
    _, a = tower
    d = SeparatrixDivisor(((H, -1), (F_, 1), (G, 1), (PHI, -1)))
    kinds = {c for c, _, _ in is_balanced(d, MARK, a).failures}
    assert "isolated-coefficient" in kinds
    assert "negative-on-invariant" in kinds


def test_pairing_vanishes_exactly_on_balance(tower):
    f, a = tower
    balanced = SeparatrixDivisor(((H, 1), (F_, 1), (G, 1), (PHI, -1)))
    assert bal_pairing_check(balanced, MARK, a, f) == 0
    lopsided = SeparatrixDivisor(((H, 1), (F_, 1), (G, 1)))
    assert bal_pairing_check(lopsided, MARK, a, f) == 2


def test_enumerate_balanced_smallest_first(tower):
    _, a = tower
    divisors = list(itertools.islice(enumerate_balanced(MARK, a, (H,)), 5))
    assert divisors
    first = divisors[0]
    assert total_vector(first, 3) == (1, 1, 1)
    assert len(first.terms) == 3  # h plus one transverse branch on E1, E2
    for d in divisors:
        assert is_balanced(d, MARK, a).ok
        assert total_vector(d, 3) == (1, 1, 1)


def test_enumerate_respects_bounds(tower):
    _, a = tower
    got = list(enumerate_balanced(MARK, a, (H,), max_divisors=7))
    assert len(got) == 7
    small = list(enumerate_balanced(MARK, a, (H,), max_branches=3))
    assert all(len(d.terms) <= 3 for d in small)


def test_enumerate_rejects_dicritical_branch_as_isolated(tower):
    _, a = tower
    with pytest.raises(InputError):
        list(enumerate_balanced(MARK, a, (PHI,)))


def test_all_invariant_marking_balances_trivially(tower):
    _, a = tower
    mark = InvariantMarking((1, 1, 1))
    d = SeparatrixDivisor(((BranchAttachment("cusp", (0, 0, 1)), 1),))
    assert is_balanced(d, mark, a).ok
    divisors = list(enumerate_balanced(
        mark, a, (BranchAttachment("cusp", (0, 0, 1)),)))
    assert len(divisors) == 1  # nothing dicritical to adjust


def _recursive_compositions(total, parts):
    # the recursive walk that _compositions replaced, kept as the reference
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


@given(st.integers(0, 6), st.integers(0, 5))
def test_compositions_keep_the_recursive_order(total, parts):
    assert list(_compositions(total, parts)) == \
        list(_recursive_compositions(total, parts))


def test_long_chain_yields_its_first_divisor():
    # 3000 components in a chain, every other one dicritical: one
    # composition part per dicritical component, far past the recursion limit
    n = 3000
    program = BlowUpProgram.from_lists([[]] + [[k] for k in range(1, n)])
    a = build_intersection(build_cholesky(program))
    mark = InvariantMarking(tuple(k % 2 for k in range(n)))
    first = next(enumerate_balanced(mark, a, (), max_branches=10**6))
    assert is_balanced(first, mark, a).ok


def test_over_budget_marking_returns_before_the_walk():
    # a random n = 10^4 program and marking with 2907 dicritical components:
    # the targets alone need 1929 branches, past the default budget of 100
    n = 10**4
    rng = random.Random(0)
    lists = random_program_lists(rng, 2 * n)
    while len(lists) < n:
        lists = random_program_lists(rng, 2 * n)
    a = build_intersection(build_cholesky(BlowUpProgram.from_lists(lists[:n])))
    start = time.perf_counter()
    mark = InvariantMarking(tuple(random_marking_iota(rng, a)))
    assert len(mark.dicritical()) == 2907
    assert next(enumerate_balanced(mark, a, ()), None) is None
    assert time.perf_counter() - start < 1.0
