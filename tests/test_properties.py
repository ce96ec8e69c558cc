"""Property tests: the structural identities on random programs."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from folindex import exact
from folindex.blowup import (BlowUpProgram, build_cholesky,
                             build_intersection, intersection_by_steps,
                             proximity_check, valence)
from folindex.divisors import (BranchAttachment, InvariantMarking,
                               bal_pairing_check, enumerate_balanced,
                               total_vector)
from folindex.indices import (HypothesisLedger, discrepancies, gsv,
                              gsv_sum_rule_check, intersection_number,
                              milnor_along, milnor_curve,
                              milnor_decomposition, milnor_foliation,
                              quadratic_pairing, vanishing_orders)
from folindex.scenes import decode_value, encode_value
from folindex.verify import random_program_lists


@st.composite
def program_lists(draw, max_n=9):
    """Center lists of a valid program; corners only on adjacent pairs."""
    n = draw(st.integers(1, max_n))
    centers = [[]]
    adjacency = {1: set()}
    for k in range(2, n + 1):
        i = draw(st.integers(1, k - 1))
        neighbors = sorted(adjacency[i])
        if neighbors and draw(st.booleans()):
            j = draw(st.sampled_from(neighbors))
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


@st.composite
def matrices(draw, max_n=9):
    program = BlowUpProgram.from_lists(draw(program_lists(max_n)))
    f = build_cholesky(program)
    return program, f, build_intersection(f)


@st.composite
def marked_matrices(draw, max_n=8):
    program, f, a = draw(matrices(max_n))
    iota = [1] * a.n
    for i in draw(st.permutations(range(a.n))):
        clear = all(iota[j] == 1 for j in range(a.n)
                    if j != i and a.rows[i][j] != 0)
        if clear and draw(st.booleans()):
            iota[i] = 0
    return program, f, a, InvariantMarking(tuple(iota))


def vectors(n, lo=0, hi=4):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n)


def ledger():
    return HypothesisLedger(second_class="asserted",
                            generalized_curve="asserted")


class TestFactorization:
    @given(matrices())
    def test_a_is_minus_ft_f(self, data):
        _, f, a = data
        assert exact.mat_neg(exact.matmul(f.transpose(), f.rows)) == a.rows

    @given(matrices())
    def test_steps_agree_with_factorization(self, data):
        program, _, a = data
        assert intersection_by_steps(program) == a.rows

    @given(matrices())
    def test_proximity_identity(self, data):
        _, f, a = data
        assert proximity_check(f, a)

    @given(matrices())
    def test_offdiagonal_sum(self, data):
        _, _, a = data
        n = a.n
        assert sum(a.rows[i][j] for i in range(n)
                   for j in range(i + 1, n)) == n - 1

    @given(matrices())
    def test_unit_determinant(self, data):
        _, f, _ = data
        assert exact.det(f.rows) == 1

    @given(matrices())
    def test_negative_inverse_is_positive(self, data):
        _, _, a = data
        assert all(e > 0 for row in a.neg_inverse() for e in row)

    @given(matrices(max_n=6))
    def test_prefixes_are_nested(self, data):
        program, f, a = data
        lists = program.to_lists()
        for k in range(1, a.n + 1):
            sub = build_cholesky(BlowUpProgram.from_lists(lists[:k]))
            assert tuple(row[:k] for row in f.rows[:k]) == sub.rows


class TestQuadraticForm:
    @given(matrices(), st.data())
    def test_curve_additivity(self, data, payload):
        _, _, a = data
        s1 = payload.draw(vectors(a.n))
        s2 = payload.draw(vectors(a.n))
        mu1, mu2 = milnor_curve(s1, a), milnor_curve(s2, a)
        both = milnor_curve(exact.vec_add(s1, s2), a)
        assert both == mu1 + mu2 + 2 * intersection_number(s1, s2, a) - 1

    @given(matrices(), st.data())
    def test_pairing_is_bilinear(self, data, payload):
        _, _, a = data
        s1 = payload.draw(vectors(a.n))
        s2 = payload.draw(vectors(a.n))
        both = exact.vec_add(s1, s2)
        assert quadratic_pairing(both, both, a) == (
            quadratic_pairing(s1, s1, a) + quadratic_pairing(s2, s2, a)
            + 2 * quadratic_pairing(s1, s2, a))

    @given(matrices(), st.data())
    def test_gsv_sum_rule(self, data, payload):
        _, _, a = data
        s_b = payload.draw(vectors(a.n))
        s1 = payload.draw(vectors(a.n))
        s2 = payload.draw(vectors(a.n))
        assert gsv_sum_rule_check(s_b, s1, s2, a).ok


class TestSubstitution:
    """The O(n) solves against the dense inverses they replace."""

    @given(matrices(), st.data())
    def test_solves_match_dense_inverse(self, data, payload):
        _, f, _ = data
        v = payload.draw(vectors(f.n, -9, 9))
        finv = f.inverse()
        assert f.solve(v) == exact.matvec(finv, v)
        assert f.solve_transpose(v) == exact.matvec(exact.transpose(finv), v)

    @given(matrices(), st.data())
    def test_pairing_matches_dense_neg_inverse(self, data, payload):
        _, _, a = data
        s = payload.draw(vectors(a.n, -9, 9))
        t = payload.draw(vectors(a.n, -9, 9))
        assert quadratic_pairing(s, t, a) == exact.dot(
            exact.matvec(a.neg_inverse(), s), t)

    def test_sixty_blowups(self):
        rng = random.Random("sixty-blowups")
        lists = random_program_lists(rng, 120)
        while len(lists) < 60:
            lists = random_program_lists(rng, 120)
        program = BlowUpProgram.from_lists(lists[:60])
        assert any(len(c) == 2 for c in program.centers)
        f = build_cholesky(program)
        a = build_intersection(f)
        assert a.rows == intersection_by_steps(program)
        assert a.rows == exact.mat_neg(exact.matmul(f.transpose(), f.rows))
        s = tuple(rng.randint(0, 3) for _ in range(60))
        t = tuple(rng.randint(0, 3) for _ in range(60))
        assert quadratic_pairing(s, t, a) == exact.dot(
            exact.matvec(a.neg_inverse(), s), t)


class TestCenterLists:
    """The adjacency and F v that the pairings read, against dense replays."""

    @given(st.integers(0, 2**32), st.data())
    def test_meets_valence_and_apply(self, seed, payload):
        lists = random_program_lists(random.Random(seed), 16)
        program = BlowUpProgram.from_lists(lists)
        f = build_cholesky(program)
        a = build_intersection(f)
        steps = intersection_by_steps(program)
        n = program.n
        assert program.meets == {(i + 1, j + 1) for i in range(n)
                                 for j in range(i + 1, n) if steps[i][j]}
        for i in range(1, n + 1):
            row = steps[i - 1]
            assert valence(a, i) == sum(row) - row[i - 1]
        v = payload.draw(vectors(n, -9, 9))
        assert f.apply(v) == exact.matvec(f.rows, v)

    def test_ten_thousand_blowups_build_no_dense_rows(self):
        rng = random.Random("ten-thousand-blowups")
        n = 10**4
        lists = random_program_lists(rng, 2 * n)
        while len(lists) < n:
            lists = random_program_lists(rng, 2 * n)
        program = BlowUpProgram.from_lists(lists[:n])
        assert sum(len(c) == 2 for c in program.centers) > n // 4
        f = build_cholesky(program)
        a = build_intersection(f)
        # a few pairwise non-adjacent dicritical components
        iota = [1] * n
        for i in rng.sample(range(2, n + 1), 6):
            if all(iota[j - 1] for pair in a.meets if i in pair
                   for j in pair):
                iota[i - 1] = 0
        marking = InvariantMarking(tuple(iota)).validate_against(a)
        assert marking.dicritical()
        s = [0] * n
        for i in rng.sample(marking.invariant(), 3):
            s[i - 1] += 1
        s = tuple(s)
        divisor = next(enumerate_balanced(
            marking, a, (BranchAttachment("c", s),)))
        s_b = total_vector(divisor, n)
        mu = milnor_foliation(s_b, a, ledger())
        assert milnor_decomposition(s_b, marking, a, ledger()).total == mu
        ell = discrepancies(s_b, marking, f, ledger())
        assert len(ell) == n
        big_m, small_m = vanishing_orders(s, a)
        u = exact.ones(n)
        assert f.solve(small_m) == exact.vec_sub(big_m, u)
        assert milnor_curve(exact.vec_add(s, s_b), a) == (
            milnor_curve(s, a) + milnor_curve(s_b, a)
            + 2 * intersection_number(s, s_b, a) - 1)
        assert "rows" not in vars(f) and "rows" not in vars(a)


class TestBalanced:
    @settings(deadline=None)
    @given(marked_matrices())
    def test_pairing_vanishes(self, data):
        _, f, a, marking = data
        for d in itertools.islice(enumerate_balanced(marking, a), 3):
            assert bal_pairing_check(d, marking, a, f) == 0

    @settings(deadline=None)
    @given(marked_matrices())
    def test_foliation_mu_independent_of_choice(self, data):
        _, _, a, marking = data
        mus = {milnor_foliation(total_vector(d, a.n), a, ledger())
               for d in itertools.islice(enumerate_balanced(marking, a), 3)}
        assert len(mus) <= 1

    @settings(deadline=None)
    @given(marked_matrices())
    def test_decomposition_total(self, data):
        _, _, a, marking = data
        for d in itertools.islice(enumerate_balanced(marking, a), 2):
            s_b = total_vector(d, a.n)
            dec = milnor_decomposition(s_b, marking, a, ledger())
            assert dec.total == milnor_foliation(s_b, a, ledger())

    @settings(deadline=None)
    @given(marked_matrices())
    def test_telescoping(self, data):
        _, _, a, marking = data
        for d in itertools.islice(enumerate_balanced(marking, a), 2):
            s_b = total_vector(d, a.n)
            mu = milnor_foliation(s_b, a, ledger())
            assert sum(c * (milnor_along(s_b, b.s, a) - 1)
                       for b, c in d.terms) + 1 == mu


class TestValueCodec:
    @given(st.fractions())
    def test_fraction_round_trip(self, q):
        assert decode_value(encode_value(Fraction(q))) == q

    @given(st.integers())
    def test_integer_round_trip(self, k):
        assert decode_value(encode_value(k)) == k
