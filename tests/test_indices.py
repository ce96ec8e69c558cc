from fractions import Fraction

import pytest

from folindex.blowup import (BlowUpProgram, CholeskyMatrix, build_cholesky,
                             build_intersection)
from folindex.divisors import InvariantMarking
from folindex.errors import (DimensionMismatch, HypothesisMissing, InputError,
                             MissingReducedData, NonIntegerResult)
from folindex.indices import (HypothesisLedger, ReducedSingularity, bb_total,
                              cs_combinatorial, cs_total,
                              curve_multiplicity_sequence, discrepancies, gsv,
                              gsv_sum_rule_check, intersection_number,
                              milnor_along, milnor_curve,
                              milnor_decomposition, milnor_foliation,
                              quadratic_pairing, var_total, vanishing_orders)


@pytest.fixture
def tower():
    p = BlowUpProgram.from_lists([[], [1], [1, 2]])
    f = build_cholesky(p)
    return f, build_intersection(f)


@pytest.fixture
def radial():
    f = build_cholesky(BlowUpProgram.from_lists([[]]))
    return f, build_intersection(f)


# the pencil generated by f = xy + y^2 + x^3 and g = xy, resolved by the
# three-step tower: generic members attach E1, E2; the special member
# h = y^2 + x^3 attaches E3; E1, E2 are dicritical
S_GEN = (1, 1, 0)
S_H = (0, 0, 1)
S_B = (1, 1, 1)
MARK = InvariantMarking((0, 0, 1))


def ledger():
    return HypothesisLedger(generalized_curve="asserted")


class TestLedger:
    def test_propagation(self):
        led = ledger()
        assert led.status("second_class") == "asserted"
        led2 = HypothesisLedger(second_class="verified")
        assert led2.status("generalized_curve") is None

    def test_consumption_recorded(self):
        led = ledger()
        led.require("op", "second_class")
        assert ("op", "second_class", "asserted") in led.consumed

    def test_missing_and_violated(self):
        led = HypothesisLedger()
        with pytest.raises(HypothesisMissing):
            led.require("op", "second_class")
        led.set("second_class", "violated")
        with pytest.raises(HypothesisMissing):
            led.require("op", "second_class")

    def test_unknown_flag(self):
        with pytest.raises(InputError):
            HypothesisLedger(tame="asserted")


class TestMilnor:
    def test_foliation_from_balanced_total(self, tower):
        _, a = tower
        assert milnor_foliation(S_B, a, ledger()) == 12

    def test_radial(self, radial):
        _, a = radial
        assert milnor_foliation((2,), a, ledger()) == 1

    def test_curve_values(self, tower):
        _, a = tower
        assert milnor_curve(S_H, a) == 2       # cusp y^2 + x^3
        assert milnor_curve(S_GEN, a) == 1     # node xy
        assert milnor_curve((0, 1, 0), a) == 0 # smooth branch y = 0

    def test_product_rule(self, tower):
        # mu(fg) = mu(f) + mu(g) + 2 i0(f,g) - 1
        _, a = tower
        s_fg = (2, 2, 0)
        assert milnor_curve(s_fg, a) == 11
        assert 11 == 1 + 1 + 2 * 5 - 1

    def test_hypothesis_required(self, tower):
        _, a = tower
        with pytest.raises(HypothesisMissing):
            milnor_foliation(S_B, a, HypothesisLedger())


class TestPairings:
    def test_intersection_numbers(self, tower):
        _, a = tower
        assert intersection_number(S_GEN, S_H, a) == 5
        assert intersection_number(S_H, (0, 1, 0), a) == 3  # cusp vs y = 0
        assert intersection_number(S_GEN, S_GEN, a) == 5

    def test_two_transverse_lines(self, radial):
        _, a = radial
        assert intersection_number((1,), (1,), a) == 1

    def test_symmetry_and_bilinearity(self, tower):
        _, a = tower
        u, v, w = (1, 2, 0), (0, 1, 3), (2, 0, 1)
        assert quadratic_pairing(u, v, a) == quadratic_pairing(v, u, a)
        lhs = quadratic_pairing(u, tuple(2 * b + c for b, c in zip(v, w)), a)
        assert lhs == 2 * quadratic_pairing(u, v, a) + quadratic_pairing(u, w, a)


class TestVectors:
    def test_multiplicity_sequence(self, tower):
        f, _ = tower
        assert curve_multiplicity_sequence(S_H, f) == (2, 1, 1)
        assert curve_multiplicity_sequence(S_GEN, f) == (2, 1, 0)

    def test_vanishing_orders(self, tower):
        _, a = tower
        big, small = vanishing_orders(S_H, a)
        assert big == (2, 3, 6)
        assert small == (1, 1, 2)

    def test_discrepancies(self, tower):
        f, _ = tower
        assert discrepancies(S_B, MARK, f, ledger()) == (4, 2, 0)

    def test_discrepancies_hamiltonian(self, tower):
        # d(y^2 + x^3): every component invariant, B = the cusp itself
        f, _ = tower
        ell = discrepancies(S_H, InvariantMarking((1, 1, 1)), f, ledger())
        assert ell == (1, 1, 2)


class TestGsv:
    def test_fibers(self, tower):
        _, a = tower
        assert gsv(S_B, S_H, a) == 5
        assert gsv(S_B, S_GEN, a) == 5

    def test_hamiltonian_vanishes(self, tower):
        _, a = tower
        assert gsv(S_H, S_H, a) == 0

    def test_sum_rule(self, tower):
        _, a = tower
        rec = gsv_sum_rule_check(S_B, S_H, S_GEN, a)
        assert rec.ok
        assert rec.lhs == 5 + 5 - 2 * 5

    def test_gsv_plus_milnor_is_milnor_along(self, tower):
        _, a = tower
        for s in (S_H, S_GEN, (0, 1, 0)):
            assert gsv(S_B, s, a) + milnor_curve(s, a) == milnor_along(S_B, s, a)


class TestMilnorAlong:
    def test_fiber_values(self, tower):
        _, a = tower
        assert milnor_along(S_B, S_H, a) == 7    # i0 + mu(h) = 5 + 2
        assert milnor_along(S_B, S_GEN, a) == 6  # i0 + mu_gen = 5 + 1

    def test_along_whole_divisor(self, tower):
        _, a = tower
        assert milnor_along(S_B, S_B, a) == 12

    def test_empty_divisor_base_point(self, tower):
        _, a = tower
        assert milnor_along(S_B, (0, 0, 0), a) == 1


class TestDecomposition:
    def test_pencil_foliation(self, tower):
        _, a = tower
        dec = milnor_decomposition(S_B, MARK, a, ledger())
        assert dec.discrepancies == (4, 2, 0)
        assert dec.discrepancy_term == 11
        assert dec.singularity_count == 1
        assert dec.total == 12

    def test_hamiltonian_cusp(self, tower):
        _, a = tower
        dec = milnor_decomposition(S_H, InvariantMarking((1, 1, 1)), a, ledger())
        assert dec.discrepancies == (1, 1, 2)
        assert dec.discrepancy_term == -1
        assert dec.singularity_count == 3
        assert dec.total == 2 == milnor_curve(S_H, a)

    def test_radial(self, radial):
        _, a = radial
        dec = milnor_decomposition((2,), InvariantMarking((0,)), a, ledger())
        assert dec.discrepancy_term == 1
        assert dec.singularity_count == 0
        assert dec.total == 1


NODE_CUSP_POINT = ReducedSingularity(component=3, branch="h", cs=-1, eigenratio=-1)


class TestCsVarBb:
    def test_cs_combinatorial(self, tower, radial):
        _, a = tower
        assert cs_combinatorial(S_H, a) == 6    # squared multiplicities 4+1+1
        assert cs_combinatorial((-1, -1, 1), a) == 1  # polar h - g
        _, a1 = radial
        assert cs_combinatorial((1,), a1) == 1

    def test_cs_total_fiber(self, tower):
        _, a = tower
        assert cs_total(S_H, a, [NODE_CUSP_POINT], MARK) == 5

    def test_cs_total_dicritical_only(self, tower):
        # branches through dicritical components carry no reduced points
        _, a = tower
        assert cs_total(S_GEN, a, [], MARK) == 5

    def test_var_total_fiber(self, tower):
        _, a = tower
        led = ledger()
        assert var_total(S_B, S_H, a, [NODE_CUSP_POINT], MARK, led) == 10
        assert ("var_total", "generalized_curve", "asserted") in led.consumed
        # Var = CS + GSV
        assert 10 == cs_total(S_H, a, [NODE_CUSP_POINT], MARK) + gsv(S_B, S_H, a)

    def test_totals_on_balanced_divisor_agree_with_bb(self, tower):
        _, a = tower
        assert cs_total(S_B, a, [NODE_CUSP_POINT], MARK) == 20
        assert var_total(S_B, S_B, a, [NODE_CUSP_POINT], MARK, ledger()) == 20
        assert bb_total(S_B, a, [NODE_CUSP_POINT], MARK) == 20

    def test_bb_eigenratio_synthesis(self, tower):
        _, a = tower
        assert NODE_CUSP_POINT.bb_value() == 0  # -1 + 1/(-1) + 2

    def test_hamiltonian_cusp_suite(self, tower):
        _, a = tower
        mark = InvariantMarking((1, 1, 1))
        recs = [
            ReducedSingularity(corner=(1, 3), eigenratio=Fraction(-1, 3)),
            ReducedSingularity(corner=(2, 3), eigenratio=Fraction(-1, 2)),
            ReducedSingularity(component=3, branch="cusp", eigenratio=-6, cs=-6),
        ]
        assert recs[0].bb_value() == Fraction(-4, 3)
        assert recs[1].bb_value() == Fraction(-1, 2)
        assert recs[2].bb_value() == Fraction(-25, 6)
        assert bb_total(S_H, a, recs, mark) == 0
        assert cs_total(S_H, a, recs, mark) == 0
        assert var_total(S_H, S_H, a, recs, mark, ledger()) == 0

    def test_missing_reduced_data(self, tower):
        _, a = tower
        with pytest.raises(MissingReducedData):
            cs_total(S_H, a, [], MARK)
        with pytest.raises(MissingReducedData):
            bb_total(S_B, a, [], MARK)
        nameless = ReducedSingularity(component=3, branch="h", eigenratio=-1)
        with pytest.raises(MissingReducedData):
            cs_total(S_H, a, [nameless], MARK)

    def test_record_validation(self):
        with pytest.raises(InputError):
            ReducedSingularity(component=1, corner=(1, 2))
        with pytest.raises(InputError):
            ReducedSingularity()
        with pytest.raises(InputError):
            ReducedSingularity(component=1, coefficient=2)

    def test_records_on_dicritical_rejected(self, tower):
        _, a = tower
        stray = ReducedSingularity(component=1, cs=-1)
        with pytest.raises(InputError):
            cs_total((1, 0, 0), a, [stray], MARK)


# every pairing entry point, called with one vector of the wrong length
WRONG_LENGTH = {
    "quadratic_pairing.s": lambda f, a, v: quadratic_pairing(v, S_B, a),
    "quadratic_pairing.t": lambda f, a, v: quadratic_pairing(S_B, v, a),
    "intersection_number.f": lambda f, a, v: intersection_number(v, S_H, a),
    "intersection_number.g": lambda f, a, v: intersection_number(S_H, v, a),
    "curve_multiplicity_sequence":
        lambda f, a, v: curve_multiplicity_sequence(v, f),
    "vanishing_orders": lambda f, a, v: vanishing_orders(v, a),
    "discrepancies": lambda f, a, v: discrepancies(v, MARK, f, ledger()),
    "milnor_curve": lambda f, a, v: milnor_curve(v, a),
    "milnor_along.b": lambda f, a, v: milnor_along(v, S_H, a),
    "milnor_along.d": lambda f, a, v: milnor_along(S_B, v, a),
    "gsv.b": lambda f, a, v: gsv(v, S_H, a),
    "gsv.c": lambda f, a, v: gsv(S_B, v, a),
    "solve": lambda f, a, v: f.solve(v),
    "solve_transpose": lambda f, a, v: f.solve_transpose(v),
}


@pytest.mark.parametrize("vector", [(1, 1), (1, 1, 1, 1)],
                         ids=["short", "long"])
@pytest.mark.parametrize("name", sorted(WRONG_LENGTH))
def test_wrong_length_raises(tower, name, vector):
    f, a = tower
    with pytest.raises(DimensionMismatch):
        WRONG_LENGTH[name](f, a, vector)


def test_non_integer_result_guard(radial, monkeypatch):
    # a real factor never leaves the integers; a patched solve does
    _, a = radial
    monkeypatch.setattr(CholeskyMatrix, "solve",
                        lambda self, v: tuple(Fraction(e, 2) for e in v))
    with pytest.raises(NonIntegerResult):
        cs_combinatorial((1,), a)
