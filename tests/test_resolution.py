"""Reduction trees checked against worked examples and the oracle."""

import pytest
import sympy

from folindex.blowup import valence
from folindex.errors import InputError, UnsupportedGerm
from folindex.indices import curve_multiplicity_sequence
from folindex.pencil import (bifurcation_formula_check, fiber_gsv_check,
                             semitame_check)
from folindex.resolve import branch_analysis, derive_resolution


def test_cusp_single_branch():
    r = branch_analysis("y^2 - x^3")
    assert r.program.to_lists() == [[], [1], [1, 2]]
    assert r.s == (0, 0, 1)
    assert r.mu == 2
    (b,) = r.branches
    assert b.multiplicity_sequence == (2, 1, 1)
    assert b.char_exponents == (2, 3)
    assert b.component == 3
    assert b.conjugates == 1
    assert b.tangent == 0
    assert r.pairwise == {}


def test_smooth_axis():
    r = branch_analysis("x")
    assert r.program.to_lists() == [[]]
    assert r.s == (1,)
    assert r.mu == 0
    (b,) = r.branches
    assert b.char_exponents == (1,)


def test_node_two_branches():
    r = branch_analysis("x*y")
    assert r.program.to_lists() == [[]]
    assert r.s == (2,)
    assert r.mu == 1
    assert len(r.branches) == 2
    assert r.pairwise == {(1, 2): 1}


def test_exponents_three_five():
    r = branch_analysis("y^3 - x^5")
    assert r.program.to_lists() == [[], [1], [1, 2], [2, 3]]
    assert r.mu == 8
    (b,) = r.branches
    assert b.multiplicity_sequence == (3, 2, 1, 1)
    assert b.char_exponents == (3, 5)


def test_exponents_two_seven():
    (b,) = branch_analysis("y^2 - x^7").branches
    assert b.char_exponents == (2, 7)
    assert b.multiplicity_sequence == (2, 2, 2, 1, 1)


def test_two_characteristic_pairs():
    # (y^2 - x^3)^2 - x^5 y has exponents (4; 6, 7)
    (b,) = branch_analysis("(y^2 - x^3)^2 - x^5*y").branches
    assert b.char_exponents == (4, 6, 7)
    assert b.multiplicity_sequence[0] == 4


def test_conjugate_triple():
    r = branch_analysis("y*(y^2 - 3*x^2)")
    assert r.program.to_lists() == [[]]
    assert r.mu == 4
    sizes = sorted(b.conjugates for b in r.branches)
    assert sizes == [1, 2, 2]
    # one rational branch against a conjugate pair, plus the pair itself
    assert r.pairwise == {(1, 2): 2, (2, 2): 1}


def test_tower_over_gaussian_field():
    # two conjugate cusps with tangents y = +-i x: one orbit over Q(i)
    r = derive_resolution("(y^2 + x^2)^2 - x^5")
    assert r.milnor == {"c1": 11}
    assert r.program.to_lists() == [[], [1], [1], [1, 2], [1, 3]]
    assert r.s_vectors == {"c1": (0, 0, 0, 1, 1)}
    i_tangent = sympy.CRootOf(sympy.Symbol("_alpha") ** 2 + 1, 0)
    assert [(b.component, b.conjugates, b.orbit, b.tangent,
             b.multiplicity_sequence, b.char_exponents)
            for b in r.branches["c1"]] == [
        (4, 2, 1, i_tangent, (2, 1, 1), (2, 3)),
        (5, 2, 1, i_tangent, (2, 1, 1), (2, 3))]
    assert branch_analysis("(y^2 + x^2)^2 - x^5").pairwise == {(1, 1): 4}


def test_tangent_smooth_pair():
    r = derive_resolution({"f": "y", "g": "y - x^2"})
    assert r.program.to_lists() == [[], [1]]
    assert r.s_vectors["f"] == (0, 1)
    assert r.s_vectors["g"] == (0, 1)
    assert r.pairwise["f", "g"] == 2


def test_multiplicity_sequence_agrees_with_branches():
    r = branch_analysis("y^3 - x^5")
    seq = curve_multiplicity_sequence(r.s, r.a.cholesky)
    assert seq == (3, 2, 1, 1)


def test_non_reduced_is_rejected():
    with pytest.raises(UnsupportedGerm):
        branch_analysis("x^2")


def test_shared_branch_is_rejected():
    with pytest.raises(UnsupportedGerm):
        derive_resolution({"f": "x*y", "g": "x*(y - x)"})


def test_non_vanishing_is_rejected():
    with pytest.raises(InputError):
        branch_analysis("1 + x")


def test_pencil_node_cusp():
    r = derive_resolution({"f": "x*y + y^2 + x^3", "g": "x*y"},
                          mode="pencil")
    assert r.program.to_lists() == [[], [1], [1, 2]]
    assert r.marking.iota == (0, 0, 1)
    assert r.s_vectors["f"] == (1, 1, 0)
    assert r.s_vectors["g"] == (1, 1, 0)
    assert r.s_vectors["t=-1"] == (0, 0, 1)
    assert r.milnor == {"f": 1, "g": 1, "t=-1": 2}
    assert r.mu_pair == 12
    assert r.pencil.mu_generic == 1
    assert r.pencil.i0 == 5
    assert bifurcation_formula_check(r.pencil).equal
    (b,) = r.branches["t=-1"]
    assert b.char_exponents == (2, 3)


def test_pencil_three_special_members():
    f = "x^3 + y^5 + y^3 - 3*x^2*y"
    g = "y^3 - 3*x^2*y"
    r = derive_resolution({"f": f, "g": g}, mode="pencil")
    assert r.program.to_lists() == [[], [1], [1], [1], [1, 2], [2, 5]]
    assert r.marking.iota == (0, 1, 1, 1, 1, 1)
    assert valence(r.a, 1) == 3
    assert r.s_vectors["f"] == (3, 0, 0, 0, 0, 0)
    assert r.s_vectors["g"] == (3, 0, 0, 0, 0, 0)
    assert r.s_vectors["t=-1"] == (0, 0, 0, 0, 0, 1)
    assert r.s_vectors["t=-1/2"] == (1, 0, 0, 2, 0, 0)
    assert r.s_vectors["t=-3/2"] == (1, 0, 2, 0, 0, 0)
    assert r.milnor["t=-1"] == 8
    assert r.milnor["t=-1/2"] == 6
    assert r.milnor["t=-3/2"] == 6
    assert r.pencil.mu_generic == 4
    assert r.pencil.i0 == 9
    assert r.mu_pair == 33
    assert bifurcation_formula_check(r.pencil).equal
    assert fiber_gsv_check(r.pencil).ok
    (b,) = r.branches["t=-1"]
    assert b.char_exponents == (3, 5)
    assert b.multiplicity_sequence == (3, 2, 1, 1)


def test_pencil_special_generator_is_substituted():
    # f itself is the cuspidal member, so the first detector member t = 1
    # stands in for it and f appears as the special fiber at t = 0
    r = derive_resolution({"f": "y^2 - x^3", "g": "x*y"}, mode="pencil")
    assert "t=0" in r.s_vectors
    assert r.generators == ("t=1", "g")
    assert r.milnor["t=0"] == 2
    assert bifurcation_formula_check(r.pencil).equal


def test_detectors_skip_the_special_values():
    # members (1 - t)(y^2 - x^3) + t(x^2 - y^3): cusps at t = 0 and t = 1,
    # so the first free detector parameter is t = -1
    f, h = "y^2 - x^3", "x^2 - y^3"
    r = derive_resolution({"f": f, "g": f"{h} - ({f})"}, mode="pencil")
    assert r.generators == ("t=-1", "g")
    assert {fib.name: fib.mu for fib in r.pencil.bifurcation_fibers} == \
        {"t=0": 2, "t=1": 2}
    assert bifurcation_formula_check(r.pencil).equal


def test_resolve_draws_nothing_at_random():
    import folindex.resolve as resolve
    assert not hasattr(resolve, "random")
    assert not hasattr(resolve, "_fresh_parameters")


def test_pencil_spurious_cubic_over_the_budget():
    # the spurious cubic factor drops out at the third certified shear, so
    # a budget of 2 reduces the pencil as the default budget does
    f, g = "-3*x**3 + 2*y", "2*x**5 + 2*x**4 + 3*y**5"
    r = derive_resolution({"f": f, "g": g}, mode="pencil", max_ext_degree=2)
    assert r.mu_pair == 19
    assert bifurcation_formula_check(r.pencil).equal


def test_pencil_semitame_smooth_generic():
    r = derive_resolution({"f": "x", "g": "y"}, mode="pencil")
    assert r.program.to_lists() == [[]]
    assert r.mu_pair == 1
    assert r.pencil.mu_generic == 0
    assert not r.pencil.bifurcation_fibers
    assert semitame_check(r.pencil).is_semitame


def test_pencil_rejects_non_reduced_generator():
    with pytest.raises(UnsupportedGerm):
        derive_resolution({"f": "x^2", "g": "y"}, mode="pencil")
