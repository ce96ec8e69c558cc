"""Parser, germ arithmetic, and the resultant-valuation oracle."""

import functools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ, Poly

from folindex import oracle
from folindex.algfield import extend, lift
from folindex.errors import (ExtensionDegreeExceeded, GermSyntaxError,
                             InputError, NonPolynomial, UnsupportedGerm)
from folindex.germs import Germ, X, Y, parse_germ, substitute
from folindex.oracle import (INFINITE, bifurcation_candidates,
                             oracle_intersection, oracle_milnor,
                             oracle_mu_pair)

T = sympy.Symbol("t")

F = Fraction


class TestParser:
    def test_monomials_and_coefficients(self):
        assert parse_germ("x*y + y^2 + x^3") == {
            (1, 1): F(1), (0, 2): F(1), (3, 0): F(1)}

    def test_double_star_power(self):
        assert parse_germ("x**2 - y/2") == {(2, 0): F(1), (0, 1): F(-1, 2)}

    def test_unary_signs(self):
        assert parse_germ("-x/2 + +3*y") == {(1, 0): F(-1, 2), (0, 1): F(3)}

    def test_parenthesized_base_expands(self):
        assert parse_germ("(x+y)^2") == {(2, 0): F(1), (1, 1): F(2),
                                         (0, 2): F(1)}

    def test_parenthesized_literal_exponent(self):
        assert parse_germ("x^(2)") == {(2, 0): F(1)}

    def test_constant(self):
        assert parse_germ("7/3") == {(0, 0): F(7, 3)}

    def test_unknown_name(self):
        with pytest.raises(GermSyntaxError, match="unknown name 'z'"):
            parse_germ("z + x")

    def test_unexpected_operator_reports_position(self):
        with pytest.raises(GermSyntaxError, match=r"position 4"):
            parse_germ("x + * y")

    def test_unexpected_character(self):
        with pytest.raises(GermSyntaxError, match="character '@'"):
            parse_germ("x @ y")

    def test_unclosed_parenthesis(self):
        with pytest.raises(GermSyntaxError, match=r"expected '\)'"):
            parse_germ("(x + y")

    def test_trailing_operator(self):
        with pytest.raises(GermSyntaxError):
            parse_germ("x +")

    def test_empty_input(self):
        with pytest.raises(GermSyntaxError, match="empty"):
            parse_germ("")

    def test_adjacent_tokens_need_an_operator(self):
        with pytest.raises(GermSyntaxError, match="position 1"):
            parse_germ("2x")

    def test_nonconstant_division(self):
        with pytest.raises(NonPolynomial, match="non-constant"):
            parse_germ("x / y")

    def test_variable_exponent(self):
        with pytest.raises(NonPolynomial, match="literal nonnegative"):
            parse_germ("x ^ y")

    def test_negative_exponent(self):
        with pytest.raises(NonPolynomial, match="literal nonnegative"):
            parse_germ("x ^ -2")


class TestGerm:
    def test_equivalent_constructions(self):
        from_text = Germ("x*y + y^2")
        from_expr = Germ(X * Y + Y**2)
        from_poly = Germ(sympy.Poly(X * Y + Y**2, X, Y))
        assert from_text.expr == from_expr.expr == from_poly.expr

    def test_zero_rejected(self):
        with pytest.raises(InputError, match="zero polynomial"):
            Germ("x - x")
        with pytest.raises(InputError, match="zero polynomial"):
            Germ("0")

    def test_order_and_vanishing(self):
        assert Germ("y^2 - x^3").order() == 2
        assert Germ("x").order() == 1
        assert Germ("2 + x").order() == 0

    def test_reducedness(self):
        # the package reads reducedness off the oracle: mu is finite
        # exactly when no factor through the origin repeats
        for text in ("y^2 - x^3", "x*y", "x^2 + y^2"):
            assert oracle_milnor(Germ(text)) != INFINITE
        for text in ("y^2", "(1+x)*y^2"):
            assert oracle_milnor(Germ(text)) == INFINITE

    def test_combine(self):
        f, g = Germ("x*y + y^2 + x^3"), Germ("x*y")
        assert f.combine(g, -1).expr == sympy.expand(X**3 + Y**2)
        assert f.combine(g, F(3, 5)).expr == sympy.expand(
            sympy.Rational(8, 5) * X * Y + Y**2 + X**3)

    @pytest.mark.parametrize("t", [sympy.Integer(1), sympy.Integer(-1),
                                   sympy.Integer(2), sympy.Rational(1, 2)])
    def test_combine_matches_expr_construction(self, t):
        f, g = Germ("x*y + y^2 + x^3"), Germ("3/2*x*y - y^5")
        want = Poly(f.poly.as_expr() + t * g.poly.as_expr(), X, Y)
        assert f.combine(g, t).poly == want.set_domain(QQ)


def _field(r):
    K = QQ.algebraic_field(r)
    return K, K.from_sympy(r)


# each domain with an element r: coefficients are drawn as (a + b r) / d
DOMAINS = {"ZZ": (ZZ, ZZ.zero), "QQ": (QQ, QQ.zero),
           "QQ<sqrt(2)>": _field(sympy.sqrt(2)), "QQ<I>": _field(sympy.I)}
GENS = {"tower (x, y)": (X, Y), "oracle (y, x, t)": (Y, X, T)}


@st.composite
def coefficients(draw, domain):
    K, r = DOMAINS[domain]
    c = K.convert(draw(st.integers(-3, 3))) \
        + K.convert(draw(st.integers(-2, 2))) * r
    return c if K == ZZ else c / K.convert(draw(st.integers(1, 3)))


@st.composite
def substitutions(draw, domain, gens):
    """(p, lx, ly): p with up to six terms, lx and ly affine in x and y."""
    K = DOMAINS[domain][0]
    p = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(gens)),
                             coefficients(domain), max_size=6))
    unit = [tuple(int(g == h) for g in gens) for h in (X, Y, None)]
    lx, ly = ({m: draw(coefficients(domain)) for m in unit}
              for _ in range(2))
    return tuple(Poly.from_dict(rep, *gens, domain=K) for rep in (p, lx, ly))


class TestSubstitute:
    """The linear-substitution kernel against an Expr subs + expand."""

    @pytest.mark.parametrize("gens", GENS)
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_expr_reference(self, domain, gens, data):
        p, lx, ly = data.draw(substitutions(domain, GENS[gens]))
        got = substitute(p, lx, ly)
        assert (got.gens, got.domain) == (p.gens, p.domain)
        want = p.as_expr().subs({X: lx.as_expr(), Y: ly.as_expr()},
                                simultaneous=True)
        assert sympy.expand(got.as_expr() - want) == 0

    def test_keeps_other_generators(self):
        p = Poly(T * X * Y + Y**2, Y, X, T, domain=QQ)
        x = Poly(X + Y, Y, X, T, domain=QQ)
        y = Poly(Y - 2, Y, X, T, domain=QQ)
        assert substitute(p, x, y) == Poly(
            T * (X + Y) * (Y - 2) + (Y - 2)**2, Y, X, T, domain=QQ)


@functools.cache
def lift_case(name):
    """(K, r, K2, theta): K and r as in DOMAINS, or the tower field Q(sqrt 2)
    of `extend` with r its generator; `extend` gives K2 = K(sqrt 3) and
    theta, K's primitive element in K2."""
    if name == "tower":
        gens, K, r, _ = extend((), QQ, Poly(Y**2 - 2, Y, domain=QQ), 4)
    else:
        K, r = DOMAINS[name]
        gens = (K.ext.root,) if K.is_AlgebraicField else ()
    base = K if K.is_AlgebraicField else QQ
    _, K2, _, theta = extend(gens, base, Poly(Y**2 - 3, Y, domain=base), 8)
    return K, r, K2, theta


class TestLift:
    """algfield.lift against the generic Poly.set_domain."""

    @pytest.mark.parametrize("name", [*DOMAINS, "tower"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_set_domain(self, name, data):
        K, r, K2, theta = lift_case(name)
        coeff = st.builds(lambda a, b, d: (K.convert(a) + K.convert(b) * r)
                          / (K.one if K == ZZ else K.convert(d)),
                          st.integers(-3, 3), st.integers(-2, 2),
                          st.integers(1, 3))
        rep = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2),
                                        coeff, max_size=6))
        p = Poly.from_dict(rep, X, Y, domain=K)
        assert lift(p, theta, K2) == p.set_domain(K2)


class TestIntersectionOracle:
    def test_fixture_pair(self):
        f, g = Germ("x*y + y^2 + x^3"), Germ("x*y")
        assert oracle_intersection(f, g) == 5
        assert oracle_intersection(g, f) == 5

    def test_smooth_transverse(self):
        assert oracle_intersection(Germ("x"), Germ("y")) == 1
        # the y-leading coefficient of the first germ vanishes at x = 0
        assert oracle_intersection(Germ("x*y^2 + y"), Germ("y + x")) == 1
        # the curves also meet at (0, 1): unsheared, ord_x Res_y is 2
        assert oracle_intersection(Germ("y^2 - y + x"),
                                   Germ("y^2 - y + 2*x")) == 1

    def test_common_point_at_infinity(self):
        # both y-leading coefficients vanish at x = 0 and the curves meet
        # at infinity in the y direction, so the unsheared valuation is 6
        assert oracle_intersection(Germ("x*y^2 - y"),
                                   Germ("x*y^2 - y + x^2")) == 2

    def test_fixed_shear_order(self):
        # the conics also meet at (0, 1), (1, 1) and (1, -1), on the lines
        # x = k y for k = 0, 1, -1, so the fourth direction k = 2 certifies
        f, g = "x^2 + x*y + y^2 - 2*x - y", "2*x^2 + x*y + y^2 - 3*x - y"
        assert oracle_intersection(Germ(f), Germ(g)) == 1
        p, q = (oracle._zz(oracle._poly(h)) for h in (f, g))
        k, _, _ = next(oracle._certified_shears(p, q))
        assert k == 2

    def test_cusp_against_axis(self):
        assert oracle_intersection(Germ("y^2 - x^3"), Germ("y")) == 3

    def test_unit_gives_zero(self):
        assert oracle_intersection(Germ("1 + x"), Germ("y")) == 0

    def test_shared_branch_is_infinite(self):
        assert oracle_intersection(Germ("x^2"), Germ("x*y")) == INFINITE

    def test_additive_on_products(self):
        cusp, axis = Germ("y^2 - x^3"), Germ("y")
        total = oracle_intersection(Germ(cusp.expr * X), axis)
        assert total == 4
        assert total == (oracle_intersection(cusp, axis)
                         + oracle_intersection(Germ("x"), axis))


@st.composite
def germs(draw):
    """A germ of degree at most 3 vanishing at the origin."""
    monomial = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda m: 1 <= sum(m) <= 3)
    terms = draw(st.dictionaries(monomial, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=4))
    return Germ(sum(c * X**i * Y**j for (i, j), c in terms.items()))


@st.composite
def unimodular(draw):
    """(a, b, c, d) with a d - b c = +-1."""
    s, r = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    u = (1 + s * r, s, r, 1)
    return u[2:] + u[:2] if draw(st.booleans()) else u


class TestCoordinateInvariance:
    @settings(max_examples=30, deadline=None)
    @given(f=germs(), g=germs(), u=unimodular())
    def test_i0_and_mu_survive_a_change_of_coordinates(self, f, g, u):
        a, b, c, d = u

        def moved(h):
            return Germ(sympy.expand(h.expr.subs(
                {X: a * X + b * Y, Y: c * X + d * Y}, simultaneous=True)))

        assert oracle_intersection(moved(f), moved(g)) == \
            oracle_intersection(f, g)
        assert oracle_milnor(moved(f)) == oracle_milnor(f)


class TestMilnorOracle:
    def test_fixture_values(self):
        assert oracle_milnor(Germ("y^2 - x^3")) == 2
        assert oracle_milnor(Germ("x*y")) == 1
        assert oracle_milnor(Germ("x*y + y^2 + x^3")) == 1
        assert oracle_milnor(Germ("x")) == 0
        for p, q in ((5, 8), (8, 13), (13, 21)):
            assert oracle_milnor(Germ(f"y^{p} - x^{q}")) == (p - 1) * (q - 1)

    def test_unit_germ(self):
        assert oracle_milnor(Germ("1 + x")) == 0

    def test_non_reduced_is_infinite(self):
        assert oracle_milnor(Germ("y^2")) == INFINITE

    def test_product_of_fixture_generators(self):
        product = Germ((X * Y + Y**2 + X**3) * X * Y)
        assert oracle_milnor(product) == 11

    def test_pencil_member(self):
        f, g = Germ("x*y + y^2 + x^3"), Germ("x*y")
        assert oracle_milnor(f.combine(g, -1)) == 2


class TestMuPairOracle:
    def test_transverse_coordinates(self):
        assert oracle_mu_pair(Germ("x"), Germ("y")) == 1

    def test_fixture_pair(self):
        f, g = Germ("x*y + y^2 + x^3"), Germ("x*y")
        assert oracle_mu_pair(f, g) == 12

    def test_matches_explicit_coefficient_germs(self):
        p = Germ("y*(2*x^3 - y^2)")
        q = Germ("x*(y^2 - x^3)")
        assert oracle_intersection(p, q) == 12

    def test_proportional_generators_rejected(self):
        with pytest.raises(InputError, match="no pencil"):
            oracle_mu_pair(Germ("x*y"), Germ("2*x*y"))


class TestBifurcationCandidates:
    def test_fixture_pencil(self):
        f, g = Germ("x*y + y^2 + x^3"), Germ("x*y")
        data = bifurcation_candidates(f, g)
        assert data.mu_generic == 1
        assert data.mu_f == 1 and data.mu_g == 1
        assert data.i0 == 5
        # exact spot checks off the candidate locus t = -1
        for t0 in (sympy.Rational(2), sympy.Rational(-1, 3)):
            assert oracle_milnor(f.combine(g, t0)) == data.mu_generic
        a, b, c, d = data.shear
        assert abs(a * d - b * c) == 1
        (cand,) = data.candidates
        assert cand.minpoly.as_expr() == T + 1
        assert cand.value == -1
        assert cand.conjugates == 1
        assert cand.mu == 2
        assert cand.status == "bifurcation"
        assert data.bifurcation_values() == (cand,)

    def test_spurious_root_is_kept_and_labelled(self):
        # the cubic terms cancel at t = -1, so a generic shear's y-leading
        # coefficient vanishes there; the member 3y - 3x^2 + 3y^2 is smooth
        f, g = Germ("-2*x^3 + 3*y"), Germ("-2*x^3 + 3*x^2 - 3*y^2")
        data = bifurcation_candidates(f, g)
        assert data.mu_generic == 0
        (cand,) = data.candidates
        assert cand.minpoly.as_expr() == T + 1
        assert cand.value == -1
        assert cand.mu == data.mu_generic
        assert cand.status == "spurious"
        assert data.bifurcation_values() == ()

    @staticmethod
    def _signature(f, g):
        data = bifurcation_candidates(Germ(f), Germ(g))
        return (data.mu_generic, data.mu_f, data.mu_g, data.i0,
                [(c.minpoly.as_expr(), c.mu)
                 for c in data.bifurcation_values()])

    def test_node_cusp_family_is_seed_independent(self):
        for a in (1, 2, 3, -1, -2, -3):
            for b in (1, 2, 3, -1, -2, -3):
                f, g = f"x*y + {a}*y^2 + {b}*x^3", "x*y"
                assert self._signature(f, g) == (1, 1, 1, 5, [(T + 1, 2)])

    # pinned (mu_generic, mu_f, mu_g, i0, special members) of fixtures
    SIGNATURES = {
        ("x*y + y^2 + x^3", "x*y"): (1, 1, 1, 5, [(T + 1, 2)]),
        ("y^2 + 2*x^2 + x^3", "-2*x*y"): (1, 1, 1, 4, [(T**2 - 2, 2)]),
        ("x^3 + y^5 + y^3 - 3*x^2*y", "y^3 - 3*x^2*y"):
            (4, 4, 4, 9, [(2*T + 1, 6), (2*T + 3, 6), (T + 1, 8)]),
        ("y^2 - x^3", "x*y"): (1, 2, 1, 5, [(T, 2)]),
        ("x", "y"): (0, 0, 0, 1, []),
        ("-2*x^3 + 3*y", "-2*x^3 + 3*x^2 - 3*y^2"): (0, 0, 1, 2, []),
        # special member at t^2 = 8
        ("x^2 + 2*y^2 + x^3", "x*y + y^3"): (1, 1, 1, 4, [(T**2 - 8, 3)]),
    }

    @pytest.mark.parametrize("f, g", list(SIGNATURES))
    def test_seed_independent(self, f, g):
        assert self._signature(f, g) == self.SIGNATURES[f, g]

    def test_pencil_oracle_calls(self, monkeypatch):
        # mu(f), mu(g), i0(f, g), mu(f, g) and the candidate t = -1
        from folindex.resolve import derive_resolution
        calls = []
        inner = oracle._intersection

        def counted(p, q):
            calls.append(1)
            return inner(p, q)
        monkeypatch.setattr(oracle, "_intersection", counted)
        res = derive_resolution({"f": "x*y + y^2 + x^3", "g": "x*y"},
                                mode="pencil")
        assert res.mu_pair == 12
        assert len(calls) <= 5

    def test_quadratic_bifurcation_value(self):
        # members (y - t*x)^2 + x^3 at t^2 = 2: a cusp on a Morse pencil
        f, g = Germ("y^2 + 2*x^2 + x^3"), Germ("-2*x*y")
        data = bifurcation_candidates(f, g)
        assert data.mu_generic == 1
        (cand,) = data.candidates
        assert cand.minpoly.as_expr() == T**2 - 2
        assert cand.conjugates == 2
        assert cand.mu == 2
        assert cand.status == "bifurcation"
        assert abs(float(cand.value) + 2**0.5) < 1e-12

    def test_extension_budget(self):
        f, g = Germ("y^2 + 2*x^2 + x^3"), Germ("-2*x*y")
        with pytest.raises(ExtensionDegreeExceeded, match="degree 2"):
            bifurcation_candidates(f, g, max_ext_degree=1)

    def test_spurious_cubic_over_the_budget(self):
        # 24576t^3 + 146240t^2 + 97200t + 295245 divides c * e under the
        # first two certified shears and drops out under the third
        data = bifurcation_candidates(Germ("-3*x**3 + 2*y"),
                                      Germ("2*x**5 + 2*x**4 + 3*y**5"),
                                      max_ext_degree=2)
        assert data.mu_generic == 0
        assert [(c.minpoly.as_expr(), c.mu, c.status)
                for c in data.candidates] == [(T, 0, "spurious")]

    def test_non_reduced_member_rejected(self):
        f, g = Germ("y^2 + 2*x^2"), Germ("-2*x*y")
        with pytest.raises(UnsupportedGerm, match="non-reduced"):
            bifurcation_candidates(f, g)

    def test_shared_branch_rejected(self):
        with pytest.raises(UnsupportedGerm, match="share a branch"):
            bifurcation_candidates(Germ("x*y"), Germ("x^2"))

    def test_generators_must_vanish(self):
        with pytest.raises(InputError, match="vanish at the origin"):
            bifurcation_candidates(Germ("1 + x"), Germ("y"))

    def test_spurious_quartic_within_budget(self):
        # under a random second shear this once raised
        # ExtensionDegreeExceeded for the spurious factor
        # 36t^4 - 15t^3 - 120t^2 + 100; the fixed shear order keeps it out
        data = bifurcation_candidates(
            Germ("2*x*y**3 + 5*y"), Germ("2*x**3 + x*y**2 - 2*x*y - y**3"),
            max_ext_degree=3)
        assert data.mu_generic == 0
        assert data.candidates == ()

    def test_pencil_without_jumps(self):
        data = bifurcation_candidates(Germ("x"), Germ("y"))
        assert data.mu_generic == 0
        assert data.candidates == ()
        assert data.bifurcation_values() == ()
