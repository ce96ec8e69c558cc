"""Root choice and certificate in `algfield.extend`.

`extend` picks the new generator exactly, from the candidates' isolating
intervals, and certifies it by arithmetic in the extended field.  The
choice must be the one the former numeric identification made: refine
every candidate with `evalf` and take the one nearest to phi's first
numeric root.  A copy of that identification is kept here as the
reference.
"""

import pytest
import sympy
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)
from sympy import Poly, QQ
from sympy.polys.numberfields import subfield

from folindex import algfield
from folindex.algfield import ALPHA, _numeric_roots, extend
from folindex.errors import CheckFailed, ExtensionDegreeExceeded

Y = sympy.Symbol("y")


def reference_choice(gens, phi, prec=30):
    """The former identification: eliminate the generators with Expr
    resultants, then take the CRootOf nearest to phi's first numeric
    root by evalf at prec digits."""
    expr = phi.as_expr()
    for g in gens:
        z = sympy.Dummy("z")
        expr = sympy.expand(expr.subs(g, z))
        minpoly = g.poly.as_expr().subs(g.poly.gen, z)
        expr = sympy.resultant(expr, minpoly, z)
    rational = Poly(expr, phi.gen, domain=QQ)
    beta0 = complex(_numeric_roots(phi, prec)[0])
    scored = []
    for m, _ in rational.factor_list()[1]:
        m_alpha = m.as_expr().subs(phi.gen, ALPHA)
        for k in range(m.degree()):
            root = sympy.CRootOf(m_alpha, ALPHA, k)
            scored.append((abs(complex(root.evalf(prec)) - beta0), root))
    return min(scored, key=lambda s: s[0])[1]


def poly_over(K, coeffs):
    """Monic y^n + c_{n-1} y^(n-1) + ... + c_0 over K, from K elements."""
    return Poly.from_dict({(len(coeffs) - i,): c for i, c in
                           enumerate([K.one, *coeffs])}, Y, domain=K)


small = st.integers(-3, 3)


def on_axis(phi):
    """Whether phi's first numeric root, the one extend adjoins, is real
    or purely imaginary.  Building a two-generator field evaluates both
    generators to 200 digits, which takes minutes off the axes."""
    root = complex(_numeric_roots(phi, 15)[0])
    return min(abs(root.real), abs(root.imag)) < 1e-9


@st.composite
def towers(draw):
    """(first minpoly over QQ, second-step coefficient pairs or None)."""
    degree = draw(st.sampled_from((2, 3)))
    first = poly_over(QQ, [QQ(draw(small)) for _ in range(degree)])
    assume(first.is_irreducible)
    if not draw(st.booleans()):
        return first, None
    assume(on_axis(first))
    step = draw(st.sampled_from((2, 3) if degree == 2 else (2,)))
    return first, [(draw(small), draw(small)) for _ in range(step)]


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(towers())
@example((poly_over(QQ, [QQ(0), QQ(-2)]), [(1, 0), (0, -3)]))
@example((poly_over(QQ, [QQ(0), QQ(1)]), [(0, 0), (0, 2)]))
@example((poly_over(QQ, [QQ(0), QQ(-3)]), [(0, 0), (0, -3), (1, 0)]))
def test_choice_matches_numeric_identification(tower):
    first, second = tower
    gens, K, beta, _ = extend((), QQ, first, 9)
    assert gens == (reference_choice((), first),)
    assert K.from_sympy(gens[0]) == beta
    if second is None:
        return
    phi = poly_over(K, [a * beta + b for a, b in second])
    assume(phi.is_irreducible and on_axis(phi))
    gens2, K2, beta2, _ = extend(gens, K, phi, 9)
    assert gens2 == gens + (reference_choice(gens, phi),)
    assert K2.from_sympy(gens2[-1]) == beta2


def test_cubic_whose_complex_root_comes_first():
    # the complex roots of t^3 - 2 have real part -2^(1/3)/2 < 2^(1/3), so
    # the first numeric root is complex while CRootOf index 0 is real
    phi = Poly(Y**3 - 2, Y, domain=QQ)
    gens, K, beta, _ = extend((), QQ, phi, 3)
    assert gens == (reference_choice((), phi),) == \
        (sympy.CRootOf(ALPHA**3 - 2, 1),)
    assert beta == K.unit


def test_choice_refines_no_candidate_to_digits(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a candidate was evaluated numerically")

    monkeypatch.setattr(sympy.CRootOf, "eval_rational", refuse)
    monkeypatch.setattr(sympy.CRootOf, "eval_approx", refuse)
    for d in (-1, -3, 2, 7):
        gens, K, _, _ = extend((), QQ, Poly(Y**2 - d, Y, domain=QQ), 2)
        assert gens == (sympy.CRootOf(ALPHA**2 - d, 0),)


def test_extend_builds_one_primitive_element(monkeypatch):
    # QQ.algebraic_field(*gens) reaches primitive_element through
    # sympy.polys.numberfields.subfield; patch that name and sympy's own
    calls = []
    original = subfield.primitive_element

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(subfield, "primitive_element", counted)
    monkeypatch.setattr(sympy, "primitive_element", counted)
    gens, K, beta = extend((), QQ, Poly(Y**2 - 2, Y, domain=QQ), 4)[:3]
    assert len(calls) == 1
    extend(gens, K, poly_over(K, [2 * beta, -K.one]), 4)
    assert len(calls) == 2


def test_wrong_rational_factor_fails_certificate(monkeypatch):
    # the candidates gain the roots of t^2 - 3 and the numeric root points
    # at sqrt(3), which is no root of phi = y^2 - 2
    phi = Poly(Y**2 - 2, Y, domain=QQ)
    monkeypatch.setattr(algfield, "_eliminate",
                        lambda phi, gens: phi * Poly(Y**2 - 3, Y))
    monkeypatch.setattr(algfield, "_numeric_roots",
                        lambda phi, prec: [sympy.sqrt(3).evalf(prec)])
    with pytest.raises(CheckFailed, match="could not certify"):
        extend((), QQ, phi, 8)


def test_conjugate_root_fails_certificate(monkeypatch):
    # over K = Q(sqrt 2), phi = y^2 - 2 sqrt(2) y - 1 has the roots
    # sqrt(2) +- sqrt(3); -sqrt(2) + sqrt(3) is a root of the norm, from
    # the right rational factor, but a root of phi's conjugate only
    gens, K, root2, _ = extend((), QQ, Poly(Y**2 - 2, Y, domain=QQ), 4)
    assert gens == (sympy.CRootOf(ALPHA**2 - 2, 0),)     # -sqrt(2)
    phi = poly_over(K, [2 * root2, -K.one])
    value = (sympy.sqrt(3) - sympy.sqrt(2)).evalf(60)
    monkeypatch.setattr(algfield, "_numeric_roots",
                        lambda phi, prec: [value])
    with pytest.raises(CheckFailed, match="could not certify"):
        extend(gens, K, phi, 4)


def test_degree_budget_edge():
    quadratic = Poly(Y**2 + 1, Y, domain=QQ)
    gens, K, _, _ = extend((), QQ, quadratic, 2)
    with pytest.raises(ExtensionDegreeExceeded,
                       match="degree-2 extension of Q; the budget is 1"):
        extend((), QQ, quadratic, 1)
    phi = poly_over(K, [K.zero, K.convert(3)])
    assert len(extend(gens, K, phi, 4)[0]) == 2
    with pytest.raises(ExtensionDegreeExceeded,
                       match="degree-4 extension of Q; the budget is 3"):
        extend(gens, K, phi, 3)
