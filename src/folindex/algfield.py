"""Number-field towers for the blow-up tree.

A field is carried around as a tuple of explicit algebraic generators
(CRootOf expressions over a private symbol) together with the sympy
domain QQ(gens).  Extending by a root of a polynomial irreducible over
the current field works by eliminating the generators with iterated
resultants, factoring the result over Q, and identifying the right
factor and root index numerically; the identification is certified
exactly inside the extended field, so a precision shortfall can only
cause a retry, never a wrong tower.  The root comes back as an element
of the extended domain, which Polys enter by `Poly.set_domain`.
"""

import sympy
from sympy import Poly, QQ

from .errors import CheckFailed, ExtensionDegreeExceeded

ALPHA = sympy.Symbol("_alpha")


def field_of(gens):
    """The sympy domain QQ(gens); plain QQ for the empty tower."""
    return QQ.algebraic_field(*gens) if gens else QQ


def field_degree(K):
    return 1 if K == QQ else K.ext.minpoly.degree()


def _eliminate(expr, gens, var):
    """A rational polynomial in var vanishing wherever expr does.

    Each algebraic generator is replaced by a fresh symbol and removed
    with a resultant against its rational minimal polynomial.
    """
    for g in gens:
        z = sympy.Dummy("z")
        expr = sympy.expand(expr.subs(g, z))
        minpoly = g.poly.as_expr().subs(g.poly.gen, z)
        expr = sympy.resultant(expr, minpoly, z)
    return Poly(expr, var, domain=QQ)


def _numeric_roots(phi, prec):
    coeffs = [complex(c.evalf(prec)) for c in phi.all_coeffs()]
    num = Poly([sympy.Float(c.real, prec) + sympy.I * sympy.Float(c.imag, prec)
                for c in coeffs], phi.gen)
    return sorted(num.nroots(n=prec, maxsteps=200),
                  key=lambda r: (sympy.re(r), sympy.im(r)))


def extend(gens, K, phi, max_degree):
    """Adjoin a root of phi (irreducible over K = QQ(gens)) to the tower.

    Returns (gens', K', beta') with beta' the new root as an element of
    K'.  Raises ExtensionDegreeExceeded when the composite degree would
    pass max_degree, CheckFailed when no numeric identification of the
    root can be certified exactly.
    """
    total = field_degree(K) * phi.degree()
    if total > max_degree:
        raise ExtensionDegreeExceeded(
            f"adjoining a root of {phi.as_expr()} needs a degree-{total} "
            f"extension of Q; the budget is {max_degree}")

    rational = _eliminate(phi.as_expr(), gens, phi.gen)
    candidates = [f for f, _ in rational.factor_list()[1] if f.degree() > 0]

    for prec in (30, 60, 120, 240):
        beta0 = complex(_numeric_roots(phi, prec)[0])
        scored = []
        for m in candidates:
            m_alpha = m.as_expr().subs(phi.gen, ALPHA)
            for k in range(m.degree()):
                root = sympy.CRootOf(m_alpha, ALPHA, k)
                scored.append((abs(complex(root.evalf(prec)) - beta0),
                               root))
        beta_expr = min(scored, key=lambda s: s[0])[1]
        gens2 = tuple(gens) + (beta_expr,)
        K2 = field_of(gens2)
        value = sympy.expand(phi.as_expr().subs(phi.gen, beta_expr))
        if K2.from_sympy(value) == K2.zero:
            return gens2, K2, K2.from_sympy(beta_expr)
    raise CheckFailed(f"could not certify a root of {phi.as_expr()} "
                      f"numerically at any precision")
