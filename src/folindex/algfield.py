"""Number-field towers for the blow-up tree.

A field is carried around as a tuple of explicit algebraic generators
(CRootOf expressions over a private symbol) together with the sympy
domain QQ(gens) = QQ(theta), theta its primitive element.  To adjoin a
root of phi, irreducible over K, `extend` factors the norm of phi over Q
and takes the roots of those factors, each with its exact isolating
interval or rectangle, as candidates.  The new generator is the candidate
nearest to phi's first numeric root; that is decided exactly, in
rationals, refining only the intervals of candidates that could still be
nearest.  The choice is then certified by arithmetic in the extended
field K', built from one primitive element of gens': phi, carried into
K' by `lift`, must vanish at the new generator.  A precision shortfall
can only cause a retry, never a wrong tower.  The root and theta come
back as elements of K', and Polys over K enter K' by the same `lift`.
"""

from fractions import Fraction

import sympy
from sympy import Poly, QQ

from .errors import CheckFailed, ExtensionDegreeExceeded

ALPHA = sympy.Symbol("_alpha")


def field_degree(K):
    return 1 if K == QQ else K.ext.minpoly.degree()


def _eliminate(phi, gens):
    """A rational polynomial vanishing at every root of phi: the norm of
    phi from K = QQ(gens) down to Q, a resultant against the minimal
    polynomial of K's primitive element."""
    return Poly(phi.norm() if gens else phi, domain=QQ)


def _numeric_roots(phi, prec):
    coeffs = [complex(c.evalf(prec)) for c in phi.all_coeffs()]
    num = Poly([sympy.Float(c.real, prec) + sympy.I * sympy.Float(c.imag, prec)
                for c in coeffs], phi.gen)
    return sorted(num.nroots(n=prec, maxsteps=200),
                  key=lambda r: (sympy.re(r), sympy.im(r)))


def _box(root):
    """The isolating interval or rectangle of a CRootOf as rationals
    (ax, bx, ay, by); sympy's boxes are closed, and a root may lie on
    the edge."""
    iv = root._get_interval()
    box = (iv.a, iv.b, 0, 0) if root.is_real else (iv.ax, iv.bx, iv.ay, iv.by)
    return [Fraction(int(v.numerator), int(v.denominator)) for v in box]


def _reach(box, px, py):
    """Squared distances from (px, py) to the nearest and farthest point
    of a box."""
    ax, bx, ay, by = box
    nx, ny = max(ax - px, px - bx, 0), max(ay - py, py - by, 0)
    fx, fy = max(px - ax, bx - px), max(py - ay, by - py)
    return nx * nx + ny * ny, fx * fx + fy * fy


def _nearest(roots, beta0, prec):
    """The root nearest to the complex number beta0, or None while two
    roots are within 10**-prec of a tie.  Only the boxes that may still
    hold the nearest root are refined."""
    px, py = Fraction(beta0.real), Fraction(beta0.imag)
    width = Fraction(1, 10 ** prec)
    while True:
        boxes = [_box(root) for root in roots]
        reach = [_reach(box, px, py) for box in boxes]
        best = min(far for _, far in reach)
        close = [k for k, (near, _) in enumerate(reach) if near <= best]
        if len(close) == 1:
            return roots[close[0]]
        if all(max(boxes[k][1] - boxes[k][0], boxes[k][3] - boxes[k][2])
               < width for k in close):
            return None
        for k in close:
            roots[k]._set_interval(roots[k]._get_interval().refine())


def _horner(coeffs, x, K):
    value = K.zero
    for c in coeffs:
        value = value * x + c
    return value


def lift(p, theta, K2):
    """p, a Poly over QQ or over K = QQ(theta), as a Poly over K2 ⊇ K:
    each coefficient is evaluated by Horner at theta, K's primitive
    element written as an element of K2 (zero for K = QQ)."""
    algebraic = p.domain.is_AlgebraicField
    return Poly.from_dict(
        {m: _horner(c.to_list() if algebraic else [c], theta, K2)
         for m, c in p.as_dict(native=True).items()}, *p.gens, domain=K2)


def extend(gens, K, phi, max_degree):
    """Adjoin a root of phi (irreducible over K = QQ(gens)) to the tower.

    The candidates are the CRootOf's of the rational factors of phi's
    norm.  At each precision of the ladder, the new generator is the
    candidate nearest to phi's first numeric root, decided exactly from
    the candidates' isolating intervals.  K' = QQ(gens') comes from one
    primitive element of gens', whose leading part must be K's.  The root
    is accepted only when phi, lifted into K', vanishes at it by exact
    arithmetic in K'.

    Returns (gens', K', beta', theta') with beta' the new root and theta'
    K's primitive element (zero for K = QQ) as elements of K'.  Raises
    ExtensionDegreeExceeded when the composite degree would pass
    max_degree, CheckFailed when no numeric identification of the root
    can be certified exactly.
    """
    total = field_degree(K) * phi.degree()
    if total > max_degree:
        raise ExtensionDegreeExceeded(
            f"adjoining a root of {phi.as_expr()} needs a degree-{total} "
            f"extension of Q; the budget is {max_degree}")

    roots = [sympy.CRootOf(m.as_expr(ALPHA), ALPHA, k)
             for m, _ in _eliminate(phi, gens).factor_list()[1]
             for k in range(m.degree())]

    for prec in (30, 60, 120, 240):
        beta0 = complex(_numeric_roots(phi, prec)[0])
        beta_expr = _nearest(roots, beta0, prec)
        if beta_expr is None:
            continue
        gens2 = tuple(gens) + (beta_expr,)
        # sympy builds a primitive element one generator at a time, so K's
        # is the leading part of the combination that gives K2's
        minpoly, coeffs, reps = sympy.primitive_element(gens2, ex=True,
                                                        polys=True)
        terms = [c * g for c, g in zip(coeffs, gens2)]
        if K != QQ and K.ext.root != sum(terms[:-1]):
            raise CheckFailed(f"the primitive element of {gens2} does not "
                              "extend that of its first generators")
        K2 = QQ.algebraic_field((minpoly, sum(terms)))
        reps = [K2(rep) for rep in reps]
        theta = sum((c * r for c, r in zip(coeffs, reps[:-1])), K2.zero)
        beta = reps[-1]
        if not _horner(lift(phi, theta, K2).rep.to_list(), beta, K2):
            return gens2, K2, beta, theta
    raise CheckFailed(f"could not certify a root of {phi.as_expr()} "
                      f"numerically at any precision")
