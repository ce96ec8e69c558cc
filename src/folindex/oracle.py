"""Brute-force oracles: resultants after a certified shear.

Everything the combinatorial engine computes has an independent check here.
The intersection number of two coprime germs f, g is read off a resultant
(Fulton, *Algebraic Curves*, section 1.6).  Suppose that after a unimodular
change of coordinates

  1. f(0, y) is not identically zero,
  2. the leading coefficient of f in y does not vanish at x = 0, and
  3. gcd(f(0, y), g(0, y)) is a monomial c*y^k.

Then every root y(x) of f is a Puiseux series in x, the origin is the only
point of the line x = 0 where f and g meet, and ord_x Res_y(f, g) equals
i_0(f, g) exactly.  The oracle tries f(x + k y, y) for k = 0, 1, -1, 2,
..., up to a bound from the degrees, with f and g in both roles, and
answers from the first shear that meets the three conditions.
Polynomials are sympy Polys in (y, x) over ZZ (clearing denominators only
scales them) or over a number field.  Milnor numbers are intersection
numbers of the partials, and the pencil Milnor number mu(f,g) is the
intersection number of the coefficients of g df - f dg.

Pencil bifurcation values are located exactly by the same certificate
over the field Q(t), applied to the partials of f + t*g (see
bifurcation_candidates): it gives the generic Milnor number as the least
x-order of their y-resultant, and a polynomial in t whose roots hold every
parameter where the Milnor number jumps.  Its factors are certified one
conjugacy class at a time by recomputing the Milnor number over the
algebraic extension Q(root); spurious roots (no jump) are reported, not
silently dropped.  Infinite values are returned as math.inf.
"""

import itertools
import math
from dataclasses import dataclass

import sympy
from sympy import QQ, Poly

from .errors import (CandidateUncertified, ChangeOfCoordinatesFailed,
                     ExtensionDegreeExceeded, InputError, OracleMismatch,
                     UnsupportedGerm)
from .germs import Germ, X, Y, substitute

T = sympy.Symbol("t")

INFINITE = math.inf


def _shear(p, k):
    """p(x + k y, y) for p in (y, x, ...)."""
    if k == 0:
        return p
    return substitute(p, Poly(X + k * Y, *p.gens, domain=p.domain),
                      Poly(Y, *p.gens, domain=p.domain))


def _germ_order(p):
    """Least total degree of a monomial of a nonzero Poly."""
    return min(sum(m) for m in p.monoms())


def _certified(p, q):
    """The three conditions above, with p or q in the role of f."""
    p0, q0 = p.eval(X, 0), q.eval(X, 0)
    # condition 2 implies condition 1: p(0, y) keeps p's degree in y
    lead = p0.degree() == p.degree() or q0.degree() == q.degree()
    return lead and p0.gcd(q0).is_monomial


def _certified_shears(p, q):
    """Yield (k, p_u, q_u) for each certified shear u_k, k = 0, 1, -1, ...

    Under u_k the axis x = 0 is the line x = k y.  For coprime p, q of
    total degrees d_p, d_q a direction fails only if both top-degree forms
    vanish at (k, 1), for at most min(d_p, d_q) values of k, or if a
    common point other than the origin lies on x = k y, for at most
    d_p d_q values (Bezout); so B = min(d_p, d_q) + d_p d_q.  Over Q(t),
    for partials of f + t g coprime over Q(t), with degrees counting t,
    a factor a t + b of the gcd (p, q are linear in t) also fails
    condition 3.  Then b != 0, as mu(f) < inf keeps f from being singular
    along x = k y; the member at t = -b/a holds that line twice; {x = k y,
    t = -b/a} is one of at most d_p d_q lines on p = q = 0 (Bezout in
    (x, y, t)); so B gains d_p d_q.  The first shear comes within B + 1
    directions and the second within B + 2; failure B + 1 raises
    ChangeOfCoordinatesFailed.
    """
    dp, dq = p.total_degree(), q.total_degree()
    bound = min(dp, dq) + dp * dq * (2 if T in p.gens else 1)
    failed = 0
    for n in itertools.count():
        k = (n + 1) // 2 if n % 2 else -(n // 2)
        pu, qu = _shear(p, k), _shear(q, k)
        if _certified(pu, qu):
            yield k, pu, qu
        else:
            failed += 1
            if failed > bound:
                raise ChangeOfCoordinatesFailed(
                    f"{failed} shear directions fail the certificate, more "
                    f"than the degree bound {bound} allows")


def _intersection(p, q):
    """i_0 of two Polys in (y, x): ord_x of the first certified resultant."""
    if p.is_zero and q.is_zero:
        raise InputError("intersection number of the zero ideal")
    if p.is_zero or q.is_zero:
        return INFINITE if _germ_order(q if p.is_zero else p) > 0 else 0
    if _germ_order(p) == 0 or _germ_order(q) == 0:
        return 0   # one germ is a unit at the origin
    common = p.gcd(q)
    if common.eval((0, 0)) == 0:
        return INFINITE   # shared branch through the origin
    if common.total_degree() > 0:
        p, q = p.exquo(common), q.exquo(common)
    _, pu, qu = next(_certified_shears(p, q))
    return min(m[0] for m in pu.resultant(qu).monoms())


def _poly(f, *gens):
    """A Germ (or germ text) as a Poly over QQ in (y, x, *gens)."""
    f = f if isinstance(f, Germ) else Germ(f)
    return Poly(f.poly, Y, X, *gens, domain=QQ)


def _zz(p):
    """p over ZZ; clearing denominators scales p, keeping every valuation."""
    return p.clear_denoms(convert=True)[1]


def oracle_intersection(f, g):
    """i_0(f, g) by a certified resultant; math.inf on a common branch."""
    return _intersection(_zz(_poly(f)), _zz(_poly(g)))


def _milnor(p):
    return _intersection(p.diff(X), p.diff(Y))


def oracle_milnor(f):
    """mu_0(f) = i_0(f_x, f_y); math.inf for a non-isolated singularity."""
    p = _zz(_poly(f))
    if _germ_order(p) == 0:
        return 0
    return _milnor(p)


def oracle_mu_pair(f, g):
    """mu(f, g) = i_0 of the coefficients of the 1-form g df - f dg."""
    pf, pg = _zz(_poly(f)), _zz(_poly(g))
    p = pg * pf.diff(X) - pf * pg.diff(X)
    q = pg * pf.diff(Y) - pf * pg.diff(Y)
    if p.is_zero and q.is_zero:
        raise InputError("the two germs span no pencil (proportional)")
    return _intersection(p, q)


# ---------------------------------------------------------------------------
# pencil bifurcation values

@dataclass(frozen=True)
class Candidate:
    """One Galois conjugacy class of parameter values t with Milnor jump data.

    `minpoly` is irreducible over Q in t; `value` is its first root (a
    Rational when the degree is 1), `conjugates` the number of roots, `mu`
    the common Milnor number of the members at those parameters, and
    `status` either "bifurcation" (mu > generic) or "spurious" (no jump;
    kept for the record).
    """

    minpoly: object
    value: object
    conjugates: int
    mu: int
    status: str


@dataclass(frozen=True)
class PencilBifurcationData:
    mu_generic: int
    candidates: tuple
    mu_f: int
    mu_g: int
    i0: int
    shear: tuple       # (1, k, 0, 1): the first certified shear

    def bifurcation_values(self):
        return tuple(c for c in self.candidates if c.status == "bifurcation")


def _certify_candidate(h, m, max_ext_degree, mu_f):
    """(value, mu) of the members h(t) = f + t g at the roots of m; the
    member at t = 0 is f, whose Milnor number mu_f is already known."""
    deg = m.degree()
    if deg > max_ext_degree:
        raise ExtensionDegreeExceeded(
            f"bifurcation value with minimal polynomial {m.as_expr()} of degree "
            f"{deg} exceeds the extension budget {max_ext_degree}")
    if deg == 1:
        a1, a0 = m.all_coeffs()
        tau = sympy.Rational(-a0, a1)
        return tau, mu_f if tau == 0 else _milnor(_zz(h.eval(T, tau)))
    alpha = sympy.CRootOf(m.as_expr(), T, 0)
    field = QQ.algebraic_field(alpha)
    return alpha, _milnor(h.set_domain(field).eval(T, alpha))


def _in_t(terms):
    """A Poly in t over QQ from {degree: coefficient}."""
    return Poly.from_dict(terms, T, domain=QQ)


def _y_free(p0):
    """p0 in (y, t) with its power of y divided out."""
    if p0.is_zero:
        return p0
    k = min(i for i, _ in p0.monoms())
    return Poly.from_dict({(i - k, j): c for (i, j), c in p0.terms()},
                          p0.gens, domain=p0.domain)


def _generic_certificate(pu, qu):
    """(v, c_u * e_u) for the partials pu, qu of f + t g under a shear u
    that certifies the generic member over Q(t)."""
    p0, q0 = pu.eval(X, 0), qu.eval(X, 0)
    kept = p0 if p0.degree() == pu.degree() else q0
    d = kept.degree()
    lead = _in_t({j: c for (i, j), c in kept.terms() if i == d})
    big_p, big_q = _y_free(p0), _y_free(q0)
    # e is not zero: lead keeps the degree, and the monomial gcd leaves P, Q
    # coprime over Q(t); when one restriction is 0 the other is a monomial
    e = lead if big_p.is_zero or big_q.is_zero else \
        lead * big_p.resultant(big_q)
    res = pu.resultant(qu)
    if res.is_zero:
        raise UnsupportedGerm("the generic member has a non-isolated "
                              "singularity")
    v = min(i for i, _ in res.monoms())
    return v, e * _in_t({j: c for (i, j), c in res.terms() if i == v})


def bifurcation_candidates(f, g, max_ext_degree=8):
    """Locate and certify the parameters where mu_0(f + t g) jumps.

    A shear u certifies the generic member over Q(t) when the partials
    p, q of h = f + t g, as Polys in (y, x, t), meet the three conditions
    above.  Let lead(t) be the y-leading coefficient at x = 0 of a partial
    that keeps its y-degree there, P, Q the restrictions p(0, y), q(0, y)
    without their powers of y, and e_u = lead * Res_y(P, Q).  Every member
    at a t0 off the roots of e_u meets the three conditions, and there
    R = Res_y(p, q) specialises up to a unit at x = 0, so mu_0(f + t0 g) =
    ord_x R(x, t0).  Hence the least x-order v of R is the generic Milnor
    number, and every jump is a root of c_u * e_u, with c_u(t) the
    coefficient of x^v.  The candidates are the rational factors of the
    gcd of c_u * e_u over the first two certified shears (k = 0
    first); a factor without a jump is kept with status "spurious".  When
    a factor's degree exceeds max_ext_degree, the gcd also takes in the
    third certified shear, and ExtensionDegreeExceeded is raised only for
    a factor that divides it too.

    Returns PencilBifurcationData; raises InputError when a generator is a
    unit, UnsupportedGerm when the generators share a branch, when one is
    non-reduced or when a member is non-reduced, ChangeOfCoordinatesFailed
    when more shears fail than _certified_shears's bound allows, and
    CandidateUncertified on an impossible sub-generic candidate.
    """
    pf, pg = _zz(_poly(f)), _zz(_poly(g))
    if _germ_order(pf) == 0 or _germ_order(pg) == 0:
        raise InputError("pencil generators must vanish at the origin")
    # a shared branch makes every member non-reduced, so it is named first
    i0 = _intersection(pf, pg)
    if i0 is INFINITE:
        raise UnsupportedGerm("the pencil generators share a branch")
    mu_f, mu_g = _milnor(pf), _milnor(pg)
    for role, mu in (("f", mu_f), ("g", mu_g)):
        if mu is INFINITE:
            raise UnsupportedGerm(f"pencil generator {role!r} is not reduced")

    h = _poly(f, T) + _poly(g, T) * Poly(T, Y, X, T)
    certificates = ((k, *_generic_certificate(pu, qu)) for k, pu, qu
                    in _certified_shears(_zz(h.diff(X)), _zz(h.diff(Y))))
    k, mu_gen, locus = next(certificates)
    for _ in range(2):
        _, v, c = next(certificates)
        if v != mu_gen:
            raise OracleMismatch(f"two certified shears give the generic "
                                 f"Milnor numbers {mu_gen} and {v}")
        locus = locus.gcd(c)
        factors = sorted((m for m, _ in locus.factor_list()[1]),
                         key=lambda m: (m.degree(), str(m.as_expr())))
        # a spurious factor over the budget drops out of the third shear's
        # c * e; only a factor that stays is refused
        if all(m.degree() <= max_ext_degree for m in factors):
            break

    candidates = []
    for m in factors:
        value, mu = _certify_candidate(h, m, max_ext_degree, mu_f)
        if mu is INFINITE:
            raise UnsupportedGerm(f"the member at t = {value} is "
                                  "non-reduced; out of scope")
        if mu < mu_gen:
            raise CandidateUncertified(
                f"candidate t = {value} has mu = {mu} below the certified "
                f"generic value {mu_gen}")
        candidates.append(Candidate(
            minpoly=m, value=value, conjugates=m.degree(), mu=mu,
            status="bifurcation" if mu > mu_gen else "spurious"))
    return PencilBifurcationData(mu_generic=mu_gen,
                                 candidates=tuple(candidates), mu_f=mu_f,
                                 mu_g=mu_g, i0=i0, shear=(1, k, 0, 1))
