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
i_0(f, g) exactly.  The oracle tries the identity first, then random
shears from the caller's seeded generator, with f and g in both roles,
and answers from the first shear that meets the three conditions.
Polynomials are sympy Polys in (y, x) over ZZ (clearing denominators only
scales them) or over a number field.  Milnor numbers are intersection
numbers of the partials, and the pencil Milnor number mu(f,g) is the
intersection number of the coefficients of g df - f dg.

Pencil bifurcation values are located exactly: the y-resultant of the
partials of f + t*g is a polynomial in (x, t) whose generic x-valuation is
the generic Milnor number, and every parameter where the Milnor number
jumps is a root of the lowest x-coefficient.  Roots are certified one
conjugacy class at a time by recomputing the Milnor number over the
algebraic extension Q(root); spurious roots (no jump) are reported, not
silently dropped.  Infinite values are returned as math.inf.
"""

import math
import random
from dataclasses import dataclass

import sympy
from sympy import QQ, Poly

from .errors import (CandidateUncertified, ChangeOfCoordinatesFailed,
                     ExtensionDegreeExceeded, InputError, OracleMismatch,
                     UnsupportedGerm)
from .germs import Germ, X, Y, substitute

T = sympy.Symbol("t")

INFINITE = math.inf

IDENTITY = (1, 0, 0, 1)
SHEARS = 14   # the identity plus 13 random shears


def _unimodular(rng):
    """Random 2x2 integer matrix with determinant +-1, entries in [-9, 9]."""
    while True:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return a, b, c, d


def _shear(p, u):
    """p(a x + b y, c x + d y) for p in (y, x, ...)."""
    if u == IDENTITY:
        return p
    a, b, c, d = u
    return substitute(p, Poly(a * X + b * Y, *p.gens, domain=p.domain),
                      Poly(c * X + d * Y, *p.gens, domain=p.domain))


def _germ_order(p):
    """Least total degree of a monomial of a nonzero Poly."""
    return min(sum(m) for m in p.monoms())


def _certified(p, q):
    """The three conditions above, with p or q in the role of f."""
    p0, q0 = p.eval(X, 0), q.eval(X, 0)
    # condition 2 implies condition 1: p(0, y) keeps p's degree in y
    lead = p0.degree() == p.degree() or q0.degree() == q.degree()
    return lead and p0.gcd(q0).is_monomial


def _intersection(p, q, rng):
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
    u = IDENTITY
    for _ in range(SHEARS):
        pu, qu = _shear(p, u), _shear(q, u)
        if _certified(pu, qu):
            return min(m[0] for m in pu.resultant(qu).monoms())
        u = _unimodular(rng)
    raise ChangeOfCoordinatesFailed(
        f"none of {SHEARS} shears separates the origin from the other "
        "common points on the axis")


def _poly(f, *gens):
    """A Germ (or germ text) as a Poly over QQ in (y, x, *gens)."""
    f = f if isinstance(f, Germ) else Germ(f)
    return Poly(f.poly, Y, X, *gens, domain=QQ)


def _zz(p):
    """p over ZZ; clearing denominators scales p, keeping every valuation."""
    return p.clear_denoms(convert=True)[1]


def oracle_intersection(f, g, seed=0):
    """i_0(f, g) by a certified resultant; math.inf on a common branch."""
    return _intersection(_zz(_poly(f)), _zz(_poly(g)), random.Random(seed))


def _milnor(p, rng):
    return _intersection(p.diff(X), p.diff(Y), rng)


def oracle_milnor(f, seed=0):
    """mu_0(f) = i_0(f_x, f_y); math.inf for a non-isolated singularity."""
    p = _zz(_poly(f))
    if _germ_order(p) == 0:
        return 0
    return _milnor(p, random.Random(seed))


def oracle_mu_pair(f, g, seed=0):
    """mu(f, g) = i_0 of the coefficients of the 1-form g df - f dg."""
    pf, pg = _zz(_poly(f)), _zz(_poly(g))
    p = pg * pf.diff(X) - pf * pg.diff(X)
    q = pg * pf.diff(Y) - pf * pg.diff(Y)
    if p.is_zero and q.is_zero:
        raise InputError("the two germs span no pencil (proportional)")
    return _intersection(p, q, random.Random(seed))


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
    mu_f: object
    mu_g: object
    samples: tuple     # ((t, mu), (t, mu)) certifying the generic value
    shear: tuple

    def bifurcation_values(self):
        return tuple(c for c in self.candidates if c.status == "bifurcation")


def _certify_candidate(h, m, rng, max_ext_degree):
    """(value, mu) of the members h(t) = f + t g at the roots of m."""
    deg = m.degree()
    if deg > max_ext_degree:
        raise ExtensionDegreeExceeded(
            f"bifurcation value with minimal polynomial {m.as_expr()} of degree "
            f"{deg} exceeds the extension budget {max_ext_degree}")
    if deg == 1:
        a1, a0 = m.all_coeffs()
        tau = sympy.Rational(-a0, a1)
        return tau, _milnor(_zz(h.eval(T, tau)), rng)
    alpha = sympy.CRootOf(m.as_expr(), T, 0)
    field = QQ.algebraic_field(alpha)
    return alpha, _milnor(h.set_domain(field).eval(T, alpha), rng)


def bifurcation_candidates(f, g, seed=0, max_ext_degree=8, max_shears=6,
                           prune=True):
    """Locate and certify the parameters where mu_0(f + t g) jumps.

    Returns PencilBifurcationData; raises UnsupportedGerm when the pencil
    has a non-reduced member (infinite Milnor number somewhere, common
    branch included), OracleMismatch when no shear certifies a generic
    value, CandidateUncertified on an impossible sub-generic candidate.
    With prune=False the shear-dependent spurious roots of the low
    coefficient are kept (and certified, hence flagged) instead of being
    removed by a second independent shear.
    """
    rng = random.Random(seed)
    pf, pg = _zz(_poly(f)), _zz(_poly(g))
    if _germ_order(pf) == 0 or _germ_order(pg) == 0:
        raise InputError("pencil generators must vanish at the origin")
    if _intersection(pf, pg, rng) is INFINITE:
        raise UnsupportedGerm("generators share a branch; every member of the "
                              "pencil is non-reduced")

    h = _poly(f, T) + _poly(g, T) * Poly(T, Y, X, T)
    p0, q0 = _zz(h.diff(X)), _zz(h.diff(Y))

    def low_coefficient(u):
        res = _shear(p0, u).resultant(_shear(q0, u))
        if res.is_zero:
            raise UnsupportedGerm("the generic member has a non-isolated "
                                  "singularity")
        v = min(i for i, _ in res.monoms())
        return v, Poly.from_dict({(j,): c for (i, j), c in res.terms()
                                  if i == v}, T, domain=QQ)

    for _ in range(max_shears):
        u = _unimodular(rng)
        v_gen, c_low = low_coefficient(u)

        samples = []
        while len(samples) < 2:
            tau = sympy.Rational(rng.randint(-99, 99), rng.randint(1, 9))
            if tau == 0 or c_low.eval(tau) == 0:
                continue
            samples.append((tau, _milnor(_zz(h.eval(T, tau)), rng)))
        if all(mu == v_gen for _, mu in samples):
            break
    else:
        raise OracleMismatch("no shear reproduced the generic Milnor number "
                             "on random members")

    # every true bifurcation value is a root of the low coefficient for any
    # shear with the certified generic valuation, so intersecting two
    # independent shears prunes shear-dependent spurious roots
    if prune:
        for _ in range(max_shears):
            v2, c2 = low_coefficient(_unimodular(rng))
            if v2 == v_gen:
                c_low = c_low.gcd(c2)
                break

    mu_gen = v_gen
    candidates = []
    if c_low.degree() > 0:
        _, factors = c_low.factor_list()
        for m, _mult in sorted(factors, key=lambda fm: (fm[0].degree(),
                                                        str(fm[0].as_expr()))):
            if m.degree() == 0:
                continue
            value, mu = _certify_candidate(h, m, rng, max_ext_degree)
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

    mu_f, mu_g = oracle_milnor(f, seed=seed + 1), oracle_milnor(g, seed=seed + 2)
    if mu_f is INFINITE or mu_g is INFINITE:
        raise UnsupportedGerm("a generator is non-reduced; out of scope")
    return PencilBifurcationData(mu_generic=mu_gen,
                                 candidates=tuple(candidates),
                                 mu_f=mu_f, mu_g=mu_g,
                                 samples=tuple(samples), shear=u)
