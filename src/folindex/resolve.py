"""Reduction of singularities for finite collections of reduced germs.

Blows up the origin and every infinitely near point where the named germs
are not yet separated smooth transversal branches at free points.  Points
are tracked one Galois orbit at a time: a node stores the tower of
algebraic generators of its residue field, the strict transforms of the
germs through it, and which exceptional components pass through it; a
direction that is irreducible of degree d over the current field is one
node standing for d conjugate points.  Expanding the orbits yields the
blow-up program, the attachment vectors, the dicritical marking of a
pencil, per-branch multiplicity sequences and characteristic exponents.

Strict transforms stay Polys in (x, y) over the current field: a chart
is a monomial map, a field change `algfield.lift` through the embedding
`extend` returns, and the translation to a root `germs.substitute` with
the root kept as a field element.

Everything derived here is cross-checked: intersection numbers three ways
(resultant oracle, quadratic pairing, multiplicity sums over the tree),
Milnor numbers against the oracle, and branch data against the label
totals.  A bug in the tree surfaces as OracleMismatch or CheckFailed,
never as a silently wrong invariant.
"""

import itertools
import math
from dataclasses import dataclass

import sympy
from sympy import Poly, QQ

from .algfield import ALPHA, extend, lift
from .blowup import BlowUpProgram, build_cholesky, build_intersection
from .divisors import BranchAttachment, InvariantMarking, total_vector
from .errors import (CheckFailed, ExtensionDegreeExceeded, InputError,
                     OracleMismatch, UnsupportedGerm)
from .germs import Germ, X, Y, substitute
from .indices import (HypothesisLedger, intersection_number, milnor_curve,
                      milnor_foliation)
from .oracle import (INFINITE, bifurcation_candidates, oracle_intersection,
                     oracle_milnor, oracle_mu_pair)
from .pencil import Fiber, PencilModel, fiber_balanced_divisor

MAX_DEPTH = 64


def _order(p):
    return min(a + b for a, b in p.monoms())


def _direction_poly(p, m):
    """q(w): the lowest form of p restricted to the direction line y = wx."""
    return Poly.from_dict({(b,): c for (a, b), c in
                           p.as_dict(native=True).items() if a + b == m},
                          Y, domain=p.domain)


def _chart(p, m, step):
    """Strict transform in the chart of a direction, divided by the m-th
    power of the exceptional equation: (x, y) -> (xy, y) at infinity,
    (x, y) -> (x, xy) at every finite direction."""
    rep = {((a, a + b - m) if step == "inf" else (a + b - m, b)): c
           for (a, b), c in p.as_dict(native=True).items()}
    return Poly.from_dict(rep, X, Y, domain=p.domain)


class _Orbit:
    """A Galois orbit of infinitely near points that gets blown up."""

    def __init__(self, parent, step, axis_x, axis_y, gens, K, labels,
                 rel_size, tangent=None):
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.step = step            # "root", "zero", "inf" or "free"
        self.axis_x = axis_x        # orbit whose component is {x = 0} here
        self.axis_y = axis_y        # orbit whose component is {y = 0} here
        self.gens = gens
        self.K = K
        self.labels = labels        # strict transforms through the point
        self.rel_size = rel_size    # orbit degree over the parent's field
        self.abs_size = rel_size if parent is None else \
            parent.abs_size * rel_size
        self.tangent = tangent      # direction at the parent (root level only)
        self.mults = {name: _order(p) for name, p in labels.items()}
        self.children = []
        self.finishes = []
        self.indices = []           # concrete component indices, from _expand
        if any(m < 1 for m in self.mults.values()):
            raise CheckFailed("a germ kept at a blow-up point does not "
                              "vanish there")


class _Finish:
    """A Galois orbit of branch endpoints: free transversal crossings."""

    def __init__(self, label, parent, step, rel_size, tangent):
        self.label = label
        self.parent = parent
        self.step = step
        self.rel_size = rel_size
        self.abs_size = parent.abs_size * rel_size
        self.tangent = tangent


def _root_tangent(node, step, phi):
    """Exact slope of a depth-one direction; None deeper in the tree."""
    if node.parent is not None:
        return None
    if step == "inf":
        return sympy.oo
    if phi.degree() == 1:
        return -phi.all_coeffs()[1]
    return sympy.CRootOf(phi.as_expr().subs(Y, ALPHA), 0)


def _blow(node, max_ext_degree):
    """Blow up an orbit: classify its direction points, recurse on the
    ones that are corners or still carry total multiplicity above one."""
    if node.depth >= MAX_DEPTH:
        raise CheckFailed(f"no reduction after {MAX_DEPTH} blow-ups; "
                          "is some input germ non-reduced?")
    directions = {}
    for name, p in node.labels.items():
        q = _direction_poly(p, node.mults[name])
        directions[name] = (q, node.mults[name] - q.degree())

    points = []
    infinity = {name: drop for name, (q, drop) in directions.items() if drop}
    if infinity:
        points.append(((0, ""), "inf", None, infinity))
    merged = {}
    for name, (q, _) in directions.items():
        for phi, mult in q.factor_list()[1]:
            phi = phi.monic()
            merged.setdefault(phi, {})[name] = mult
    # printing a Poly over a number field refines its CRootOf
    # coefficients, so the name breaks ties in degree only
    degrees = [phi.degree() for phi in merged]
    for phi, mults in merged.items():
        step = "zero" if phi.is_monomial and phi.degree() == 1 else "free"
        text = str(phi.as_expr()) if degrees.count(phi.degree()) > 1 else ""
        points.append(((phi.degree(), text), step, phi, mults))
    points.sort(key=lambda entry: entry[0])

    for _, step, phi, mults in points:
        other_axis = (node.axis_x if step == "inf" else
                      node.axis_y if step == "zero" else None)
        rel = 1 if phi is None else phi.degree()
        tangent = _root_tangent(node, step, phi)
        if other_axis is None and sum(mults.values()) == 1:
            (label,) = mults
            node.finishes.append(_Finish(label, node, step, rel, tangent))
            continue
        labels = {name: _chart(node.labels[name], node.mults[name], step)
                  for name in mults}
        if step == "inf":
            child = _Orbit(node, "inf", node.axis_x, node, node.gens,
                           node.K, labels, 1, tangent)
        else:
            gens, K = node.gens, node.K
            if phi.degree() == 1:
                beta = -phi.rep.TC()    # phi is monic: y - beta
            else:
                gens, K, beta, theta = extend(node.gens, node.K, phi,
                                              max_ext_degree)
            x = Poly.from_dict({(1, 0): K.one}, X, Y, domain=K)
            y_beta = Poly.from_dict({(0, 1): K.one, (0, 0): beta}, X, Y,
                                    domain=K)
            for name, p in labels.items():
                if K is not node.K:
                    p = lift(p, theta, K)
                if beta:
                    p = substitute(p, x, y_beta)
                labels[name] = p
            axis_y = node.axis_y if step == "zero" else None
            child = _Orbit(node, step, node, axis_y, gens, K, labels, rel,
                           tangent)
        node.children.append(child)
        _blow(child, max_ext_degree)


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _expand(root):
    """Concrete centers in blow-up order; fills each orbit's index list."""
    centers = []
    level = [(root, {})]
    while level:
        succ = []
        for node, lineage in level:
            for _ in range(node.rel_size):
                index = len(centers) + 1
                centers.append(sorted(lineage[axis]
                                      for axis in (node.axis_x, node.axis_y)
                                      if axis is not None))
                node.indices.append(index)
                extended = dict(lineage)
                extended[node] = index
                for child in node.children:
                    succ.append((child, extended))
        level = succ
    return centers


def _s_vectors(root, n, names):
    s = {name: [0] * n for name in names}
    for node in _walk(root):
        for fin in node.finishes:
            for index in node.indices:
                s[fin.label][index - 1] += fin.rel_size
    return {name: tuple(v) for name, v in s.items()}


def _noether(root, l1, l2):
    """i_0 of two labels as the multiplicity sum over the shared tree."""
    return sum(node.abs_size * node.mults.get(l1, 0) * node.mults.get(l2, 0)
               for node in _walk(root))


def _path(fin):
    path = []
    node = fin.parent
    while node is not None:
        path.append(node)
        node = node.parent
    return path[::-1]


def _branch_mults(path):
    """Multiplicity of one branch of the orbit at each node of its path,
    by the proximity equalities, seeded with the transversal endpoint."""
    d = len(path)
    m = [0] * d
    for k in reversed(range(d)):
        total = 1 if k == d - 1 else 0
        for j in range(k + 1, d):
            if path[j].axis_x is path[k] or path[j].axis_y is path[k]:
                total += m[j]
        m[k] = total
    return m


def _char_exponents(path, mults, fin):
    """Characteristic exponents of a branch, replayed from its walk.

    The state holds the t-orders of the two chart coordinates along a
    parametrisation of the branch.  A zero step divides the second
    coordinate by the first, an infinity step divides the first by the
    second, a free step replaces the second by a deviation of fresh,
    unknown order.  Observed multiplicities (the minimum of the two
    orders) pin the unknowns down, and a resolved deviation whose order
    does not sit on the current grid contributes an exponent.
    """
    steps = [(node.step, mults[k + 1]) for k, node in enumerate(path[1:])]
    steps.append((fin.step, 1))

    m0 = mults[0]
    first, second = m0, m0
    unknown = None              # which slot holds the one unknown order
    shift = 0                   # subtracted from the unknown since opening
    acc = [0, 0]                # t-orders divided out of each slot so far
    opening = (0, m0)           # (unknown slot's acc, grid) at opening
    if steps[0][0] == "zero":
        second, unknown = None, "second"
    elif steps[0][0] == "inf":
        first, unknown = None, "first"
    pairs = []

    def emit(value):
        if value % opening[1]:
            pairs.append(value + opening[0])

    for kind, observed in steps:
        if kind == "zero":
            if unknown == "first":
                raise CheckFailed("zero step while the first order is "
                                  "unknown and not below the second")
            acc[1] += first
            if unknown:
                shift += first
            elif second <= first:
                raise CheckFailed("zero step without a strictly larger "
                                  "second order")
            else:
                second -= first
        elif kind == "inf":
            if unknown == "second":
                raise CheckFailed("infinity step while the second order is "
                                  "unknown and not below the first")
            acc[0] += second
            if unknown:
                shift += second
            elif second >= first:
                raise CheckFailed("infinity step without a strictly larger "
                                  "first order")
            else:
                first -= second
        else:
            if unknown == "second":
                emit(first + shift)
                second = first
            elif unknown == "first":
                emit(second + shift)
                first = second
            if first != second:
                raise CheckFailed("free direction with unequal orders")
            acc[1] += first
            unknown, shift, opening = "second", 0, (acc[1], first)
            second = None
        if unknown:
            known = second if unknown == "first" else first
            if observed < known:
                emit(observed + shift)
                if unknown == "first":
                    first = observed
                else:
                    second = observed
                unknown = None
            elif observed != known:
                raise CheckFailed("observed multiplicity above the replayed "
                                  "order")
        elif observed != min(first, second):
            raise CheckFailed("observed multiplicity disagrees with the "
                              "replayed orders")

    exponents = (m0, *pairs)
    if math.gcd(*exponents) != 1:
        raise CheckFailed(f"characteristic exponents {exponents} are not "
                          "coprime; the branch replay is inconsistent")
    return exponents


@dataclass(frozen=True)
class Branch:
    """One branch of a labelled germ after reduction."""

    name: str
    label: str
    component: int
    conjugates: int
    orbit: int
    tangent: object
    multiplicity_sequence: tuple
    char_exponents: tuple


class _FinishInfo:
    def __init__(self, fin, orbit_id):
        self.fin = fin
        self.orbit_id = orbit_id
        self.path = _path(fin)
        self.mults = _branch_mults(self.path)
        self.char = _char_exponents(self.path, self.mults, fin)
        first = self.path[1] if len(self.path) > 1 else fin
        self.tangent = first.tangent

    def mult_at(self, node):
        try:
            return self.mults[self.path.index(node)]
        except ValueError:
            return 0


def _pair_total(fa, fb):
    """Total intersection number over all distinct branch pairs of two
    endpoint orbits (conjugate pairs within one orbit included)."""
    if fa is fb:
        total = 0
        for k, node in enumerate(fa.path):
            copies = fa.fin.abs_size // node.abs_size
            total += (node.abs_size * copies * (copies - 1) // 2
                      * fa.mults[k] ** 2)
        return total
    total = 0
    for na, nb in zip(fa.path, fb.path):
        if na is not nb:
            break
        total += (fa.fin.abs_size * fb.fin.abs_size // na.abs_size
                  * fa.mult_at(na) * fb.mult_at(na))
    return total


@dataclass(frozen=True)
class DerivedResolution:
    """Combinatorial reduction of a germ collection, oracle-checked."""

    program: BlowUpProgram
    a: object
    marking: InvariantMarking
    s_vectors: dict
    milnor: dict
    pairwise: dict
    branches: dict
    attachments: dict
    mode: str
    pencil: PencilModel = None
    bifurcation: object = None
    generators: tuple = None
    mu_pair: int = None


def _normalize_germs(germs, mode):
    if isinstance(germs, (Germ, str)) or isinstance(germs, sympy.Basic):
        germs = [germs]
    if hasattr(germs, "items"):
        items = [(str(k), v) for k, v in germs.items()]
    else:
        items = []
        for k, g in enumerate(germs):
            name = getattr(g, "name", None) or f"c{k + 1}"
            items.append((name, g))
    items = [(n, g if isinstance(g, Germ) else Germ(g)) for n, g in items]
    if not items:
        raise InputError("no germs given")
    names = [n for n, _ in items]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate germ names: {names}")
    for name, germ in items:
        if germ.order() < 1:
            raise InputError(f"germ {name!r} does not vanish at the origin")
    if mode == "pencil" and len(items) != 2:
        raise InputError("a pencil takes exactly two generator germs")
    return items


def _branch_objects(infos, n):
    branches, attachments = {}, {}
    for info in infos:
        fin = info.fin
        per_label = branches.setdefault(fin.label, [])
        for index in fin.parent.indices:
            for _ in range(fin.rel_size):
                per_label.append(Branch(
                    name=f"{fin.label}.{len(per_label) + 1}",
                    label=fin.label,
                    component=index,
                    conjugates=fin.abs_size,
                    orbit=info.orbit_id,
                    tangent=info.tangent,
                    multiplicity_sequence=tuple(info.mults),
                    char_exponents=info.char))
    for label, bs in branches.items():
        attachments[label] = tuple(
            BranchAttachment(b.name, tuple(1 if i + 1 == b.component else 0
                                           for i in range(n)))
            for b in bs)
    return ({label: tuple(bs) for label, bs in branches.items()}, attachments)


def _check_tree(root, items, infos, s_vectors, a, oracle_mu, oracle_i0):
    """Cross-check the tree against the quadratic form and the oracle."""
    names = [name for name, _ in items]
    for name in names:
        mu = milnor_curve(s_vectors[name], a)
        if mu != oracle_mu[name]:
            raise OracleMismatch(
                f"mu({name}) = {mu} from the reduction, {oracle_mu[name]} "
                "from the resultant oracle")
    pairwise = {}
    by_label = {}
    for info in infos:
        by_label.setdefault(info.fin.label, []).append(info)
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            quad = intersection_number(s_vectors[ni], s_vectors[nj], a)
            tree = _noether(root, ni, nj)
            split = sum(_pair_total(fa, fb)
                        for fa in by_label.get(ni, [])
                        for fb in by_label.get(nj, []))
            if not quad == tree == split:
                raise CheckFailed(
                    f"i0({ni}, {nj}): pairing {quad}, multiplicity sum "
                    f"{tree}, branch total {split}")
            if (ni, nj) in oracle_i0 and quad != oracle_i0[ni, nj]:
                raise OracleMismatch(
                    f"i0({ni}, {nj}) = {quad} from the reduction, "
                    f"{oracle_i0[ni, nj]} from the resultant oracle")
            pairwise[ni, nj] = quad
    for name in names:
        own = by_label.get(name, [])
        delta = sum(_pair_total(fa, fb)
                    for i, fa in enumerate(own) for fb in own[i:])
        delta += sum(fa.fin.abs_size * m * (m - 1) // 2
                     for fa in own for m in fa.mults)
        count = sum(fa.fin.abs_size for fa in own)
        if 2 * delta - count + 1 != oracle_mu[name]:
            raise CheckFailed(
                f"branch data of {name} gives mu = {2*delta - count + 1}, "
                f"oracle says {oracle_mu[name]}")
    return pairwise


def derive_resolution(germs, mode="curve", seed=0, max_ext_degree=8):
    """Reduce a set of germs (mode "curve") or a pencil (mode "pencil").

    Returns a DerivedResolution holding the blow-up program, attachment
    vectors, branch data and, for a pencil, the dicritical marking and the
    assembled PencilModel.  Every number is cross-checked against the
    resultant oracle.  `seed` is accepted for callers that still pass it
    and ignored: nothing in the derivation is drawn at random.
    """
    if mode == "curve":
        resolution, _ = _derive_curves(_normalize_germs(germs, mode),
                                       max_ext_degree)
        return resolution
    if mode == "pencil":
        return _derive_pencil(_normalize_germs(germs, mode), max_ext_degree)
    raise InputError(f"unknown mode {mode!r}; use 'curve' or 'pencil'")


def _reduce(items, oracle_mu, oracle_i0, max_ext_degree):
    """Grow the tree of the labelled germs, expand it to a program and
    cross-check it: (program, a, s_vectors, infos, pairwise)."""
    labels = {name: germ.poly.set_domain(QQ) for name, germ in items}
    root = _Orbit(None, "root", None, None, (), QQ, labels, 1)
    _blow(root, max_ext_degree)
    program = BlowUpProgram.from_lists(_expand(root))
    a = build_intersection(build_cholesky(program))
    s_vectors = _s_vectors(root, program.n, list(labels))
    infos = []
    for node in _walk(root):
        for fin in node.finishes:
            infos.append(_FinishInfo(fin, len(infos) + 1))
    pairwise = _check_tree(root, items, infos, s_vectors, a, oracle_mu,
                           oracle_i0)
    return program, a, s_vectors, infos, pairwise


def _derive_curves(items, max_ext_degree):
    oracle_mu, oracle_i0 = {}, {}
    for name, germ in items:
        mu = oracle_milnor(germ)
        if mu == INFINITE:
            raise UnsupportedGerm(f"germ {name!r} is not reduced")
        oracle_mu[name] = mu
    for i, (ni, gi) in enumerate(items):
        for nj, gj in items[i + 1:]:
            v = oracle_intersection(gi, gj)
            if v == INFINITE:
                raise UnsupportedGerm(f"germs {ni!r} and {nj!r} share a "
                                      "branch")
            oracle_i0[ni, nj] = v

    program, a, s_vectors, infos, pairwise = _reduce(
        items, oracle_mu, oracle_i0, max_ext_degree)
    branches, attachments = _branch_objects(infos, program.n)
    marking = InvariantMarking((1,) * program.n).validate_against(a)
    resolution = DerivedResolution(
        program=program, a=a, marking=marking, s_vectors=s_vectors,
        milnor=oracle_mu, pairwise=pairwise, branches=branches,
        attachments=attachments, mode="curve")
    return resolution, infos


@dataclass(frozen=True)
class BranchData:
    """Branch-level picture of one reduced germ."""

    branches: tuple
    pairwise: dict
    program: BlowUpProgram
    a: object
    s: tuple
    mu: int


def branch_analysis(germ, max_ext_degree=8):
    """Branches of a single reduced germ: characteristic exponents,
    multiplicity sequences, tangents, and pairwise intersection totals
    keyed by endpoint-orbit id (a pair (i, i) is the total over the
    conjugate pairs inside orbit i)."""
    if not isinstance(germ, Germ):
        germ = Germ(germ)
    if germ.order() < 1:
        raise InputError("the germ does not vanish at the origin")
    name = germ.name or "f"
    resolution, infos = _derive_curves([(name, germ)], max_ext_degree)
    pairwise = {}
    for i, fa in enumerate(infos):
        for fb in infos[i:]:
            total = _pair_total(fa, fb)
            if total or fa is not fb:
                pairwise[fa.orbit_id, fb.orbit_id] = total
    return BranchData(branches=resolution.branches[name],
                      pairwise=pairwise,
                      program=resolution.program,
                      a=resolution.a,
                      s=resolution.s_vectors[name],
                      mu=resolution.milnor[name])


def _detectors(candidates):
    """Parameters t = 1, -1, 2, -2, 3, ... of generic detector members.

    0 (the member f) and the value of every rational candidate are skipped.
    The candidates hold every root of gcd(c_u e_u) over the certifying
    shears (see bifurcation_candidates), and an integer avoids the roots of
    every irreducible factor of degree above one, so each member f + t g
    yielded here has the generic Milnor number."""
    taken = {0} | {c.value for c in candidates if c.conjugates == 1}
    for n in itertools.count(1):
        for t in (n, -n):
            if t not in taken:
                yield sympy.Integer(t)


def _separate_dicriticals(program, iota, s_vectors):
    """Blow remaining corners between two dicritical components.

    Such a corner carries the one pencil member through it, which is
    generic whenever it is not already a label of the tree, so no tracked
    vector changes; the new component is invariant."""
    while True:
        pair = min(((i, j) for i, j in program.meets
                    if iota[i - 1] == 0 and iota[j - 1] == 0), default=None)
        if pair is None:
            return program, iota, s_vectors
        program = BlowUpProgram.from_lists(program.to_lists() + [list(pair)])
        iota = iota + [1]
        s_vectors = {name: s + (0,) for name, s in s_vectors.items()}


def _derive_pencil(items, max_ext_degree):
    (_, f), (g_name, g) = items
    data = bifurcation_candidates(f, g, max_ext_degree=max_ext_degree)
    special = [c for c in data.candidates if c.status == "bifurcation"]
    for c in special:
        if c.minpoly.degree() > 1:
            raise ExtensionDegreeExceeded(
                "a special member sits at an algebraic parameter with "
                f"minimal polynomial {c.minpoly.as_expr()}; the reduction "
                "route needs rational special values")
    mu_pair = oracle_mu_pair(f, g)

    members = {}
    for c in special:
        t = sympy.Rational(c.value)
        members[f"t={t}"] = (f.combine(g, t), c.mu)
    if data.mu_g > data.mu_generic:
        members[g_name] = (g, data.mu_g)

    # a special generator gives way to a generic detector member
    detectors = _detectors(data.candidates)
    generators = []
    for (name, germ), mu in zip(items, (data.mu_f, data.mu_g)):
        if mu > data.mu_generic:
            t = next(detectors)
            name, germ = f"t={t}", f.combine(g, t)
        generators.append((name, germ))
    (gen1, _), (gen2, _) = generators
    labels = dict(generators)
    labels.update((name, germ) for name, (germ, _) in members.items())
    if len(labels) != 2 + len(members):
        raise InputError("generator names collide with pencil member "
                         "labels; rename the input germs")
    oracle_mu = {gen1: data.mu_generic, gen2: data.mu_generic}
    oracle_mu.update((name, mu) for name, (_, mu) in members.items())
    # two distinct members span the ideal (f, g), so they meet in i0(f, g)
    program, _, s_vectors, infos, pairwise = _reduce(
        list(labels.items()), oracle_mu, {(gen1, gen2): data.i0},
        max_ext_degree)
    if s_vectors[gen1] != s_vectors[gen2]:
        # generic members are equisingular (Le-Ramanujam), so they cross
        # the same dicritical components transversally
        raise OracleMismatch(f"the generic members {gen1} and {gen2} attach "
                             "differently; the pencil structure looks "
                             "unstable")

    iota = [0 if v else 1 for v in s_vectors[gen1]]
    program, iota, s_vectors = _separate_dicriticals(program, iota, s_vectors)
    a = build_intersection(build_cholesky(program))
    generic_s = s_vectors[gen1]
    branches, attachments = _branch_objects(infos, program.n)
    marking = InvariantMarking(tuple(iota)).validate_against(a)

    fibers = [Fiber(name, s_vectors[name], mu)
              for name, (_, mu) in members.items()]
    # a pencil foliation is a fibration after reduction: both hypotheses hold
    ledger = HypothesisLedger(generalized_curve="asserted",
                              second_class="asserted")
    model = PencilModel(a=a, marking=marking, bifurcation_fibers=fibers,
                        generic_s=generic_s, mu_generic=data.mu_generic,
                        i0=data.i0, generators=(gen1, gen2), ledger=ledger)
    s_b = total_vector(fiber_balanced_divisor(model), a.n)
    mu_model = milnor_foliation(s_b, a, ledger)
    if mu_model != mu_pair:
        raise OracleMismatch(
            f"the pencil foliation has mu = {mu_model} from the balanced "
            f"divisor but {mu_pair} from the resultant oracle")
    return DerivedResolution(
        program=program, a=a, marking=marking, s_vectors=s_vectors,
        milnor=oracle_mu, pairwise=pairwise, branches=branches,
        attachments=attachments, mode="pencil", pencil=model,
        bifurcation=data, generators=(gen1, gen2), mu_pair=mu_pair)
