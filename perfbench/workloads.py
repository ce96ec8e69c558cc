"""The four workloads: corpora made from a seed, item calls and checks.

A corpus is a list of small descriptors made in set-up.  `prepare` turns a
descriptor into a `Unit` outside the timed region: a sequence of timed
calls (each call is one item) and a check of their outputs.  A check
returns None when every output is right, or a message naming the wrong
one; then every item of the unit counts as failed.

Every input is made here from the workload seed.  The program sees only
the generated inputs: integer center lists and vectors, germ strings and
scene files.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


@dataclass
class Unit:
    calls: list          # [(label, zero-argument callable)]
    check: object        # callable(list of outputs) -> None or message


class Workload:
    """Defaults for a workload: children by default, nothing to clean up."""

    in_process = False     # cli-cold: call cli.main in this process instead
    calibration = "warm"   # the kind of sample that scales its items
    # The first `lead` units open every timed run and do not count toward
    # --seconds: they are the same in every run, and a long one would
    # otherwise shift how much of the seeded corpus a run reaches.  After
    # them a run may stop only before unit `lead + k * block`, so every run
    # covers whole blocks of the corpus's mix and no seed ends on a stretch
    # of cheap or of costly items.
    lead, block = 0, 1

    def may_stop(self, index):
        return index >= self.lead and (index - self.lead) % self.block == 0

    def cleanup(self):
        pass


def _fresh_ints(rng):
    """Endless 40-bit integers from rng, none repeated."""
    seen = set()
    while True:
        k = rng.getrandbits(40)
        if k not in seen:
            seen.add(k)
            yield k


# ---------------------------------------------------------------------------
# lattice: verify battery items interleaved with large programs

SMALLS_PER_LARGE = 12
LARGE_N = 100
SMALL_MAX_N = 12


def _battery_size(key):
    """The program size n that verify_battery(count=1, seed=key) draws.

    Its first draw from Random("verify-<key>") is random_scene_doc's
    program, from random_program_lists.  Should that change, the strata
    below stop matching the sizes; every check still holds."""
    from folindex.verify import random_program_lists
    return len(random_program_lists(random.Random(f"verify-{key}"),
                                    SMALL_MAX_N))


class Lattice(Workload):
    """Small items are one-program verify batteries (n <= 12); every
    SMALLS_PER_LARGE of them a large program at n = LARGE_N goes through
    the public pairings.  All of the work is integer lattice algebra.

    A small item's cost grows with its program size n, from under 1 ms at
    n = 1 to 40 ms at n = 12.  So the battery seeds are dealt in strata:
    each cycle holds one seed for every n from 1 to 12, in seeded order,
    and every run meets the same mix of sizes that verify_battery draws
    from.  Drawn freely, the median of a run's small items moved by a
    tenth from seed to seed with the host's speed factored out."""

    fixed_units = 2 * (SMALLS_PER_LARGE + 1)
    block = SMALLS_PER_LARGE + 1

    def corpus(self, seed, cycles=120):
        rng = random.Random(f"lattice-{seed}")
        by_size = {n: [] for n in range(1, SMALL_MAX_N + 1)}
        keys = _fresh_ints(rng)
        units = []
        for _ in range(cycles):
            while any(not bucket for bucket in by_size.values()):
                key = next(keys)
                by_size[_battery_size(key)].append(key)
            block = [("small", by_size[n].pop()) for n in by_size]
            rng.shuffle(block)
            units += block + [("large", next(keys))]
        return units

    def warmup(self, seed):
        units = self.corpus(f"warmup-{seed}", cycles=1)
        return units[:8] + units[-1:]

    def prepare(self, desc):
        kind, key = desc
        if kind == "small":
            return self._small(key)
        return self._large(key)

    def _small(self, key):
        from folindex.verify import verify_battery
        from folindex.verify import CHECKS

        def check(outputs):
            stats = outputs[0]
            if stats["programs"] != 1 or set(stats["checks"]) != set(CHECKS) \
                    or any(v != 1 for v in stats["checks"].values()):
                return f"battery seed {key}: unexpected stats {stats}"
            return None
        return Unit([("battery", lambda: verify_battery(count=1, seed=key,
                                                        max_n=12))], check)

    def _large(self, key):
        from folindex.blowup import (BlowUpProgram, build_cholesky,
                                     build_intersection)
        from folindex.divisors import (BranchAttachment, InvariantMarking,
                                       enumerate_balanced, total_vector)
        from folindex.indices import (HypothesisLedger,
                                      curve_multiplicity_sequence, gsv,
                                      intersection_number, milnor_curve,
                                      milnor_foliation, vanishing_orders)
        from folindex.verify import random_program_lists

        rng = random.Random(f"lattice-large-{key}")
        n = LARGE_N
        lists = random_program_lists(rng, 2 * n)
        while len(lists) < n:
            lists = random_program_lists(rng, 2 * n)
        lists = lists[:n]
        centers = [tuple(c) for c in lists]
        adj = reference.adjacency(centers)
        # one to three pairwise non-adjacent dicritical components
        iota = [1] * n
        for i in rng.sample(range(2, n + 1), 3):
            if all(iota[j - 1] for j in adj[i]):
                iota[i - 1] = 0
        invariant = [i for i in range(n) if iota[i]]
        s1 = [0] * n
        for i in rng.sample(invariant, 2):
            s1[i] += rng.randint(1, 3)
        s2 = [0] * n
        for i in rng.sample(range(n), 2):
            s2[i] += rng.randint(1, 3)
        s1, s2 = tuple(s1), tuple(s2)
        program = BlowUpProgram.from_lists(lists)
        marking = InvariantMarking(tuple(iota))
        branch = BranchAttachment("c1", s1)
        ledger = HypothesisLedger(second_class="asserted",
                                  generalized_curve="asserted")

        def run():
            f = build_cholesky(program)
            a = build_intersection(f)
            divisors = list(itertools.islice(
                enumerate_balanced(marking, a, (branch,)), 2))
            totals = [total_vector(d, n) for d in divisors]
            return {
                "mu": milnor_curve(s1, a),
                "i12": intersection_number(s1, s2, a),
                "i21": intersection_number(s2, s1, a),
                "mults": curve_multiplicity_sequence(s1, f),
                "orders": vanishing_orders(s1, a),
                "totals": totals,
                "mu_fol": [milnor_foliation(t, a, ledger) for t in totals],
                "gsv": gsv(totals[0], s1, a) if totals else None,
            }

        def check(outputs):
            out = outputs[0]
            s_b = reference.balanced_total(centers, iota, s1)
            want = {
                "mu": reference.milnor(centers, s1),
                "i12": reference.pairing(centers, s1, s2),
                "i21": reference.pairing(centers, s1, s2),
                "mults": reference.multiplicities(centers, s1),
                "orders": reference.vanishing_orders(centers, s1),
                "gsv": reference.gsv(centers, s_b, s1),
            }
            for name, value in want.items():
                if out[name] != value:
                    return f"large {key}: {name} = {out[name]}, reference {value}"
            if len(out["totals"]) != 2:
                return f"large {key}: {len(out['totals'])} balanced divisors"
            mu_ref = reference.milnor(centers, s_b)
            for total, mu in zip(out["totals"], out["mu_fol"]):
                if tuple(total) != s_b or mu != mu_ref:
                    return f"large {key}: balanced total {total} / mu {mu}, " \
                           f"reference {s_b} / {mu_ref}"
            return None
        return Unit([("large", run)], check)


# ---------------------------------------------------------------------------
# oracle: criterion-8 style germ pairs plus the y^p - x^q family

# First in every run, so that every run pays for all three.
FAMILY = ((5, 8), (8, 13), (13, 21))


COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _germ_terms(rng, degree):
    """criterion 8's generator at a given degree: 2-4 terms c*x^a*y^b."""
    poly = {}
    for _ in range(rng.randint(2, 4)):
        a = rng.randint(0, degree)
        b = rng.randint(0 if a else 1, degree - a)
        c = rng.choice(COEFFICIENTS)
        poly[a, b] = poly.get((a, b), 0) + c
    return {m: c for m, c in poly.items() if c}


def _divides(poly, a, b):
    return all(ma >= a and mb >= b for ma, mb in poly)


def _usable(f, g):
    """Filters that need no oracle: a zero germ, a germ divisible by x^2 or
    y^2 (not reduced), a common factor x or y."""
    return f and g and not any(_divides(p, 2, 0) or _divides(p, 0, 2)
                               for p in (f, g)) \
        and not (_divides(f, 1, 0) and _divides(g, 1, 0)) \
        and not (_divides(f, 0, 1) and _divides(g, 0, 1))


def _proportional(f, g):
    """f = c*g spans no pencil, and oracle_mu_pair rejects it."""
    if f.keys() != g.keys():
        return False
    return len({Fraction(c, g[m]) for m, c in f.items()}) == 1


def _slots(count):
    """criterion 8's candidate pairs, in criterion 8's order.

    Drawn from criterion 8's own seed ("acceptance-8") and generator
    (degree 1..6, 2-4 terms, coefficients +-1..3), keeping the usable
    pairs.  A run's seed changes only signs (see `_signed`), which leave
    every answer and nearly every cost as they are: a run covers a few
    dozen pairs, and with coefficients drawn from the seed the cost of
    those pairs, and so items_per_s, varied by a tenth between seeds.
    """
    rng = random.Random("acceptance-8")
    slots = []
    while len(slots) < count:
        f = _germ_terms(rng, rng.randint(1, 6))
        g = _germ_terms(rng, rng.randint(1, 6))
        if _usable(f, g) and not _proportional(f, g):
            slots.append((f, g))
    return slots


def _signed(rng, f, g):
    """The pair under x -> +-x, y -> +-y, f -> +-f, g -> +-g."""
    sx, sy, sf, sg = (rng.choice((-1, 1)) for _ in range(4))
    return ({(a, b): c * sf * sx ** a * sy ** b for (a, b), c in f.items()},
            {(a, b): c * sg * sx ** a * sy ** b for (a, b), c in g.items()})




def _mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


# Pairs whose product has degree 10 or more are left out: each takes 3-6 s,
# a fifth of a run, so whether a run reached one would set its figures.
MAX_PRODUCT_DEGREE = 9
WARMUP_SLOTS = 20
SLOTS = [(f, g) for f, g in _slots(900)
         if max(a + b for a, b in _mul(f, g)) <= MAX_PRODUCT_DEGREE]


def _interleaved(slots, bands=4):
    """The slots dealt one from each size band in turn, each band in
    criterion 8's order.  How far a run gets moves with the host's speed;
    dealt this way, every stretch of the corpus mixes all sizes, so the
    figures do not depend on where the run stops.  Size is the degree and
    the term count of f*g."""
    def size(fg):
        product = _mul(*fg)
        return max(a + b for a, b in product), len(product)
    rank = sorted(range(len(slots)), key=lambda i: size(slots[i]))
    band = {i: r * bands // len(slots) for r, i in enumerate(rank)}
    groups = [[s for i, s in enumerate(slots) if band[i] == b]
              for b in range(bands)]
    return [s for row in zip(*groups) for s in row]


TIMED_SLOTS = _interleaved(SLOTS[:-WARMUP_SLOTS])


def germ_text(poly):
    parts = []
    for (a, b), c in sorted(poly.items(), key=lambda mc: (-sum(mc[0]), mc[0])):
        mono = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in (("x", a), ("y", b)) if e)
        sign = "-" if c < 0 else "+"
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _plus(a, b):
    return math.inf if math.inf in (a, b) else a + b


class Oracle(Workload):
    """Each item is one public oracle call.  A pair unit asks mu(f), mu(g),
    i0(f, g), mu(fg) and mu(f, g); a family unit asks mu(y^p - x^q)."""

    fixed_units = 10
    lead, block = len(FAMILY), 4     # the family, then rows of the bands

    def corpus(self, seed):
        rng = random.Random(f"oracle-{seed}")
        units = [("family", p, q) for p, q in FAMILY]
        for f, g in TIMED_SLOTS:
            f, g = _signed(rng, f, g)
            units.append(("pair", germ_text(f), germ_text(g),
                          germ_text(_mul(f, g))))
        return units

    def warmup(self, seed):
        # the smallest of the slots kept out of the timed corpus
        rng = random.Random(f"oracle-warmup-{seed}")
        f, g = _signed(rng, *min(SLOTS[-WARMUP_SLOTS:],
                                 key=lambda fg: len(_mul(*fg))))
        return [("pair", germ_text(f), germ_text(g), germ_text(_mul(f, g)))]

    def prepare(self, desc):
        from folindex.oracle import (oracle_intersection, oracle_milnor,
                                     oracle_mu_pair)
        if desc[0] == "family":
            _, p, q = desc
            text = f"y^{p} - x^{q}"

            def check_family(outputs):
                want = (p - 1) * (q - 1)
                if outputs[0] != want:
                    return f"mu({text}) = {outputs[0]}, want {want}"
                return None
            return Unit([(f"mu({text})", lambda: oracle_milnor(text))],
                        check_family)

        _, f, g, fg = desc

        def check_pair(outputs):
            mu_f, mu_g, i0, mu_fg, mu_pair = outputs
            for v in outputs:
                if not (v == math.inf or isinstance(v, int) and v >= 0):
                    return f"f={f}, g={g}: value {v!r} is not a count"
            rhs = _plus(_plus(mu_f, mu_g), _plus(2 * i0, -1))
            if mu_fg != rhs:
                return f"f={f}, g={g}: mu(fg) = {mu_fg}, mu(f) + mu(g) " \
                       f"+ 2 i0 - 1 = {rhs}"
            # mu(f, g) = mu(fg) + the nonnegative jumps of the special fibers
            if mu_pair < mu_fg:
                return f"f={f}, g={g}: mu(f, g) = {mu_pair} < mu(fg) = {mu_fg}"
            return None
        return Unit([("milnor", lambda: oracle_milnor(f)),
                     ("milnor", lambda: oracle_milnor(g)),
                     ("intersection", lambda: oracle_intersection(f, g)),
                     ("milnor", lambda: oracle_milnor(fg)),
                     ("mu_pair", lambda: oracle_mu_pair(f, g))], check_pair)


# ---------------------------------------------------------------------------
# resolve: germ families that are reduced by construction, and pencils

# Every parameter below comes from a finite set whose members were all
# resolved once, each in under 0.5 s.  Complex tangents stay in the cheap
# families: blowing up a point defined over an imaginary quadratic field
# costs from 5 s to 45 s and would swamp a run.
NONSQUARES = (-1, -2, -3, 2, 3, 5, 6, 7)
REAL_NONSQUARES = (2, 3, 5, 6, 7, 10, 11, 13)
COEFFS = (1, 2, 3, -1, -2, -3)
SLOPES = (0, 1, -1, 2, -2, 3, -3)
CUSPS = ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 7), (4, 7), (5, 7))


def _curve(text, mu):
    return {"c": text}, "curve", {"milnor": {"c": mu}, "pairwise": {}}


class Draw:
    """A seeded source of family parameters.  `deal` hands out the shape
    parameter that sets most of an item's cost (the tangent count, the
    cusp exponents, the field) from a shuffled deck per family, so a run
    of a few rounds meets each shape about as often as any other run."""

    def __init__(self, rng):
        self.rng, self.decks = rng, {}

    def deal(self, family, shapes):
        deck = self.decks.setdefault(family, [])
        if not deck:
            deck.extend(self.rng.sample(shapes, len(shapes)))
        return deck.pop()


def _ordinary(draw):
    rng, k = draw.rng, draw.deal("ordinary", (2, 3, 4))
    lines = "*".join(f"(y - {a}*x)" for a in rng.sample(SLOPES, k))
    return _curve(f"{lines} + {rng.choice(COEFFS)}*x^{k + 1}", (k - 1) ** 2)


def _conjugate_tangents(draw):
    rng, d = draw.rng, draw.deal("conjugate", NONSQUARES)
    a = rng.choice(SLOPES)
    return _curve(f"(y^2 - {d}*x^2)*(y - {a}*x) + {rng.choice(COEFFS)}*x^4", 4)


def _cusp(draw):
    p, q = draw.deal("cusp", CUSPS)
    return _curve(f"y^{p} - {draw.rng.choice(COEFFS)}*x^{q}", (p - 1) * (q - 1))


def _late_tangents(draw):
    rng, m = draw.rng, draw.deal("late", (2, 3, None))
    d, c = rng.choice(NONSQUARES), rng.choice(COEFFS)
    if m is not None:
        return _curve(f"y^2 - {d}*x^{2 * m} + {c}*x^{2 * m + 1}", 2 * m - 1)
    return _curve(f"y^4 - {d}*x^6 + {c}*x^7", 15)


def _algebraic_point(draw):
    d = draw.deal("algebraic", REAL_NONSQUARES)
    return _curve(f"(y^2 - {d}*x^2)^2 - {draw.rng.choice(COEFFS)}*x^5", 11)


def _two_cusps(draw):
    a, b = draw.rng.choice(COEFFS), draw.rng.choice(COEFFS)
    return ({"f": f"y^2 - {a}*x^3", "g": f"y^3 - {b}*x^2"}, "curve",
            {"milnor": {"f": 2, "g": 2}, "pairwise": {("f", "g"): 4}})


def _node_cusp_pencil(draw):
    a, b = draw.rng.choice(COEFFS), draw.rng.choice(COEFFS)
    return {"f": f"x*y + {a}*y^2 + {b}*x^3", "g": "x*y"}, "pencil", 12


FAMILIES = (_ordinary, _cusp, _conjugate_tangents, _late_tangents,
            _two_cusps, _algebraic_point, _ordinary, _conjugate_tangents,
            _node_cusp_pencil, _late_tangents)
# Run once per run, after the first round of families: the triple-tangent
# pencil (1.3 s) and a point over Q(i) blown up further (4.7 s).
ONCE = (({"f": "x^3 + y^5 + y^3 - 3*x^2*y", "g": "y^3 - 3*x^2*y"}, "pencil",
         33),
        _curve("(y^2 + x^2)^2 - x^5", 11))


class Resolve(Workload):
    """Each item is one derive_resolution call followed by the
    derived_scene -> parse_scene replay of its invariants."""

    fixed_units = 12
    lead, block = len(FAMILIES) + len(ONCE), len(FAMILIES)   # whole rounds

    def corpus(self, seed):
        # the warm-up's draws are reserved, so no timed item is warmed
        seen = set()
        self._draw(random.Random(f"resolve-warmup-{seed}"), seen, 1)
        return self._draw(random.Random(f"resolve-{seed}"), seen, 60)

    def warmup(self, seed):
        return self._draw(random.Random(f"resolve-warmup-{seed}"), set(), 1)[:4]

    @staticmethod
    def _draw(rng, seen, rounds):
        """Rounds of FAMILIES; ends early once a family has no new member."""
        units, draw = [], Draw(rng)
        for round_ in range(rounds):
            for family in FAMILIES:
                for _ in range(200):
                    unit = family(draw)
                    key = tuple(sorted(unit[0].items()))
                    if key not in seen:
                        break
                else:
                    return units
                seen.add(key)
                units.append(unit)
            if round_ == 0:
                units += ONCE
        return units

    def prepare(self, desc):
        from folindex.indices import intersection_number, milnor_curve
        from folindex.pencil import bifurcation_formula_check
        from folindex.resolve import derive_resolution
        from folindex.scenes import derived_scene, dump_scene, parse_scene

        germs, mode, expected = desc

        def run():
            res = derive_resolution(germs, mode=mode, seed=0)
            scene = parse_scene(dump_scene(derived_scene(res, name="replay")))
            if mode == "pencil":
                record = bifurcation_formula_check(scene.pencil_model)
                replay = {"mu_pair": record.path_quadratic,
                          "telescoped": record.path_telescoped}
            else:
                replay = {"milnor": {name: milnor_curve(b.s, scene.a)
                                     for name, b in scene.branches.items()},
                          "pairwise": {(i, j): intersection_number(
                              scene.branches[i].s, scene.branches[j].s,
                              scene.a) for i, j in res.pairwise}}
            return res, replay

        def check(outputs):
            res, replay = outputs[0]
            if mode == "pencil":
                got = (res.mu_pair, replay["mu_pair"], replay["telescoped"])
                if got != (expected,) * 3:
                    return f"{germs}: mu(f, g) oracle/replay/telescoped {got}, " \
                           f"want {expected}"
                return None
            got = {"milnor": res.milnor, "pairwise": res.pairwise}
            if replay != got or got != expected:
                return f"{germs}: derived {got}, replayed {replay}, " \
                       f"want {expected}"
            return None
        return Unit([("resolve", run)], check)


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m folindex.cli` child per item

SCENE_COMMANDS = {"combinatorial": "invariants", "pencil": "pencil"}
RANDOM_SCENES = 120
RANDOM_PER_SCENE = 3


def scene_command(path):
    doc = json.loads(Path(path).read_text())
    if doc["kind"] == "polynomial":
        return "pencil" if doc.get("pencil") or "g" in doc else "invariants"
    return SCENE_COMMANDS[doc["kind"]]


class CliCold(Workload):
    """Every committed scene with the command its kind calls for, seeded
    combinatorial scenes from verify.random_scene_doc, and short verify
    runs.  `invariants` on a pencil scene (exit 1) is left out."""

    fixed_units = 40
    calibration = "cold"

    directory = None

    def corpus(self, seed):
        from folindex.verify import random_scene_doc

        rng = random.Random(f"cli-{seed}")
        self.directory = OUT / f"cli-{os.getpid()}"
        self.directory.mkdir(parents=True, exist_ok=True)
        scenes = sorted((ROOT / "scenes").glob("*.json"))
        units = []
        for k in range(RANDOM_SCENES):
            if k % RANDOM_PER_SCENE == 0 and k // RANDOM_PER_SCENE < len(scenes):
                path = scenes[k // RANDOM_PER_SCENE]
                units.append([scene_command(path), "--scene", str(path)])
            if k % 8 == 7:
                units.append(["verify", "--count", "3",
                              "--seed", str(rng.getrandbits(30))])
            doc = random_scene_doc(rng, 12)
            doc["name"] = f"random-{k}"
            path = self.directory / f"random-{k}.json"
            path.write_text(json.dumps(doc))
            units.append(["invariants", "--scene", str(path)])
        return units

    def warmup(self, seed):
        # a verify run, whose seed no timed verify run draws in practice
        return [["verify", "--count", "1",
                 "--seed", str(random.Random(f"cli-warmup-{seed}").getrandbits(30))]]

    def cleanup(self):
        if self.directory is not None:
            for path in self.directory.glob("*.json"):
                path.unlink()
            self.directory.rmdir()

    def prepare(self, argv):
        argv = argv + ["--format", "json"]

        def run_child():
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            proc = subprocess.run([sys.executable, "-m", "folindex.cli"] + argv,
                                  cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def run_in_process():
            from folindex.cli import main
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(outputs):
            code, stdout, stderr = outputs[0]
            if code != 0:
                return f"{' '.join(argv)}: exit {code}: {stderr.strip()[:200]}"
            try:
                json.loads(stdout)
            except ValueError:
                return f"{' '.join(argv)}: output is not JSON"
            return None
        return Unit([(argv[0], run_in_process if self.in_process else run_child)],
                    check)


WORKLOADS = {"lattice": Lattice, "oracle": Oracle, "resolve": Resolve,
             "cli-cold": CliCold}
