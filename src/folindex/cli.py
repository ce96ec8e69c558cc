"""Command line: invariants, pencil, verify, resolve.

Every command reads a scene file (except `verify`, which generates its
own data), computes exact invariants, and prints a report as text or
JSON.  Exit codes: 0 all checks pass, 1 an identity or cross-check
failed, 2 bad input, 3 the germ needs a field extension beyond the
configured bound or is otherwise outside the supported class.

The polynomial front end (`oracle`, `resolve`, and with them sympy) is
imported only by the commands that run it on a polynomial scene, so
combinatorial scenes and `verify` never load it.
"""

import argparse
import json
import sys

from . import exact
from .blowup import dual_graph_dot
from .divisors import require_balanced, total_vector
from .errors import (CheckFailed, ExtensionDegreeExceeded, FolindexError,
                     InputError, MissingReducedData, NonIntegerResult,
                     PropertyViolation, SceneParseError, UnsupportedGerm)
from .indices import (bb_total, cs_combinatorial, cs_total,
                      curve_multiplicity_sequence, discrepancies, gsv,
                      intersection_number, milnor_along, milnor_curve,
                      milnor_decomposition, milnor_foliation,
                      var_total, vanishing_orders)
from .pencil import (bifurcation_formula_check, fiber_balanced_divisor,
                     fiber_gsv_check, semitame_check, unfolding_dimension)
from .report import FORMULAS, Report, _encode
from .scenes import derived_scene, dump_scene, load_scene
from .verify import verify_battery


def _consumed(ledger, mark):
    return tuple(dict.fromkeys(flag for _, flag, _ in ledger.consumed[mark:]))


def _settings(scene, args):
    """Effective (seed, max extension degree): flag beats scene beats default."""
    seed = args.seed
    if seed is None:
        seed = getattr(scene, "seed", 0)
    ext = args.max_ext_degree
    if ext is None:
        ext = getattr(scene, "max_extension_degree", 8)
    return seed, ext


def _write_dot(path, a, marking, labels=None):
    with open(path, "w") as handle:
        handle.write(dual_graph_dot(a, marking, labels))


# -- invariants ---------------------------------------------------------------

def _combinatorial_invariants(scene, report):
    a, f, marking = scene.a, scene.f_matrix, scene.marking
    ledger = scene.ledger
    n = a.n
    report.add("components", n)
    report.check("proximity", exact.matvec(f.transpose(), exact.ones(n)),
                 tuple(2 + a.rows[i][i] for i in range(n)),
                 formula="F^T u = 2u + diag A")
    names = list(scene.branches)
    for name in names:
        s = scene.branches[name].s
        report.add(f"mu({name})", milnor_curve(s, a),
                   formula=FORMULAS["mu_curve"])
        report.add(f"multiplicities({name})",
                   curve_multiplicity_sequence(s, f),
                   formula=FORMULAS["multiplicities"])
        report.add(f"orders({name})", vanishing_orders(s, a)[0],
                   formula="M = -A^-1 S_C")
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            report.add(f"i0({n1}, {n2})",
                       intersection_number(scene.branches[n1].s,
                                           scene.branches[n2].s, a),
                       formula=FORMULAS["i0"])
    if not scene.balanced_names:
        return
    divisor = scene.balanced_divisor()
    try:
        require_balanced(divisor, marking, a)
        report.add("balanced", True, formula=FORMULAS["balanced"])
    except InputError as exc:
        report.add("balanced", False, oracle=str(exc), ok=False)
        return
    s_b = total_vector(divisor, n)
    mark = len(ledger.consumed)
    mu = milnor_foliation(s_b, a, ledger)
    report.add("mu(foliation)", mu, formula=FORMULAS["mu_foliation"],
               hypotheses=_consumed(ledger, mark))
    mark = len(ledger.consumed)
    dec = milnor_decomposition(s_b, marking, a, ledger)
    report.check("decomposition", dec.total, mu,
                 formula=FORMULAS["decomposition"],
                 hypotheses=_consumed(ledger, mark))
    report.add("singularity count", dec.singularity_count)
    report.add("discrepancies", discrepancies(s_b, marking, f, ledger),
               formula=FORMULAS["discrepancies"],
               hypotheses=("second_class",))
    for name in names:
        s = scene.branches[name].s
        report.add(f"gsv({name})", gsv(s_b, s, a), formula=FORMULAS["gsv"])
        report.add(f"mu along {name}", milnor_along(s_b, s, a),
                   formula=FORMULAS["milnor_along"])
        try:
            report.add(f"cs correction({name})", cs_combinatorial(s, a))
        except NonIntegerResult:
            pass
    tele = sum(c * (milnor_along(s_b, b.s, a) - 1)
               for b, c in divisor.terms) + 1
    report.check("telescoped mu", tele, mu,
                 formula="sum a_C (mu along C - 1) + 1")
    _reduced_totals(report, s_b, a, marking, ledger, scene.reduced,
                    {name: b.s for name, b in scene.branches.items()})


def _reduced_totals(report, s_b, a, marking, ledger, reduced, attachments):
    """CS/Var/BB totals where the reduced records suffice; `attachments`
    maps each branch name to its attachment vector S."""
    if not reduced:
        return
    try:
        report.add("CS(balanced divisor)",
                   cs_total(s_b, a, reduced, marking),
                   formula=FORMULAS["cs"])
        mark = len(ledger.consumed)
        report.add("Var(balanced divisor)",
                   var_total(s_b, s_b, a, reduced, marking, ledger),
                   formula=FORMULAS["var"],
                   hypotheses=_consumed(ledger, mark))
        report.add("BB", bb_total(s_b, a, reduced, marking),
                   formula=FORMULAS["bb"])
    except (MissingReducedData, InputError) as exc:
        report.note(f"index totals skipped: {exc}")
    for name, s in attachments.items():
        records = [r for r in reduced
                   if r.corner is None and r.branch == name]
        try:
            cs = cs_total(s, a, records, marking)
            mark = len(ledger.consumed)
            var = var_total(s_b, s, a, records, marking, ledger)
            hyps = _consumed(ledger, mark)
        except (MissingReducedData, InputError):
            continue
        report.add(f"CS({name})", cs, formula=FORMULAS["cs"])
        report.add(f"Var({name})", var, formula=FORMULAS["var"],
                   hypotheses=hyps)
        report.check(f"Var = CS + GSV ({name})", var,
                     cs + gsv(s_b, s, a), formula="Var = CS + GSV")


def _polynomial_invariants(scene, report, args, max_ext):
    from .resolve import derive_resolution

    res = derive_resolution(scene.germs, mode="curve", max_ext_degree=max_ext)
    a = res.a
    report.add("components", a.n)
    for label in sorted(res.milnor):
        oracle = "agrees (deformed fibers)" if args.oracle else None
        report.add(f"mu({label})", res.milnor[label],
                   formula=FORMULAS["mu_curve"], oracle=oracle)
        report.add(f"multiplicities({label})",
                   curve_multiplicity_sequence(res.s_vectors[label],
                                               a.cholesky),
                   formula=FORMULAS["multiplicities"])
    for (l1, l2), value in sorted(res.pairwise.items()):
        report.add(f"i0({l1}, {l2})", value, formula=FORMULAS["i0"])
    for label in sorted(res.branches):
        for branch in res.branches[label]:
            report.add(f"branch {branch.name}: characteristic exponents",
                       branch.char_exponents,
                       formula=FORMULAS["char_exponents"])
            report.add(f"branch {branch.name}: multiplicity sequence",
                       branch.multiplicity_sequence)
            if branch.conjugates > 1:
                report.add(f"branch {branch.name}: conjugates",
                           branch.conjugates)
    if args.oracle:
        for label in scene.germs:
            report.check(f"oracle mu({label})", res.milnor[label],
                         milnor_curve(res.s_vectors[label], a),
                         oracle="independent (deformed fibers)")
    return res


def cmd_invariants(args):
    scene = load_scene(args.scene)
    seed, max_ext = _settings(scene, args)
    report = Report("invariants", scene.name, seed)
    res = None
    if scene.kind == "pencil" or (scene.kind == "polynomial"
                                  and scene.as_pencil):
        raise InputError("this scene requests pencil treatment; "
                         "run the pencil command")
    if scene.kind == "polynomial":
        res = _polynomial_invariants(scene, report, args, max_ext)
        a, marking = res.a, res.marking
    else:
        _combinatorial_invariants(scene, report)
        a, marking = scene.a, scene.marking
    _check_expected(scene, report)
    if args.dot:
        _write_dot(args.dot, a, marking)
        report.note(f"dual graph written to {args.dot}")
    return report


# -- pencil -------------------------------------------------------------------

def _pencil_report(scene, model, report, reduced=(), oracle_note=None):
    a = model.a
    report.add("components", a.n)
    report.add("generators", ", ".join(model.generators))
    report.add("mu(generic member)", model.mu_generic)
    report.add("i0(f, g)", model.i0, formula=FORMULAS["i0"],
               oracle=oracle_note)
    for fib in model.bifurcation_fibers:
        report.add(f"mu({fib.name})", fib.mu, oracle=oracle_note)
    record = bifurcation_formula_check(model)
    report.add("mu_0(fg)", record.mu_fg, formula=FORMULAS["mu_curve"])
    report.add("excess sum", record.excess_sum,
               formula="sum over fibers (mu_t - mu_generic)")
    report.check("mu(f, g)", record.mu_pair,
                 record.mu_fg + record.excess_sum,
                 formula=FORMULAS["bifurcation"], oracle=oracle_note)
    report.check("mu(f, g) telescoped", record.path_telescoped,
                 record.mu_pair, formula="sum a_C (mu along C - 1) + 1")
    semitame = semitame_check(model)
    report.add("semitame", semitame.is_semitame,
               formula=FORMULAS["semitame"])
    report.add("unfolding dimension", unfolding_dimension(model),
               formula=FORMULAS["unfolding"])
    gsv_rec = fiber_gsv_check(model)
    report.add("fiber GSV", gsv_rec.expected,
               formula=FORMULAS["fiber_gsv"], ok=gsv_rec.ok,
               oracle=None if gsv_rec.ok else
               f"failures: {gsv_rec.failures}")
    divisor = fiber_balanced_divisor(model)
    s_b = total_vector(divisor, a.n)
    ledger = model.ledger
    mark = len(ledger.consumed)
    mu = milnor_foliation(s_b, a, ledger)
    report.check("mu(pencil foliation)", mu, record.mu_pair,
                 formula=FORMULAS["mu_foliation"],
                 hypotheses=_consumed(ledger, mark))
    _reduced_totals(report, s_b, a, model.marking, ledger, reduced,
                    {fib.name: fib.s for fib in model.fibers()})
    return record


def cmd_pencil(args):
    scene = load_scene(args.scene)
    seed, max_ext = _settings(scene, args)
    report = Report("pencil", scene.name, seed)
    if scene.kind == "polynomial":
        if not scene.as_pencil:
            raise InputError("this polynomial scene has no second germ; "
                             "run the invariants command")
        from .resolve import derive_resolution

        res = derive_resolution(scene.germs, mode="pencil",
                                max_ext_degree=max_ext)
        model = res.pencil
        note = "agrees (resultant)" if args.oracle else None
        record = _pencil_report(scene, model, report, oracle_note=note)
        if args.oracle:
            # the resultant values of derive_resolution against the lattice
            report.check("oracle mu(f, g)", res.mu_pair, record.mu_pair,
                         oracle="independent (resultant)")
            report.check("oracle i0(f, g)", res.bifurcation.i0,
                         res.pairwise[res.generators],
                         oracle="independent (resultant)")
        a, marking = model.a, model.marking
    else:
        if scene.kind != "pencil":
            raise InputError("the pencil command needs a pencil or "
                             "polynomial scene")
        model = scene.pencil_model
        _pencil_report(scene, model, report, reduced=scene.reduced)
        a, marking = scene.a, scene.marking
    _check_expected(scene, report)
    if args.dot:
        _write_dot(args.dot, a, marking)
        report.note(f"dual graph written to {args.dot}")
    return report


# -- expected values ----------------------------------------------------------

def _check_expected(scene, report):
    """Compare report entries against the scene's `expected` block."""
    by_name = {e.name: e for e in report.entries}
    for name, want in scene.expected.items():
        entry = by_name.get(name)
        if entry is None:
            report.add(f"expected {name}", "missing", ok=False)
            continue
        got = _encode(entry.value)
        if got != want:
            entry.ok = False
            entry.oracle = f"expected {want}, got {got}"
        else:
            entry.oracle = entry.oracle or "matches expected"


# -- resolve ------------------------------------------------------------------

def cmd_resolve(args):
    scene = load_scene(args.scene)
    if scene.kind != "polynomial":
        raise InputError("resolve needs a polynomial scene")
    from .resolve import derive_resolution

    mode = "pencil" if scene.as_pencil else "curve"
    _, max_ext = _settings(scene, args)
    res = derive_resolution(scene.germs, mode=mode, max_ext_degree=max_ext)
    doc = derived_scene(res, name=scene.name or "derived",
                        description=f"combinatorial replay of {args.scene}")
    text = dump_scene(doc, args.out)
    if args.dot:
        _write_dot(args.dot, res.a, res.marking)
    flat = [b for label in sorted(res.branches)
            for b in res.branches[label]]
    if args.format == "json":
        payload = {"scene": doc,
                   "branches": [{"name": b.name, "label": b.label,
                                 "component": b.component,
                                 "conjugates": b.conjugates,
                                 "multiplicity_sequence":
                                     list(b.multiplicity_sequence),
                                 "characteristic_exponents":
                                     list(b.char_exponents)}
                                for b in flat]}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        if args.out:
            sys.stdout.write(f"derived scene written to {args.out}\n")
        else:
            sys.stdout.write(text)
        for b in flat:
            sys.stdout.write(
                f"branch {b.name}: component E{b.component}, "
                f"multiplicities {b.multiplicity_sequence}, "
                f"characteristic exponents {b.char_exponents}"
                + (f", {b.conjugates} conjugates" if b.conjugates > 1
                   else "") + "\n")
    return None


# -- verify -------------------------------------------------------------------

def cmd_verify(args):
    seed = 0 if args.seed is None else args.seed
    report = Report("verify", seed=seed)
    try:
        stats = verify_battery(count=args.count, seed=seed,
                               max_n=args.max_n)
    except PropertyViolation as exc:
        report.add("identity violation", str(exc), ok=False)
        report.note(dump_scene(exc.scene).strip())
        return report
    for check, runs in stats["checks"].items():
        report.add(check, runs, oracle=f"{runs} random programs")
    return report


# -- entry point --------------------------------------------------------------

def _extension_budget(text):
    """argparse type of --max-ext-degree: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="folindex",
        description="exact local invariants of singular foliations from "
                    "blow-up combinatorics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scene=True):
        if scene:
            p.add_argument("--scene", required=True,
                           help="path to a JSON scene file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None,
                       help="echoed in the report; nothing a scene "
                       "command computes depends on it"
                       if scene else "seed of the random programs")
        p.add_argument("--max-ext-degree", dest="max_ext_degree",
                       type=_extension_budget,
                       default=None,
                       help="largest tolerated algebraic extension degree")

    p = sub.add_parser("invariants",
                       help="curve and foliation invariants of a scene")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the independent resultant cross-checks")
    p.add_argument("--dot", help="write the dual graph in DOT format")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("pencil", help="bifurcation analysis of a pencil")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the independent resultant cross-checks")
    p.add_argument("--dot", help="write the dual graph in DOT format")
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("resolve",
                       help="reduce a polynomial scene and emit the "
                            "combinatorial replay")
    common(p)
    p.add_argument("--out", help="write the derived scene to this file")
    p.add_argument("--dot", help="write the dual graph in DOT format")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("verify",
                       help="random verification of the structural "
                            "identities")
    common(p, scene=False)
    p.add_argument("--count", type=int, default=200,
                   help="number of random programs")
    p.add_argument("--max-n", dest="max_n", type=int, default=12,
                   help="largest program size")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (ExtensionDegreeExceeded, UnsupportedGerm) as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return 3
    except (SceneParseError, InputError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except CheckFailed as exc:
        sys.stderr.write(f"identity violation: {exc}\n")
        scene = getattr(exc, "scene", None)
        if scene is not None:
            sys.stderr.write(dump_scene(scene))
        return 1
    except FolindexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if report is not None:
        sys.stdout.write(report.render(args.format))
        if not report.passed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
