"""JSON scene files: exact, replayable inputs for the command line.

A scene is one JSON document with a `kind` of "combinatorial",
"polynomial" or "pencil", plus optional `name`, `description` and
`expected` metadata.  All indices are 1-based, every number is exact: JSON
integers stay integers, rationals are strings "p/q", and algebraic values
are {"minpoly": "t^2 - 2", "root": 1} with sympy's canonical root order.

combinatorial
    blowups          list of center index-lists, first one empty
    invariant        iota as a 0/1 list (1 = invariant); default all ones
    branches         [{"name", "s", "coefficient"?}]; names unique
    balanced         branch names (with coefficient from the branch entry)
                     forming the divisor the foliation formulas use
    reduced_points   [{"component"|"corner", "branch"?, "coefficient"?,
                       "cs"?, "var"?, "bb"?, "eigenratio"?}]
    hypotheses       {"generalized_curve": "asserted", ...}

polynomial
    f (and optionally g) as expression strings in x, y;
    `max_extension_degree` (an integer >= 1) bounds the derivation's field
    extensions, and `seed` (an integer) is only echoed in the report.  With
    g present the document may also carry "pencil": true to request pencil
    treatment.

pencil (combinatorial pencil model)
    blowups, invariant, branches, hypotheses as above, and
    pencil: {"fibers": [{"name", "mu"}], "generators": [two names],
             "mu_generic", "i0"}; every named fiber and generator must be
    a declared branch entry, the generators carrying the generic S.
"""

import json
from fractions import Fraction

from .blowup import BlowUpProgram, build_cholesky, build_intersection
from .divisors import BranchAttachment, InvariantMarking, SeparatrixDivisor
from .errors import SceneParseError
from .indices import HypothesisLedger, ReducedSingularity
from .pencil import Fiber, PencilModel

KINDS = ("combinatorial", "polynomial", "pencil")


def _is_int(obj):
    return isinstance(obj, int) and not isinstance(obj, bool)


def decode_value(obj, where=""):
    """Exact value from its JSON form: int, "p/q", or minpoly + root."""
    if isinstance(obj, bool):
        raise SceneParseError(f"{where}: booleans are not numbers")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        try:
            value = Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise SceneParseError(f"{where}: bad rational {obj!r}: {exc}")
        return int(value) if value.denominator == 1 else value
    if isinstance(obj, dict) and set(obj) == {"minpoly", "root"}:
        from tokenize import TokenError

        import sympy

        from .algfield import ALPHA
        if not isinstance(obj["minpoly"], str):
            raise SceneParseError(f"{where}: minpoly must be a string")
        try:
            expr = sympy.parse_expr(obj["minpoly"].replace("^", "**"))
        except (SyntaxError, TokenError, TypeError, ValueError) as exc:
            raise SceneParseError(f"{where}: bad minpoly: {exc}")
        symbols = expr.free_symbols
        if len(symbols) != 1:
            raise SceneParseError(f"{where}: minpoly needs exactly one "
                                  "variable")
        expr = expr.subs(symbols.pop(), ALPHA)
        try:
            poly = sympy.Poly(expr, ALPHA)
        except sympy.PolynomialError as exc:
            raise SceneParseError(f"{where}: minpoly is not a polynomial: "
                                  f"{exc}")
        if not (poly.domain.is_ZZ or poly.domain.is_QQ or poly.domain.is_RR):
            raise SceneParseError(f"{where}: minpoly needs rational "
                                  f"coefficients, got {poly.domain}")
        index, degree = obj["root"], poly.degree()
        if isinstance(index, bool) or not isinstance(index, int) \
                or not 0 <= index < degree:
            raise SceneParseError(f"{where}: root must be an integer in "
                                  f"0..{degree - 1}, got {index!r}")
        try:
            return sympy.CRootOf(expr, ALPHA, index)
        except (ValueError, IndexError, TypeError) as exc:
            raise SceneParseError(f"{where}: bad root index: {exc}")
    raise SceneParseError(f"{where}: expected an integer, 'p/q' string, or "
                          "{'minpoly', 'root'} object")


def encode_value(value):
    """JSON form of an exact value; round-trips through decode_value."""
    if isinstance(value, bool):
        raise SceneParseError("booleans are not numbers")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    import sympy

    if isinstance(value, sympy.CRootOf):
        expr, index = value.args
        gen = expr.free_symbols.pop()
        return {"minpoly": str(expr.subs(gen, sympy.Symbol("t")))
                               .replace("**", "^"),
                "root": int(index)}
    value = sympy.nsimplify(value, rational=False) if not isinstance(
        value, sympy.Basic) else value
    if value.is_Integer:
        return int(value)
    if value.is_Rational:
        return f"{value.p}/{value.q}"
    raise SceneParseError(f"cannot encode {value!r} exactly")


class Scene:
    """A parsed scene document plus the objects its stanzas describe."""

    def __init__(self, data, source="<scene>"):
        if not isinstance(data, dict):
            raise SceneParseError(f"{source}: a scene is a JSON object")
        self.data = data
        self.source = source
        self.kind = data.get("kind")
        if self.kind not in KINDS:
            raise SceneParseError(f"{source}: kind must be one of {KINDS}, "
                                  f"got {self.kind!r}")
        self.name = data.get("name", "")
        self.description = data.get("description", "")
        self.expected = data.get("expected", {})
        if self.kind in ("combinatorial", "pencil"):
            self._parse_combinatorial()
        else:
            self._parse_polynomial()

    # -- combinatorial ----------------------------------------------------

    def _parse_combinatorial(self):
        data, src = self.data, self.source
        blowups = data.get("blowups")
        if not isinstance(blowups, list):
            raise SceneParseError(f"{src}: 'blowups' must be a list of "
                                  "center lists")
        self.program = BlowUpProgram.from_lists(blowups)
        self.f_matrix = build_cholesky(self.program)
        self.a = build_intersection(self.f_matrix)
        n = self.program.n

        iota = data.get("invariant", [1] * n)
        if not (isinstance(iota, list) and all(e in (0, 1) for e in iota)):
            raise SceneParseError(f"{src}: 'invariant' must be a 0/1 list")
        self.marking = InvariantMarking(tuple(iota)).validate_against(self.a)

        self.branches = {}
        self.coefficients = {}
        for i, entry in enumerate(data.get("branches", [])):
            where = f"{src}: branches[{i}]"
            if not isinstance(entry, dict) or "name" not in entry \
                    or "s" not in entry:
                raise SceneParseError(f"{where}: needs 'name' and 's'")
            name = entry["name"]
            if name in self.branches:
                raise SceneParseError(f"{where}: duplicate name {name!r}")
            s = entry["s"]
            if not (isinstance(s, list) and len(s) == n
                    and all(isinstance(e, int) and e >= 0 for e in s)):
                raise SceneParseError(f"{where}: 's' must be {n} nonnegative "
                                      "integers")
            try:
                self.branches[name] = BranchAttachment(name, tuple(s))
            except Exception as exc:
                raise SceneParseError(f"{where}: {exc}")
            coeff = entry.get("coefficient", 1)
            if coeff not in (1, -1):
                raise SceneParseError(f"{where}: coefficient must be +-1")
            self.coefficients[name] = coeff

        self.balanced_names = data.get("balanced", [])
        for name in self.balanced_names:
            if name not in self.branches:
                raise SceneParseError(f"{src}: balanced divisor names "
                                      f"unknown branch {name!r}")

        self.reduced = tuple(self._reduced_point(i, entry)
                             for i, entry in
                             enumerate(data.get("reduced_points", [])))
        self.ledger = self._ledger(data.get("hypotheses", {}))
        if self.kind == "pencil":
            self._parse_pencil_stanza()

    def _reduced_point(self, i, entry):
        where = f"{self.source}: reduced_points[{i}]"
        if not isinstance(entry, dict):
            raise SceneParseError(f"{where}: must be an object")
        kwargs = {}
        if "component" in entry:
            kwargs["component"] = entry["component"]
        if "corner" in entry:
            corner = entry["corner"]
            if not (isinstance(corner, list) and len(corner) == 2):
                raise SceneParseError(f"{where}: corner is a pair of "
                                      "component indices")
            kwargs["corner"] = tuple(corner)
        kwargs["branch"] = entry.get("branch")
        kwargs["coefficient"] = entry.get("coefficient", 1)
        for key in ("cs", "var", "bb", "eigenratio"):
            if key in entry:
                kwargs[key] = decode_value(entry[key], f"{where}.{key}")
        try:
            return ReducedSingularity(**kwargs)
        except Exception as exc:
            raise SceneParseError(f"{where}: {exc}")

    def _ledger(self, stanza):
        if not isinstance(stanza, dict):
            raise SceneParseError(f"{self.source}: 'hypotheses' must map "
                                  "flag names to statuses")
        try:
            return HypothesisLedger(**stanza)
        except Exception as exc:
            raise SceneParseError(f"{self.source}: hypotheses: {exc}")

    def _parse_pencil_stanza(self):
        src = self.source
        stanza = self.data.get("pencil")
        if not isinstance(stanza, dict):
            raise SceneParseError(f"{src}: a pencil scene needs a 'pencil' "
                                  "object")
        generators = stanza.get("generators", [])
        if not (isinstance(generators, list) and len(generators) == 2):
            raise SceneParseError(f"{src}: pencil.generators must name two "
                                  "branches")
        for name in generators:
            if name not in self.branches:
                raise SceneParseError(f"{src}: generator {name!r} is not a "
                                      "declared branch")
        gen_s = {self.branches[name].s for name in generators}
        if len(gen_s) != 1:
            raise SceneParseError(f"{src}: the two generators must carry "
                                  "the same attachment vector")
        fibers = []
        for i, entry in enumerate(stanza.get("fibers", [])):
            where = f"{src}: pencil.fibers[{i}]"
            if not isinstance(entry, dict) or "name" not in entry \
                    or "mu" not in entry:
                raise SceneParseError(f"{where}: needs 'name' and 'mu'")
            name = entry["name"]
            if name not in self.branches:
                raise SceneParseError(f"{where}: {name!r} is not a declared "
                                      "branch")
            fibers.append(Fiber(name, self.branches[name].s, entry["mu"]))
        for key in ("mu_generic", "i0"):
            if not isinstance(stanza.get(key), int):
                raise SceneParseError(f"{src}: pencil.{key} must be an "
                                      "integer")
        self.pencil_model = PencilModel(
            a=self.a, marking=self.marking, bifurcation_fibers=tuple(fibers),
            generic_s=gen_s.pop(), mu_generic=stanza["mu_generic"],
            i0=stanza["i0"], generators=tuple(generators),
            ledger=self.ledger)

    # -- polynomial --------------------------------------------------------

    def _parse_polynomial(self):
        data, src = self.data, self.source
        if "f" not in data:
            raise SceneParseError(f"{src}: a polynomial scene needs 'f'")
        from .germs import Germ

        try:
            self.germs = {"f": Germ(data["f"], name="f")}
            if "g" in data:
                self.germs["g"] = Germ(data["g"], name="g")
        except Exception as exc:
            raise SceneParseError(f"{src}: {exc}")
        self.seed = data.get("seed", 0)
        if not _is_int(self.seed):
            raise SceneParseError(f"{src}: 'seed' must be an integer")
        self.max_extension_degree = data.get("max_extension_degree", 8)
        if not _is_int(self.max_extension_degree) or \
                self.max_extension_degree < 1:
            raise SceneParseError(f"{src}: 'max_extension_degree' must be "
                                  "an integer >= 1")
        self.as_pencil = data.get("pencil", "g" in data)
        if not isinstance(self.as_pencil, bool):
            raise SceneParseError(f"{src}: 'pencil' must be true or false")
        if self.as_pencil and "g" not in data:
            raise SceneParseError(f"{src}: pencil treatment needs both "
                                  "'f' and 'g'")

    # -- shared ------------------------------------------------------------

    def balanced_divisor(self):
        terms = tuple((self.branches[name], self.coefficients[name])
                      for name in self.balanced_names)
        return SeparatrixDivisor(terms)


def load_scene(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SceneParseError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"{path}: not valid JSON: {exc}")
    return Scene(data, source=str(path))


def parse_scene(text, source="<string>"):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"{source}: not valid JSON: {exc}")
    return Scene(data, source=source)


def _expr_string(germ):
    return str(germ.expr).replace("**", "^")


def derived_scene(resolution, name="", description=""):
    """Combinatorial replay of a derived resolution.

    The emitted document reproduces the same invariant values through the
    pure combinatorial path: programs, attachment vectors, marking, and
    for a pencil the fiber stanza with certified Milnor numbers.
    """
    kind = "pencil" if resolution.mode == "pencil" else "combinatorial"
    doc = {
        "kind": kind,
        "name": name,
        "description": description,
        "blowups": resolution.program.to_lists(),
        "invariant": list(resolution.marking.iota),
        "branches": [{"name": label, "s": list(s)}
                     for label, s in sorted(resolution.s_vectors.items())],
        "hypotheses": {"generalized_curve": "asserted",
                       "second_class": "asserted"},
    }
    if kind == "pencil":
        model = resolution.pencil
        doc["pencil"] = {
            "generators": list(model.generators),
            "mu_generic": model.mu_generic,
            "i0": model.i0,
            "fibers": [{"name": fib.name, "mu": fib.mu}
                       for fib in model.bifurcation_fibers],
        }
    return doc


def polynomial_scene(f, g=None, seed=0, max_extension_degree=8, name="",
                     pencil=None):
    """Polynomial scene document for the given germ expressions."""
    from .germs import Germ

    doc = {"kind": "polynomial", "name": name, "f": _expr_string(Germ(f))}
    if g is not None:
        doc["g"] = _expr_string(Germ(g))
    if seed:
        doc["seed"] = seed
    if max_extension_degree != 8:
        doc["max_extension_degree"] = max_extension_degree
    if pencil is not None:
        doc["pencil"] = bool(pencil)
    return doc


def dump_scene(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
