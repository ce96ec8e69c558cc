"""Reports: named exact values, the formulas behind them, and a verdict.

Every command-line run produces a Report.  An entry records one computed
quantity: its name, the exact value, the formula it came from, the
hypothesis flags the computation consumed, and (when an independent
numeric check ran) the oracle outcome.  Reports render as aligned text or
as JSON; both carry the overall pass/fail verdict.  A report is a pure
function of (scene, seed): rendering twice gives identical bytes.
"""

import json
import math
import sys
from fractions import Fraction

from .scenes import encode_value


def _encode(value):
    """JSON-friendly exact form of any report value."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return encode_value(value)
    if value == math.inf:
        return "infinite"
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    # a sympy value exists only once sympy is loaded; never load it here
    sympy = sys.modules.get("sympy")
    if sympy is not None and isinstance(value, sympy.Basic):
        if value.is_Integer:
            return int(value)
        if value.is_Rational:
            return f"{value.p}/{value.q}"
        return str(value)
    return str(value)


def _text(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_text(v) for v in value) + ")"
    enc = _encode(value)
    return enc if isinstance(enc, str) else str(enc)


class ReportEntry:
    """One named exact value plus the formula and hypotheses behind it."""

    def __init__(self, name, value, formula="", hypotheses=(), oracle=None,
                 ok=True):
        self.name = name
        self.value = value
        self.formula = formula
        self.hypotheses = tuple(hypotheses)
        self.oracle = oracle
        self.ok = bool(ok)

    def to_json(self):
        out = {"name": self.name, "value": _encode(self.value), "ok": self.ok}
        if self.formula:
            out["formula"] = self.formula
        if self.hypotheses:
            out["hypotheses"] = list(self.hypotheses)
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out


class Report:
    """Ordered entries with an overall verdict."""

    def __init__(self, title, scene_name="", seed=None):
        self.title = title
        self.scene_name = scene_name
        self.seed = seed
        self.entries = []
        self.notes = []

    def add(self, name, value, formula="", hypotheses=(), oracle=None,
            ok=True):
        entry = ReportEntry(name, value, formula, hypotheses, oracle, ok)
        self.entries.append(entry)
        return entry

    def check(self, name, value, expected, formula="", hypotheses=(),
              oracle=None):
        """Entry that passes iff value == expected."""
        ok = value == expected
        oracle_note = oracle
        if not ok and oracle is None:
            oracle_note = f"expected {_text(expected)}"
        return self.add(name, value, formula, hypotheses, oracle_note, ok)

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self):
        return all(entry.ok for entry in self.entries)

    def to_json(self):
        out = {"report": self.title,
               "result": "pass" if self.passed else "fail",
               "entries": [entry.to_json() for entry in self.entries]}
        if self.scene_name:
            out["scene"] = self.scene_name
        if self.seed is not None:
            out["seed"] = self.seed
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def render_json(self):
        return json.dumps(self.to_json(), indent=2) + "\n"

    def render_text(self):
        head = self.title
        if self.scene_name:
            head += f": {self.scene_name}"
        if self.seed is not None:
            head += f" (seed {self.seed})"
        lines = [head]
        width = max((len(e.name) for e in self.entries), default=0)
        vwidth = max((len(_text(e.value)) for e in self.entries), default=0)
        for e in self.entries:
            mark = "ok " if e.ok else "FAIL"
            line = f"  [{mark:4}] {e.name:<{width}}  {_text(e.value):>{vwidth}}"
            tail = []
            if e.formula:
                tail.append(f"= {e.formula}")
            if e.hypotheses:
                tail.append(f"uses {', '.join(e.hypotheses)}")
            if e.oracle is not None:
                tail.append(f"oracle: {e.oracle}")
            if tail:
                line += "   " + "; ".join(tail)
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(self.entries)} entries)")
        return "\n".join(lines) + "\n"

    def render(self, fmt="text"):
        return self.render_json() if fmt == "json" else self.render_text()


# formula strings quoted by the commands; one authoritative copy each
FORMULAS = {
    "mu_foliation": "<-A^-1 S_B, S_B> - <S_B, (I + F^-1) u> + 1",
    "mu_curve": "<-A^-1 S_C, S_C> - <S_C, (I + F^-1) u> + 1",
    "i0": "<-A^-1 S_f, S_g>",
    "gsv": "<-A^-1 (S_B - S_C), S_C>",
    "milnor_along": "<-A^-1 S_B - (I + F^-1) u, S_D> + 1",
    "cs": "sum of local CS + <-A^-1 S_C, S_C>",
    "var": "sum of signed local Var + <-A^-1 S_B - iota, S_C>",
    "bb": "sum of local BB + <-A^-1 S_B, S_B> - 2<S_B, iota> - <A iota, iota>",
    "decomposition": "[<S_I, u> + (n-1) - sum of dicritical valences]"
                     " + [<l, l> - <l, u> - n]",
    "discrepancies": "l = (F^-1)^T S_B - F iota",
    "multiplicities": "(F^-1)^T S_C",
    "orders": "M = -A^-1 S_C, m = F(M - u)",
    "bifurcation": "mu(f,g) = mu_0(fg) + sum over fibers (mu_t - mu_generic)",
    "semitame": "no interior bifurcation fiber <=> mu(f,g) = mu_0(fg)",
    "unfolding": "nu(f,g) = mu(f,g) - i_0(f,g)",
    "fiber_gsv": "GSV of every member fiber equals i_0(f,g)",
    "balanced": "isolated coefficients +1, dicritical totals 2 - valence",
    "char_exponents": "chart orders contracted along the branch path",
}
