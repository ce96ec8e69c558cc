"""Golden reports for towers over number fields.

The committed scenes never leave QQ, so `tests/test_golden_reports.py`
does not reach `algfield.extend`.  This file pins, for germs whose
reduction blows up Galois orbits over quadratic, cubic and two-step
fields, the `resolve --format json` report and every branch's tangent,
multiplicity sequence and characteristic exponents from
`branch_analysis`.  The root `extend` picks sets the component order and
every printed tangent, so any change of choice shows here.  The scenes
are written to a temporary directory, not to `scenes/`.  Regenerate the
golden file only for an intended change of output:

    PYTHONPATH=src python tests/test_number_field_towers.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
import sympy
from sympy import Poly

from folindex.cli import main
from folindex.errors import ExtensionDegreeExceeded
from folindex.resolve import branch_analysis, derive_resolution
from folindex.scenes import encode_value

GOLDEN = Path(__file__).resolve().parent / "golden" / \
    "number_field_towers.json"
NONSQUARES = (-1, -2, -3, 2, 3, 5, 6, 7)
COEFFS = (1, 2, 3, -1, -2, -3)
SLOPES = (0, 1, -1, 2, -2, 3, -3)
# Two-step towers: the norm of ((y - r*x)^2 - s*x^4)^2 - x^9 over Q(r),
# whose second singular point needs a root of w^2 - s over Q(r).
TWO_STEP = {
    "sqrt2-sqrt3":
        "x^18 - 18*x^17 + 81*x^16 + 24*x^15 - 216*x^14 + 12*x^13*y^2 "
        "- 8*x^13 - 108*x^12*y^2 + 216*x^12 - 24*x^11*y^2 + 72*x^10*y^2 "
        "- 96*x^10 - 2*x^9*y^4 + 54*x^8*y^4 + 48*x^8*y^2 + 16*x^8 "
        "+ 24*x^6*y^4 - 32*x^6*y^2 - 12*x^4*y^6 + 24*x^4*y^4 - 8*x^2*y^6 "
        "+ y^8",
    "i-sqrt-2":
        "x^18 - 8*x^17 + 16*x^16 + 8*x^15 - 32*x^14 - 8*x^13*y^2 - 2*x^13 "
        "+ 32*x^12*y^2 + 24*x^12 + 12*x^11*y^2 - 16*x^10*y^2 - 8*x^10 "
        "- 2*x^9*y^4 + 24*x^8*y^4 - 8*x^8*y^2 + x^8 + 8*x^6*y^4 "
        "+ 4*x^6*y^2 + 8*x^4*y^6 + 6*x^4*y^4 + 4*x^2*y^6 + y^8",
}


def cases():
    """(case id, germ, extra CLI arguments)."""
    out = []
    for k, d in enumerate(NONSQUARES):
        c = COEFFS[k % len(COEFFS)]
        out.append((f"algebraic-point d={d}",
                    f"(y^2 - {d}*x^2)^2 - {c}*x^5", ()))
    for k, d in enumerate(NONSQUARES):
        a, c = SLOPES[k % len(SLOPES)], COEFFS[(k + 3) % len(COEFFS)]
        out.append((f"conjugate-tangents d={d}",
                    f"(y^2 - {d}*x^2)*(y - {a}*x) + {c}*x^4", ()))
    out.append(("cubic", "(y^3 - 2*x^3)^2 - x^7", ()))
    for name, germ in TWO_STEP.items():
        out.append((f"two-step {name}", germ, ()))
    out.append(("two-step sqrt2-sqrt3 over budget", TWO_STEP["sqrt2-sqrt3"],
                ("--max-ext-degree", "3")))
    return out


def tangent(value):
    """A tangent in the scene codec's form.  `str` of a CRootOf names
    whichever symbol sympy's root cache met first for that polynomial."""
    return encode_value(value) if isinstance(value, sympy.CRootOf) \
        else str(value)


def run_case(germ, extra, workdir):
    scene = Path(workdir) / "germ.json"
    scene.write_text(json.dumps({"kind": "polynomial", "name": "tower",
                                 "f": germ}))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["resolve", "--scene", "germ.json", "--format",
                         "json", *extra])
    finally:
        os.chdir(cwd)
    record = {"germ": germ, "args": list(extra), "exit": code,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    max_ext = int(extra[1]) if extra else 8
    try:
        data = branch_analysis(germ, max_ext_degree=max_ext)
    except ExtensionDegreeExceeded as exc:
        record["branch_analysis"] = str(exc)
    else:
        record["branch_analysis"] = [
            [tangent(b.tangent), list(b.multiplicity_sequence),
             list(b.char_exponents)] for b in data.branches]
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, _, _ in cases())


@pytest.mark.parametrize("case,germ,extra", cases(),
                         ids=[case for case, _, _ in cases()])
def test_tower_matches_golden(case, germ, extra, golden, tmp_path):
    assert run_case(germ, extra, tmp_path) == golden[case]


def test_field_changes_skip_set_domain(monkeypatch):
    # strict transforms enter an extended field through algfield.lift;
    # only calls from folindex count (sympy's primitive_element makes some)
    targets = []
    original = Poly.set_domain

    def spy(self, domain):
        out = original(self, domain)
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if out.domain.is_AlgebraicField and caller.startswith("folindex"):
            targets.append((caller, out.domain))
        return out

    monkeypatch.setattr(Poly, "set_domain", spy)
    for _, germ, extra in cases():
        with contextlib.suppress(ExtensionDegreeExceeded):
            derive_resolution(germ, max_ext_degree=int(extra[1]) if extra
                              else 8)
    # a pencil whose members have conjugate tangents over Q(i)
    derive_resolution({"f": "y^2 + x^2", "g": "x^3 + y^3"}, mode="pencil")
    assert targets == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        records = {case: run_case(germ, extra, workdir)
                   for case, germ, extra in cases()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} towers to {GOLDEN}")
