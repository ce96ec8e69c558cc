"""Import hygiene: the integer core runs without the polynomial front end.

Combinatorial scenes and `verify` are pure integer work, so importing the
package or the command line, and running those commands, must not load
sympy or the modules built on it.  Each case runs in a fresh interpreter,
since this test session itself has long since imported sympy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import folindex

ROOT = Path(__file__).resolve().parent.parent
FRONT_END = ("sympy", "folindex.germs", "folindex.oracle", "folindex.resolve",
             "folindex.algfield")
CLI_RUN = ("import contextlib, io\n"
           "from folindex.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main({argv!r}) == 0\n")
CASES = {
    "import folindex": "import folindex\n",
    "import folindex.cli": "import folindex.cli\n",
    **{" ".join(argv): CLI_RUN.format(argv=argv) for argv in (
        ["invariants", "--scene", "scenes/cusp-hamiltonian.json"],
        ["invariants", "--scene", "scenes/radial.json"],
        ["pencil", "--scene", "scenes/node-cusp-pencil.json"],
        ["verify", "--count", "2"])},
}

# the public names of `dir(folindex)` before the front end became lazy
PUBLIC_NAMES = (
    "BalanceReport", "BifurcationRecord", "BlowUpProgram", "Branch",
    "BranchAttachment", "BranchData", "Candidate", "CandidateUncertified",
    "ChangeOfCoordinatesFailed", "CheckFailed", "CholeskyMatrix",
    "DerivedResolution", "DimensionMismatch", "ExtensionDegreeExceeded",
    "Fiber", "FolindexError", "Germ", "GermSyntaxError", "HypothesisLedger",
    "HypothesisMissing", "INFINITE", "IndexOutOfRange", "InputError",
    "IntersectionMatrix", "InvalidCenter", "InvariantMarking",
    "MilnorDecomposition", "MissingReducedData", "NonIntegerResult",
    "NonPolynomial", "NotBalanced", "OracleMismatch", "PathMismatch",
    "PencilBifurcationData", "PencilModel", "PropertyViolation",
    "ReducedSingularity", "Report", "ReportEntry", "Scene",
    "SceneParseError", "SeparatrixDivisor", "SingularMatrix",
    "UnsupportedGerm", "algfield", "bal_pairing_check", "bb_total",
    "bifurcation_candidates", "bifurcation_formula_check", "blowup",
    "branch_analysis", "build_cholesky", "build_intersection",
    "cs_combinatorial", "cs_total", "curve_multiplicity_sequence",
    "decode_value", "derive_resolution", "derived_scene", "discrepancies",
    "divisors", "dual_graph_dot", "dump_scene", "encode_value",
    "enumerate_balanced", "errors", "exact", "fiber_balanced_divisor",
    "fiber_gsv_check", "germs", "gsv", "gsv_sum_rule_check", "indices",
    "intersection_by_steps", "intersection_number", "is_balanced",
    "load_scene", "milnor_along", "milnor_curve", "milnor_decomposition",
    "milnor_foliation", "oracle", "oracle_intersection", "oracle_milnor",
    "oracle_mu_pair", "parse_germ", "parse_scene", "pencil",
    "polynomial_scene", "proximity_check", "quadratic_pairing",
    "random_program_lists", "report", "require_balanced", "resolve",
    "scenes", "semitame_check", "total_vector", "unfolding_dimension",
    "valence", "vanishing_orders", "var_total", "verify", "verify_battery",
)
LAZY_NAMES = {
    "germs": ("Germ", "parse_germ"),
    "oracle": ("INFINITE", "Candidate", "PencilBifurcationData",
               "bifurcation_candidates", "oracle_intersection",
               "oracle_milnor", "oracle_mu_pair"),
    "resolve": ("Branch", "BranchData", "DerivedResolution",
                "branch_analysis", "derive_resolution"),
}


def child(code):
    """stdout of `code` run in a fresh interpreter importing ./src."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("code", CASES.values(), ids=CASES.keys())
def test_front_end_not_loaded(code):
    loaded = child(code + "import sys\n"
                   f"print([m for m in {FRONT_END!r} if m in sys.modules])")
    assert loaded.strip() == "[]"


def test_lazy_names_are_the_module_attributes():
    for module, names in LAZY_NAMES.items():
        for name in names:
            assert getattr(folindex, name) is getattr(
                getattr(folindex, module), name)
    assert folindex.algfield.__name__ == "folindex.algfield"
    with pytest.raises(AttributeError):
        folindex.no_such_name


def test_public_names_kept():
    public = {name for name in dir(folindex) if not name.startswith("_")}
    assert public >= set(PUBLIC_NAMES)


def test_star_import_keeps_public_names():
    names = child("from folindex import *\n"
                  "print('\\n'.join(sorted(globals())))").split()
    assert set(names) >= set(PUBLIC_NAMES)
