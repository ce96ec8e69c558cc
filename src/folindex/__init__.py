"""Exact local invariants of plane foliation singularities.

The combinatorial core turns an ordered blow-up program into its proximity
factorization A = -F^T F and evaluates Milnor numbers, intersection
numbers, GSV, Camacho-Sad, Variation and Baum-Bott indices as exact
pairings against -A^{-1}.  A polynomial front-end derives the blow-up
combinatorics of curve germs and pencils over Q and cross-checks every
derived value against resultant-based oracles.

Importing the package loads only the integer core, scenes, reports and
the verify battery.  The polynomial front end (the submodules `germs`,
`oracle`, `resolve` and `algfield`, and with them sympy) loads on first
use of one of its names: `Germ`, `parse_germ`, `INFINITE`, `Candidate`,
`PencilBifurcationData`, `bifurcation_candidates`, `oracle_intersection`,
`oracle_milnor`, `oracle_mu_pair`, `Branch`, `BranchData`,
`DerivedResolution`, `branch_analysis` and `derive_resolution`.
"""

from .blowup import (BlowUpProgram, CholeskyMatrix, IntersectionMatrix,
                     build_cholesky, build_intersection, dual_graph_dot,
                     intersection_by_steps, proximity_check, valence)
from .divisors import (BalanceReport, BranchAttachment, InvariantMarking,
                       SeparatrixDivisor, bal_pairing_check,
                       enumerate_balanced, is_balanced, require_balanced,
                       total_vector)
from .errors import (CandidateUncertified, ChangeOfCoordinatesFailed,
                     CheckFailed, DimensionMismatch, ExtensionDegreeExceeded,
                     FolindexError, GermSyntaxError, HypothesisMissing,
                     IndexOutOfRange, InputError, InvalidCenter,
                     MissingReducedData, NonIntegerResult, NonPolynomial,
                     NotBalanced, OracleMismatch, PathMismatch,
                     PropertyViolation, SceneParseError, SingularMatrix,
                     UnsupportedGerm)
from .indices import (HypothesisLedger, MilnorDecomposition,
                      ReducedSingularity, bb_total, cs_combinatorial,
                      cs_total, curve_multiplicity_sequence, discrepancies,
                      gsv, gsv_sum_rule_check, intersection_number,
                      milnor_along, milnor_curve, milnor_decomposition,
                      milnor_foliation, quadratic_pairing, var_total,
                      vanishing_orders)
from .pencil import (BifurcationRecord, Fiber, PencilModel,
                     bifurcation_formula_check, fiber_balanced_divisor,
                     fiber_gsv_check, semitame_check, unfolding_dimension)
from .report import Report, ReportEntry
from .scenes import (Scene, decode_value, derived_scene, dump_scene,
                     encode_value, load_scene, parse_scene,
                     polynomial_scene)
from .verify import random_program_lists, verify_battery

__version__ = "0.1.0"

# the polynomial front end, exported lazily (PEP 562) so that importing
# the package does not import sympy
_LAZY = {
    "germs": ("Germ", "parse_germ"),
    "oracle": ("INFINITE", "Candidate", "PencilBifurcationData",
               "bifurcation_candidates", "oracle_intersection",
               "oracle_milnor", "oracle_mu_pair"),
    "resolve": ("Branch", "BranchData", "DerivedResolution",
                "branch_analysis", "derive_resolution"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("algfield", *_LAZY)


def __getattr__(name):
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})


__all__ = [name for name in __dir__() if not name.startswith("_")]
