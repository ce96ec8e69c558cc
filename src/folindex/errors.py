"""Exception hierarchy.

Every error raised by the library derives from FolindexError, so callers can
catch one base class.  Input problems (bad scenes, bad programs, bad germs)
and identity violations (oracle disagreements, broken checks) are kept in
separate branches because the command line maps them to different exit codes.
"""


class FolindexError(Exception):
    """Base class for all library errors."""


class InputError(FolindexError):
    """Invalid input data: programs, scenes, germs, vectors."""


class InvalidCenter(InputError):
    """A blow-up center references a component pair that is not a corner."""


class IndexOutOfRange(InputError):
    """A center references a component that does not exist yet."""


class SingularMatrix(InputError):
    """A matrix expected to be invertible is not (corrupted input)."""


class DimensionMismatch(InputError):
    """Vector or matrix sizes do not match the program length."""


class NotBalanced(InputError):
    """A separatrix divisor fails the balanced conditions."""


class MissingReducedData(InputError):
    """An attachment on an invariant component lacks its local index value."""


class HypothesisMissing(InputError):
    """An operation needs a hypothesis flag that is absent or violated."""


class GermSyntaxError(InputError):
    """Germ expression failed to parse; carries the source position."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class NonPolynomial(InputError):
    """Germ expression is not a polynomial (division by a variable, etc.)."""


class SceneParseError(InputError):
    """Scene file is malformed or violates the schema."""


class UnsupportedGerm(InputError):
    """Germ is outside the supported class (non-reduced, zero, ...)."""


class ExtensionDegreeExceeded(FolindexError):
    """Required algebraic extension exceeds the configured degree bound."""


class CheckFailed(FolindexError):
    """An exact identity that must hold did not."""


class NonIntegerResult(CheckFailed):
    """A formula that must produce an integer produced a fraction."""


class PathMismatch(CheckFailed):
    """Two independent computation paths disagree."""


class OracleMismatch(CheckFailed):
    """A combinatorial value disagrees with its independent oracle."""


class ChangeOfCoordinatesFailed(CheckFailed):
    """More shears fail the oracle's certificate than its bound allows."""


class CandidateUncertified(CheckFailed):
    """A pencil candidate's Milnor number falls below the certified generic
    value, which semicontinuity forbids."""


class PropertyViolation(CheckFailed):
    """A randomized property check failed; carries a reproduction scene."""

    def __init__(self, message, scene=None):
        super().__init__(message)
        self.scene = scene
