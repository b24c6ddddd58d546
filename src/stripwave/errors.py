"""Exception hierarchy shared across the package.

Grouped by origin: configuration/shape errors are raised eagerly on bad
input, solver errors signal a failed nonlinear or linear solve, and
continuation errors signal that the parameter march cannot proceed.
"""


class StripWaveError(Exception):
    """Base class for all package-specific errors."""


# --- input validation -------------------------------------------------------

class BadExtent(StripWaveError):
    """x-extents do not straddle 0 (need x_left < 0 < x_right)."""


class AnchorNotOnGrid(StripWaveError):
    """The phase-condition anchor (x=0, y=-L/2) is not a grid node."""


class ShapeMismatch(StripWaveError):
    """A wave state is inconsistent with the grid or its family."""


class WrongFamily(StripWaveError):
    """An operation was called on a state of the wrong problem family."""


class ConfigError(StripWaveError):
    """A run configuration failed validation; message names the field."""


class DomainError(StripWaveError):
    """Argument outside the mathematical domain of a special function."""


# --- solver -----------------------------------------------------------------

class SolverError(StripWaveError):
    """Base class for nonlinear/linear solve failures."""


class LinearSolveFailed(SolverError):
    """Direct sparse factorization hit a singular or broken matrix."""


class MaxItersExceeded(SolverError):
    """Newton did not reach the residual tolerance in max_iters."""


class StepUnderflow(SolverError):
    """Armijo backtracking reduced the step below min_step."""


class NegativeSpeed(SolverError):
    """Newton converged to a state with c <= 0 (spurious root)."""


class BracketNotFound(SolverError):
    """Shooting bisection could not bracket the wave speed."""


# --- continuation -----------------------------------------------------------

class ContinuationError(StripWaveError):
    """Base class for continuation driver failures."""


class StepCollapse(ContinuationError):
    """Adaptive parameter step fell below its minimum."""


class ParameterNotMonotone(ContinuationError):
    """Requested target would run the stage parameter backwards."""


class ExtentTooSmall(ContinuationError):
    """Grid extents violate the decay-based adequacy rule at a record."""


# --- diagnostics ------------------------------------------------------------

class DiagnosticsError(StripWaveError):
    """Base class for diagnostic preconditions that cannot be met."""


class ThresholdNotCrossed(DiagnosticsError):
    """The field exceeds the ignition threshold everywhere."""


class WindowEmpty(DiagnosticsError):
    """No usable nodes in the decay-fitting window."""


class NoRoot(DiagnosticsError):
    """Dispersion bracket does not straddle a root."""


# --- persistence ------------------------------------------------------------

class SchemaMismatch(StripWaveError):
    """Checkpoint schema version is not supported."""


class ConfigHashMismatch(StripWaveError):
    """Checkpoint was produced by a different configuration."""
