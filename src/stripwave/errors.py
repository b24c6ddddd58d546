"""Exception hierarchy shared across the package.

Grouped by origin: configuration/shape errors are raised eagerly on bad
input, solver errors signal a failed nonlinear or linear solve,
continuation errors signal that the parameter march cannot proceed, and
CertificateFailed that a run wrote a record its diagnostics do not certify.
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
    """The band LU of a Newton Jacobian is exactly singular, or its solve got a
    bad right-hand side or missed the 1e-12 backward error after refinement."""


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


# --- certificates -----------------------------------------------------------

class CertificateFailed(StripWaveError):
    """A record fails a certificate of its diagnostics; the run stops at it."""


# --- persistence ------------------------------------------------------------

class SchemaMismatch(StripWaveError):
    """Checkpoint schema version is not supported."""


class ConfigHashMismatch(StripWaveError):
    """Checkpoint was produced by a different configuration."""
