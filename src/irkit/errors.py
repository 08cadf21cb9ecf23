"""Exception types shared across the solver kit."""

from __future__ import annotations


class IrkitError(Exception):
    """Base class for all solver-kit errors.  ``partial`` is the trajectory up to
    the last accepted step when an integration loop's step raised it, else ``None``,
    as for every rejection before a first step: a :class:`ConfigurationError`."""

    partial = None


class ConfigurationError(IrkitError, ValueError):
    """Invalid or unsupported configuration, input data or time argument."""


class DecompositionError(IrkitError):
    """A matrix factorization or iteration failed to converge."""


class SingularMatrixError(IrkitError):
    """A (numerically) singular matrix was encountered where a solve is required."""


class AssumptionViolationError(IrkitError):
    """A stability assumption required by the solver does not hold."""


class KrylovBreakdownError(IrkitError):
    """Arnoldi breakdown without a converged residual."""


class IndexViolationError(IrkitError):
    """The algebraic constraint block is singular (system is not index-1)."""


class StageSolveError(IrkitError):
    """An inner stage-block solve did not converge.

    Carries the offending eigen-block offset and the Krylov report so callers
    can decide whether to retry with different settings.
    """

    def __init__(self, message, block_offset=None, report=None):
        super().__init__(message)
        self.block_offset = block_offset
        self.report = report


class StepFailureError(IrkitError):
    """A nonlinear stage solve exhausted its iteration budget.

    ``stats`` holds the iteration statistics of the failed step.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats
