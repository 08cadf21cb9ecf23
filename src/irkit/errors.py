"""Exception types shared across the solver kit."""

from __future__ import annotations


class IrkitError(Exception):
    """Base class for all solver-kit errors.  ``partial`` is the trajectory up to
    the last accepted step when an integration loop's step raised it, and
    ``stats`` the failing step's :class:`~irkit.nonlinear.StepStats` when it left
    the step's ``richardson``, every linear solve that ran counted in, the
    failing one included.  Each is ``None`` otherwise, as for every rejection
    before a first step: a :class:`ConfigurationError`."""

    partial = None
    stats = None


class ConfigurationError(IrkitError, ValueError):
    """Invalid or unsupported configuration, input data or time argument."""


class DecompositionError(IrkitError):
    """A matrix factorization or iteration failed to converge."""


class SingularMatrixError(IrkitError):
    """A (numerically) singular matrix was encountered where a solve is required."""


class AssumptionViolationError(IrkitError):
    """A stability assumption required by the solver does not hold."""


class IndexViolationError(IrkitError):
    """The algebraic constraint block is singular (system is not index-1)."""


class StageSolveError(IrkitError):
    """An eigen-block (or DIRK stage) solve did not converge.

    Raised by :func:`~irkit.irk_core.solve_block` alone.  Carries the block's
    offset and Krylov report, and ``reports``: the ``(block_offset,
    KrylovReport)`` list the failing one was appended to, last, so callers can
    count the work or retry with different settings.
    """

    def __init__(self, message, block_offset=None, report=None, reports=()):
        super().__init__(message)
        self.block_offset, self.report, self.reports = block_offset, report, reports


class KrylovBreakdownError(StageSolveError):
    """A block solve stopped at an Arnoldi breakdown above its tolerance."""


class StepFailureError(IrkitError):
    """A nonlinear stage solve failed: a non-finite or growing residual, a
    failed linearization or an exhausted iteration budget."""
