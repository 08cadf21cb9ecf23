"""Index-1 differential-algebraic stage solves and time stepping.

Systems have the form ``M u' = N(u, w, t)``, ``0 = G(u, w, t)`` with an
invertible constraint Jacobian ``G_w``: the stage system of
``diag(M, 0) y' = F(y)`` for ``y = [u | w]``.  A private view turns the
DAE into that :class:`~irkit.nonlinear.OdeSystem`: stage rows stack
``[k_i | l_i]``, the composite operator ``J = [[L_u, L_w], [G_u, G_w]]``
(:class:`DaeOps`) is its linearization and ``diag(M, 0)`` its mass.  The
ODE core then does the whole stage solve (residual, variant assembly,
transformed sweep, Newton-like iteration) with a pair-plan class plugged in:
its exact shifted solve eliminates the algebraic rows through factored
``G_w`` solves, and complex pairs go to :func:`solve_dae_block4x4`.

Two orderings are available for a complex-pair block, one plan class each
(:data:`PAIR_PLANS`).  The coupled mode runs GMRES on the whole composite
2x2 block.  The reordered mode applies when the differential rows do not
couple to the algebraic variable (``L_w = 0``, as in a lagged
advection/streamfunction splitting): the differential 2x2 is solved first,
then the two constraint solves are independent.

No state of a step is kept here: the composite mass compares by value and
the plan classes are module-level, so a stage Jacobian's block plans serve
every step while its blocks are unchanged.  Inner solves count into the
``StepStats`` of running totals ``nonlinear.COUNTERS``, read by ``richardson`` as deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import densela
from .errors import ConfigurationError, IndexViolationError, SingularMatrixError
from .irk_core import PairPlan, ShiftedSolver, _block_matrix
from .nonlinear import (COUNTERS, IntegrationResult, OdeSystem, SolverConfig, _advance,
                        _check_step, _state_vector, _step_count, march, stage_residual)
from .sparsela import SparseMatrix, combine
from .tableau import SDIRK_FAMILIES, prepare_stages


@dataclass(frozen=True)
class DaeSystem:
    """Semi-discrete DAE ``M u' = N(u, w, t)``, ``0 = G(u, w, t)``.

    ``blocks(u, w, t)`` returns the four linearized blocks
    ``(L_u, L_w, G_u, G_w)`` as sparse matrices, fixed per stage row.
    """

    dim_u: int
    dim_w: int
    rhs: object
    constraint: object
    blocks: object
    mass: SparseMatrix | None = None
    name: str = ""


class DaeOps(NamedTuple):
    """Composite operator ``[[L_u, L_w], [G_u, G_w]]`` on stacked ``[u | w]``."""

    lu: SparseMatrix
    lw: SparseMatrix
    gu: SparseMatrix
    gw: SparseMatrix

    @property
    def n(self):
        return self.lu.n + self.gw.n

    @property
    def sizes(self):
        return self.lu.n, self.gw.n

    @property
    def parts(self):
        """The blocks as ``(i, j, matrix)`` on the ``[u | w]`` grid."""
        return (0, 0, self.lu), (0, 1, self.lw), (1, 0, self.gu), (1, 1, self.gw)

    def __matmul__(self, x):
        xu, xw = x[: self.lu.n], x[self.lu.n :]
        return np.concatenate([self.lu @ xu + self.lw @ xw, self.gu @ xu + self.gw @ xw])


class _CompositeMass(NamedTuple):
    """Composite mass ``diag(M, 0)`` on stacked ``[u | w]``; ``M = None`` is I.
    Equal values compare equal, so one step's block plans serve the next."""

    mass: SparseMatrix | None
    nu: int

    @property
    def parts(self):
        return ((0, 0, self.mass),)

    def __matmul__(self, y):
        out = np.zeros_like(y)
        out[: self.nu] = y[: self.nu] if self.mass is None else self.mass @ y[: self.nu]
        return out


def _ode_view(sys: DaeSystem) -> OdeSystem:
    """``sys`` as the ODE system ``diag(M, 0) y' = F(y)`` on ``y = [u | w]``."""
    nu = sys.dim_u

    def rhs(y, t):
        u, w = y[:nu], y[nu:]
        return np.concatenate([sys.rhs(u, w, t), sys.constraint(u, w, t)])

    return OdeSystem(
        dim=nu + sys.dim_w,
        rhs=rhs,
        linearize=lambda y, t: DaeOps(*sys.blocks(y[:nu], y[nu:], t)),
        mass=_CompositeMass(sys.mass, nu),
        name=sys.name,
    )


def dae_stage_residual(sys: DaeSystem, k, y, t, dt, tableau):
    """Composite residual ``N(U_i, W_i, t_i) - M k_i`` and ``G(U_i, W_i, t_i)`` of
    :func:`dae_step`'s stacked stages: rows ``k_i = [k_i | l_i]``, state ``y = [u | w]``."""
    return stage_residual(_ode_view(sys), k, y, t, dt, tableau)


def _gw_factor(gw: SparseMatrix):
    """The cached factorization of ``G_w``: an unchanged ``G_w`` object is
    factored once.  A singular ``G_w`` raises :class:`IndexViolationError`."""
    try:
        return gw.factorization
    except SingularMatrixError as exc:
        raise IndexViolationError(f"constraint Jacobian is singular: {exc}") from exc


def _solve_gw(gw: SparseMatrix, r):
    """One constraint solve ``G_w^{-1} r``, counted in :data:`COUNTERS`."""
    if gw.n == 0:
        return np.zeros_like(r)
    COUNTERS.constraint_solves += 1
    return _gw_factor(gw).solve(r)


class _EliminationSolver:
    """Applies ``(alpha*diag(M, 0) - dt*J)^{-1}`` exactly for a composite ``J``.

    The algebraic rows are eliminated through ``G_w``, factored here (a
    singular ``G_w`` fails at once).  The reduced operator
    ``alpha*M - dt*(L_u - L_w G_w^{-1} G_u)`` stays banded when ``L_w``
    vanishes; otherwise it is materialized densely (desk-scale dimensions
    only).  The ``shifted`` factory of composite blocks: ``mass`` is a
    :class:`_CompositeMass`, and ``inner`` is unused, since :func:`dae_step`
    accepts only exact inner solves.  :attr:`mat` is assembled on first use.
    """

    def __init__(self, alpha, mass, ops: DaeOps, dt, inner=None):
        self.alpha, self.mass, self.ops, self.dt = alpha, mass, ops, dt
        factor = _gw_factor(ops.gw) if ops.gw.n else None
        if ops.lw.nnz == 0:
            self._reduced = ShiftedSolver(alpha, mass.mass, ops.lu, dt).solve
        else:
            red = combine([alpha, -dt], [mass.mass, ops.lu]).to_dense()
            red += dt * (ops.lw.to_dense() @ factor.solve(ops.gu.to_dense()))
            lu, piv = densela.lu_factor(red)
            self._reduced = lambda r, out: np.copyto(out, densela.lu_solve_factored(lu, piv, r))

    @cached_property
    def mat(self):
        """``alpha*diag(M, 0) - dt*J`` as one sparse matrix, memoized on ``L_u``."""
        return _block_matrix([(0, 0, self.alpha, self.mass), (0, 0, -self.dt, self.ops)], self.ops)

    def solve(self, r, out=None):
        """The solve of ``r``, written into ``out`` when given (which may be ``r``)."""
        ops, dt, nu = self.ops, self.dt, self.ops.lu.n
        ru, rw = r[:nu], r[nu:]
        if ops.lw.nnz:
            ru = ru - ops.lw @ _solve_gw(ops.gw, rw)
        COUNTERS.differential_solves += 1
        out = np.empty_like(r) if out is None else out
        zu = out[:nu]
        self._reduced(ru, zu)
        out[nu:] = -_solve_gw(ops.gw, rw + dt * (ops.gu @ zu)) / dt
        return out


def solve_dae_block4x4(plan: PairPlan, rhs, rtol=1e-5, maxit=200):
    """Solve one complex-pair composite block; returns ``(x, report)``, the
    report being the block's verdict for :func:`~irkit.irk_core.solve_block`.

    ``plan`` is the block's plan from :data:`PAIR_PLANS`: a system on
    :class:`DaeOps` with the mass ``_CompositeMass(M, dim_u)``, whose class
    sets the ordering ``plan.mode``.  ``rhs`` stacks ``(f_i, g_i, f_j, g_j)``.
    The coupled mode returns GMRES's report on the whole block.  The
    reordered forward substitution (for ``L_w = 0``) drops the variant-3
    couplings (its triangular structure assumes the lumped or weighted
    block-diagonal linearization), so the outer nonlinear iteration absorbs
    any coupling mismatch; its report's last residual and ``converged`` are
    the whole block's true residual and whether it is within ``rtol``, however
    the differential GMRES stopped (``maxit`` or a ``breakdown``, kept set).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2 * plan.system.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({2 * plan.system.n},)")
    if plan.mode == "coupled":
        return PairPlan.solve(plan, rhs, rtol, maxit)  # GMRES, not the plan's own solve
    x, rep, true_rel = _solve_reordered(plan, rhs, rtol, maxit)
    rep.residuals[-1], rep.converged = true_rel, true_rel <= rtol
    return x, rep


def _solve_reordered(plan, rhs, rtol, maxit):
    """GMRES on the differential 2x2 block of a composite pair with
    ``L_w = 0``, then one ``G_w`` solve per stage row; returns
    ``(x, report, true_rel)``, the report the differential block's.

    ``true_rel`` is the whole block's relative true residual, taken without
    assembling the block: GMRES's recomputed residual on the differential
    rows, and ``b - G_w l`` on the algebraic rows of each stage row.
    """
    sys2 = plan.system
    ops_i, ops_j, dt = sys2.l1, sys2.l2, sys2.dt
    nu, n = ops_i.lu.n, ops_i.n
    rdiff = np.concatenate([rhs[:nu], rhs[n : n + nu]])
    sol, rep = plan.differential.solve(rdiff, rtol, maxit)
    COUNTERS.differential_solves += rep.precond_applications
    x, sq = [], (rep.residuals[-1] * np.linalg.norm(rdiff)) ** 2
    for ops, k, rw in ((ops_i, sol[:nu], rhs[nu:n]), (ops_j, sol[nu:], rhs[n + nu :])):
        b = rw + dt * (ops.gu @ k)
        ell = _solve_gw(ops.gw, b)
        res = b - ops.gw @ ell
        sq += res.dot(res)
        x += [k, -ell / dt]
    rnorm = np.linalg.norm(rhs)
    return np.concatenate(x), rep, np.sqrt(sq) / rnorm if rnorm > 0.0 else 0.0


def _zero_lw(*lws):
    """The reordered mode's rule, checked once per plan: every ``L_w`` is
    structurally zero, else :class:`ConfigurationError`."""
    if any(lw.nnz for lw in lws):
        raise ConfigurationError("reordered mode requires structurally zero L_w blocks")


class _CoupledPlan(PairPlan):
    """A composite pair's plan, solved by :func:`solve_dae_block4x4` in ``mode``."""

    shifted = _EliminationSolver
    mode = "coupled"

    def solve(self, rhs, rtol, maxit):
        return solve_dae_block4x4(self, rhs, rtol, maxit)


class _ReorderedPlan(_CoupledPlan):
    """The plan of a pair with ``L_w = 0``; keeps its differential block's plan."""

    mode = "reordered"

    def __init__(self, system, spec):
        _zero_lw(system.l1.lw, system.l2.lw)
        super().__init__(system, spec)

    @staticmethod
    def shifted(alpha, mass, ops: DaeOps, dt, inner=None):
        """A 1x1 block's :class:`_EliminationSolver`, once its ``L_w = 0`` is checked."""
        _zero_lw(ops.lw)
        return _EliminationSolver(alpha, mass, ops, dt, inner)

    @cached_property
    def differential(self):
        sys2 = self.system
        return PairPlan(replace(sys2, mass=sys2.mass.mass, l1=sys2.l1.lu, l2=sys2.l2.lu,
                                offdiag12=None, offdiag21=None), self.spec)


PAIR_PLANS = {"coupled": _CoupledPlan, "reordered": _ReorderedPlan}


def _check_dae(sys: DaeSystem, u, w, tableau, cfg, mode, names=("u", "w")):
    """The DAE path's options (no DIRK tableau, a known ``mode``, exact inner
    solves), then ``(u, w)`` as float vectors of lengths ``dim_u``/``dim_w``."""
    if tableau.family in SDIRK_FAMILIES:
        raise ConfigurationError(
            "DIRK tableaux are not supported on DAE systems; use a fully "
            "implicit collocation scheme"
        )
    if mode not in PAIR_PLANS:
        raise ConfigurationError(f"unknown mode {mode!r}; expected one of {list(PAIR_PLANS)}")
    if cfg.precond.inner != "exact":
        raise ConfigurationError(
            f"inner={cfg.precond.inner!r}: the DAE's shifted solve is exact only")
    return (_state_vector(u, sys.dim_u, names[0], "dim_u"),
            _state_vector(w, sys.dim_w, names[1], "dim_w"))


def _split(sys: DaeSystem, y, t, stats):
    """``y = [u | w]`` as ``(u, w)``; ``|G(u, w, t)|`` goes into ``stats``."""
    u, w = y[: sys.dim_u], y[sys.dim_u :]
    stats.constraint_residual = float(np.linalg.norm(sys.constraint(u, w, t)))
    return u, w


def dae_step(sys: DaeSystem, u, w, t, dt, tableau, cfg=SolverConfig(), prep=None,
             mode="coupled"):
    """One DAE step: the ODE core's step on the view of ``sys`` as ``diag(M, 0) y' =
    F(y)``, stage rows ``[k | ell]``, with the pair-plan class of ``mode``; returns
    ``(u_next, w_next, StepStats)``.  A DIRK tableau, an unknown ``mode``, an inexact
    ``cfg.precond.inner``, a ``u``/``w`` not of length ``dim_u``/``dim_w`` or a ``dt``
    outside ``(0, inf)`` or a ``prep`` built for another tableau raises
    :class:`ConfigurationError` before any work; a failed step's error carries its
    stats with its inner solves counted.
    """
    u, w = _check_dae(sys, u, w, tableau, cfg, mode)
    _check_step(dt, tableau, prep)
    y, stats = _advance(_ode_view(sys), np.concatenate([u, w]), t, dt, tableau, cfg, prep,
                        PAIR_PLANS[mode])
    return (*_split(sys, y, t + dt, stats), stats)


class DaeIntegrationResult(IntegrationResult):
    """A DAE run: ``states`` holds ``(u, w)`` pairs, the last split by ``u_final``/``w_final``."""

    @property
    def u_final(self):
        return self.states[-1][0]

    @property
    def w_final(self):
        return self.states[-1][1]


def dae_integrate(sys: DaeSystem, u0, w0, t0, t_final, dt, tableau,
                  cfg=SolverConfig(), mode="coupled"):
    """Fixed-step DAE march.

    Before any step, what :func:`dae_step` checks is checked once, then the
    time arguments as ``march`` checks them; ``u0``/``w0`` must satisfy the
    constraint to 1e-10 and the reordered ``mode`` needs a structurally zero
    ``L_w(u0, w0, t0)``.  Each rejection is a :class:`ConfigurationError` with
    ``partial = None``.  A failing step raises its :class:`~irkit.errors.IrkitError`
    with the partial :class:`DaeIntegrationResult` attached as ``partial``.
    """
    u0, w0 = _check_dae(sys, u0, w0, tableau, cfg, mode, ("u0", "w0"))
    _step_count(t0, t_final, dt)
    g0 = np.linalg.norm(sys.constraint(u0, w0, t0))
    if not g0 <= 1e-10:  # NaN fails this as well
        raise ConfigurationError(
            f"inconsistent initial condition: |G(u0, w0, t0)| = {g0:.3e}"
        )
    if mode == "reordered":
        _zero_lw(sys.blocks(u0, w0, t0)[1])
    prep, view, pair_plan = prepare_stages(tableau), _ode_view(sys), PAIR_PLANS[mode]

    def advance(state, t):
        y, stats = _advance(view, np.concatenate(state), t, dt, tableau, cfg, prep, pair_plan)
        return _split(sys, y, t + dt, stats), stats

    return march(advance, (u0.copy(), w0.copy()), t0, t_final, dt, DaeIntegrationResult)
