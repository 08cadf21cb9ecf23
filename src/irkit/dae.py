"""Index-1 differential-algebraic stage solves and time stepping.

Systems have the form ``M u' = N(u, w, t)``, ``0 = G(u, w, t)`` with an
invertible constraint Jacobian ``G_w``: the stage system of
``diag(M, 0) y' = F(y)`` for ``y = [u | w]``.  A private view turns the
DAE into that :class:`~irkit.nonlinear.OdeSystem`: stage rows stack
``[k_i | l_i]``, the composite operator ``J = [[L_u, L_w], [G_u, G_w]]``
(:class:`DaeOps`) is its linearization and ``diag(M, 0)`` its mass.  The
ODE core then does the whole stage solve (residual, variant assembly,
transformed sweep, Newton-like iteration) with two composite block solvers
plugged in: the exact shifted solve eliminates the algebraic rows through
factored ``G_w`` solves, and complex pairs go to :func:`solve_dae_block4x4`.

Two orderings are available for a complex-pair block.  The coupled mode
runs GMRES on the whole composite 2x2 block.  The reordered mode applies
when the differential rows do not couple to the algebraic variable
(``L_w = 0``, as in a lagged advection/streamfunction splitting): the
differential 2x2 is solved first, then the two constraint solves are
independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import densela
from .errors import (
    ConfigurationError,
    IndexViolationError,
    SingularMatrixError,
    StageSolveError,
)
from .irk_core import (
    Block2x2System,
    PrecondSpec,
    ShiftedSolver,
    _solve_2x2,
)
from .nonlinear import (
    IntegrationResult,
    OdeSystem,
    SolverConfig,
    StageState,
    march,
    newton_like_step,
    stage_residual,
)
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


class _CompositeMass:
    """Composite mass ``diag(M, 0)`` on stacked ``[u | w]``; ``M = None`` is I."""

    def __init__(self, mass, nu):
        self.mass, self.nu = mass, nu
        self.parts = ((0, 0, mass),)

    def __matmul__(self, y):
        out = np.zeros_like(y)
        out[: self.nu] = y[: self.nu] if self.mass is None else self.mass @ y[: self.nu]
        return out


@dataclass
class DaeStageState:
    k: np.ndarray  # (s, dim_u)
    ell: np.ndarray  # (s, dim_w)
    u: np.ndarray
    w: np.ndarray
    t: float
    dt: float


@dataclass
class DaeCounters:
    """Inner-solver applications split by block type."""

    differential: int = 0
    constraint: int = 0


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


def _stacked(st: DaeStageState) -> StageState:
    """The ODE view's stage state: rows ``[k_i | l_i]`` and state ``[u | w]``."""
    return StageState(np.hstack([st.k, st.ell]), np.concatenate([st.u, st.w]), st.t, st.dt)


def dae_stage_residual(sys: DaeSystem, st: DaeStageState, tableau):
    """Composite residual: ``N(U_i, W_i, t_i) - M k_i`` and ``G(U_i, W_i, t_i)``."""
    return stage_residual(_ode_view(sys), _stacked(st), tableau)


class _ConstraintSolver:
    """Factored solves with the constraint block ``G_w``, through its cached
    factorization: an unchanged ``G_w`` object is factored once."""

    def __init__(self, gw: SparseMatrix, counters: DaeCounters):
        self.nw = gw.n
        self.counters = counters
        if self.nw:
            try:
                self._factor = gw.factorization
            except SingularMatrixError as exc:
                raise IndexViolationError(
                    f"constraint Jacobian is singular: {exc}"
                ) from exc

    def solve(self, r):
        if self.nw == 0:
            return np.zeros_like(r)
        self.counters.constraint += 1 if np.ndim(r) == 1 else np.shape(r)[1]
        return self._factor.solve(r)


class _EliminationSolver:
    """Applies ``(alpha*diag(M, 0) - dt*J)^{-1}`` exactly for a composite ``J``.

    The algebraic rows are eliminated through ``G_w``.  The reduced operator
    ``alpha*M - dt*(L_u - L_w G_w^{-1} G_u)`` stays banded when ``L_w``
    vanishes; otherwise it is materialized densely (desk-scale dimensions
    only).  Built in place of :class:`~irkit.irk_core.ShiftedSolver` on
    composite blocks, so ``mass`` is a :class:`_CompositeMass` and ``inner``
    is ignored.
    """

    def __init__(self, counters: DaeCounters, alpha, mass, ops: DaeOps, dt, inner=None):
        self.ops, self.dt, self.counters = ops, dt, counters
        self.constraint = _ConstraintSolver(ops.gw, counters)
        if ops.lw.nnz == 0:
            self._reduced = ShiftedSolver(alpha, mass.mass, ops.lu, dt).solve
        else:
            x = self.constraint._factor.solve(ops.gu.to_dense())
            red = combine([alpha, -dt], [mass.mass, ops.lu]).to_dense()
            red += dt * (ops.lw.to_dense() @ x)
            lu, piv = densela.lu_factor(red)
            self._reduced = lambda r: densela.lu_solve_factored(lu, piv, r)

    def solve(self, r):
        ops, dt = self.ops, self.dt
        ru, rw = r[: ops.lu.n], r[ops.lu.n :]
        if ops.lw.nnz:
            ru = ru - ops.lw @ self.constraint.solve(rw)
        self.counters.differential += 1
        zu = self._reduced(ru)
        return np.concatenate([zu, -self.constraint.solve(rw + dt * (ops.gu @ zu)) / dt])


def solve_dae_block4x4(
    ops_i: DaeOps,
    ops_j: DaeOps,
    eta,
    beta,
    phi,
    dt,
    rhs,
    mode="coupled",
    mass=None,
    spec=PrecondSpec(),
    counters=None,
    rtol=1e-5,
    maxit=200,
    offdiag=None,
):
    """Solve one complex-pair composite block; returns ``(x, report)``.

    ``rhs`` stacks ``(f_i, g_i, f_j, g_j)``.  ``mode`` is ``"coupled"`` or
    ``"reordered"``; the reordered forward substitution requires both
    ``L_w`` blocks to vanish structurally.  Both modes check the block's true
    residual against ``rtol`` and raise :class:`StageSolveError` otherwise.
    ``offdiag`` optionally carries variant-3 coupling operators
    ``{(0, 1): DaeOps, (1, 0): DaeOps}`` acting between the two stage rows;
    the reordered ordering drops them (its triangular structure assumes the
    lumped or weighted block-diagonal linearization), so there the outer
    nonlinear iteration absorbs any coupling mismatch.
    """
    if counters is None:
        counters = DaeCounters()
    nu, n = ops_i.lu.n, ops_i.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2 * n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({2 * n},)")
    offdiag = {} if mode == "reordered" else offdiag or {}
    sys2 = Block2x2System(
        eta=eta, beta=beta, phi=phi, mass=_CompositeMass(mass, nu),
        l1=ops_i, l2=ops_j, dt=dt,
        offdiag12=offdiag.get((0, 1)), offdiag21=offdiag.get((1, 0)),
    )

    if mode == "reordered":
        if ops_i.lw.nnz or ops_j.lw.nnz:
            raise ConfigurationError(
                "reordered mode requires structurally zero L_w blocks"
            )
        x, rep, true_rel = _solve_reordered(sys2, rhs, spec, rtol, maxit, counters)
    elif mode == "coupled":
        exact = partial(_EliminationSolver, counters)
        x, rep = _solve_2x2(sys2, rhs, spec, rtol, maxit, exact)
        # gmres has already measured the true residual of x against rtol
        true_rel = rep.residuals[-1]
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")

    if true_rel > rtol:
        raise StageSolveError(
            f"composite block residual {true_rel:.3e} above rtol {rtol:.3e}",
            report=rep,
        )
    return x, rep


def _solve_reordered(sys2, rhs, spec, rtol, maxit, counters):
    """GMRES on the differential 2x2 block of a composite pair with
    ``L_w = 0``, then one ``G_w`` solve per stage row; returns
    ``(x, report, true_rel)``.

    ``true_rel`` is the whole block's relative true residual, taken without
    assembling the block: GMRES's recomputed residual on the differential
    rows, and ``b - G_w l`` on the algebraic rows of each stage row.
    """
    ops_i, ops_j, dt = sys2.l1, sys2.l2, sys2.dt
    nu, n = ops_i.lu.n, ops_i.n
    diff = replace(sys2, mass=sys2.mass.mass, l1=ops_i.lu, l2=ops_j.lu)
    rdiff = np.concatenate([rhs[:nu], rhs[n : n + nu]])
    sol, rep = _solve_2x2(diff, rdiff, spec, rtol, maxit)
    counters.differential += rep.precond_applications
    x, sq = [], (rep.residuals[-1] * np.linalg.norm(rdiff)) ** 2
    for ops, k, rw in ((ops_i, sol[:nu], rhs[nu:n]), (ops_j, sol[nu:], rhs[n + nu :])):
        b = rw + dt * (ops.gu @ k)
        ell = _ConstraintSolver(ops.gw, counters).solve(b)
        res = b - ops.gw @ ell
        sq += res @ res
        x += [k, -ell / dt]
    rnorm = np.linalg.norm(rhs)
    return np.concatenate(x), rep, np.sqrt(sq) / rnorm if rnorm > 0.0 else 0.0


def _block_solvers(mode, counters: DaeCounters):
    """Composite block solvers for the ODE core, counting into ``counters``."""

    def solve_pair(sys2, rhs, spec, rtol, maxit, shifted):
        # a closure, not a partial, so a wrapper on the module attribute sees
        # every call; solve_dae_block4x4 rebuilds ``shifted`` from ``counters``
        return solve_dae_block4x4(
            sys2.l1, sys2.l2, sys2.eta, sys2.beta, sys2.phi, sys2.dt, rhs, mode=mode,
            mass=sys2.mass.mass, spec=spec, counters=counters, rtol=rtol, maxit=maxit,
            offdiag={(0, 1): sys2.offdiag12, (1, 0): sys2.offdiag21},
        )

    return {"shifted": partial(_EliminationSolver, counters), "solve_pair": solve_pair}


def dae_newton_step(sys: DaeSystem, st: DaeStageState, prep, cfg: SolverConfig,
                    mode="coupled"):
    """Newton-like iteration on the stage system of ``diag(M, 0) y' = F(y)``.

    :func:`~irkit.nonlinear.newton_like_step` runs on the ODE view of
    ``sys`` with the stage rows ``[k | ell]``, shape ``(s, dim_u + dim_w)``,
    and the composite block solvers of ``mode``.
    """
    counters = DaeCounters()
    y, stats = newton_like_step(_ode_view(sys), _stacked(st), prep, cfg,
                                **_block_solvers(mode, counters))
    st.k, st.ell = y.k[:, : sys.dim_u], y.k[:, sys.dim_u :]
    stats.differential_solves = counters.differential
    stats.constraint_solves = counters.constraint
    return st, stats, counters


def dae_step(sys: DaeSystem, u, w, t, dt, tableau, cfg=SolverConfig(), prep=None,
             mode="coupled"):
    """One DAE step; returns ``(u_next, w_next, StepStats)``."""
    if tableau.family in SDIRK_FAMILIES:
        raise ConfigurationError(
            "DIRK tableaux are not supported on DAE systems; use a fully "
            "implicit collocation scheme"
        )
    if prep is None:
        prep = prepare_stages(tableau)
    st = DaeStageState(
        k=np.zeros((tableau.s, sys.dim_u)),
        ell=np.zeros((tableau.s, sys.dim_w)),
        u=np.asarray(u, dtype=float),
        w=np.asarray(w, dtype=float),
        t=t,
        dt=dt,
    )
    st, stats, _ = dae_newton_step(sys, st, prep, cfg, mode=mode)
    u_next = st.u + dt * (tableau.b0 @ st.k)
    w_next = st.w + dt * (tableau.b0 @ st.ell)
    stats.constraint_residual = float(
        np.linalg.norm(sys.constraint(u_next, w_next, t + dt))
    )
    return u_next, w_next, stats


@dataclass
class DaeIntegrationResult:
    times: np.ndarray
    u_states: list
    w_states: list
    step_stats: list

    @property
    def u_final(self):
        return self.u_states[-1]

    @property
    def w_final(self):
        return self.w_states[-1]

    total = IntegrationResult.total


def dae_integrate(sys: DaeSystem, u0, w0, t0, t_final, dt, tableau,
                  cfg=SolverConfig(), mode="coupled"):
    """Fixed-step DAE march.

    The initial state must satisfy the constraint to 1e-10; a failing step
    raises its :class:`~irkit.errors.IrkitError` with the partial
    trajectories attached as ``partial``.
    """
    g0 = np.linalg.norm(sys.constraint(np.asarray(u0, float), np.asarray(w0, float), t0))
    if g0 > 1e-10:
        raise ConfigurationError(
            f"inconsistent initial condition: |G(u0, w0, t0)| = {g0:.3e}"
        )
    prep = prepare_stages(tableau)

    def advance(state, t):
        u, w, stats = dae_step(sys, *state, t, dt, tableau, cfg, prep=prep, mode=mode)
        return (u, w), stats

    def pack(times, states, step_stats):
        return DaeIntegrationResult(
            times=times,
            u_states=[u for u, _ in states],
            w_states=[w for _, w in states],
            step_stats=step_stats,
        )

    state0 = (np.array(u0, dtype=float), np.array(w0, dtype=float))
    return march(advance, state0, t0, t_final, dt, pack)
