"""Index-1 differential-algebraic stage solves and time stepping.

Systems have the form ``M u' = N(u, w, t)``, ``0 = G(u, w, t)`` with an
invertible constraint Jacobian ``G_w``.  The stage system couples the
differential stage vectors ``k_i`` with algebraic stage vectors ``l_i``;
after the Schur transform the diagonal blocks are 2x2 composite systems
(real eigenvalue) or 4x4 composite systems (complex pair), in mass form:

    [[eta*M - dt*Lu1, -dt*Lw1,      phi*M,          0     ],
     [-dt*Gu1,        -dt*Gw1,      0,              0     ],
     [-(b^2/phi)*M,   0,            eta*M - dt*Lu2, -dt*Lw2],
     [0,              0,            -dt*Gu2,        -dt*Gw2]]

Two solution orderings are available.  The coupled mode runs GMRES on the
full block with a triangular preconditioner that eliminates the algebraic
rows through exact constraint solves.  The reordered mode applies when the
differential rows do not couple to the algebraic variable (``Lw = 0``, as
in a lagged advection/streamfunction splitting): the differential 2x2 is
solved first, then the two constraint solves are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    block_sweep,
    shifted_matrix,
)
from .nonlinear import IntegrationResult, SolverConfig, march, richardson, variant_weights
from .sparsela import BandedLU, LinearOperator, SparseMatrix, combine, gmres
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
    lu: SparseMatrix
    lw: SparseMatrix
    gu: SparseMatrix
    gw: SparseMatrix


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


def dae_stage_residual(sys: DaeSystem, st: DaeStageState, tableau):
    """Composite residual: ``N(U_i, W_i, t_i) - M k_i`` and ``G(U_i, W_i, t_i)``."""
    u_stage = st.u[None, :] + st.dt * (tableau.a0 @ st.k)
    w_stage = st.w[None, :] + st.dt * (tableau.a0 @ st.ell)
    out = np.empty((tableau.s, sys.dim_u + sys.dim_w))
    for i in range(tableau.s):
        ti = st.t + tableau.c0[i] * st.dt
        diff = sys.rhs(u_stage[i], w_stage[i], ti)
        diff = diff - (st.k[i] if sys.mass is None else sys.mass @ st.k[i])
        out[i, : sys.dim_u] = diff
        out[i, sys.dim_u :] = sys.constraint(u_stage[i], w_stage[i], ti)
    return out


class _ConstraintSolver:
    """Factored solves with the constraint block ``G_w``."""

    def __init__(self, gw: SparseMatrix, counters: DaeCounters):
        self.nw = gw.n
        self.counters = counters
        if self.nw:
            try:
                self._factor = BandedLU.factor(gw)
            except SingularMatrixError as exc:
                raise IndexViolationError(
                    f"constraint Jacobian is singular: {exc}"
                ) from exc

    def solve(self, r):
        if self.nw == 0:
            return np.zeros_like(r)
        self.counters.constraint += 1 if np.ndim(r) == 1 else np.shape(r)[1]
        return self._factor.solve(r)


class _ReducedSolver:
    """Solves ``alpha*M - dt*(L_u - L_w G_w^{-1} G_u)`` exactly.

    Banded when ``L_w`` vanishes; otherwise the constraint elimination is
    materialized densely (desk-scale dimensions only).
    """

    def __init__(self, alpha, ops: DaeOps, dt, mass, counters: DaeCounters,
                 constraint: _ConstraintSolver):
        self.counters = counters
        if ops.lw.nnz == 0 or ops.gu.n == 0:
            self._solve = ShiftedSolver(alpha, mass, ops.lu, dt, "exact").solve
        else:
            gu_dense = ops.gu.to_dense()
            x = constraint._factor.solve(gu_dense)
            red = shifted_matrix(alpha, mass, ops.lu, dt).to_dense()
            red += dt * (ops.lw.to_dense() @ x)
            lu, piv = densela.lu_factor(red)
            self._solve = lambda r: densela.lu_solve_factored(lu, piv, r)

    def solve(self, r):
        self.counters.differential += 1 if np.ndim(r) == 1 else np.shape(r)[1]
        return self._solve(r)


def _composite_matvec(ops: DaeOps, eta_or_alpha, mass, dt, xu, xw):
    """Action of ``[[a*M - dt*Lu, -dt*Lw], [-dt*Gu, -dt*Gw]]`` on ``(xu, xw)``."""
    mu = xu if mass is None else mass @ xu
    top = eta_or_alpha * mu - dt * (ops.lu @ xu) - dt * (ops.lw @ xw)
    bot = -dt * (ops.gu @ xu) - dt * (ops.gw @ xw)
    return top, bot


def _split(x, nu, nw):
    return x[:nu], x[nu : nu + nw]


def _coupling_action(od: DaeOps, dt, xu, xw):
    """``dt`` times a coupling operator's action, as (differential, algebraic) rows."""
    return dt * (od.lu @ xu) + dt * (od.lw @ xw), dt * (od.gu @ xu) + dt * (od.gw @ xw)


def _eliminate(ops: DaeOps, constraint, reduced, dt, ru, rw):
    """Exact composite solve that eliminates the algebraic rows; ``[zu, zw]``."""
    if ops.lw.nnz:
        ru = ru - ops.lw @ constraint.solve(rw)
    zu = reduced.solve(ru)
    return [zu, -constraint.solve(rw + dt * (ops.gu @ zu)) / dt]


def solve_dae_block2x2(ops, eta, dt, mass, rhs, spec, counters, rtol, maxit, restart):
    """Real-eigenvalue composite block: GMRES with elimination preconditioning."""
    nu, nw = ops.lu.n, ops.gw.n
    n = nu + nw
    constraint = _ConstraintSolver(ops.gw, counters)
    reduced = _ReducedSolver(eta, ops, dt, mass, counters, constraint)

    def apply_op(x):
        return np.concatenate(_composite_matvec(ops, eta, mass, dt, *_split(x, nu, nw)))

    def apply_pre(r):
        return np.concatenate(_eliminate(ops, constraint, reduced, dt, *_split(r, nu, nw)))

    op = LinearOperator(n, apply_op)
    pre = LinearOperator(n, apply_pre, solves_per_apply=1)
    return gmres(op, rhs, right_precond=pre, rtol=rtol, maxit=maxit, restart=restart)


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
    restart=200,
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
    nu, nw = ops_i.lu.n, ops_i.gw.n
    n = nu + nw
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2 * n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({2 * n},)")
    offdiag = offdiag or {}
    if mode == "reordered":
        offdiag = {}

    def mass_apply(x):
        return x if mass is None else mass @ x

    def apply_full(x):
        x1u, x1w = _split(x[:n], nu, nw)
        x2u, x2w = _split(x[n:], nu, nw)
        top1, bot1 = _composite_matvec(ops_i, eta, mass, dt, x1u, x1w)
        top2, bot2 = _composite_matvec(ops_j, eta, mass, dt, x2u, x2w)
        top1 = top1 + phi * mass_apply(x2u)
        top2 = top2 - (beta**2 / phi) * mass_apply(x1u)
        if (0, 1) in offdiag:
            c_top, c_bot = _coupling_action(offdiag[(0, 1)], dt, x2u, x2w)
            top1, bot1 = top1 - c_top, bot1 - c_bot
        if (1, 0) in offdiag:
            c_top, c_bot = _coupling_action(offdiag[(1, 0)], dt, x1u, x1w)
            top2, bot2 = top2 - c_top, bot2 - c_bot
        return np.concatenate([top1, bot1, top2, bot2])

    if mode == "reordered":
        if ops_i.lw.nnz or ops_j.lw.nnz:
            raise ConfigurationError(
                "reordered mode requires structurally zero L_w blocks"
            )
        sys2 = Block2x2System(
            eta=eta, beta=beta, phi=phi, mass=mass,
            l1=ops_i.lu, l2=ops_j.lu, dt=dt,
        )
        rdiff = np.concatenate([rhs[:nu], rhs[n : n + nu]])
        sol, rep = _solve_2x2(sys2, rdiff, spec, rtol, maxit, restart)
        counters.differential += rep.precond_applications
        k1, k2 = sol[:nu], sol[nu:]
        c1 = _ConstraintSolver(ops_i.gw, counters)
        c2 = _ConstraintSolver(ops_j.gw, counters)
        l1 = -c1.solve(rhs[nu:n] + dt * (ops_i.gu @ k1)) / dt
        l2 = -c2.solve(rhs[n + nu :] + dt * (ops_j.gu @ k2)) / dt
        x = np.concatenate([k1, l1, k2, l2])
        # the constraint solves run outside gmres, so recheck the whole block
        rnorm = np.linalg.norm(rhs)
        true_rel = np.linalg.norm(rhs - apply_full(x)) / rnorm if rnorm > 0.0 else 0.0
    elif mode == "coupled":
        constraint1 = _ConstraintSolver(ops_i.gw, counters)
        constraint2 = _ConstraintSolver(ops_j.gw, counters)
        gamma = spec.gamma(eta, beta)
        red1 = _ReducedSolver(eta, ops_i, dt, mass, counters, constraint1)
        red2 = _ReducedSolver(gamma, ops_j, dt, mass, counters, constraint2)

        def apply_pre(r):
            z1 = _eliminate(ops_i, constraint1, red1, dt, *_split(r[:n], nu, nw))
            r2u, r2w = _split(r[n:], nu, nw)
            r2u = r2u + (beta**2 / phi) * mass_apply(z1[0])
            return np.concatenate(z1 + _eliminate(ops_j, constraint2, red2, dt, r2u, r2w))

        op = LinearOperator(2 * n, apply_full)
        pre = LinearOperator(2 * n, apply_pre, solves_per_apply=2)
        x, rep = gmres(op, rhs, right_precond=pre, rtol=rtol, maxit=maxit, restart=restart)
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


def _build_dae_variant(prep, stage_ops, variant, variant0_stage):
    """Componentwise weighted sums of the composite stage operators."""
    dw, ow = variant_weights(prep, variant, variant0_stage)

    def comb(weights):
        return DaeOps(*(combine(weights, part) for part in zip(*stage_ops)))

    return tuple(comb(w) for w in dw), {key: comb(w) for key, w in ow.items()}


def _solve_dae_transformed(prep, diag, offdiag, mass, dt, rhs, cfg, counters, mode):
    """Backward block sweep of the transformed composite stage system.

    Rows stack ``[k | ell]``; the ``r[i, j]`` mass coupling acts on the
    differential part only, so the algebraic rows see zeros.
    """
    nu = diag[0].lu.n

    def mass_apply(y):
        out = np.zeros_like(y)
        out[:nu] = y[:nu] if mass is None else mass @ y[:nu]
        return out

    def couple(i, j, y):
        od = offdiag.get((i, j))
        if od is None:
            return None
        return np.concatenate(_coupling_action(od, dt, y[:nu], y[nu:]))

    def solve_block(blk, acc):
        i = blk.offset
        if blk.size == 1:
            return solve_dae_block2x2(
                diag[i], blk.eta, dt, mass, acc[0], cfg.precond, counters,
                cfg.krylov_rtol, cfg.krylov_maxit, cfg.restart,
            )
        pair_off = {
            key_local: offdiag[key]
            for key_local, key in (((0, 1), (i, i + 1)), ((1, 0), (i + 1, i)))
            if key in offdiag
        }
        return solve_dae_block4x4(
            diag[i],
            diag[i + 1],
            blk.eta,
            blk.beta,
            blk.phi,
            dt,
            acc.ravel(),
            mode=mode,
            mass=mass,
            spec=cfg.precond,
            counters=counters,
            rtol=cfg.krylov_rtol,
            maxit=cfg.krylov_maxit,
            restart=cfg.restart,
            offdiag=pair_off,
        )

    return block_sweep(prep, rhs, mass_apply, couple, solve_block)


def dae_newton_step(sys: DaeSystem, st: DaeStageState, prep, cfg: SolverConfig,
                    mode="coupled"):
    """Preconditioned Richardson iteration on the composite stage residual.

    The iterate stacks ``[k | ell]`` row by row, shape ``(s, dim_u + dim_w)``.
    """
    tableau = prep.tableau
    counters = DaeCounters()
    nu = sys.dim_u

    def residual(x):
        st.k, st.ell = x[:, :nu], x[:, nu:]
        return dae_stage_residual(sys, st, tableau)

    def assemble(x):
        u_stage = st.u[None, :] + st.dt * (tableau.a0 @ x[:, :nu])
        w_stage = st.w[None, :] + st.dt * (tableau.a0 @ x[:, nu:])
        ops = [
            DaeOps(*sys.blocks(u_stage[i], w_stage[i], st.t + tableau.c0[i] * st.dt))
            for i in range(tableau.s)
        ]
        return _build_dae_variant(prep, ops, cfg.variant, cfg.variant0_stage)

    def solve(jac, res):
        return _solve_dae_transformed(
            prep, *jac, sys.mass, st.dt, res, cfg, counters, mode
        )

    _, stats = richardson(
        residual, assemble, solve, np.hstack([st.k, st.ell]), cfg, tableau.s,
        label="DAE stage solve",
    )
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
