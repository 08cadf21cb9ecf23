"""Nonlinear stage solution and time stepping for ODE systems.

The stage equations are solved by preconditioned nonlinear Richardson
iterations ``x <- x + P^{-1} F(x)``, where ``F`` is the stage residual and
``P`` an approximate Jacobian built from the Schur-transformed stage
operators.  Four approximations are supported, in increasing fidelity:

* variant 0: one linearization point for all stages (simplified Newton),
* variant 1: block diagonal, each row lumped to its dominant stage weight,
* variant 2: block diagonal with the full stage-weight mix per row,
* variant 3: variant 2 plus the weighted couplings inside the
  quasi-triangular block sparsity (closest to a true Newton iteration).

When all stage linearizations coincide the four variants are identical and
the iteration converges in a single step on linear problems.  The variant
Jacobian, with the eigen-block plans it keeps, is memoized on the stage
operators, so an unchanged linearization plans its stage solve once.

SDIRK tableaux bypass the Schur transform: their stage equations are lower
triangular and are solved stage by stage, each through the same 1x1 block
plan (:class:`~irkit.irk_core.ShiftedPlan`) and convergence check as a real
eigen-block, with one preconditioner application per Krylov iteration (the
usual accounting for such schemes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IrkitError, StageSolveError, StepFailureError
from .irk_core import (PairPlan, PrecondSpec, ShiftedPlan, _check_dt, solve_block,
                       solve_transformed_system)
from .sparsela import SparseMatrix, _is_count, _memoized, combine_rows
from .tableau import SDIRK_FAMILIES, ButcherTableau, StagePrep, prepare_stages


# A variant-3 coupling of stages that all share one operator ``L`` is
# ``(sum_l w_l) * L``, and its weights sum to zero in exact arithmetic.  It is
# dropped when ``|sum w| <= COUPLING_ROUNDOFF * eps * sum |w|``: the largest
# ratio seen on the Gauss, Radau IIA and Lobatto IIIC tableaux up to s = 8 is
# 37, while a genuine coupling's is of order 1 / eps.
COUPLING_ROUNDOFF = 128

# A stage solve whose residual has grown in this many consecutive iterations
# of one call is diverging: it stops there instead of at ``newton_maxit``.
DIVERGENCE_STREAK = 3


@dataclass(frozen=True)
class OdeSystem:
    """Semi-discrete system ``M u' = N(u, t)``.

    ``rhs(u, t)`` evaluates the nonlinear operator; ``linearize(u, t)``
    returns a sparse approximation of its state Jacobian.  ``mass`` is a
    sparse matrix or ``None`` for the identity.
    """

    dim: int
    rhs: object
    linearize: object
    mass: SparseMatrix | None = None
    name: str = ""


@dataclass
class StageState:
    """Current stage vectors and step context."""

    k: np.ndarray  # (s, dim)
    u: np.ndarray
    t: float
    dt: float


@dataclass(frozen=True)
class SolverConfig:
    variant: int = 3
    newton_rtol: float = 1e-9
    newton_maxit: int = 30
    newton_abs_floor: float = 1e-14
    krylov_rtol: float = 1e-5
    krylov_maxit: int = 200
    precond: PrecondSpec = PrecondSpec()
    jacobian_refresh: str = "every"  # or "frozen"

    def __post_init__(self):
        if isinstance(self.variant, bool) or self.variant not in (0, 1, 2, 3):
            raise ConfigurationError(f"variant must be 0..3, got {self.variant}")
        for name in ("newton_rtol", "krylov_rtol"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ConfigurationError(f"{name} {getattr(self, name)} outside (0, 1)")
        for name in ("newton_maxit", "krylov_maxit"):
            if not _is_count(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if not self.newton_abs_floor >= 0.0:  # NaN fails this as well
            raise ConfigurationError(f"newton_abs_floor must be >= 0, got {self.newton_abs_floor}")
        if self.jacobian_refresh not in ("every", "frozen"):
            raise ConfigurationError(
                f"unknown jacobian_refresh {self.jacobian_refresh!r}"
            )


@dataclass(frozen=True)
class VariantJacobian:
    """Blockwise approximation of the transformed stage operator.

    ``diag[i]`` is the operator used on stage row ``i``; ``offdiag`` maps
    row/column pairs inside the quasi-triangular sparsity to weighted-sum
    coupling operators (populated only by variant 3).  ``plans`` keeps each
    eigen-block's plan, built on first use by
    :func:`~irkit.irk_core.solve_transformed_system`.
    """

    diag: tuple
    offdiag: dict
    plans: dict = field(default_factory=dict, repr=False, compare=False)


def variant_weights(prep: StagePrep, variant):
    """Per-row stage weights (and coupling weights) for each variant."""
    s = prep.tableau.s
    d = prep.d
    diag = np.zeros((s, s))
    offdiag = {}
    if variant == 0:
        diag[:, 0] = 1.0
        return diag, offdiag
    if variant == 1:
        for i in range(s):
            k = int(np.argmax(np.abs(d[i, i])))
            diag[i, k] = 1.0
        return diag, offdiag
    for i in range(s):
        diag[i] = d[i, i]
    if variant == 2:
        return diag, offdiag
    # variant 3: couplings inside the block upper-triangular sparsity,
    # including the subdiagonal position inside each 2x2 eigen-block.
    for i in range(s):
        for j in range(i + 1, s):
            offdiag[(i, j)] = d[i, j]
    for blk in prep.schur.blocks:
        if blk.size == 2:
            i = blk.offset
            offdiag[(i + 1, i)] = d[i + 1, i]
    return diag, offdiag


def build_variant_jacobian(prep: StagePrep, stage_ops, variant):
    """Materialize the variant's diagonal and coupling operators.

    ``stage_ops`` holds one linearized operator per stage, evaluated at the
    current iterate (fixed per block row): a sparse matrix, or a named tuple
    of sparse blocks such as the DAE path's ``DaeOps``, summed block by block.
    All the sums of one linearization are taken in one pass over the stage
    operators.  When every stage operator is one object, couplings whose
    weights sum to roundoff (see :data:`COUPLING_ROUNDOFF`) are left out;
    the weights kept are computed once per prep, variant and that case.

    The Jacobian is memoized on the last stage operator (on its first part,
    if composite: a DAE's constraint parts may never change), keyed by
    ``prep``, ``variant`` and the other operators, so an unchanged
    linearization hands back the same Jacobian with the block plans it keeps.
    """
    stage_ops = list(stage_ops)
    s = prep.tableau.s
    if len(stage_ops) != s:
        raise ValueError(f"expected {s} stage operators, got {len(stage_ops)}")
    one = all(op is stage_ops[0] for op in stage_ops)
    rows = prep.memo.get((variant, one))
    if rows is None:
        dw, ow = variant_weights(prep, variant)
        if ow and one:
            w = np.array(list(ow.values()))
            roundoff = COUPLING_ROUNDOFF * np.finfo(float).eps * np.abs(w).sum(axis=1)
            genuine = np.abs(w.sum(axis=1)) > roundoff
            ow = {key: wk for (key, wk), keep in zip(ow.items(), genuine) if keep}
        rows = prep.memo[(variant, one)] = np.vstack([dw, *ow.values()]), tuple(ow)
    weights, couplings = rows

    last = stage_ops[-1]
    composite = isinstance(last, tuple)

    def build():
        # weights @ stage_ops row by row; composite operators part by part
        if composite:
            by_part = [combine_rows(weights, part) for part in zip(*stage_ops)]
            sums = [type(last)(*row) for row in zip(*by_part)]
        else:
            sums = combine_rows(weights, stage_ops)
        return VariantJacobian(diag=tuple(sums[:s]), offdiag=dict(zip(couplings, sums[s:])))

    parts = [p for op in stage_ops for p in (op if composite else (op,))]
    return _memoized(last[0] if composite else last, (prep, variant), parts, build)


def _stage_points(st: StageState, tableau: ButcherTableau):
    """Stage values ``u + dt * sum a_ij k_j`` (one row each) and times ``t + c_i dt``."""
    return st.u[None, :] + st.dt * tableau.a0.dot(st.k), st.t + tableau.c0 * st.dt


def stage_residual(sys: OdeSystem, st: StageState, tableau: ButcherTableau):
    """Residual ``N(u + dt * sum a_ij k_j, t + c_i dt) - M k_i`` per stage."""
    u_stage, t_stage = _stage_points(st, tableau)
    out = np.empty_like(st.k)
    for i in range(tableau.s):
        out[i] = sys.rhs(u_stage[i], t_stage[i])
        out[i] -= st.k[i] if sys.mass is None else sys.mass @ st.k[i]
    return out


@dataclass
class StepStats:
    """Per-step solver work counters.

    ``differential_solves`` and ``constraint_solves`` stay zero on ODE paths
    and split the inner-solver work by block type on DAE paths.
    """

    newton_iterations: int = 0
    krylov_iterations: int = 0
    precond_applications: int = 0
    jacobian_assemblies: int = 0
    converged: bool = False
    residual_history: list = field(default_factory=list)
    block_iterations: dict = field(default_factory=dict)  # offset -> [its, ...]
    constraint_residual: float = 0.0
    differential_solves: int = 0
    constraint_solves: int = 0
    wall_time: float = 0.0

    def add_solve(self, reports):
        for off, rep in reports:
            self.krylov_iterations += rep.iterations
            self.precond_applications += rep.precond_applications
            self.block_iterations.setdefault(off, []).append(rep.iterations)


@dataclass
class DaeCounters:
    """Inner-solver applications split by block type."""

    differential: int = 0
    constraint: int = 0


# Running totals since import; :func:`richardson` adds its share as the difference.
COUNTERS = DaeCounters()


def richardson(residual, assemble, solve, x, cfg: SolverConfig, linearizations,
               label="stage solve", stats=None):
    """Drive ``x <- x + P^{-1} F(x)`` to the residual tolerance; returns ``(x, stats)``.

    ``residual(x)`` evaluates ``F``; ``assemble(x)`` linearizes at ``x`` into
    ``P``, which counts ``linearizations`` Jacobian assemblies and is
    refreshed per ``cfg.jacobian_refresh``; ``solve(P, F)`` returns the
    increment and its ``(block_offset, KrylovReport)`` pairs.  The tolerance is
    ``max(newton_rtol * |F(x0)|, newton_abs_floor)``.  A non-finite residual
    norm, a residual that grew in :data:`DIVERGENCE_STREAK` consecutive
    iterations of this call, a ``ValueError`` from ``assemble`` (such as a
    non-finite Jacobian) or exhausting ``newton_maxit`` raises
    :class:`StepFailureError`.  Work is added to ``stats``, a fresh
    :class:`StepStats` by default, which every :class:`IrkitError` leaving here
    carries as ``.stats``, a :class:`StageSolveError`'s reports counted in; the
    wall time and the :data:`COUNTERS` deltas are added on every way out.
    """
    stats = StepStats() if stats is None else stats
    tic, solves = time.perf_counter(), (COUNTERS.differential, COUNTERS.constraint)
    try:
        res = residual(x)
        rnorm = np.linalg.norm(res)
        tol = max(cfg.newton_rtol * rnorm, cfg.newton_abs_floor)
        jac = None
        start = stats.newton_iterations
        grew = 0  # consecutive iterations of this call that raised the residual
        while True:
            stats.residual_history.append(rnorm)
            its = stats.newton_iterations - start
            if not np.isfinite(rnorm):
                raise StepFailureError(f"{label} residual is non-finite after {its} iterations")
            if rnorm <= tol:
                break
            if grew >= DIVERGENCE_STREAK:
                raise StepFailureError(f"{label} diverged: residual grew in {grew} consecutive "
                                       f"iterations to {rnorm:.3e} after {its} iterations")
            if its >= cfg.newton_maxit:
                raise StepFailureError(f"{label} stalled after {its} iterations "
                                       f"(residual {rnorm:.3e}, tol {tol:.3e})")
            if jac is None or cfg.jacobian_refresh == "every":
                try:
                    jac = assemble(x)
                except ValueError as exc:
                    raise StepFailureError(
                        f"{label} linearization failed after {its} iterations: {exc}") from exc
                stats.jacobian_assemblies += linearizations
            dx, reports = solve(jac, res)
            x = x + dx
            stats.newton_iterations += 1
            stats.add_solve(reports)
            res = residual(x)
            prev, rnorm = rnorm, np.linalg.norm(res)
            grew = grew + 1 if rnorm > prev else 0
        stats.converged = True
        return x, stats
    except IrkitError as exc:
        if isinstance(exc, StageSolveError):
            stats.add_solve(exc.reports)
        exc.stats = stats
        raise
    finally:
        stats.wall_time += time.perf_counter() - tic
        stats.differential_solves += COUNTERS.differential - solves[0]
        stats.constraint_solves += COUNTERS.constraint - solves[1]


def newton_like_step(sys: OdeSystem, st: StageState, prep: StagePrep, cfg: SolverConfig,
                     pair_plan=PairPlan):
    """Drive the stage vectors from ``st.k`` to the residual tolerance.

    Returns the stage vectors :func:`richardson` returns and the step's
    :class:`StepStats`; a failure raises from :func:`richardson` with the
    stats.  ``pair_plan``, the eigen-block plan class, goes on to
    :func:`~irkit.irk_core.solve_transformed_system`.
    """
    tableau = prep.tableau

    def residual(k):
        st.k = k
        return stage_residual(sys, st, tableau)

    def assemble(k):
        st.k = k
        ops = [sys.linearize(*point) for point in zip(*_stage_points(st, tableau))]
        return build_variant_jacobian(prep, ops, cfg.variant)

    def solve(vjac, res):
        return solve_transformed_system(
            prep, dt=st.dt, rhs_stages=res, mass=sys.mass, precond=cfg.precond,
            krylov_rtol=cfg.krylov_rtol, krylov_maxit=cfg.krylov_maxit,
            variant_jacobian=vjac, pair_plan=pair_plan)

    return richardson(residual, assemble, solve, st.k, cfg, tableau.s)


def _dirk_step(sys: OdeSystem, u, t, dt, tableau, cfg: SolverConfig):
    """Sequential stage solves for (S)DIRK tableaux; returns ``(k, StepStats)``.

    Each stage is a backward-Euler-type solve ``M k_i - h L k_i`` with
    ``h = dt * a_ii``, each driven to tolerance by its own Richardson iteration.
    Each linearization is planned once, as the stage's :class:`ShiftedPlan`,
    which every solve until the next linearization reuses.
    """
    k = np.zeros((tableau.s, sys.dim))
    stats = StepStats()
    for i in range(tableau.s):
        base = u + dt * tableau.a0[i, :i].dot(k[:i]) if i else u.copy()
        h = dt * tableau.a0[i, i]

        def point(ki):  # the stage's value and time
            return base + h * ki, t + tableau.c0[i] * dt

        def residual(ki):
            mk = ki if sys.mass is None else sys.mass @ ki
            return sys.rhs(*point(ki)) - mk

        def assemble(ki):
            return ShiftedPlan(1.0, sys.linearize(*point(ki)), sys.mass, h, cfg.precond)

        def solve(plan, res):
            reports = []
            return solve_block(plan, res, cfg.krylov_rtol, cfg.krylov_maxit,
                               f"DIRK stage {i} solve", i, reports), reports

        k[i], _ = richardson(residual, assemble, solve, np.zeros(sys.dim), cfg, 1,
                             label=f"DIRK stage {i}", stats=stats)
    return k, stats


def _state_vector(x, n, name, dim):
    """``x`` as a float vector; a shape other than ``(n,)`` raises
    :class:`ConfigurationError` naming the expected length ``dim``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ConfigurationError(f"{name} has shape {x.shape}; expected length {dim} = {n}")
    return x


def _advance(sys: OdeSystem, u, t, dt, tableau, cfg, prep, pair_plan=PairPlan):
    """The one step core, on checked inputs: ``(u + dt * sum b_i k_i, StepStats)``,
    the stages solved in turn for a DIRK tableau, else by :func:`newton_like_step`."""
    if tableau.family in SDIRK_FAMILIES:
        k, stats = _dirk_step(sys, u, t, dt, tableau, cfg)
    else:
        st = StageState(np.zeros((tableau.s, sys.dim)), u, t, dt)
        k, stats = newton_like_step(sys, st, prep or prepare_stages(tableau), cfg, pair_plan)
    return u + dt * tableau.b0.dot(k), stats


def _check_step(dt, tableau, prep):
    """A step's ``0 < dt < inf``, and a ``prep`` that is ``None`` or built for
    ``tableau``: the same object (tested first) or equal ``a0``/``b0``/``c0``."""
    _check_dt(dt)
    built = tableau if prep is None else prep.tableau
    if built is not tableau and not all(
            np.array_equal(getattr(built, a), getattr(tableau, a)) for a in ("a0", "b0", "c0")):
        raise ConfigurationError(f"prep was built for {built.label}, not {tableau.label}")


def step(sys: OdeSystem, u, t, dt, tableau, cfg=SolverConfig(), prep=None):
    """Advance one step: solve the stages, then ``u + dt * sum b_i k_i``.

    Returns ``(u_next, StepStats)``.  A ``u`` not of length ``sys.dim``, a
    ``dt`` outside ``(0, inf)`` or a ``prep`` built for another tableau raises
    :class:`ConfigurationError` before any work.
    """
    u = _state_vector(u, sys.dim, "u", "dim")
    _check_step(dt, tableau, prep)
    return _advance(sys, u, t, dt, tableau, cfg, prep)


@dataclass
class IntegrationResult:
    times: np.ndarray
    states: list
    step_stats: list

    @property
    def u_final(self):
        return self.states[-1]

    def total(self, attr):
        return sum(getattr(s, attr) for s in self.step_stats)


def march(advance, state, t0, t_final, dt, pack, snapshot_every=None):
    """Fixed-step loop from ``t0`` to ``t_final``, shared by ODE and DAE runs.

    ``advance(state, t)`` returns the next state and its :class:`StepStats`;
    ``pack(times, states, step_stats)`` builds the result.  ``snapshot_every``
    keeps every j-th state (initial and final always kept).  Before any step,
    ``0 < dt < inf``, ``t0 <= t_final``, an integer step count ``(t_final -
    t0) / dt`` and ``snapshot_every`` (``None`` or an integer >= 1) are checked,
    each a :class:`ConfigurationError` with ``partial = None``.  A failing
    step's :class:`IrkitError` is re-raised with ``partial`` set to the packed
    trajectory up to the last accepted step.
    """
    if not (0.0 < dt < np.inf and t0 <= t_final):
        raise ConfigurationError(f"need 0 < dt < inf and t0 <= t_final, got dt={dt}, "
                                 f"t0={t0}, t_final={t_final}")
    if not (snapshot_every is None or _is_count(snapshot_every)):
        raise ConfigurationError(
            f"snapshot_every must be None or an integer >= 1, got {snapshot_every!r}")
    nsteps_f = (t_final - t0) / dt
    nsteps = int(round(nsteps_f))
    if abs(nsteps_f - nsteps) > 1e-8 * max(1.0, abs(nsteps_f)):
        raise ConfigurationError(
            f"(t_final - t0)/dt = {nsteps_f} is not an integer step count"
        )
    times = [t0]
    states = [state]
    step_stats = []
    for j in range(nsteps):
        try:
            state, stats = advance(state, t0 + j * dt)
        except IrkitError as exc:
            exc.partial = pack(np.array(times), states, step_stats)
            raise
        step_stats.append(stats)
        keep = snapshot_every is None or ((j + 1) % snapshot_every == 0)
        if keep or j == nsteps - 1:
            times.append(t0 + (j + 1) * dt)
            states.append(state)
    return pack(np.array(times), states, step_stats)


def integrate(sys: OdeSystem, u0, t0, t_final, dt, tableau, cfg=SolverConfig(),
              snapshot_every=None):
    """Fixed-step march from ``t0`` to ``t_final``.

    ``u0`` is checked as :func:`step` checks ``u``, then the time arguments and
    ``snapshot_every`` as :func:`march` says, all before any step: each
    rejection is a :class:`ConfigurationError` with ``partial = None``.  The
    first failing step raises its :class:`IrkitError` with the partial result
    attached as ``partial``.  ``snapshot_every`` keeps every j-th state (the
    initial and final states are always kept).
    """
    u0 = _state_vector(u0, sys.dim, "u0", "dim")
    prep = None if tableau.family in SDIRK_FAMILIES else prepare_stages(tableau)
    return march(
        lambda u, t: _advance(sys, u, t, dt, tableau, cfg, prep),
        u0.copy(), t0, t_final, dt, IntegrationResult, snapshot_every,
    )


def write_step_stats_csv(result, path):
    """Stream per-step solver statistics as CSV.

    Columns: step index, nonlinear iterations, total Krylov iterations,
    per-block Krylov iterations (``offset:i1+i2+...`` groups separated by
    ``;``), preconditioner applications, differential/constraint solver
    counts (DAE runs), and wall time.  Works for ODE and DAE results.
    """
    import csv

    fields = ("newton_iterations", "krylov_iterations", "block_iterations",
              "precond_applications", "differential_solves", "constraint_solves", "wall_time")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *fields])
        for j, st in enumerate(result.step_stats):
            blocks = sorted(st.block_iterations.items())
            row = vars(st) | {"wall_time": repr(float(st.wall_time)), "block_iterations": ";".join(
                f"{off}:{'+'.join(map(str, its))}" for off, its in blocks)}
            writer.writerow([j, *(row[name] for name in fields)])
