"""Stepping loop, correctness accounting and metric derivation.

Every episode steps a workload from its seeded initial state; an episode
whose steps or closing gate fail is recorded as a failure and none of its
steps is timed as a success.  Counts are averaged over whole episodes only,
so they repeat exactly for a given seed however many episodes fit in a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sp

import workloads

END_TO_END_UNITS = {
    "step_cost_p50": "ref",
    "step_cost_p90": "ref",
    "steps_per_ref": "1/ref",
    "setup_s": "s",
    "precond_apps_per_step": "count",
    "peak_rss_mb": "MB",
}
# Layers entered while stepping; each reports self time and calls per step.
STEP_LAYERS = (
    "sparsela.combine",
    "sparsela.BandedLU.factor",
    "sparsela.BandedLU.solve",
    "sparsela.gmres",
    "problems.rhs",
    "problems.linearize",
    "nonlinear.stage_residual",
    "nonlinear.build_variant_jacobian",
    "irk_core.solve_transformed_system",
    "irk_core.apply_block2x2",
    "irk_core.make_block2x2_preconditioner",
    "densela.lu_factor",
    "densela.lu_solve_factored",
    "dae.solve_dae_block4x4",
    "dae.dae_stage_residual",
)
# Layers entered while setting up; each reports its inclusive time per set-up.
SETUP_LAYERS = (
    "problems.make_problem",
    "irk_core.field_of_values_bound",
    "tableau.prepare_stages",
    "densela.real_schur",
)
# Set-up repeats until both are reached; ``setup_s`` is the median.  The
# time floor spreads the repeats of a ~10 ms set-up over long enough to
# average out short bursts of load from other processes.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
STEP_COUNTERS = {
    "nonlinear.newton_its_per_step": "newton_iterations",
    "nonlinear.jacobian_assemblies_per_step": "jacobian_assemblies",
    "dae.differential_solves_per_step": "differential_solves",
    "dae.constraint_solves_per_step": "constraint_solves",
}


class Reference:
    """Fixed computation, independent of irkit, timed right before each step.

    On a shared machine other tenants slow a process for seconds to minutes
    at a time (up to 1.7x on a 2-vCPU Xeon VM, with the process never
    descheduled).  The reference slows with the step, so the step's wall
    time divided by the reference's (unit ``ref``) keeps the step's cost and
    drops most of that noise: per 50-step window its coefficient of
    variation fell from 0.07-0.11 to 0.01-0.04 there.  The mix (a small
    sparse matvec and sum, a sparse add, a Python loop) mirrors the
    interpreter- and scipy-bound work of a step; it takes about 1 ms.
    """

    def __init__(self):
        self._a = sp.random(512, 512, density=0.01, format="csr",
                            random_state=np.random.default_rng(0))
        self._x = np.ones(512)

    def __call__(self):
        """Run the reference once; returns its wall time in seconds."""
        tic = perf_counter()
        acc = 0.0
        for _ in range(8):
            acc += float((self._a @ self._x).sum()) + (self._a + 0.5 * self._a).nnz
            for j in range(50):
                acc += 0.5 * j
        return perf_counter() - tic


@dataclass
class StepRecord:
    seconds: float
    ref_seconds: float  # the reference run just before the step
    stats: object  # irkit StepStats
    trace: object = None  # TracedStep for traced steps

    @property
    def cost(self):
        return self.seconds / self.ref_seconds


@dataclass
class TracedStep:
    layers: dict  # span name -> [self s, inclusive s, calls]
    untraced_s: float  # self time of the step span: no layer span covers it
    krylov_its: int


class Bench:
    """One workload's problem, scheme and seeded inputs, plus the episode loop."""

    def __init__(self, irkit, wl, seed, tracer=None):
        self.irkit = irkit
        self.wl = wl
        self.cfg = irkit.SolverConfig()
        self.tracer = tracer
        self.reference = Reference()
        self.setup_times = []
        self.setup_layers = []  # per set-up {span name: inclusive seconds}
        while len(self.setup_times) < SETUP_MIN_REPS or sum(self.setup_times) < SETUP_MIN_SECONDS:
            self._setup()
        self.inputs = workloads.make_inputs(wl, self.problem, seed)
        self.n_blocks = len(self.prep.schur.blocks)
        self.attempted = 0
        self.failures = []

    def _setup(self):
        irkit, wl, tracer = self.irkit, self.wl, self.tracer
        if tracer is not None:
            tracer.clear()
            tracer.install()
        tic = perf_counter()
        try:
            self.problem = irkit.make_problem(wl.problem, **wl.params)
            self.tableau = irkit.make_tableau(wl.family, wl.stages)
            self.prep = irkit.prepare_stages(self.tableau)
        finally:
            self.setup_times.append(perf_counter() - tic)
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            self.setup_layers.append({k: v[1] for k, v in tracer.summary().items()})
            tracer.clear()

    def step(self, system, u, w, t):
        irkit, wl = self.irkit, self.wl
        if wl.is_dae:
            return irkit.dae_step(system, u, w, t, wl.dt, self.tableau, self.cfg,
                                  prep=self.prep, mode=wl.mode)
        u, stats = irkit.step(system, u, t, wl.dt, self.tableau, self.cfg, prep=self.prep)
        return u, None, stats

    def _step_problem(self, u, w, stats):
        if not stats.converged:
            return "step did not converge"
        if not np.all(np.isfinite(u)) or (w is not None and not np.all(np.isfinite(w))):
            return "non-finite state"
        if self.wl.is_dae and not stats.constraint_residual <= workloads.CONSTRAINT_TOL:
            return f"constraint residual {stats.constraint_residual:.3e}"
        return None

    def episode(self, system, step, after_step=None):
        """Step one episode from the seeded state.

        ``after_step(stats)`` runs outside the timed region and returns
        ``(trace, problem)``.  Returns the list of :class:`StepRecord`, or
        ``None`` when a step, a harness check or the closing gate fails.
        """
        wl, inputs = self.wl, self.inputs
        u = inputs.u0.copy()
        w = None if inputs.w0 is None else inputs.w0.copy()
        records = []
        for j in range(wl.episode_steps):
            self.attempted += 1
            ref_seconds = self.reference()
            tic = perf_counter()
            try:
                u, w, stats = step(system, u, w, j * wl.dt)
            except self.irkit.IrkitError as exc:
                self.failures.append(f"step {j}: {type(exc).__name__}: {exc}")
                return None
            seconds = perf_counter() - tic
            trace, problem = after_step(stats) if after_step is not None else (None, None)
            problem = self._step_problem(u, w, stats) or problem
            if problem is not None:
                self.failures.append(f"step {j}: {problem}")
                return None
            records.append(StepRecord(seconds, ref_seconds, stats, trace))
        self.attempted += 1
        ok, detail = inputs.gate(u, w, wl.episode_steps * wl.dt)
        if not ok:
            self.failures.append(f"gate: {detail}")
            return None
        return records


def position_quantiles(episodes, value):
    """p50, p90 and sum over step positions of the per-position median.

    Step ``j`` does the same work in every episode, so the median over
    episodes keeps its cost and drops bursts of load from other processes;
    quantiles over positions then describe the workload's mix of steps.
    """
    per_position = np.median([[value(r) for r in ep] for ep in episodes], axis=0)
    return (float(np.median(per_position)), float(np.percentile(per_position, 90)),
            float(per_position.sum()))


def run_untraced(bench, seconds):
    """End-to-end metrics from untraced episodes run for ``seconds``.

    Returns ``(metrics, info)``; ``info`` holds the sample counts and the
    raw wall-time figures for the provenance record.
    """
    system = bench.problem.system
    episodes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        records = bench.episode(system, bench.step)
        if records is not None:
            episodes.append(records)
    if not episodes:
        return None, {"steps_timed": 0}
    steps = bench.wl.episode_steps
    cost_p50, cost_p90, cost_sum = position_quantiles(episodes, lambda r: r.cost)
    ms_p50, ms_p90, seconds_sum = position_quantiles(episodes, lambda r: 1e3 * r.seconds)
    metrics = {
        "step_cost_p50": cost_p50,
        "step_cost_p90": cost_p90,
        "steps_per_ref": steps / cost_sum,
        "setup_s": statistics.median(bench.setup_times),
        "precond_apps_per_step": float(np.mean(
            [r.stats.precond_applications for ep in episodes for r in ep])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "episodes": len(episodes),
        "steps_timed": len(episodes) * steps,
        "step_ms_p50": ms_p50,
        "step_ms_p90": ms_p90,
        "steps_per_s": 1e3 * steps / seconds_sum,
        "ref_ms_p50": 1e3 * statistics.median(r.ref_seconds for ep in episodes for r in ep),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def trace_step(bench, stats):
    """Summarize one traced step's spans and self-test them against ``StepStats``."""
    tracer = bench.tracer
    layers = tracer.summary()
    step_self, step_total, _ = layers.pop("step")
    reports = tracer.krylov_reports
    problems = []
    gmres_calls = layers.get("sparsela.gmres", (0.0, 0.0, 0))[2]
    if gmres_calls != stats.newton_iterations * bench.n_blocks:
        problems.append(f"traced gmres calls {gmres_calls} != newton its "
                        f"{stats.newton_iterations} x {bench.n_blocks} eigen-blocks")
    if sum(r.precond_applications for r in reports) != stats.precond_applications:
        problems.append("traced precond applications differ from StepStats")
    krylov_its = sum(r.iterations for r in reports)
    if krylov_its != stats.krylov_iterations:
        problems.append("traced Krylov iterations differ from StepStats")
    layer_self = sum(v[0] for v in layers.values())
    if layer_self > step_total:
        problems.append(f"layer self times {layer_self:.6f} s exceed the step's {step_total:.6f} s")
    if not tracer.bindings_restored():
        problems.append("module bindings not restored after tracing")
    trace = TracedStep(layers, step_self, krylov_its)
    return trace, "; ".join(problems) or None


def run_traced(bench, seconds):
    """Per-layer metrics from traced episodes alternated with untraced ones."""
    tracer = bench.tracer
    plain_system = bench.problem.system
    traced_system = tracer.wrap_system(plain_system)
    step_span = tracer.wrap("step", bench.step)

    def traced_step(system, u, w, t):
        tracer.clear()  # also drops spans left by a step that raised
        tracer.install()
        try:
            return step_span(system, u, w, t)
        finally:
            tracer.uninstall()

    def after_traced(stats):
        return trace_step(bench, stats)

    untraced, traced = [], []
    deadline = perf_counter() + seconds
    for episode in itertools.count():
        if perf_counter() >= deadline and episode >= 2:
            break
        if episode % 2 == 0:
            if not tracer.bindings_restored():
                bench.failures.append("untraced episode started with tracing installed")
                break
            untraced.extend(bench.episode(plain_system, bench.step) or [])
        else:
            traced.extend(bench.episode(traced_system, traced_step, after_traced) or [])
    if not untraced or not traced:
        return None, {"steps_timed": 0}

    steps = len(traced)
    self_s, calls = {}, {}
    for r in traced:
        for name, (s_self, _, n) in r.trace.layers.items():
            self_s[name] = self_s.get(name, 0.0) + s_self
            calls[name] = calls.get(name, 0) + n
    metrics = {}
    for name in STEP_LAYERS:
        metrics[f"{name}.ms_per_step"] = (1e3 * self_s.get(name, 0.0) / steps, "ms")
        metrics[f"{name}.calls_per_step"] = (calls.get(name, 0) / steps, "count")
    factors = calls.get("sparsela.BandedLU.factor", 0)
    metrics["sparsela.solves_per_factor"] = (
        calls.get("sparsela.BandedLU.solve", 0) / factors if factors else 0.0, "solves/factor")
    metrics["sparsela.krylov_its_per_step"] = (sum(r.trace.krylov_its for r in traced) / steps,
                                               "count")
    for metric, attr in STEP_COUNTERS.items():
        metrics[metric] = (sum(getattr(r.stats, attr) for r in traced) / steps, "count")
    for name in SETUP_LAYERS:
        per_setup = [layers.get(name, 0.0) for layers in bench.setup_layers]
        metrics[f"{name}.s"] = (statistics.median(per_setup), "s")
    metrics["trace.untraced_ms_per_step"] = (1e3 * sum(r.trace.untraced_s for r in traced) / steps,
                                             "ms")
    metrics["trace.step_ms_p50"] = (1e3 * statistics.median(r.seconds for r in untraced), "ms")
    cost_traced = statistics.median(r.cost for r in traced)
    cost_untraced = statistics.median(r.cost for r in untraced)
    metrics["trace.overhead_frac"] = (cost_traced / cost_untraced - 1.0, "ratio")
    return metrics, {"steps_timed": steps}


def config_hash(wl, cfg, seed):
    """Short hash of the canonical run configuration, as ``RunManifest.hash``."""
    doc = {"workload": dataclasses.asdict(wl), "solver": dataclasses.asdict(cfg), "seed": seed}
    text = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
