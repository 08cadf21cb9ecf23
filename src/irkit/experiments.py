"""Batch experiment drivers with CSV output and manifest provenance.

Each driver consumes a :class:`RunManifest`, runs one study type, and
returns the result rows (also written as CSV when an output path is set,
with the manifest stored alongside as JSON).  Every row is laid out by
one cell helper: the study's columns, ``status`` and a short hash of the
canonical manifest, so results can be traced to their exact
configuration.  A cell whose solve raises an :class:`IrkitError` is marked
``failed: <type>`` and the run continues.

Study types:

* ``convergence``      error/rate table against an exact or fine reference
* ``iterations``       nonlinear/Krylov/preconditioner-application counts
* ``gamma-compare``    per-block mean Krylov iterations, naive vs optimal shift
* ``condition``        measured condition numbers next to the analytic bounds
* ``dae-convergence``  error/rate table for the index-1 catalog problem
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dae import dae_integrate
from .errors import ConfigurationError, IrkitError
from .irk_core import PrecondSpec, measure_kappa
from .nonlinear import SolverConfig, integrate
from .problems import make_problem
from .sparsela import combine
from .tableau import kappa_bound, make_tableau, prepare_stages

REFERENCE_SCHEME = ("radau_iia", 3)
REFERENCE_REFINEMENT = 100


@dataclass(frozen=True)
class RunManifest:
    """Complete, serializable description of one experiment run."""

    experiment: str
    problem: str
    problem_params: dict = field(default_factory=dict)
    schemes: tuple = ()  # of (family, stages)
    dts: tuple = ()
    t_final: float = 0.1
    variant: int = SolverConfig.variant
    gamma: object = PrecondSpec.gamma_mode
    newton_rtol: float = SolverConfig.newton_rtol
    krylov_rtol: float = SolverConfig.krylov_rtol
    out: str | None = None
    # read by no driver, but part of every hash: dropping it would stop a
    # stored manifest from replaying to its own CSV
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "schemes", tuple((str(f), int(s)) for f, s in self.schemes)
        )
        object.__setattr__(self, "dts", tuple(float(x) for x in self.dts))
        if not (self.t_final is None or -np.inf < self.t_final < np.inf):  # NaN fails too
            raise ConfigurationError(f"t_final must be None or finite, got {self.t_final}")

    def to_dict(self):
        doc = dataclasses.asdict(self)
        doc["schemes"] = [list(x) for x in self.schemes]
        doc["dts"] = list(self.dts)
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc):
        """The manifest ``doc`` describes; :class:`ConfigurationError` if it is
        not a dict, has a key that is no field or lacks a field without default."""
        if not isinstance(doc, dict):
            raise ConfigurationError(f"a manifest is a JSON object, not {type(doc).__name__}")
        fields = dataclasses.fields(cls)
        unknown = [key for key in doc if key not in {f.name for f in fields}]
        if unknown:
            raise ConfigurationError(f"unknown manifest keys: {', '.join(map(repr, unknown))}")
        missing = [f.name for f in fields
                   if f.name not in doc and f.default is dataclasses.MISSING is f.default_factory]
        if missing:
            raise ConfigurationError(f"manifest lacks keys: {', '.join(map(repr, missing))}")
        doc = dict(doc)
        doc["problem_params"] = dict(doc.get("problem_params", {}))
        return cls(**doc)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @property
    def hash(self):
        """Short hash of the configuration: the output path ``out`` is left out."""
        return hashlib.sha256(replace(self, out=None).to_json().encode()).hexdigest()[:12]

    def solver_config(self, **overrides):
        kwargs = dict(
            variant=self.variant,
            newton_rtol=self.newton_rtol,
            krylov_rtol=self.krylov_rtol,
            precond=PrecondSpec(gamma_mode=self.gamma),
        )
        kwargs.update(overrides)
        return SolverConfig(**kwargs)


def _fmt(x):
    return repr(float(x))


@contextmanager
def _cell(rows, fields, manifest, **values):
    """Appends one row to ``rows``: every one of ``fields`` blank, then
    ``status="ok"``, the manifest hash and ``values`` (which may set another
    ``status``).  The body fills in the row; an :class:`IrkitError` it raises
    marks the row ``failed: <type>`` and goes no further."""
    row = {**dict.fromkeys(fields, ""), "status": "ok", "manifest_hash": manifest.hash, **values}
    try:
        yield row
    except IrkitError as exc:
        row["status"] = _failed(exc)
    rows.append(row)


def _failed(exc):
    return f"failed: {type(exc).__name__}"


def _write_rows(manifest, rows, fieldnames):
    """Writes ``rows`` as CSV, with the manifest beside it, when the
    manifest sets ``out``; returns ``rows``."""
    if manifest.out is None:
        return rows
    out = Path(manifest.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    out.with_suffix(out.suffix + ".manifest.json").write_text(manifest.to_json() + "\n")
    return rows


def _final_error(problem, result, manifest, reference_cache):
    if problem.exact is not None:
        exact = problem.exact(manifest.t_final)
        if problem.spec.kind == "dae-index1":
            exact = exact[0]
        return float(np.linalg.norm(result.u_final - exact))
    if "reference" not in reference_cache:
        dt_ref = min(manifest.dts) / REFERENCE_REFINEMENT
        ref = integrate(problem.system, problem.u0, 0.0, manifest.t_final, dt_ref,
                        make_tableau(*REFERENCE_SCHEME), manifest.solver_config())
        reference_cache["reference"] = ref.u_final
    return float(np.linalg.norm(result.u_final - reference_cache["reference"]))


def run_convergence(manifest: RunManifest, dae_only=False):
    """Error and observed order per (scheme, dt) against exact or reference.

    DAE problems are measured against their closed-form solution and add the
    largest per-step ``constraint_residual``; ``dae_only`` rejects ODEs.
    """
    problem = make_problem(manifest.problem, **manifest.problem_params)
    dae = problem.spec.kind == "dae-index1"
    if dae_only and not dae:
        raise ConfigurationError(f"{manifest.problem} is not a DAE problem")
    if dae and problem.exact is None:
        raise ConfigurationError(f"{manifest.problem} has no exact solution handle")
    extra = ["constraint_residual"] if dae else []
    fields = ["scheme", "order", "dt", "error", "rate", *extra, "status", "manifest_hash"]
    rows = []
    reference_cache = {}
    cfg = manifest.solver_config()
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        prev_err = None
        for dt in sorted(manifest.dts, reverse=True):
            # a failed cell leaves prev_err unset, so the next reports no rate
            last, prev_err = prev_err, None
            with _cell(rows, fields, manifest, scheme=tab.label, order=tab.order, dt=dt) as row:
                res = _run_problem(problem, manifest, tab, dt, cfg)
                err = _final_error(problem, res, manifest, reference_cache)
                row["error"] = _fmt(err)
                if dae:
                    row["constraint_residual"] = _fmt(
                        max(st.constraint_residual for st in res.step_stats)
                    )
                if last is not None and err > 0.0:
                    row["rate"] = _fmt(np.log2(last / err))
                prev_err = err
    return _write_rows(manifest, rows, fields)


def _run_problem(problem, manifest, tab, dt, cfg):
    if problem.spec.kind == "dae-index1":
        return dae_integrate(
            problem.system, problem.u0, problem.w0, 0.0, manifest.t_final, dt, tab, cfg
        )
    return integrate(problem.system, problem.u0, 0.0, manifest.t_final, dt, tab, cfg)


def run_iterations(manifest: RunManifest):
    """Solver-work counts per (scheme, dt) over the configured time span."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    counts = ["newton_iterations", "krylov_iterations", "precond_applications"]
    fields = ["scheme", "order", "dt", "steps", *counts, "status", "manifest_hash"]
    rows = []
    cfg = manifest.solver_config()
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        for dt in manifest.dts:
            with _cell(rows, fields, manifest, scheme=tab.label, order=tab.order, dt=dt) as row:
                res = _run_problem(problem, manifest, tab, dt, cfg)
                row["steps"] = len(res.step_stats)
                row.update((name, res.total(name)) for name in counts)
    return _write_rows(manifest, rows, fields)


def _block_means(result, prep):
    """Mean Krylov iterations per 2x2 eigen-block over all solves in a run."""
    its = {}
    for st in result.step_stats:
        for off, its_list in st.block_iterations.items():
            its.setdefault(off, []).extend(its_list)
    pairs = [blk.offset for blk in prep.blocks if blk.size == 2 and blk.offset in its]
    return {off: sum(its[off]) / len(its[off]) for off in pairs}


def run_gamma_compare(manifest: RunManifest):
    """Mean 2x2-block Krylov iterations with the naive and optimal shifts."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    fields = ["scheme", "order", "dt", "block_offset", "eta", "beta",
              "mean_krylov_eta", "mean_krylov_star", "status", "manifest_hash"]
    rows = []
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        prep = prepare_stages(tab)
        if all(blk.size == 1 for blk in prep.blocks):
            raise ConfigurationError(f"{tab.label} has no complex eigen-block")
        for dt in manifest.dts:
            # each dt's two runs fill all its block rows: a failed run marks them all
            means, status = {}, "ok"
            for mode in ("eta", "star"):
                cfg = manifest.solver_config(precond=PrecondSpec(gamma_mode=mode))
                try:
                    means[mode] = _block_means(_run_problem(problem, manifest, tab, dt, cfg), prep)
                except IrkitError as exc:
                    status, means[mode] = _failed(exc), {}
            for blk in (blk for blk in prep.blocks if blk.size == 2):
                with _cell(rows, fields, manifest, scheme=tab.label, order=tab.order, dt=dt,
                           block_offset=blk.offset, eta=_fmt(blk.eta), beta=_fmt(blk.beta),
                           status=status) as row:
                    for mode, mean in means.items():
                        row[f"mean_krylov_{mode}"] = _fmt(mean.get(blk.offset, float("nan")))
    return _write_rows(manifest, rows, fields)


def run_condition(manifest: RunManifest):
    """Measured preconditioned-Schur condition numbers next to the bounds."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    if problem.operator is None:
        raise ConfigurationError(
            f"{manifest.problem} has no frozen linear operator for conditioning"
        )
    lmat = problem.operator
    fields = ["scheme", "s", "block_offset", "eta", "beta", "gamma_mode", "problem", "n",
              "dt", "kappa", "bound_general", "bound_distinct", "fov_class", "status",
              "manifest_hash"]
    rows = []
    spec = PrecondSpec(gamma_mode=manifest.gamma)
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        prep = prepare_stages(tab)
        for dt in manifest.dts:
            lhat = combine([dt], [lmat])
            for blk in prep.blocks:
                with _cell(
                    rows, fields, manifest, scheme=tab.label, s=tab.s, block_offset=blk.offset,
                    eta=_fmt(blk.eta), beta=_fmt(blk.beta), gamma_mode=str(manifest.gamma),
                    problem=problem.spec.name, n=problem.system.dim, dt=dt,
                    bound_general=_fmt(kappa_bound(blk.eta, blk.beta, "general")),
                    bound_distinct=_fmt(kappa_bound(blk.eta, blk.beta, "distinct")),
                    fov_class=problem.spec.fov_class,
                ) as row:
                    gamma = spec.gamma(blk.eta, blk.beta)
                    row["kappa"] = _fmt(measure_kappa(blk.eta, blk.beta, lhat, lhat, gamma=gamma))
    return _write_rows(manifest, rows, fields)


RUNNERS = {
    "convergence": run_convergence,
    "iterations": run_iterations,
    "gamma-compare": run_gamma_compare,
    "condition": run_condition,
    "dae-convergence": lambda manifest: run_convergence(manifest, dae_only=True),
}


def run(manifest: RunManifest):
    try:
        runner = RUNNERS[manifest.experiment]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {manifest.experiment!r}; "
            f"available: {', '.join(sorted(RUNNERS))}"
        ) from None
    return runner(manifest)


def any_failed(rows):
    return any(str(row.get("status", "ok")) != "ok" for row in rows)
