"""Batch experiment drivers with CSV output and manifest provenance.

Each driver consumes a :class:`RunManifest`, runs one study type, and
returns the result rows (also written as CSV when an output path is set,
with the manifest stored alongside as JSON).  Every row carries a short
hash of the canonical manifest so results can be traced to their exact
configuration.  Failed cells are marked and the run continues.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dae import dae_integrate
from .errors import ConfigurationError, IrkitError
from .irk_core import PrecondSpec, measure_kappa
from .nonlinear import SolverConfig, integrate
from .problems import make_problem
from .sparsela import SparseMatrix
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
    variant: int = 3
    gamma: object = "star"
    newton_rtol: float = 1e-9
    krylov_rtol: float = 1e-5
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "schemes", tuple((str(f), int(s)) for f, s in self.schemes)
        )
        object.__setattr__(self, "dts", tuple(float(x) for x in self.dts))

    def to_dict(self):
        doc = dataclasses.asdict(self)
        doc["schemes"] = [list(x) for x in self.schemes]
        doc["dts"] = list(self.dts)
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc):
        doc = dict(doc)
        doc["schemes"] = tuple((f, int(s)) for f, s in doc.get("schemes", ()))
        doc["dts"] = tuple(doc.get("dts", ()))
        doc["problem_params"] = dict(doc.get("problem_params", {}))
        return cls(**doc)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    @property
    def hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

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


def _write_rows(manifest, rows, fieldnames):
    if manifest.out is None:
        return
    out = Path(manifest.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    out.with_suffix(out.suffix + ".manifest.json").write_text(manifest.to_json() + "\n")


def _final_error(problem, result, manifest, reference_cache):
    if problem.exact is not None:
        exact = problem.exact(manifest.t_final)
        if problem.spec.kind == "dae-index1":
            exact = exact[0]
        return float(np.linalg.norm(result.u_final - exact))
    if "reference" not in reference_cache:
        fam, s = REFERENCE_SCHEME
        dt_ref = min(manifest.dts) / REFERENCE_REFINEMENT
        ref = integrate(
            problem.system,
            problem.u0,
            0.0,
            manifest.t_final,
            dt_ref,
            make_tableau(fam, s),
            manifest.solver_config(),
        )
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
            row = dict.fromkeys(fields, "")
            row.update(scheme=tab.label, order=tab.order, dt=dt, status="ok",
                       manifest_hash=manifest.hash)
            try:
                res = _run_problem(problem, manifest, tab, dt, cfg)
                err = _final_error(problem, res, manifest, reference_cache)
                row["error"] = _fmt(err)
                if dae:
                    row["constraint_residual"] = _fmt(
                        max(st.constraint_residual for st in res.step_stats)
                    )
                if prev_err is not None and err > 0.0:
                    row["rate"] = _fmt(np.log2(prev_err / err))
                prev_err = err
            except IrkitError as exc:
                row["status"] = f"failed: {type(exc).__name__}"
                prev_err = None
            rows.append(row)
    _write_rows(manifest, rows, fields)
    return rows


def _run_problem(problem, manifest, tab, dt, cfg):
    if problem.spec.kind == "dae-index1":
        return dae_integrate(
            problem.system, problem.u0, problem.w0, 0.0, manifest.t_final, dt, tab, cfg
        )
    return integrate(problem.system, problem.u0, 0.0, manifest.t_final, dt, tab, cfg)


def run_iterations(manifest: RunManifest):
    """Solver-work counts per (scheme, dt) over the configured time span."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    rows = []
    cfg = manifest.solver_config()
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        for dt in manifest.dts:
            row = {
                "scheme": tab.label,
                "order": tab.order,
                "dt": dt,
                "steps": "",
                "newton_iterations": "",
                "krylov_iterations": "",
                "precond_applications": "",
                "status": "ok",
                "manifest_hash": manifest.hash,
            }
            try:
                res = _run_problem(problem, manifest, tab, dt, cfg)
                row["steps"] = len(res.step_stats)
                row["newton_iterations"] = res.total("newton_iterations")
                row["krylov_iterations"] = res.total("krylov_iterations")
                row["precond_applications"] = res.total("precond_applications")
            except IrkitError as exc:
                row["status"] = f"failed: {type(exc).__name__}"
            rows.append(row)
    _write_rows(
        manifest,
        rows,
        [
            "scheme",
            "order",
            "dt",
            "steps",
            "newton_iterations",
            "krylov_iterations",
            "precond_applications",
            "status",
            "manifest_hash",
        ],
    )
    return rows


def _block_means(result, prep):
    """Mean Krylov iterations per 2x2 eigen-block over all solves in a run."""
    sums = {}
    counts = {}
    for st in result.step_stats:
        for off, its_list in st.block_iterations.items():
            if not isinstance(off, int):
                continue
            for its in its_list:
                sums[off] = sums.get(off, 0) + its
                counts[off] = counts.get(off, 0) + 1
    out = {}
    for blk in prep.blocks:
        if blk.size == 2 and blk.offset in sums:
            out[blk.offset] = sums[blk.offset] / counts[blk.offset]
    return out


def run_gamma_compare(manifest: RunManifest):
    """Mean 2x2-block Krylov iterations with the naive and optimal shifts."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    rows = []
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        prep = prepare_stages(tab)
        if all(blk.size == 1 for blk in prep.blocks):
            raise ConfigurationError(f"{tab.label} has no complex eigen-block")
        for dt in manifest.dts:
            means = {}
            status = "ok"
            for mode in ("eta", "star"):
                cfg = manifest.solver_config(precond=PrecondSpec(gamma_mode=mode))
                try:
                    res = _run_problem(problem, manifest, tab, dt, cfg)
                    means[mode] = _block_means(res, prep)
                except IrkitError as exc:
                    status = f"failed: {type(exc).__name__}"
                    means[mode] = {}
            for blk in prep.blocks:
                if blk.size != 2:
                    continue
                rows.append(
                    {
                        "scheme": tab.label,
                        "order": tab.order,
                        "dt": dt,
                        "block_offset": blk.offset,
                        "eta": _fmt(blk.eta),
                        "beta": _fmt(blk.beta),
                        "mean_krylov_eta": _fmt(means["eta"].get(blk.offset, float("nan"))),
                        "mean_krylov_star": _fmt(means["star"].get(blk.offset, float("nan"))),
                        "status": status,
                        "manifest_hash": manifest.hash,
                    }
                )
    _write_rows(
        manifest,
        rows,
        [
            "scheme",
            "order",
            "dt",
            "block_offset",
            "eta",
            "beta",
            "mean_krylov_eta",
            "mean_krylov_star",
            "status",
            "manifest_hash",
        ],
    )
    return rows


def run_condition(manifest: RunManifest):
    """Measured preconditioned-Schur condition numbers next to the bounds."""
    problem = make_problem(manifest.problem, **manifest.problem_params)
    if problem.operator is None:
        raise ConfigurationError(
            f"{manifest.problem} has no frozen linear operator for conditioning"
        )
    lmat = problem.operator
    rows = []
    gamma_mode = manifest.gamma
    for fam, s in manifest.schemes:
        tab = make_tableau(fam, s)
        prep = prepare_stages(tab)
        for dt in manifest.dts:
            lhat = SparseMatrix(dt * lmat.csr, bandwidth=lmat.bandwidth)
            for blk in prep.blocks:
                spec = PrecondSpec(gamma_mode=gamma_mode)
                row = {
                    "scheme": tab.label,
                    "s": tab.s,
                    "block_offset": blk.offset,
                    "eta": _fmt(blk.eta),
                    "beta": _fmt(blk.beta),
                    "gamma_mode": str(gamma_mode),
                    "problem": problem.spec.name,
                    "n": problem.system.dim,
                    "dt": dt,
                    "kappa": "",
                    "bound_general": _fmt(kappa_bound(blk.eta, blk.beta, "general")),
                    "bound_distinct": _fmt(kappa_bound(blk.eta, blk.beta, "distinct")),
                    "fov_class": problem.spec.fov_class,
                    "status": "ok",
                    "manifest_hash": manifest.hash,
                }
                try:
                    kappa = measure_kappa(
                        blk.eta,
                        blk.beta,
                        lhat,
                        lhat,
                        gamma=spec.gamma(blk.eta, blk.beta),
                    )
                    row["kappa"] = _fmt(kappa)
                except IrkitError as exc:
                    row["status"] = f"failed: {type(exc).__name__}"
                rows.append(row)
    _write_rows(
        manifest,
        rows,
        [
            "scheme",
            "s",
            "block_offset",
            "eta",
            "beta",
            "gamma_mode",
            "problem",
            "n",
            "dt",
            "kappa",
            "bound_general",
            "bound_distinct",
            "fov_class",
            "status",
            "manifest_hash",
        ],
    )
    return rows


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
