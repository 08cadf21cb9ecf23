"""Benchmark workloads: seeded inputs, the stepping call and correctness gates.

Each workload steps one catalog problem with the default ``SolverConfig()``
through the public API only.  A run repeats fixed-length *episodes* that all
start from the same seeded initial state, so every run of one seed does the
same work per step no matter how fast the machine is; only the number of
episodes depends on the time budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse.linalg as spla

# Relative drift of a conserved sum, against the 1-norm of the initial state.
# Central differences on a periodic grid conserve the sum for any stage
# values, so a correct step drifts by roundoff only (measured: 0 on burgers,
# 3e-14 on shear); a non-conservative defect moves the sum by
# O(dt * |N(u)|), many orders above this.  It does not detect a loosened
# Newton tolerance, which conserves the sum too.
CONSERVATION_RTOL = 1e-11
# Error of the heat workload against the exact solution of the semi-discrete
# system.  Newton stops at a stage residual of 1e-9 * |F(0)|, which leaves an
# algebraic error of at most 2e-11 over an episode with the seeded inputs
# (1.6e-14 for the unperturbed two-mode state, which GMRES resolves exactly).
# Equal quadrature weights in the update, or a Newton tolerance loosened to
# 1e-4, show as 2e-6 or more.
HEAT_ERROR_TOL = 1e-9
# Constraint residual ``|G(u, w, t)|`` after each DAE step.  Radau IIA is
# stiffly accurate, so the new state satisfies the constraint to the Newton
# tolerance.
CONSTRAINT_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One benchmark cell: problem, scheme, step size and episode length."""

    name: str
    problem: str
    params: dict
    family: str
    stages: int
    dt: float
    episode_steps: int
    mode: str | None = None  # DAE stage ordering; None for ODE workloads

    @property
    def is_dae(self):
        return self.mode is not None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("burgers-n256-radau3", "burgers1d", {"n": 256}, "radau_iia", 3,
                 dt=1e-4, episode_steps=100),
        Workload("heat-n1024-gauss4", "heat1d", {"n": 1024}, "gauss", 4,
                 dt=1e-3, episode_steps=100),
        Workload("shear-n16-radau2-dae", "shear_layer_small", {"n": 16}, "radau_iia", 2,
                 dt=1e-2, episode_steps=50, mode="reordered"),
    )
}


@dataclass
class Inputs:
    """Seeded initial state plus the gate that checks states reached from it."""

    u0: np.ndarray
    w0: np.ndarray | None
    gate: object  # gate(u, w, t) -> (ok, detail)


def _smooth_perturbation(rng, coords, modes):
    """Average of sines with seeded amplitudes in [-1, 1] and seeded phases."""
    out = np.zeros(coords[0].shape)
    for m in modes:
        amp = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(k * c for k, c in zip(m, coords))
        out += amp * np.sin(2.0 * np.pi * arg + phase)
    return out / len(modes)


def _conserved_sum_gate(u0):
    """Gate: ``sum(u)`` keeps its initial value (flux form, periodic grid)."""
    ref = float(np.sum(u0))
    tol = CONSERVATION_RTOL * float(np.sum(np.abs(u0)))

    def gate(u, w, t):
        drift = abs(float(np.sum(u)) - ref)
        return drift <= tol, f"sum drift {drift:.3e} (tol {tol:.3e}) at t={t:.4g}"

    return gate


def _burgers_inputs(problem, rng):
    n = problem.system.dim
    x = np.arange(n) / n
    # No constant mode, so the perturbation leaves the mean unchanged.
    u0 = problem.u0 + 1e-3 * _smooth_perturbation(rng, [x], [(2,), (3,), (5,)])
    return Inputs(u0, None, _conserved_sum_gate(u0))


def _heat_inputs(problem, rng):
    n = problem.spec.params["n"]
    nu = problem.spec.params["nu"]
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    # Low sine modes only: they are eigenvectors of the 3-point Dirichlet
    # Laplacian, and Gauss(4) at this dt resolves them far below the gate.
    # The seed picks their signs; the Krylov work depends only on the mode
    # magnitudes, so every seed costs the same number of preconditioner
    # applications.
    pert = sum(rng.choice((-1.0, 1.0)) * np.sin(k * np.pi * x) for k in (2, 4, 5, 6))
    u0 = problem.u0 + 1e-2 * pert
    coeffs = scipy.fft.dst(u0, type=1)
    k = np.arange(1, n + 1)
    lam = -(4.0 * nu / h**2) * np.sin(0.5 * k * np.pi * h) ** 2

    def gate(u, w, t):
        exact = scipy.fft.idst(coeffs * np.exp(lam * t), type=1)
        err = float(np.linalg.norm(u - exact))
        return err <= HEAT_ERROR_TOL, f"error {err:.3e} (tol {HEAT_ERROR_TOL:.1e}) at t={t:.4g}"

    return Inputs(u0, None, gate)


def _shear_inputs(problem, rng):
    nn = problem.system.dim_u
    n = int(round(np.sqrt(nn)))
    grid = np.arange(n) / n
    xg, yg = np.meshgrid(grid, grid, indexing="xy")
    pert = _smooth_perturbation(rng, [xg.ravel(), yg.ravel()], [(1, 1), (2, 1), (1, 2)])
    omega0 = problem.u0 + 1e-3 * np.max(np.abs(problem.u0)) * pert
    # The streamfunction must satisfy the (linear) constraint for the new
    # vorticity: one Newton correction with the constraint Jacobian is exact.
    _, _, _, gw = problem.system.blocks(omega0, problem.w0, 0.0)
    g = problem.system.constraint(omega0, problem.w0, 0.0)
    psi0 = problem.w0 - spla.spsolve(gw.csr.tocsc(), g)
    return Inputs(omega0, psi0, _conserved_sum_gate(omega0))


_INPUTS = {
    "burgers1d": _burgers_inputs,
    "heat1d": _heat_inputs,
    "shear_layer_small": _shear_inputs,
}


def make_inputs(wl: Workload, problem, seed):
    """Seeded initial state and correctness gate for ``wl``."""
    return _INPUTS[wl.problem](problem, np.random.default_rng(seed))
