"""Golden steps: ten short runs whose per-step work counts and states are kept
in ``golden_steps.json`` and checked by ``test_golden_steps.py``.

Each cell runs ``STEPS`` steps from a seeded state.  The file keeps, per
cell, the per-step Newton, Krylov, preconditioner, differential and
constraint counts, the final state, and a sha256 of every step's state.
Regenerate it with

    PYTHONPATH=src python tests/golden_steps.py

and say in CHANGES.md why it moved.  Check a change against it, writing
nothing, with

    PYTHONPATH=src python tests/golden_steps.py --check

which recomputes every cell, names each one whose counts or sha256 differ
from the file's, and exits 1 if any does: a strict bit-for-bit check, where
``test_golden_steps.py`` only warns on a sha256 that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from irkit.dae import dae_integrate
from irkit.nonlinear import SolverConfig, integrate
from irkit.problems import make_problem
from irkit.tableau import make_tableau

GOLDEN = Path(__file__).with_name("golden_steps.json")
STEPS = 10
# Norm-wise relative tolerance of a final state against the file's.
STATE_RTOL = 1e-12
COUNTS = ("newton_iterations", "krylov_iterations", "precond_applications",
          "differential_solves", "constraint_solves")

# name: (problem, params, family, stages, dt, SolverConfig kwargs, DAE mode or None)
CELLS = {
    "burgers-n256-radau3": ("burgers1d", {"n": 256}, "radau_iia", 3, 1e-4, {}, None),
    "heat-n1024-gauss4": ("heat1d", {"n": 1024}, "gauss", 4, 1e-3, {}, None),
    "shear-n16-radau2-reordered": ("shear_layer_small", {"n": 16}, "radau_iia", 2, 1e-2, {},
                                   "reordered"),
    "shear-n16-gauss3-coupled": ("shear_layer_small", {"n": 16}, "gauss", 3, 1e-2, {},
                                 "coupled"),
    "shear-n16-gauss3-reordered": ("shear_layer_small", {"n": 16}, "gauss", 3, 1e-2, {},
                                   "reordered"),
    "dae_manufactured-radau3": ("dae_manufactured", {}, "radau_iia", 3, 0.1, {}, "coupled"),
    "burgers-n64-sdirk3": ("burgers1d", {"n": 64}, "sdirk3", 3, 1e-3, {}, None),
    "burgers-n64-radau3-v0": ("burgers1d", {"n": 64}, "radau_iia", 3, 1e-3, {"variant": 0},
                              None),
    "burgers-n64-radau3-v1": ("burgers1d", {"n": 64}, "radau_iia", 3, 1e-3, {"variant": 1},
                              None),
    "burgers-n64-radau3-v2": ("burgers1d", {"n": 64}, "radau_iia", 3, 1e-3, {"variant": 2},
                              None),
}


def seeded_state(problem, seed):
    """``problem.u0`` plus a seeded smooth perturbation of relative size 1e-3;
    a DAE's ``w`` is moved onto the constraint by one ``G_w`` correction
    (exact for constraints linear in ``w``, as in the catalog)."""
    rng = np.random.default_rng(seed)
    u0 = problem.u0
    x = np.arange(len(u0)) / len(u0)
    pert = sum(rng.uniform(-1.0, 1.0) * np.sin(2.0 * np.pi * k * x + rng.uniform(0.0, 2.0 * np.pi))
               for k in (1, 2, 3))
    u = u0 + 1e-3 * np.max(np.abs(u0)) * pert
    if problem.w0 is None:
        return u, None
    system = problem.system
    gw = system.blocks(u, problem.w0, 0.0)[3]
    return u, problem.w0 - gw.factorization.solve(system.constraint(u, problem.w0, 0.0))


def run_cell(name, seed=0):
    """``(per-step counts, step states)`` of cell ``name``."""
    prob, params, family, stages, dt, cfg, mode = CELLS[name]
    problem = make_problem(prob, **params)
    tableau = make_tableau(family, stages)
    u, w = seeded_state(problem, seed)
    t_final = STEPS * dt
    if mode is None:
        res = integrate(problem.system, u, 0.0, t_final, dt, tableau, SolverConfig(**cfg))
        states = res.states[1:]
    else:
        res = dae_integrate(problem.system, u, w, 0.0, t_final, dt, tableau,
                            SolverConfig(**cfg), mode=mode)
        states = [np.concatenate(uw) for uw in zip(res.u_states[1:], res.w_states[1:])]
    counts = [[getattr(st, c) for c in COUNTS] for st in res.step_stats]
    return counts, states


def sha256(states):
    return hashlib.sha256(np.concatenate(states).astype("<f8").tobytes()).hexdigest()


def check():
    """Names every cell whose counts or sha256 differ from the file's; returns
    the number of such cells."""
    want = json.loads(GOLDEN.read_text())["cells"]
    bad = 0
    for name in CELLS:
        counts, states = run_cell(name)
        diffs = []
        if counts != want[name]["counts"]:
            diffs.append("counts")
        if sha256(states) != want[name]["sha256"]:
            diffs.append("sha256")
        print(f"{name}: differs in {' and '.join(diffs)}" if diffs else f"{name}: identical")
        bad += bool(diffs)
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write or check golden_steps.json.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the file instead of writing it; exit 1 on a difference")
    if parser.parse_args(argv).check:
        return 1 if check() else 0
    cells = {}
    for name in CELLS:
        counts, states = run_cell(name)
        cells[name] = {"counts": counts, "sha256": sha256(states),
                       "final_state": [float(v) for v in states[-1]]}
    data = {"steps": STEPS, "state_rtol": STATE_RTOL, "counts": list(COUNTS), "cells": cells}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
