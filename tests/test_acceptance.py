"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is designed to finish in a few minutes on a laptop.
"""

import numpy as np
import pytest

from irkit.dae import dae_integrate
from irkit.irk_core import (
    Block2x2System,
    PrecondSpec,
    measure_kappa,
    solve_transformed_system,
)
from irkit.nonlinear import SolverConfig, build_variant_jacobian, integrate, step
from irkit.problems import make_problem
from irkit.sparsela import SparseMatrix, gmres
from irkit.tableau import kappa_bound, make_tableau, prepare_stages

from exact_schur import exact_schur_preconditioner

# Published condition-number bounds for the shift-preconditioned Schur
# complement, schemes with 2..5 stages (values as printed; the last digit of
# the four-stage entries is rounded up rather than to nearest, so equality
# is asserted to within one unit of the second decimal).
TABLE1 = {
    ("gauss", 2): [1.17],
    ("gauss", 3): [1.00, 1.46],
    ("gauss", 4): [1.80, 1.05],
    ("gauss", 5): [1.00, 2.18, 1.14],
    ("radau_iia", 2): [1.25],
    ("radau_iia", 3): [1.00, 1.65],
    ("radau_iia", 4): [2.11, 1.06],
    ("radau_iia", 5): [1.00, 2.60, 1.16],
    ("lobatto_iiic", 2): [1.50],
    ("lobatto_iiic", 3): [1.00, 2.11],
    ("lobatto_iiic", 4): [2.76, 1.07],
    ("lobatto_iiic", 5): [1.00, 3.44, 1.19],
}

FAMILIES = ("gauss", "radau_iia", "lobatto_iiic")


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def inf_norm(mat):
    return float(np.abs(mat.csr).sum(axis=1).max())


def scaled(mat, dt):
    return SparseMatrix(dt * mat.csr)


@pytest.fixture(scope="module")
def burgers_reference():
    """Fine-step trajectory for the temporal-order study (shared).

    Radau IIA(5), order 9, at dt = 2e-3: within 4e-15 of Radau IIA(3) at
    dt = 1e-4, far below the smallest measured error (about 1e-10).
    """
    problem = make_problem("burgers1d", n=256, nu=0.02)
    cfg = SolverConfig(
        newton_rtol=1e-12, krylov_rtol=1e-12, newton_maxit=60, newton_abs_floor=1e-13
    )
    ref = integrate(
        problem.system, problem.u0, 0.0, 0.4, 2e-3, make_tableau("radau_iia", 5), cfg
    )
    return problem, cfg, ref.u_final


def test_criterion_1_table1_bounds():
    worst = 0.0
    for (family, s), expected in TABLE1.items():
        prep = prepare_stages(make_tableau(family, s))
        got = sorted(kappa_bound(b.eta, b.beta) for b in prep.blocks)
        exp = sorted(expected)
        assert len(got) == len(exp), (family, s)
        worst = max(worst, max(abs(g - e) for g, e in zip(got, exp)))
    report(
        1,
        worst <= 0.01,
        f"computed bounds match all 24 published entries "
        f"(worst last-digit deviation {worst:.4f} <= 0.01)",
    )


def test_criterion_2_measured_conditioning_equal_operators():
    worst_margin = -np.inf
    checked = 0
    for name in ("heat1d", "advection1d"):
        problem = make_problem(name, n=64)
        norm = inf_norm(problem.operator)
        for family in FAMILIES:
            for s in range(2, 6):
                prep = prepare_stages(make_tableau(family, s))
                for target in (0.1, 1.0, 10.0, 100.0):
                    lhat = scaled(problem.operator, target / norm)
                    for blk in prep.blocks:
                        kappa = measure_kappa(blk.eta, blk.beta, lhat, lhat)
                        bound = kappa_bound(blk.eta, blk.beta)
                        worst_margin = max(worst_margin, kappa - bound)
                        checked += 1
                        assert kappa <= bound + 1e-6, (name, family, s, target)
    report(
        2,
        worst_margin <= 1e-6,
        f"{checked} measured condition numbers below their bounds "
        f"(worst margin {worst_margin:+.2e})",
    )


def test_criterion_3_measured_conditioning_distinct_operators():
    problem = make_problem("heat1d", n=64)
    norm = inf_norm(problem.operator)
    worst_margin = -np.inf
    checked = 0
    for family in FAMILIES:
        for s in range(2, 6):
            prep = prepare_stages(make_tableau(family, s))
            for target in (1.0, 10.0):
                lhat1 = scaled(problem.operator, target / norm)
                for c in (0.5, 2.0, 10.0):
                    lhat2 = scaled(problem.operator, c * target / norm)
                    for blk in prep.blocks:
                        kappa = measure_kappa(blk.eta, blk.beta, lhat1, lhat2)
                        bound = kappa_bound(blk.eta, blk.beta, "distinct")
                        worst_margin = max(worst_margin, kappa - bound)
                        checked += 1
                        assert kappa <= bound + 1e-6, (family, s, target, c)
    report(
        3,
        worst_margin <= 1e-6,
        f"{checked} scaled-pair condition numbers below 2 + beta^2/eta^2 "
        f"(worst margin {worst_margin:+.2e})",
    )


def test_criterion_4_exact_schur_two_iterations():
    rng = np.random.default_rng(2024)
    n = 32
    worst = 0
    for trial in range(10):
        if trial % 2 == 0:
            r = rng.standard_normal((n, n))
            lmat = SparseMatrix(-(r @ r.T))
        else:
            b = rng.standard_normal((n, n))
            lmat = SparseMatrix(b - b.T)
        eta = rng.uniform(0.5, 5.0)
        beta = rng.uniform(0.1, 3.0)
        phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
        sysb = Block2x2System(
            eta=eta, beta=beta, phi=phi, mass=None, l1=lmat, l2=lmat,
            dt=rng.uniform(0.05, 1.0),
        )
        pre = exact_schur_preconditioner(sysb)
        rhs = rng.standard_normal(2 * n)
        _, rep = gmres(sysb.matrix, rhs, right_precond=pre, rtol=1e-10)
        assert rep.converged, trial
        worst = max(worst, rep.iterations)
    report(
        4,
        worst <= 2,
        f"exact-Schur preconditioned GMRES converged to 1e-10 in "
        f"<= {worst} iterations on 10 random instances",
    )


def test_criterion_5_gamma_star_dominance():
    from irkit.experiments import RunManifest, run_gamma_compare

    problems = {
        "heat1d": ({"n": 64}, (0.001, 0.01, 0.1)),
        "advection1d": ({"n": 64}, (0.05, 0.2, 1.0)),
        "burgers1d": ({"n": 64, "nu": 0.02}, (0.005, 0.02, 0.08)),
    }
    schemes = tuple(
        [("gauss", s) for s in (2, 3, 4, 5)]
        + [("radau_iia", s) for s in (3, 4, 5)]
        + [("lobatto_iiic", s) for s in (3, 4, 5)]
    )
    cells = 0
    satisfied = 0
    worst_excess = 0.0
    for name, (params, dts) in problems.items():
        for dt in dts:
            manifest = RunManifest(
                experiment="gamma-compare", problem=name, problem_params=params,
                schemes=schemes, dts=(dt,), t_final=2 * dt,
                newton_rtol=1e-9, krylov_rtol=1e-8,
            )
            rows = run_gamma_compare(manifest)
            per_scheme = {}
            for row in rows:
                assert row["status"] == "ok", (name, dt, row)
                per_scheme.setdefault(row["scheme"], []).append(
                    (float(row["mean_krylov_eta"]), float(row["mean_krylov_star"]))
                )
            for scheme, vals in per_scheme.items():
                mean_eta = np.mean([v[0] for v in vals])
                mean_star = np.mean([v[1] for v in vals])
                cells += 1
                if mean_star <= mean_eta + 1e-9:
                    satisfied += 1
                else:
                    worst_excess = max(worst_excess, mean_star - mean_eta)
    fraction = satisfied / cells
    report(
        5,
        fraction >= 0.9 and worst_excess <= 2.0,
        f"optimal shift won or tied in {satisfied}/{cells} cells "
        f"({100 * fraction:.0f}%), worst excess {worst_excess:.2f} iterations",
    )


def test_criterion_6_burgers_temporal_order(burgers_reference):
    problem, cfg, u_ref = burgers_reference
    thresholds = {
        ("gauss", 1): 1.7,
        ("gauss", 2): 3.6,
        ("gauss", 3): 5.4,
        ("radau_iia", 2): 2.6,
        ("lobatto_iiic", 2): 1.6,
    }
    details = []
    ok = True
    for (family, s), floor in thresholds.items():
        tab = make_tableau(family, s)
        errs = []
        for dt in (0.04, 0.02, 0.01):
            res = integrate(problem.system, problem.u0, 0.0, 0.4, dt, tab, cfg)
            errs.append(np.linalg.norm(res.u_final - u_ref))
        rate = float(np.log2(errs[-2] / errs[-1]))
        details.append(f"{tab.label}:{rate:.2f}>={floor}")
        ok = ok and rate >= floor
    report(6, ok, "observed orders on the viscous flux problem: " + ", ".join(details))


def test_criterion_7_dae_order_and_constraint():
    problem = make_problem("dae_manufactured")
    cfg = SolverConfig(newton_rtol=1e-11, krylov_rtol=1e-12)
    floors = {1: 0.8, 2: 2.6, 3: 4.4}
    details = []
    ok = True
    for s, floor in floors.items():
        tab = make_tableau("radau_iia", s)
        errs = []
        worst_constraint = 0.0
        for dt in (0.2, 0.1, 0.05):
            res = dae_integrate(
                problem.system, problem.u0, problem.w0, 0.0, 1.0, dt, tab, cfg
            )
            ue, _ = problem.exact(1.0)
            errs.append(abs(res.u_final[0] - ue[0]))
            worst_constraint = max(
                worst_constraint,
                max(st.constraint_residual for st in res.step_stats),
            )
        rate = float(np.log2(errs[-2] / errs[-1]))
        details.append(f"s={s}:{rate:.2f}>={floor}")
        ok = ok and rate >= floor and worst_constraint <= 10 * cfg.newton_rtol
    report(7, ok, "index-1 orders " + ", ".join(details) + "; constraint within 10x tol")


def test_criterion_8_variant_consistency():
    # linear problems: every variant reproduces the dense coupled solve
    problem = make_problem("advdiff1d", n=24)
    lmat = problem.operator
    worst = 0.0
    for family, s in (("gauss", 4), ("radau_iia", 3), ("lobatto_iiic", 4)):
        prep = prepare_stages(make_tableau(family, s))
        dt = 0.05
        rng = np.random.default_rng(s)
        rhs = rng.standard_normal((s, 24))
        n = 24
        big = np.zeros((s * n, s * n))
        dense = lmat.to_dense()
        for i in range(s):
            big[i * n : (i + 1) * n, i * n : (i + 1) * n] = np.eye(n)
            for j in range(s):
                big[i * n : (i + 1) * n, j * n : (j + 1) * n] -= (
                    dt * prep.tableau.a0[i, j] * dense
                )
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(s, n)
        for variant in range(4):
            k, _ = solve_transformed_system(
                prep, build_variant_jacobian(prep, [lmat] * s, variant), dt, rhs,
                krylov_rtol=1e-12, krylov_maxit=400,
            )
            worst = max(worst, float(np.max(np.abs(k - oracle))))
    linear_ok = worst <= 1e-9

    # nonlinear problem: iteration counts decay with approximation quality
    problem = make_problem("burgers1d", n=128, nu=0.02)
    counts = {}
    for family, s in (("radau_iia", 2), ("gauss", 3)):
        its = []
        for variant in range(4):
            cfg = SolverConfig(
                variant=variant, newton_rtol=1e-9, krylov_rtol=1e-6, newton_maxit=80
            )
            _, stats = step(
                problem.system, problem.u0, 0.0, 0.2, make_tableau(family, s), cfg
            )
            its.append(stats.newton_iterations)
        counts[f"{family}({s})"] = its
    monotone = all(
        all(its[i] >= its[i + 1] for i in range(3)) for its in counts.values()
    )
    report(
        8,
        linear_ok and monotone,
        f"linear variants within {worst:.1e} of the dense solve; "
        f"nonlinear iteration counts non-increasing: {counts}",
    )


def test_criterion_9_preconditioner_accounting():
    details = []
    ok = True
    # even-stage schemes carry only complex pairs, so every Krylov iteration
    # costs exactly two inner solves
    for name, params, dt in (
        ("heat1d", {"n": 32}, 0.01),
        ("burgers1d", {"n": 64, "nu": 0.02}, 0.02),
    ):
        problem = make_problem(name, **params)
        for family, s in (("gauss", 2), ("gauss", 4), ("radau_iia", 2)):
            cfg = SolverConfig(newton_rtol=1e-9, krylov_rtol=1e-8)
            res = integrate(
                problem.system, problem.u0, 0.0, 3 * dt, dt,
                make_tableau(family, s), cfg,
            )
            apps = res.total("precond_applications")
            its = res.total("krylov_iterations")
            details.append(f"{name}/{family}({s}): {apps}=2*{its}")
            ok = ok and apps == 2 * its
    report(9, ok, "; ".join(details))


def test_criterion_10_stage_weight_identities():
    worst = 0.0
    for family in FAMILIES:
        lo = 2 if family == "lobatto_iiic" else 1
        for s in range(lo, 9):
            prep = prepare_stages(make_tableau(family, s))
            sums = prep.d.sum(axis=2)
            worst = max(worst, float(np.max(np.abs(sums - np.eye(s)))))
    sums_ok = worst <= 1e-12

    prep = prepare_stages(make_tableau("gauss", 2))
    gauss_ok = (
        np.allclose(prep.d[0, 0], [1.0, 0.0], atol=1e-12)
        and np.allclose(prep.d[0, 1], [0.0, 0.0], atol=1e-12)
        and np.allclose(prep.d[1, 1], [0.0, 1.0], atol=1e-12)
    )

    prep = prepare_stages(make_tableau("radau_iia", 2))
    # published to three digits (0.014 truncated from 0.01493)
    radau_ok = (
        sorted(prep.d[0, 0]) == pytest.approx([0.014, 0.985], abs=1e-3)
        and np.abs(prep.d[0, 1]) == pytest.approx([0.121, 0.121], abs=1e-3)
    )
    report(
        10,
        sums_ok and gauss_ok and radau_ok,
        f"weight sums match the Kronecker delta to {worst:.1e}; "
        "two-stage Gauss and Radau weights match the published displays",
    )
