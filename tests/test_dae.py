from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from irkit import dae, irk_core, nonlinear
from irkit.dae import (
    DaeIntegrationResult,
    DaeOps,
    DaeSystem,
    _CompositeMass,
    _EliminationSolver,
    dae_integrate,
    dae_stage_residual,
    dae_step,
    solve_dae_block4x4,
)
from irkit import densela
from irkit.errors import (ConfigurationError, IndexViolationError, StageSolveError,
                          StepFailureError)
from irkit.irk_core import (
    Block2x2System,
    PrecondSpec,
    ShiftedSolver,
    apply_block2x2,
    solve_block,
    solve_transformed_system,
)
from irkit.nonlinear import (IntegrationResult, SolverConfig, StageState, build_variant_jacobian,
                             integrate)
from irkit.problems import make_problem
from irkit.sparsela import SparseMatrix, combine
from irkit.tableau import make_tableau, prepare_stages

TIGHT = SolverConfig(newton_rtol=1e-11, krylov_rtol=1e-12)


def random_ops(rng, nu, nw, lw_zero=False):
    lu = SparseMatrix(rng.standard_normal((nu, nu)) - 3 * np.eye(nu))
    lw = SparseMatrix(
        np.zeros((nu, nw)) if lw_zero else 0.3 * rng.standard_normal((nu, nw))
    )
    gu = SparseMatrix(0.5 * rng.standard_normal((nw, nu)))
    gw = SparseMatrix(rng.standard_normal((nw, nw)) + 4 * np.eye(nw))
    return DaeOps(lu, lw, gu, gw)


def pair_plan(oi, oj, eta, beta, phi, dt, mode):
    """The plan a stage solve keeps for a composite pair block, identity mass,
    in the ordering ``mode``, which ``solve_dae_block4x4`` reads off the plan."""
    system = Block2x2System(eta, beta, phi, _CompositeMass(None, oi.lu.n), oi, oj, dt)
    return dae.PAIR_PLANS[mode](system, PrecondSpec())


def dense_pair_block(oi, oj, eta, beta, phi, dt, nu, nw):
    n = nu + nw
    z = np.zeros((2 * n, 2 * n))

    def fill(ops, r0, c0, alpha):
        z[r0 : r0 + nu, c0 : c0 + nu] = alpha * np.eye(nu) - dt * ops.lu.to_dense()
        z[r0 : r0 + nu, c0 + nu : c0 + n] = -dt * ops.lw.to_dense()
        z[r0 + nu : r0 + n, c0 : c0 + nu] = -dt * ops.gu.to_dense()
        z[r0 + nu : r0 + n, c0 + nu : c0 + n] = -dt * ops.gw.to_dense()

    fill(oi, 0, 0, eta)
    fill(oj, n, n, eta)
    z[0:nu, n : n + nu] += phi * np.eye(nu)
    z[n : n + nu, 0:nu] += -(beta**2 / phi) * np.eye(nu)
    return z


def dense_stage_system(tableau, ops, mass, dt):
    """Directly assembled coupled stage matrix of a linear index-1 DAE.

    Rows and columns stack ``[k_i | l_i]`` per stage:
    ``I (x) diag(M, 0) - dt * A (x) [[Lu, Lw], [Gu, Gw]]``.
    """
    nu, nw = ops.lu.n, ops.gw.n
    jac = np.block(
        [[ops.lu.to_dense(), ops.lw.to_dense()], [ops.gu.to_dense(), ops.gw.to_dense()]]
    )
    mbar = np.zeros((nu + nw, nu + nw))
    mbar[:nu, :nu] = mass
    return np.kron(np.eye(tableau.s), mbar) - dt * np.kron(tableau.a0, jac)


class TestResidual:
    def test_zero_at_exact_linear_stage_solution(self):
        # linear DAE; stage vectors from the dense coupled system
        rng = np.random.default_rng(0)
        nu = nw = 2
        ops = random_ops(rng, nu, nw)
        tableau = make_tableau("radau_iia", 2)
        u0 = rng.standard_normal(nu)
        w0 = np.linalg.solve(ops.gw.to_dense(), -(ops.gu.to_dense() @ u0))
        sys = DaeSystem(
            dim_u=nu,
            dim_w=nw,
            rhs=lambda u, w, t: ops.lu @ u + ops.lw @ w,
            constraint=lambda u, w, t: ops.gu @ u + ops.gw @ w,
            blocks=lambda u, w, t: ops,
        )
        dt = 0.1
        s = tableau.s
        n = nu + nw
        big = np.zeros((s * n, s * n))
        rhs = np.zeros(s * n)
        base = np.concatenate([ops.lu @ u0 + ops.lw @ w0, ops.gu @ u0 + ops.gw @ w0])
        lin = np.block(
            [[ops.lu.to_dense(), ops.lw.to_dense()], [ops.gu.to_dense(), ops.gw.to_dense()]]
        )
        mbar = np.zeros((n, n))
        mbar[:nu, :nu] = np.eye(nu)
        for i in range(s):
            rhs[i * n : (i + 1) * n] = base
            for j in range(s):
                blk = -dt * tableau.a0[i, j] * lin
                if i == j:
                    blk = blk + mbar
                big[i * n : (i + 1) * n, j * n : (j + 1) * n] = blk
        x = np.linalg.solve(big, rhs).reshape(s, n)
        st = StageState(k=x, u=np.concatenate([u0, w0]), t=0.0, dt=dt)
        res = dae_stage_residual(sys, st, tableau)
        assert np.max(np.abs(res)) <= 1e-12

    def test_zero_guess_evaluates_base_state(self):
        problem = make_problem("dae_manufactured")
        tableau = make_tableau("radau_iia", 2)
        st = StageState(k=np.zeros((2, 2)), u=np.concatenate([problem.u0, problem.w0]),
                        t=0.0, dt=0.1)
        res = dae_stage_residual(problem.system, st, tableau)
        for i, ci in enumerate(tableau.c0):
            assert res[i, 0] == pytest.approx(-1.0 + 1.0)  # -u0 + w0
            assert res[i, 1] == pytest.approx(1.0 - np.cos(0.1 * ci), abs=1e-14)

    def test_single_stage_hand_values(self):
        problem = make_problem("dae_manufactured")
        tableau = make_tableau("radau_iia", 1)
        st = StageState(k=np.zeros((1, 2)), u=np.array([2.0, 0.5]), t=0.0, dt=0.2)
        res = dae_stage_residual(problem.system, st, tableau)
        assert res[0, 0] == pytest.approx(-2.0 + 0.5, abs=1e-14)
        assert res[0, 1] == pytest.approx(0.5 - np.cos(0.2), abs=1e-14)


class TestBlockSolve:
    def test_beta_zero_matches_dense(self):
        rng = np.random.default_rng(1)
        nu = nw = 3
        oi, oj = random_ops(rng, nu, nw), random_ops(rng, nu, nw)
        rhs = rng.standard_normal(2 * (nu + nw))
        z = dense_pair_block(oi, oj, 2.0, 0.0, 0.8, 0.25, nu, nw)
        oracle = np.linalg.solve(z, rhs)
        x, rep = solve_dae_block4x4(pair_plan(oi, oj, 2.0, 0.0, 0.8, 0.25, mode="coupled"), rhs,
                                    rtol=1e-12, maxit=100)
        assert np.max(np.abs(x - oracle)) < 1e-9

    @pytest.mark.parametrize("mode", ["coupled", "reordered"])
    def test_lw_zero_modes_agree_with_dense(self, mode):
        rng = np.random.default_rng(2)
        nu = nw = 3
        oi = random_ops(rng, nu, nw, lw_zero=True)
        oj = random_ops(rng, nu, nw, lw_zero=True)
        rhs = rng.standard_normal(2 * (nu + nw))
        z = dense_pair_block(oi, oj, 2.0, 1.3, 0.8, 0.25, nu, nw)
        oracle = np.linalg.solve(z, rhs)
        x, _ = solve_dae_block4x4(pair_plan(oi, oj, 2.0, 1.3, 0.8, 0.25, mode=mode), rhs,
                                  rtol=1e-12, maxit=100)
        assert np.max(np.abs(x - oracle)) < 1e-9

    def test_lw_coupled_matches_dense(self):
        rng = np.random.default_rng(3)
        nu = nw = 4
        oi, oj = random_ops(rng, nu, nw), random_ops(rng, nu, nw)
        rhs = rng.standard_normal(2 * (nu + nw))
        z = dense_pair_block(oi, oj, 1.5, 2.0, -0.6, 0.3, nu, nw)
        oracle = np.linalg.solve(z, rhs)
        x, _ = solve_dae_block4x4(pair_plan(oi, oj, 1.5, 2.0, -0.6, 0.3, mode="coupled"), rhs,
                                  rtol=1e-12, maxit=200)
        assert np.max(np.abs(x - oracle)) < 1e-8

    def test_reordered_counts_one_diff_solve_two_constraint_solves(self):
        rng = np.random.default_rng(4)
        nu = nw = 3
        oi = random_ops(rng, nu, nw, lw_zero=True)
        oj = random_ops(rng, nu, nw, lw_zero=True)
        rhs = rng.standard_normal(2 * (nu + nw))
        start = replace(dae.COUNTERS)
        _, rep = solve_dae_block4x4(pair_plan(oi, oj, 2.0, 1.3, 0.8, 0.25, mode="reordered"),
                                    rhs, rtol=1e-11, maxit=100)
        assert dae.COUNTERS.constraint - start.constraint == 2
        assert dae.COUNTERS.differential - start.differential == rep.precond_applications

    @pytest.mark.parametrize("rtol", [1e-5, 1e-10])
    def test_reordered_recheck_is_the_assembled_block_residual(self, rtol):
        # the recheck adds gmres's differential residual and the algebraic
        # rows' b - G_w l; assembling the composite block gives the same
        problem = make_problem("shear_layer_small", n=16)
        sysd = problem.system
        blk = next(b for b in prepare_stages(make_tableau("radau_iia", 2)).schur.blocks
                   if b.size == 2)
        rng = np.random.default_rng(10)
        oi = DaeOps(*sysd.blocks(problem.u0, problem.w0, 0.0))
        u1 = problem.u0 + 0.01 * rng.standard_normal(sysd.dim_u)
        oj = DaeOps(*sysd.blocks(u1, problem.w0, 0.0))
        sys2 = Block2x2System(blk.eta, blk.beta, blk.phi, _CompositeMass(sysd.mass, oi.lu.n),
                              oi, oj, 0.01)
        rhs = rng.standard_normal(2 * oi.n)
        plan = dae.PAIR_PLANS["reordered"](sys2, PrecondSpec())
        x, _, true_rel = dae._solve_reordered(plan, rhs, rtol, 200)
        assembled = np.linalg.norm(rhs - apply_block2x2(sys2, x)) / np.linalg.norm(rhs)
        assert 0.0 < true_rel <= rtol
        assert abs(true_rel - assembled) <= 1e-14

    def test_reordered_recheck_catches_a_wrong_constraint_solve(self, monkeypatch):
        # constraint solves 0.1% off leave an algebraic residual of order 1e-3:
        # the report's verdict is the whole block's, and solve_block raises on it
        rng = np.random.default_rng(4)
        oi = random_ops(rng, 3, 3, lw_zero=True)
        oj = random_ops(rng, 3, 3, lw_zero=True)
        rhs = rng.standard_normal(12)
        solve = dae._solve_gw
        monkeypatch.setattr(dae, "_solve_gw", lambda gw, r: 1.001 * solve(gw, r))
        plan = pair_plan(oi, oj, 2.0, 1.3, 0.8, 0.25, mode="reordered")
        _, rep = solve_dae_block4x4(plan, rhs, rtol=1e-8, maxit=100)
        assert not rep.converged and rep.residuals[-1] > 1e-8
        reports = []
        with pytest.raises(StageSolveError, match=r"pair did not converge: residual") as err:
            solve_block(plan, rhs, 1e-8, 100, "pair", 0, reports)
        assert err.value.reports is reports and reports == [(0, err.value.report)]

    @pytest.mark.parametrize("mode", ["coupled", "reordered"])
    def test_failed_composite_pair_names_its_block(self, mode):
        # the pair's report is its verdict; solve_block names the block in the sweep
        problem = make_problem("shear_layer_small", n=8)
        tableau = make_tableau("radau_iia", 2)
        (pair,) = [b.offset for b in prepare_stages(tableau).schur.blocks if b.size == 2]
        cfg = SolverConfig(krylov_maxit=1, krylov_rtol=1e-12)
        with pytest.raises(StageSolveError, match=rf"2x2 block at offset {pair} did not "
                           r"converge: residual \S+ above rtol 1\.000e-12") as err:
            dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.01, tableau, cfg, mode=mode)
        assert err.value.block_offset == pair
        assert err.value.report is not None and not err.value.report.converged
        assert err.value.reports[-1] == (pair, err.value.report)
        assert err.value.stats.krylov_iterations == err.value.report.iterations > 0

    @pytest.mark.parametrize("lw_zero", [True, False], ids=["banded", "dense"])
    def test_elimination_solver_writes_the_returned_bits(self, lw_zero):
        # the reduced solve is banded when L_w vanishes and dense otherwise; the
        # solve into a row, onto its own rhs, and returned all hold the bits of
        # the eliminated formula, with the same inner-solve counts
        rng = np.random.default_rng(7)
        nu, nw, alpha, dt = 5, 3, 2.0, 0.25
        ops = random_ops(rng, nu, nw, lw_zero=lw_zero)
        solver = _EliminationSolver(alpha, _CompositeMass(None, nu), ops, dt)
        r = rng.standard_normal(nu + nw)
        ru, rw, gw = r[:nu], r[nu:], ops.gw.factorization
        if lw_zero:
            zu = ShiftedSolver(alpha, None, ops.lu, dt).solve(ru)
        else:
            red = combine([alpha, -dt], [None, ops.lu]).to_dense()
            red += dt * (ops.lw.to_dense() @ gw.solve(ops.gu.to_dense()))
            zu = densela.lu_solve_factored(*densela.lu_factor(red), ru - ops.lw @ gw.solve(rw))
        want = np.concatenate([zu, -gw.solve(rw + dt * (ops.gu @ zu)) / dt])
        start = replace(dae.COUNTERS)
        rows = np.full((3, nu + nw), np.nan)
        solver.solve(r, out=rows[1])
        rows[2] = r
        solver.solve(rows[2], rows[2])
        assert np.array_equal(solver.solve(r), want)
        assert np.array_equal(rows[1], want) and np.array_equal(rows[2], want)
        assert np.all(np.isnan(rows[0]))
        assert dae.COUNTERS.differential - start.differential == 3
        assert dae.COUNTERS.constraint - start.constraint == 3 * (1 if lw_zero else 2)

    def test_reordered_requires_structural_zero(self):
        rng = np.random.default_rng(5)
        oi = random_ops(rng, 3, 3)
        with pytest.raises(ConfigurationError):
            solve_dae_block4x4(pair_plan(oi, oi, 2.0, 1.3, 0.8, 0.25, mode="reordered"),
                               np.ones(12))

    def test_wrongly_shaped_rhs_rejected(self):
        rng = np.random.default_rng(8)
        oi = random_ops(rng, 3, 3, lw_zero=True)
        with pytest.raises(ValueError, match=r"rhs has shape \(5,\), expected \(12,\)"):
            solve_dae_block4x4(pair_plan(oi, oi, 2.0, 1.3, 0.8, 0.25, mode="coupled"),
                               np.ones(5))

    def test_singular_constraint_is_index_violation(self):
        rng = np.random.default_rng(6)
        oi = random_ops(rng, 2, 2, lw_zero=True)
        bad = DaeOps(oi.lu, oi.lw, oi.gu, SparseMatrix(np.zeros((2, 2))))
        with pytest.raises(IndexViolationError):
            solve_dae_block4x4(pair_plan(bad, bad, 2.0, 1.3, 0.8, 0.25, mode="coupled"),
                               np.ones(8))
        # eagerly: building the block solver already fails
        with pytest.raises(IndexViolationError):
            _EliminationSolver(2.0, _CompositeMass(None, 2), bad, 0.25)


def composite_solve(prep, stage_ops, variant, mass_diag, dt, rhs, mode):
    """The ODE core's transformed solve with the composite block solvers."""
    mass = _CompositeMass(SparseMatrix(np.diag(mass_diag)), len(mass_diag))
    x, _ = solve_transformed_system(
        prep, dt=dt, rhs_stages=rhs, mass=mass, krylov_rtol=1e-12, krylov_maxit=400,
        variant_jacobian=build_variant_jacobian(prep, stage_ops, variant),
        pair_plan=dae.PAIR_PLANS[mode],
    )
    return x


class TestTransformedStageSolve:
    """One composite stage solve against the dense coupled s*(nu+nw) system."""

    @pytest.mark.parametrize("family,s", [
        ("radau_iia", 1), ("radau_iia", 2), ("radau_iia", 3), ("gauss", 2), ("gauss", 3),
    ])
    @pytest.mark.parametrize("mode,variant", [
        ("coupled", 0), ("coupled", 1), ("coupled", 2), ("coupled", 3), ("reordered", 2),
    ])
    def test_matches_dense_stage_system(self, family, s, mode, variant):
        # equal stage operators (a linear system), so every variant is exact;
        # a non-identity mass checks that the sweep's mass coupling leaves the
        # algebraic rows alone
        rng = np.random.default_rng(10 * s + variant)
        nu, nw = 4, 3
        ops = random_ops(rng, nu, nw, lw_zero=mode == "reordered")
        mass_diag = 1.0 + rng.random(nu)
        prep = prepare_stages(make_tableau(family, s))
        dt = 0.2
        rhs = rng.standard_normal((s, nu + nw))
        big = dense_stage_system(prep.tableau, ops, np.diag(mass_diag), dt)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(s, nu + nw)
        x = composite_solve(prep, [ops] * s, variant, mass_diag, dt, rhs, mode)
        assert np.max(np.abs(x - oracle)) < 1e-9


    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        scheme=hst.sampled_from([
            ("radau_iia", 1), ("radau_iia", 2), ("radau_iia", 3), ("gauss", 2), ("gauss", 3),
            ("lobatto_iiic", 2), ("lobatto_iiic", 3),
        ]),
        nu=hst.integers(1, 5),
        nw=hst.integers(1, 4),
        mode_variant=hst.sampled_from(
            [("coupled", v) for v in range(4)] + [("reordered", v) for v in range(3)]
        ),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_property_matches_dense_stage_system(self, scheme, nu, nw, mode_variant, seed):
        mode, variant = mode_variant
        rng = np.random.default_rng(seed)
        ops = random_ops(rng, nu, nw, lw_zero=mode == "reordered")
        mass_diag = 0.5 + rng.random(nu)
        prep = prepare_stages(make_tableau(*scheme))
        s, dt = prep.tableau.s, 0.2
        rhs = rng.standard_normal((s, nu + nw))
        big = dense_stage_system(prep.tableau, ops, np.diag(mass_diag), dt)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(s, nu + nw)
        x = composite_solve(prep, [ops] * s, variant, mass_diag, dt, rhs, mode)
        assert np.max(np.abs(x - oracle)) <= 1e-9 * max(1.0, np.max(np.abs(oracle)))


class TestSolverSplitCounts:
    """Newton/Krylov/precond/differential/constraint totals, default config."""

    SHEAR = [
        ("coupled", "radau_iia", 2, (4, 12, 24, 24, 24)),
        ("coupled", "radau_iia", 3, (4, 16, 28, 28, 28)),
        ("coupled", "gauss", 3, (4, 15, 26, 26, 26)),
        ("reordered", "radau_iia", 2, (4, 12, 24, 24, 8)),
        ("reordered", "radau_iia", 3, (4, 16, 28, 28, 12)),
        ("reordered", "gauss", 3, (4, 15, 26, 26, 12)),
    ]

    @pytest.mark.parametrize("mode,family,s,counts", SHEAR,
                             ids=[f"{m}-{f}{s}" for m, f, s, _ in SHEAR])
    def test_shear_one_step(self, mode, family, s, counts):
        problem = make_problem("shear_layer_small", n=16)
        _, _, st = dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.01,
                            make_tableau(family, s), SolverConfig(), mode=mode)
        assert (st.newton_iterations, st.krylov_iterations, st.precond_applications,
                st.differential_solves, st.constraint_solves) == counts

    def test_failed_step_counts_its_inner_solves(self):
        # the stats a failed step raises with hold the inner solves it made
        problem = make_problem("shear_layer_small", n=8)
        start = replace(dae.COUNTERS)
        with pytest.raises(StepFailureError) as failure:
            dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.01,
                     make_tableau("radau_iia", 2), SolverConfig(newton_maxit=1),
                     mode="reordered")
        st = failure.value.stats
        assert (st.newton_iterations, st.krylov_iterations, st.precond_applications) == (1, 3, 6)
        assert st.differential_solves == dae.COUNTERS.differential - start.differential > 0
        assert st.constraint_solves == dae.COUNTERS.constraint - start.constraint > 0

    def test_failed_coupled_step_counts_every_solve(self, monkeypatch):
        # a block solve that fails in the first Newton iteration: the stats the
        # error carries hold every GMRES call the step made and its inner solves
        calls = []

        def spy(*args, _gmres=irk_core.gmres, **kwargs):
            x, rep = _gmres(*args, **kwargs)
            calls.append(rep)
            return x, rep

        problem = make_problem("shear_layer_small", n=8)
        monkeypatch.setattr(irk_core, "gmres", spy)
        with pytest.raises(StageSolveError) as err:
            dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.01,
                     make_tableau("radau_iia", 3), SolverConfig(krylov_maxit=1, krylov_rtol=1e-12))
        assert [rep.converged for rep in calls] == [True, False]  # the 1x1 block, then the pair
        st = err.value.stats
        assert st.differential_solves == st.precond_applications > 0
        assert st.krylov_iterations == sum(rep.iterations for rep in calls)

    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_manufactured_totals(self, variant):
        problem = make_problem("dae_manufactured")
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.5, 0.1,
                            make_tableau("radau_iia", 3), SolverConfig(variant=variant))
        names = ("newton_iterations", "krylov_iterations", "differential_solves",
                 "constraint_solves")
        assert tuple(res.total(name) for name in names) == (5, 15, 25, 50)

    def test_reused_jacobian_counts_into_its_own_step(self, monkeypatch):
        # the manufactured blocks are constant objects, so both steps get one
        # memoized Jacobian; each step's block plans count into its own
        # counters, as on a problem built afresh for that step
        built = []

        def spy(*args, _build=nonlinear.build_variant_jacobian):
            built.append(_build(*args))
            return built[-1]

        tableau = make_tableau("radau_iia", 3)  # a real block and a complex pair
        prep = prepare_stages(tableau)
        problem = make_problem("dae_manufactured")
        state, got = (problem.u0, problem.w0), []
        with monkeypatch.context() as patch:
            patch.setattr(nonlinear, "build_variant_jacobian", spy)
            for t in (0.0, 0.1):
                *state, stats = dae_step(problem.system, *state, t, 0.1, tableau, prep=prep)
                got.append(stats)
        assert len(built) >= 2 and all(v is built[0] for v in built)
        state = (problem.u0, problem.w0)
        for t, stats in zip((0.0, 0.1), got):
            fresh = make_problem("dae_manufactured")
            *state, want = dae_step(fresh.system, *state, t, 0.1, tableau)
            assert stats.differential_solves == want.differential_solves > 0
            assert stats.constraint_solves == want.constraint_solves > 0
            assert stats.krylov_iterations == want.krylov_iterations

class TestConfigurationChecks:
    """A DAE run rejects an unknown mode or an inexact inner solve before any
    work, on tableaux with and without a complex pair, and a march in the
    reordered mode a structurally nonzero ``L_w`` before its first step."""

    @staticmethod
    def counted_manufactured(calls):
        system = make_problem("dae_manufactured").system

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        return replace(system, rhs=counted("rhs", system.rhs),
                       blocks=counted("blocks", system.blocks))

    @pytest.mark.parametrize("family,s", [("gauss", 1), ("radau_iia", 1), ("radau_iia", 3)])
    @pytest.mark.parametrize("cfg,mode,match", [
        (SolverConfig(), "foo", "unknown mode 'foo'"),
        (SolverConfig(precond=PrecondSpec(inner=2)), "coupled", "exact only"),
        (SolverConfig(precond=PrecondSpec(inner=2)), "reordered", "exact only"),
    ], ids=["mode", "inner-coupled", "inner-reordered"])
    def test_rejected_before_any_work(self, family, s, cfg, mode, match):
        calls = []
        system = self.counted_manufactured(calls)
        tableau = make_tableau(family, s)
        with pytest.raises(ConfigurationError, match=match):
            dae_step(system, np.ones(1), np.ones(1), 0.0, 0.1, tableau, cfg, mode=mode)
        with pytest.raises(ConfigurationError, match=match) as err:
            dae_integrate(system, np.ones(1), np.ones(1), 0.0, 0.2, 0.1, tableau, cfg,
                          mode=mode)
        assert calls == [] and err.value.partial is None

    def test_reordered_needs_zero_lw_before_the_first_step(self):
        # the manufactured L_w is structurally nonzero: the initial blocks
        # show it before any residual is evaluated
        calls = []
        with pytest.raises(ConfigurationError, match="structurally zero L_w"):
            dae_integrate(self.counted_manufactured(calls), np.ones(1), np.ones(1), 0.0, 0.5,
                          0.1, make_tableau("radau_iia", 3), mode="reordered")
        assert calls == ["blocks"]

    @pytest.mark.parametrize("s", [1, 2], ids=["real-block", "complex-pair"])
    def test_reordered_step_needs_zero_lw(self, s):
        # checked once per plan, for either block kind, so a step rejects what
        # a run rejects; the check still comes after the first residual
        problem = make_problem("dae_manufactured")
        with pytest.raises(ConfigurationError, match="structurally zero L_w") as err:
            dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.1,
                     make_tableau("radau_iia", s), mode="reordered")
        assert err.value.stats.krylov_iterations == 0

    def test_precond_spec_names_a_rejected_inner(self):
        for inner in (0, -1, "jacobi", 1.5):
            with pytest.raises(ValueError, match=f"got {inner!r}"):
                PrecondSpec(inner=inner)


class TestIntegration:
    def test_constant_problem(self):
        # N = 0 and G = w - 1: everything stays put
        z = SparseMatrix(np.zeros((1, 1)))
        one = SparseMatrix(np.eye(1))
        sys = DaeSystem(
            dim_u=1, dim_w=1,
            rhs=lambda u, w, t: np.zeros(1),
            constraint=lambda u, w, t: w - 1.0,
            blocks=lambda u, w, t: (z, z, z, one),
        )
        res = dae_integrate(sys, np.array([2.0]), np.array([1.0]), 0.0, 0.5, 0.1,
                            make_tableau("radau_iia", 2), TIGHT)
        assert np.allclose(res.u_final, 2.0, atol=1e-12)
        assert np.allclose(res.w_final, 1.0, atol=1e-12)

    def test_manufactured_third_order(self):
        problem = make_problem("dae_manufactured")
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 1.0, 0.1,
                            make_tableau("radau_iia", 2), TIGHT)
        ue, we = problem.exact(1.0)
        err = abs(res.u_final[0] - ue[0])
        assert err < 5e-6  # third-order at dt = 0.1
        assert abs(res.w_final[0] - we[0]) < 1e-9

    def test_error_doubles_by_order(self):
        problem = make_problem("dae_manufactured")
        errs = []
        for dt in (0.2, 0.1):
            res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 1.0, dt,
                                make_tableau("radau_iia", 2), TIGHT)
            ue, _ = problem.exact(1.0)
            errs.append(abs(res.u_final[0] - ue[0]))
        assert np.log2(errs[0] / errs[1]) >= 2.6

    def test_constraint_residual_tracked(self):
        problem = make_problem("dae_manufactured")
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.5, 0.1,
                            make_tableau("radau_iia", 2), TIGHT)
        for st in res.step_stats:
            assert st.constraint_residual <= 10 * TIGHT.newton_rtol

    def test_result_is_an_integration_result_of_pairs(self):
        problem = make_problem("dae_manufactured")
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.3, 0.1,
                            make_tableau("radau_iia", 2), TIGHT)
        assert isinstance(res, DaeIntegrationResult) and isinstance(res, IntegrationResult)
        assert len(res.states) == len(res.times) == 4
        assert all(u is pu and w is pw for (u, w), pu, pw
                   in zip(res.states, res.u_states, res.w_states))
        assert res.u_final is res.states[-1][0] and res.w_final is res.states[-1][1]
        assert res.total("newton_iterations") == sum(s.newton_iterations for s in res.step_stats)

    def test_inconsistent_initialization_rejected(self):
        problem = make_problem("dae_manufactured")
        with pytest.raises(ConfigurationError):
            dae_integrate(problem.system, problem.u0, np.array([3.0]), 0.0, 0.5, 0.1,
                          make_tableau("radau_iia", 2), TIGHT)

    def test_dirk_rejected(self):
        problem = make_problem("dae_manufactured")
        with pytest.raises(ConfigurationError):
            dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.1,
                     make_tableau("sdirk2"), TIGHT)

    def test_reduction_to_ode(self):
        # dim_w = 0 reproduces the pure ODE integrator
        hp = make_problem("heat1d", n=20)
        empty_uw = SparseMatrix(sp.csr_matrix((20, 0)))
        empty_wu = SparseMatrix(sp.csr_matrix((0, 20)))
        empty_ww = SparseMatrix(sp.csr_matrix((0, 0)))
        dsys = DaeSystem(
            dim_u=20, dim_w=0,
            rhs=lambda u, w, t: hp.system.rhs(u, t),
            constraint=lambda u, w, t: np.zeros(0),
            blocks=lambda u, w, t: (hp.system.linearize(u, t), empty_uw, empty_wu, empty_ww),
        )
        cfg = SolverConfig(newton_rtol=1e-12, krylov_rtol=1e-12)
        tab = make_tableau("gauss", 3)
        a = integrate(hp.system, hp.u0, 0.0, 0.05, 0.01, tab, cfg)
        b = dae_integrate(dsys, hp.u0, np.zeros(0), 0.0, 0.05, 0.01, tab, cfg)
        assert np.max(np.abs(a.u_final - b.u_final)) <= 1e-12

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_variants_agree_after_convergence(self, variant):
        problem = make_problem("dae_manufactured")
        cfg = SolverConfig(variant=variant, newton_rtol=1e-12, krylov_rtol=1e-12)
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.3, 0.1,
                            make_tableau("radau_iia", 2), cfg)
        ref = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.3, 0.1,
                            make_tableau("radau_iia", 2), TIGHT)
        assert res.u_final[0] == pytest.approx(ref.u_final[0], abs=1e-10)


class TestShearLayer:
    def test_modes_agree_and_satisfy_constraint(self):
        problem = make_problem("shear_layer_small", n=16)
        tableau = make_tableau("radau_iia", 2)
        cfg = SolverConfig(newton_rtol=1e-10, krylov_rtol=1e-11, newton_maxit=40)
        u1, w1, st1 = dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.02,
                               tableau, cfg, mode="coupled")
        u2, w2, st2 = dae_step(problem.system, problem.u0, problem.w0, 0.0, 0.02,
                               tableau, cfg, mode="reordered")
        assert np.max(np.abs(u1 - u2)) <= 1e-8
        assert st1.constraint_residual <= 1e-9
        assert st2.constraint_residual <= 1e-9

    def test_short_integration_runs(self):
        problem = make_problem("shear_layer_small", n=12)
        tableau = make_tableau("gauss", 2)
        cfg = SolverConfig(newton_rtol=1e-9, krylov_rtol=1e-10, newton_maxit=40)
        res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.04, 0.02,
                            tableau, cfg)
        assert len(res.u_states) == 3
        assert np.all(np.isfinite(res.u_final))


def test_gauss_constraint_drift_recorded_not_asserted(capsys):
    # non-stiffly-accurate schemes may drift off the constraint manifold;
    # the drift is reported through the stats stream, not asserted
    problem = make_problem("dae_manufactured")
    res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.5, 0.1,
                        make_tableau("gauss", 2), TIGHT)
    drift = max(st.constraint_residual for st in res.step_stats)
    print(f"gauss(2) constraint drift over 5 steps: {drift:.3e}")
    assert np.isfinite(drift)


def test_dae_step_stats_csv_includes_solver_split(tmp_path):
    from irkit.nonlinear import write_step_stats_csv

    problem = make_problem("dae_manufactured")
    res = dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.2, 0.1,
                        make_tableau("radau_iia", 2), TIGHT)
    assert all(st.constraint_solves > 0 for st in res.step_stats)
    path = tmp_path / "daesteps.csv"
    write_step_stats_csv(res, path)
    header = path.read_text().splitlines()[0]
    assert "differential_solves" in header and "constraint_solves" in header
