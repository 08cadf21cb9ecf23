from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from irkit import nonlinear
from irkit.dae import DaeIntegrationResult, DaeOps, dae_integrate, dae_step
from irkit.errors import ConfigurationError, StageSolveError, StepFailureError
from irkit.irk_core import PrecondSpec, ShiftedSolver
from irkit.nonlinear import (
    DIVERGENCE_STREAK,
    IntegrationResult,
    OdeSystem,
    SolverConfig,
    StageState,
    StepStats,
    build_variant_jacobian,
    integrate,
    newton_like_step,
    richardson,
    stage_residual,
    step,
    variant_weights,
)
from irkit.problems import make_problem
from irkit.sparsela import SparseMatrix, combine
from irkit.tableau import make_tableau, prepare_stages

TIGHT = SolverConfig(newton_rtol=1e-12, krylov_rtol=1e-12)


def logistic_system():
    def rhs(u, t):
        return u * (1.0 - u)

    def linearize(u, t):
        return SparseMatrix(np.array([[1.0 - 2.0 * u[0]]]))

    return OdeSystem(dim=1, rhs=rhs, linearize=linearize, name="logistic")


def dense_stage_matrix(tableau, lmats, dt):
    s = tableau.s
    n = lmats[0].n
    big = np.kron(np.eye(s), np.eye(n))
    for i in range(s):
        for j in range(s):
            big[i * n : (i + 1) * n, j * n : (j + 1) * n] -= (
                dt * tableau.a0[i, j] * lmats[i].to_dense()
            )
    return big


class TestStageResidual:
    def test_zero_at_exact_linear_solution(self):
        problem = make_problem("advdiff1d", n=16)
        tableau = make_tableau("gauss", 2)
        dt = 0.05
        lmat = problem.operator
        rhs = np.vstack([lmat @ problem.u0] * 2)
        big = dense_stage_matrix(tableau, [lmat, lmat], dt)
        k = np.linalg.solve(big, rhs.ravel()).reshape(2, 16)
        st = StageState(k=k, u=problem.u0, t=0.0, dt=dt)
        res = stage_residual(problem.system, st, tableau)
        assert np.max(np.abs(res)) <= 1e-12

    def test_zero_guess_gives_rhs_at_base_point(self):
        lam = -3.0
        mat = SparseMatrix(np.array([[lam]]))
        sys = OdeSystem(1, lambda u, t: mat @ u, lambda u, t: mat)
        tableau = make_tableau("gauss", 2)
        st = StageState(k=np.zeros((2, 1)), u=np.array([2.0]), t=0.0, dt=0.1)
        res = stage_residual(sys, st, tableau)
        assert np.allclose(res, lam * 2.0)

    def test_dahlquist_hand_arithmetic(self):
        # lam = -2, u = 1, k = (1, 1): row sums give U_i = 1 + dt*c_i, so the
        # residual is -2 (1 + dt c_i) - 1 = -3.5 -+ sqrt(3)/6 at dt = 1/2
        lam = -2.0
        mat = SparseMatrix(np.array([[lam]]))
        sys = OdeSystem(1, lambda u, t: mat @ u, lambda u, t: mat)
        tableau = make_tableau("gauss", 2)
        st = StageState(k=np.ones((2, 1)), u=np.array([1.0]), t=0.0, dt=0.5)
        res = stage_residual(sys, st, tableau).ravel()
        r3 = np.sqrt(3.0)
        assert res[0] == pytest.approx(-3.5 + r3 / 6.0, abs=1e-14)
        assert res[1] == pytest.approx(-3.5 - r3 / 6.0, abs=1e-14)


class TestVariantJacobian:
    def test_equal_operators_collapse(self):
        prep = prepare_stages(make_tableau("radau_iia", 3))
        lmat = make_problem("heat1d", n=12).operator
        ops = [lmat] * 3
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12)
        mats = [build_variant_jacobian(prep, ops, v) for v in range(4)]
        for v, vj in enumerate(mats):
            for i in range(3):
                assert np.allclose(vj.diag[i] @ x, lmat @ x, atol=1e-12), v
        # couplings are zero-sum combinations of identical operators
        for key, od in mats[3].offdiag.items():
            assert np.max(np.abs(od @ x)) <= 1e-12 * np.max(np.abs(lmat @ x))

    def test_gauss2_lump_selects_each_stage(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        l1 = SparseMatrix(np.array([[1.0]]))
        l2 = SparseMatrix(np.array([[10.0]]))
        vj = build_variant_jacobian(prep, [l1, l2], 1)
        picked = sorted(float(vj.diag[i].to_dense()[0, 0]) for i in range(2))
        assert picked == [1.0, 10.0]

    def test_gauss4_dominant_weights_match_published_pattern(self):
        # the four diagonal rows lump onto four distinct stages, with
        # dominant weights {0.970, 0.975, 0.863, 0.883} (any row order)
        prep = prepare_stages(make_tableau("gauss", 4))
        dominants = []
        picked = []
        for i in range(4):
            w = prep.d[i, i]
            picked.append(int(np.argmax(np.abs(w))))
            dominants.append(abs(w[np.argmax(np.abs(w))]))
        assert sorted(picked) == [0, 1, 2, 3]
        assert np.allclose(
            sorted(dominants), sorted([0.970, 0.975, 0.863, 0.883]), atol=1.5e-3
        )

    def test_variant0_uses_configured_stage(self):
        # variant 0 linearizes every row at stage 0
        prep = prepare_stages(make_tableau("radau_iia", 2))
        l1 = SparseMatrix(np.array([[1.0]]))
        l2 = SparseMatrix(np.array([[10.0]]))
        vj = build_variant_jacobian(prep, [l1, l2], 0)
        assert [float(op.to_dense()[0, 0]) for op in vj.diag] == [1.0, 1.0]

    def test_wrong_operator_count_rejected(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        lmat = SparseMatrix(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="expected 2 stage operators, got 1"):
            build_variant_jacobian(prep, [lmat], 2)

    def test_variant3_offdiag_keys(self):
        prep = prepare_stages(make_tableau("gauss", 4))
        dw, ow = variant_weights(prep, 3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert (i, j) in ow
        for blk in prep.blocks:
            if blk.size == 2:
                assert (blk.offset + 1, blk.offset) in ow


def random_stage_operators(kind, s, rng):
    """Stage operators of one ``kind``: one object for every stage
    (``identical``), distinct values on one pattern (``distinct``), distinct
    patterns (``patterns``), or ``DaeOps`` composites with a coupled or a
    structurally zero ``L_w`` (``dae``, ``dae_lw0``)."""
    band = SparseMatrix(sp.diags([1.0, 1.0, 1.0, 1.0], [-1, 0, 1, 5], shape=(6, 6))).pattern
    if kind == "identical":
        return [SparseMatrix.on_pattern(band, rng.standard_normal(band.nnz))] * s
    if kind == "distinct":
        return [SparseMatrix.on_pattern(band, rng.standard_normal(band.nnz)) for _ in range(s)]
    if kind == "patterns":
        return [SparseMatrix(sp.random(6, 6, density=0.4, random_state=rng) + sp.eye(6))
                for _ in range(s)]
    nu, nw = 3, 2
    return [DaeOps(SparseMatrix(rng.standard_normal((nu, nu))),
                   SparseMatrix(np.zeros((nu, nw)) if kind == "dae_lw0"
                                else rng.standard_normal((nu, nw))),
                   SparseMatrix(rng.standard_normal((nw, nu))),
                   SparseMatrix(rng.standard_normal((nw, nw))))
            for _ in range(s)]


def assert_same_bits(got, want):
    """Equal patterns and bit-identical values, signed zeros included."""
    for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
        assert g.pattern is w.pattern and g.data.tobytes() == w.data.tobytes()


class TestOnePassAssembly:
    """``build_variant_jacobian`` takes all sums of a linearization in one pass,
    bit for bit what one ``combine`` per operator gives."""

    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    @pytest.mark.parametrize("s", [2, 3, 4])
    @pytest.mark.parametrize("family", ["gauss", "radau_iia", "lobatto_iiic"])
    def test_matches_one_combine_per_operator(self, family, s, variant):
        prep = prepare_stages(make_tableau(family, s))
        dw, ow = variant_weights(prep, variant)
        rng = np.random.default_rng(100 * s + variant)
        for kind in ("identical", "distinct", "patterns", "dae", "dae_lw0"):
            ops = random_stage_operators(kind, s, rng)

            def per_operator(w):
                if isinstance(ops[0], tuple):
                    return DaeOps(*(combine(w, part) for part in zip(*ops)))
                return combine(w, ops)

            vjac = build_variant_jacobian(prep, ops, variant)
            assert len(vjac.diag) == s
            for i in range(s):
                assert_same_bits(vjac.diag[i], per_operator(dw[i]))
            if kind != "identical":  # one object drops its roundoff couplings
                assert set(vjac.offdiag) == set(ow)
            for key, op in vjac.offdiag.items():
                assert_same_bits(op, per_operator(ow[key]))

    def test_memoized_on_the_last_stage_operator(self):
        prep = prepare_stages(make_tableau("radau_iia", 3))
        ops = random_stage_operators("distinct", 3, np.random.default_rng(1))
        first = build_variant_jacobian(prep, ops, 3)
        again = build_variant_jacobian(prep, ops, 3)
        assert all(a is b for a, b in zip(first.diag, again.diag))
        assert all(first.offdiag[k] is again.offdiag[k] for k in first.offdiag)
        other = build_variant_jacobian(prep, [ops[1], ops[0], ops[2]], 3)
        assert other.diag[0] is not first.diag[0]

    def test_operators_are_read_only(self):
        prep = prepare_stages(make_tableau("gauss", 3))
        ops = random_stage_operators("distinct", 3, np.random.default_rng(2))
        vjac = build_variant_jacobian(prep, ops, 3)
        for op in (*vjac.diag, *vjac.offdiag.values()):
            with pytest.raises(ValueError, match="read-only"):
                op.data[0] = 1.0
            with pytest.raises(ValueError):
                op.data.setflags(write=True)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sum_raises(self):
        # every stage operator is finite; weights four times the tableau's
        # carry their sum past the float range
        prep = prepare_stages(make_tableau("radau_iia", 3))
        big = replace(prep, d=4.0 * prep.d)
        ops = [SparseMatrix(np.full((2, 2), 1e308)) for _ in range(3)]
        with pytest.raises(ValueError, match="non-finite"):
            build_variant_jacobian(big, ops, 2)
        with pytest.raises(StepFailureError, match="linearization failed") as err:
            richardson(lambda x: np.ones(2), lambda x: build_variant_jacobian(big, ops, 2),
                       None, np.zeros(2), SolverConfig(), 3)
        assert err.value.stats.newton_iterations == 0
        assert err.value.stats.jacobian_assemblies == 0


class TestNewton:
    def test_linear_problem_single_iteration(self):
        problem = make_problem("heat1d", n=24)
        for variant in range(4):
            cfg = SolverConfig(variant=variant, newton_rtol=1e-11, krylov_rtol=1e-12)
            _, stats = step(
                problem.system, problem.u0, 0.0, 0.01, make_tableau("gauss", 3), cfg
            )
            assert stats.newton_iterations == 1, variant

    def test_variant_collapse_on_linear_problem(self):
        problem = make_problem("advdiff1d", n=20)
        results = []
        for variant in range(4):
            cfg = SolverConfig(variant=variant, newton_rtol=1e-12, krylov_rtol=1e-13)
            u1, _ = step(
                problem.system, problem.u0, 0.0, 0.02, make_tableau("radau_iia", 3), cfg
            )
            results.append(u1)
        for u in results[1:]:
            assert np.max(np.abs(u - results[0])) <= 1e-12

    def test_logistic_quadratic_convergence(self):
        # two-stage Gauss has no transform truncation, so the richest
        # variant is an exact Newton iteration with quadratic residual decay
        sys = logistic_system()
        tableau = make_tableau("gauss", 2)
        prep = prepare_stages(tableau)
        cfg = SolverConfig(variant=3, newton_rtol=1e-14, krylov_rtol=1e-14,
                           newton_abs_floor=1e-15)
        st = StageState(k=np.zeros((2, 1)), u=np.array([0.5]), t=0.0, dt=0.1)
        _, stats = newton_like_step(sys, st, prep, cfg)
        hist = [r for r in stats.residual_history if r > 1e-14]
        orders = [
            np.log(hist[i + 1] / hist[i]) / np.log(hist[i] / hist[i - 1])
            for i in range(1, len(hist) - 1)
        ]
        assert any(1.7 <= p <= 2.3 for p in orders), stats.residual_history

    def test_logistic_matches_dense_newton_oracle(self):
        sys = logistic_system()
        tableau = make_tableau("gauss", 2)
        dt = 0.1
        u0 = np.array([0.5])
        # dense Newton on the raw 2-unknown stage system
        k = np.zeros(2)
        for _ in range(20):
            u_stage = u0[0] + dt * (tableau.a0 @ k)
            f = u_stage * (1 - u_stage) - k
            jac = dt * np.diag(1 - 2 * u_stage) @ tableau.a0 - np.eye(2)
            k = k - np.linalg.solve(jac, f)
        u_oracle = u0[0] + dt * (tableau.b0 @ k)
        u1, _ = step(sys, u0, 0.0, dt, tableau, TIGHT)
        assert u1[0] == pytest.approx(u_oracle, abs=1e-12)

    def test_burgers_variant0_needs_at_least_variant3(self):
        problem = make_problem("burgers1d", n=128, nu=0.02)
        its = {}
        for variant in (0, 3):
            cfg = SolverConfig(variant=variant, newton_rtol=1e-9, krylov_rtol=1e-6,
                               newton_maxit=60)
            _, stats = step(
                problem.system, problem.u0, 0.0, 0.2, make_tableau("radau_iia", 2), cfg
            )
            its[variant] = stats.newton_iterations
        assert its[0] >= its[3]

    def test_divergence_stops_before_newton_maxit(self):
        # simplified Newton (variant 0) on a steep Burgers front with a large
        # step: the residual grows from the first iteration and, without the
        # divergence check, runs all 30 iterations to a "stalled" failure
        problem = make_problem("burgers1d", n=128, nu=0.005)
        cfg = SolverConfig(variant=0)
        with pytest.raises(StepFailureError, match="diverged") as err:
            step(problem.system, problem.u0, 0.0, 0.5, make_tableau("radau_iia", 2), cfg)
        stats = err.value.stats
        assert stats.newton_iterations == DIVERGENCE_STREAK < cfg.newton_maxit
        hist = stats.residual_history[-DIVERGENCE_STREAK - 1 :]
        assert all(a < b for a, b in zip(hist, hist[1:]))

    @staticmethod
    def _richardson_on(norms, stats):
        """Run ``richardson`` on a scalar iteration whose residual norms are
        ``norms``, one per iterate; returns the iterate it stopped at."""
        x, _ = richardson(lambda x: np.array([norms[int(x)]]), lambda x: None,
                          lambda jac, res: (1.0, []), 0.0,
                          SolverConfig(), 1, stats=stats)
        return x

    def test_divergence_counts_within_one_call(self):
        # DIRK stages share one StepStats: growth left in the history by an
        # earlier call does not count towards this call's streak
        stats = StepStats(residual_history=[1.0, 2.0, 3.0])
        assert self._richardson_on([4.0, 5.0, 6.0, 0.0], stats) == 3.0
        with pytest.raises(StepFailureError, match="grew in 3 consecutive"):
            self._richardson_on([4.0, 5.0, 6.0, 7.0, 0.0], StepStats())

    def test_step_failure_carries_stats(self):
        problem = make_problem("burgers1d", n=64, nu=0.02)
        cfg = SolverConfig(newton_maxit=1, newton_rtol=1e-13, krylov_rtol=1e-8)
        with pytest.raises(StepFailureError) as err:
            step(problem.system, problem.u0, 0.0, 0.5, make_tableau("gauss", 2), cfg)
        assert err.value.stats is not None
        assert err.value.stats.newton_iterations == 1

    def test_inner_solve_counts_add_up_over_calls_and_on_failure(self):
        # richardson adds its own share of the running totals to the stats it
        # was given, as DIRK's per-stage calls do, also when it raises
        def solve(jac, res):
            nonlinear.COUNTERS.differential += 2
            nonlinear.COUNTERS.constraint += 3
            return 1.0, []

        def run(stats, after=0.0):  # one iteration, then the residual is ``after``
            return richardson(lambda x: np.array([1.0 if x < 1.0 else after]),
                              lambda x: None, solve, 0.0, SolverConfig(newton_maxit=1), 1,
                              stats=stats)

        stats = StepStats()
        run(stats)
        run(stats)
        assert (stats.differential_solves, stats.constraint_solves) == (4, 6)
        with pytest.raises(StepFailureError, match="stalled") as err:
            nonlinear.COUNTERS.differential += 100  # outside the call: not counted
            run(StepStats(), after=1.0)
        failed = err.value.stats
        assert (failed.differential_solves, failed.constraint_solves) == (2, 3)


class TestTimeArguments:
    """Time arguments a run or a step cannot march are rejected before any
    ``rhs`` call."""

    @staticmethod
    def counted(problem, calls):
        rhs = problem.system.rhs
        return replace(problem.system, rhs=lambda *args: calls.append(args) or rhs(*args))

    @pytest.mark.parametrize("t_final,dt", [(0.2, -0.1), (-0.2, 0.1), (0.2, 0.0),
                                            (0.2, np.nan), (np.nan, 0.1), (0.2, np.inf)],
                             ids=["negative-dt", "backward", "zero-dt", "nan-dt",
                                  "nan-t-final", "inf-dt"])
    @pytest.mark.parametrize("path", ["ode", "dae"])
    def test_run_rejects_before_any_step(self, path, t_final, dt):
        calls = []
        with pytest.raises(ConfigurationError, match="0 < dt < inf and t0 <= t_final") as err:
            if path == "dae":
                problem = make_problem("dae_manufactured")
                dae_integrate(self.counted(problem, calls), problem.u0, problem.w0, 0.0,
                              t_final, dt, make_tableau("radau_iia", 2))
            else:
                problem = make_problem("dahlquist")
                integrate(self.counted(problem, calls), problem.u0, 0.0, t_final, dt,
                          make_tableau("gauss", 2))
        assert calls == [] and err.value.partial is None

    @pytest.mark.parametrize("every", [0, -1, 1.5, True, "2"])
    def test_bad_snapshot_every_rejected_before_any_step(self, every):
        # 0 divided by zero after the first step's work, -1 kept every state
        # and 1.5 was accepted; none of them is a count of steps
        calls = []
        problem = make_problem("dahlquist")
        with pytest.raises(ConfigurationError, match="snapshot_every") as err:
            integrate(self.counted(problem, calls), problem.u0, 0.0, 0.3, 0.1,
                      make_tableau("gauss", 2), snapshot_every=every)
        assert calls == [] and err.value.partial is None

    @pytest.mark.parametrize("every,kept", [(None, 4), (1, 4), (np.int64(2), 3), (5, 2)])
    def test_snapshot_every_counts_steps(self, every, kept):
        problem = make_problem("dahlquist")
        res = integrate(problem.system, problem.u0, 0.0, 0.3, 0.1, make_tableau("gauss", 2),
                        snapshot_every=every)
        assert len(res.states) == len(res.times) == kept and len(res.step_stats) == 3

    def test_empty_run_keeps_the_initial_state(self):
        problem = make_problem("dahlquist")
        res = integrate(problem.system, problem.u0, 0.5, 0.5, 0.1, make_tableau("gauss", 2))
        assert list(res.times) == [0.5] and res.step_stats == []

    @pytest.mark.parametrize("dt", [-0.1, 0.0, np.nan, np.inf])
    @pytest.mark.parametrize("path,family", [("ode", "gauss"), ("ode", "sdirk2"),
                                             ("dae", "radau_iia")])
    def test_step_rejects_before_any_rhs_call(self, path, family, dt):
        calls = []
        tableau = make_tableau(family, 2) if family != "sdirk2" else make_tableau(family)
        with pytest.raises(ValueError, match="dt must be positive"):
            if path == "dae":
                problem = make_problem("dae_manufactured")
                dae_step(self.counted(problem, calls), problem.u0, problem.w0, 0.0, dt,
                         tableau)
            else:
                problem = make_problem("dahlquist")
                step(self.counted(problem, calls), problem.u0, 0.0, dt, tableau)
        assert calls == []


INEXACT = SolverConfig(precond=PrecondSpec(inner=2))


def pre_step_rows():
    """Every rejection before a first step, as ``(path, entry, arguments, calls)``.

    ``arguments`` override a valid call of ``step``/``dae_step`` or
    ``integrate``/``dae_integrate``; ``calls`` are the run's own checks at
    ``(u0, w0, t0)`` made before the rejection: the consistency check's
    ``constraint`` call and the reordered check's ``blocks`` call.
    """
    dts = {"negative-dt": {"dt": -0.1}, "zero-dt": {"dt": 0.0}, "nan-dt": {"dt": np.nan},
           "inf-dt": {"dt": np.inf}}
    run_times = {"backward": {"t_final": -0.2}, "nan-t-final": {"t_final": np.nan},
                 "non-integer-steps": {"t_final": 0.25}}
    options = {"mode": {"mode": "foo"}, "inner-coupled": {"cfg": INEXACT},
               "inner-reordered": {"cfg": INEXACT, "mode": "reordered"},
               "dirk-tableau": {"family": "sdirk2"}}
    for path in ("ode", "dirk", "dae"):
        for entry in ("step", "run"):
            dae_run = (path, entry) == ("dae", "run")
            rows = {"mis-sized-u": ({"u": np.zeros(2)}, [])}
            if path == "dae":
                rows["mis-sized-w"] = ({"w": np.zeros(2)}, [])
                rows |= {name: (args, []) for name, args in options.items()}
            # march checks a run's time arguments, after the DAE consistency check
            rows |= {name: (args, ["constraint"] if dae_run else [])
                     for name, args in (dts | run_times if entry == "run" else dts).items()}
            if dae_run:
                rows["inconsistent-w0"] = ({"w": np.zeros(1)}, ["constraint"])
                rows["reordered-nonzero-lw"] = ({"mode": "reordered"}, ["constraint", "blocks"])
            elif entry == "run":
                rows |= {f"snapshot-every-{every!r}": ({"snapshot_every": every}, [])
                         for every in (0, -1, 1.5, True, "2")}
            if entry == "step":  # a prep built for another tableau
                rows["mismatched-prep"] = ({"prep": prepare_stages(make_tableau("gauss", 2))}, [])
            for name, (args, calls) in rows.items():
                yield pytest.param(path, entry, args, calls, id=f"{path}-{entry}-{name}")


class TestPreStepRejections:
    """One contract for a run or step rejected before its first step, on the
    ODE, DIRK and DAE paths alike: options, data, time arguments and
    ``snapshot_every`` each raise a ``ConfigurationError`` with ``partial is
    None``, and no ``rhs``, ``linearize``, ``constraint`` or ``blocks`` call
    is made other than the run's own checks at the initial point."""

    @pytest.mark.parametrize("path,entry,args,want", pre_step_rows())
    def test_rejected_before_any_work(self, path, entry, args, want):
        calls = []

        def counted(name, fn):
            return lambda *a: calls.append(name) or fn(*a)

        problem = make_problem("dae_manufactured" if path == "dae" else "dahlquist")
        sys = problem.system
        names = ("rhs", "constraint", "blocks") if path == "dae" else ("rhs", "linearize")
        sys = replace(sys, **{name: counted(name, getattr(sys, name)) for name in names})
        args = {"u": problem.u0, "w": problem.w0, "dt": 0.1, "t_final": 0.2,
                "cfg": SolverConfig(), "mode": "coupled",
                "family": "sdirk2" if path == "dirk" else "radau_iia", **args}
        tableau = make_tableau(args.pop("family"), 2)
        with pytest.raises(ConfigurationError) as err:
            if path == "dae" and entry == "step":
                dae_step(sys, args["u"], args["w"], 0.0, args["dt"], tableau, args["cfg"],
                         prep=args.get("prep"), mode=args["mode"])
            elif path == "dae":
                dae_integrate(sys, args["u"], args["w"], 0.0, args["t_final"], args["dt"],
                              tableau, args["cfg"], mode=args["mode"])
            elif entry == "step":
                step(sys, args["u"], 0.0, args["dt"], tableau, args["cfg"], prep=args.get("prep"))
            else:
                integrate(sys, args["u"], 0.0, args["t_final"], args["dt"], tableau, args["cfg"],
                          snapshot_every=args.get("snapshot_every"))
        assert err.value.partial is None
        assert calls == want


class TestStepAndIntegrate:
    def test_zero_rhs_keeps_state(self):
        zero = SparseMatrix(np.zeros((3, 3)))
        sys = OdeSystem(3, lambda u, t: np.zeros(3), lambda u, t: zero)
        u0 = np.array([1.0, -2.0, 3.0])
        u1, _ = step(sys, u0, 0.0, 0.1, make_tableau("radau_iia", 2), TIGHT)
        assert np.allclose(u1, u0, atol=1e-14)

    def test_backward_euler_closed_form(self):
        problem = make_problem("dahlquist", lam_re=-1.0)
        u1, stats = step(problem.system, problem.u0, 0.0, 0.1, make_tableau("radau_iia", 1), TIGHT)
        assert u1[0] == pytest.approx(1.0 / 1.1, rel=1e-13)
        assert stats.newton_iterations == 1
        assert stats.krylov_iterations == 1

    def test_midpoint_closed_form(self):
        problem = make_problem("dahlquist", lam_re=-1.0)
        u1, _ = step(problem.system, problem.u0, 0.0, 0.1, make_tableau("gauss", 1), TIGHT)
        assert u1[0] == pytest.approx(0.95 / 1.05, rel=1e-13)

    def test_zero_steps(self):
        problem = make_problem("dahlquist")
        res = integrate(problem.system, problem.u0, 0.0, 0.0, 0.1,
                        make_tableau("gauss", 1), TIGHT)
        assert len(res.states) == 1
        assert np.allclose(res.states[0], problem.u0)

    def test_ten_steps_match_closed_form_per_step(self):
        problem = make_problem("dahlquist", lam_re=-1.0)
        tableau = make_tableau("gauss", 1)
        dt = 0.1
        per = (1 - dt / 2) / (1 + dt / 2)
        res = integrate(problem.system, problem.u0, 0.0, 1.0, dt, tableau, TIGHT)
        assert res.u_final[0] == pytest.approx(per**10, abs=1e-13)

    @pytest.mark.parametrize("variant", [True, False, 4, -1, 1.5])
    def test_bad_variant_rejected(self, variant):
        # a bool is an int to Python, but not a variant number
        with pytest.raises(ConfigurationError, match="variant must be 0..3"):
            SolverConfig(variant=variant)

    @pytest.mark.parametrize("bad", [dict(krylov_maxit=2.5), dict(newton_maxit=0),
                                     dict(krylov_maxit=True), dict(newton_abs_floor=np.nan),
                                     dict(newton_abs_floor=-1.0), dict(newton_rtol=0.0),
                                     dict(krylov_rtol=1.0), dict(newton_rtol=np.nan)])
    def test_bad_budget_or_floor_rejected(self, bad):
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            SolverConfig(**bad)

    @pytest.mark.parametrize("bad, fragment", [
        (dict(jacobian_refresh="sometimes"), "unknown jacobian_refresh 'sometimes'"),
    ], ids=["refresh"])
    def test_bad_tolerance_or_refresh_rejected(self, bad, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            SolverConfig(**bad)

    def test_numpy_integer_budgets_accepted(self):
        cfg = SolverConfig(newton_maxit=np.int64(3), krylov_maxit=np.int64(3))
        assert (cfg.newton_maxit, cfg.krylov_maxit) == (3, 3)

    def test_prep_for_another_tableau_rejected(self):
        # a Radau prep under a Gauss step would solve the wrong stage system
        problem = make_problem("heat1d", n=32)
        gauss = make_tableau("gauss", 2)
        with pytest.raises(ConfigurationError, match=r"prep was built for radau_iia\(2\)"):
            step(problem.system, problem.u0, 0.0, 0.01, gauss,
                 prep=prepare_stages(make_tableau("radau_iia", 2)))
        # a prep of an equal tableau built separately is the same stage system
        want, _ = step(problem.system, problem.u0, 0.0, 0.01, gauss)
        got, _ = step(problem.system, problem.u0, 0.0, 0.01, gauss,
                      prep=prepare_stages(make_tableau("gauss", 2)))
        assert np.array_equal(got, want)

    def test_non_integer_step_count_rejected(self):
        problem = make_problem("dahlquist")
        with pytest.raises(ConfigurationError):
            integrate(problem.system, problem.u0, 0.0, 1.0, 0.3,
                      make_tableau("gauss", 1), TIGHT)

    def test_snapshot_cadence(self):
        problem = make_problem("dahlquist")
        res = integrate(problem.system, problem.u0, 0.0, 1.0, 0.1,
                        make_tableau("gauss", 1), TIGHT, snapshot_every=5)
        assert len(res.states) == 3  # initial, t=0.5, t=1.0

    def test_mass_matrix_dahlquist(self):
        # 2 u' = -u  ->  u(t) = exp(-t/2) u0
        mass = SparseMatrix(np.array([[2.0]]))
        mat = SparseMatrix(np.array([[-1.0]]))
        sys = OdeSystem(1, lambda u, t: mat @ u, lambda u, t: mat, mass=mass)
        res = integrate(sys, np.array([1.0]), 0.0, 0.5, 0.05,
                        make_tableau("gauss", 3), TIGHT)
        assert res.u_final[0] == pytest.approx(np.exp(-0.25), abs=1e-10)

    def test_integration_failure_attaches_partial(self):
        problem = make_problem("burgers1d", n=64, nu=0.02)
        cfg = SolverConfig(newton_maxit=1, newton_rtol=1e-13, krylov_rtol=1e-8)
        with pytest.raises(StepFailureError) as err:
            integrate(problem.system, problem.u0, 0.0, 1.0, 0.5,
                      make_tableau("gauss", 2), cfg)
        assert err.value.partial is not None
        assert len(err.value.partial.states) >= 1

    @pytest.mark.parametrize("path", ["ode", "dae", "dirk"])
    def test_stage_solve_failure_attaches_partial(self, path):
        # one Krylov iteration cannot reach 1e-12, so the first step raises
        # StageSolveError, which must carry the trajectory like a Newton stall;
        # the DIRK 1x1 blocks need an inexact inner solve, since with the
        # exact one a single iteration already converges to roundoff
        cfg = SolverConfig(krylov_maxit=1, krylov_rtol=1e-12)
        tableau = make_tableau("radau_iia", 3)
        with pytest.raises(StageSolveError) as err:
            if path == "dae":
                problem = make_problem("dae_manufactured")
                dae_integrate(problem.system, problem.u0, problem.w0, 0.0, 0.2, 0.1,
                              tableau, cfg)
            else:
                if path == "dirk":
                    tableau = make_tableau("sdirk2")
                    cfg = replace(cfg, precond=PrecondSpec(inner=1))
                problem = make_problem("burgers1d", n=64, nu=0.02)
                integrate(problem.system, problem.u0, 0.0, 0.1, 0.05, tableau, cfg)
        partial = err.value.partial
        assert partial is not None
        assert list(partial.times) == [0.0] and partial.step_stats == []
        assert err.value.report is not None and not err.value.report.converged
        # the failed step's stats count every solve of its sweep, the failing one too
        stats, reports = err.value.stats, err.value.reports
        assert reports[-1] == (err.value.block_offset, err.value.report)
        assert not stats.converged and stats.newton_iterations == 0
        assert stats.krylov_iterations == sum(rep.iterations for _, rep in reports) > 0
        assert stats.block_iterations[err.value.block_offset] == [err.value.report.iterations]

    @pytest.mark.parametrize("path", ["ode", "dirk", "dae"])
    def test_non_finite_residual_fails_fast(self, path):
        # a NaN in the state must stop the step before any Krylov work
        if path == "dae":
            problem = make_problem("dae_manufactured")
            u0 = np.array(problem.u0, dtype=float)
            u0[0] = np.nan
            with pytest.raises(StepFailureError, match="non-finite") as err:
                dae_step(problem.system, u0, problem.w0, 0.0, 0.1,
                         make_tableau("radau_iia", 2))
        else:
            problem = make_problem("burgers1d", n=64, nu=0.02)
            u0 = np.array(problem.u0, dtype=float)
            u0[3] = np.nan
            tableau = make_tableau("radau_iia", 2) if path == "ode" else make_tableau("sdirk2")
            with pytest.raises(StepFailureError, match="non-finite") as err:
                step(problem.system, u0, 0.0, 0.05, tableau)
        assert err.value.stats.krylov_iterations == 0
        assert err.value.stats.newton_iterations == 0

    @pytest.mark.parametrize("family,which", [("gauss", "u"), ("sdirk2", "u"), ("gauss", "u0")],
                             ids=["gauss", "sdirk2", "integrate"])
    def test_mis_sized_state_fails_fast(self, family, which):
        # named before any work, not a numpy broadcasting error deep in the step
        problem = make_problem("heat1d", n=8)
        tableau = make_tableau(family, 2) if family == "gauss" else make_tableau(family)
        with pytest.raises(ValueError, match=rf"{which} has shape \(9,\); expected length dim = 8"):
            if which == "u":
                step(problem.system, np.zeros(9), 0.0, 1e-3, tableau)
            else:
                integrate(problem.system, np.zeros(9), 0.0, 2e-3, 1e-3, tableau)

    @pytest.mark.parametrize("which", ["u", "w", "u0", "w0"])
    def test_mis_sized_dae_state_fails_fast(self, which):
        problem = make_problem("dae_manufactured")
        state = {"u": problem.u0, "w": problem.w0}
        state[which[0]] = np.zeros(2)
        dim = "dim_u" if which[0] == "u" else "dim_w"
        with pytest.raises(ValueError,
                           match=rf"{which} has shape \(2,\); expected length {dim} = 1"):
            if which in ("u", "w"):
                dae_step(problem.system, state["u"], state["w"], 0.0, 0.1,
                         make_tableau("radau_iia", 2))
            else:
                dae_integrate(problem.system, state["u"], state["w"], 0.0, 0.2, 0.1,
                              make_tableau("radau_iia", 2))

    @pytest.mark.parametrize("path", ["ode", "dirk", "dae"])
    def test_non_finite_jacobian_attaches_partial(self, path):
        # the residual stays finite but the Jacobian turns NaN at t >= 0.25, so
        # building its SparseMatrix raises ValueError in the third step
        def poison(op, t):
            return SparseMatrix(op.csr * (1.0 if t < 0.25 else np.nan))

        tableau = make_tableau("sdirk2") if path == "dirk" else make_tableau("radau_iia", 2)
        with pytest.raises(StepFailureError, match="linearization failed") as err:
            if path == "dae":
                problem = make_problem("dae_manufactured")

                def blocks(u, w, t):
                    lu, *rest = problem.system.blocks(u, w, t)
                    return (poison(lu, t), *rest)

                sys = replace(problem.system, blocks=blocks)
                dae_integrate(sys, problem.u0, problem.w0, 0.0, 0.5, 0.1, tableau)
            else:
                problem = make_problem("dahlquist")
                lin = problem.system.linearize
                sys = replace(problem.system, linearize=lambda u, t: poison(lin(u, t), t))
                integrate(sys, problem.u0, 0.0, 0.5, 0.1, tableau)
        assert isinstance(err.value.__cause__, ValueError)
        assert err.value.stats is not None
        assert np.allclose(err.value.partial.times, [0.0, 0.1, 0.2])
        assert len(err.value.partial.step_stats) == 2
        # one result type: a DAE run's partial holds its (u, w) pairs as states
        partial = err.value.partial
        assert isinstance(partial, DaeIntegrationResult if path == "dae" else IntegrationResult)
        assert len(partial.states) == 3


class TestSdirkPath:
    def test_sdirk1_matches_backward_euler(self):
        problem = make_problem("dahlquist", lam_re=-1.0)
        u1, stats = step(problem.system, problem.u0, 0.0, 0.1,
                         make_tableau("sdirk1"), TIGHT)
        assert u1[0] == pytest.approx(1.0 / 1.1, rel=1e-13)
        assert stats.krylov_iterations == stats.precond_applications

    @pytest.mark.parametrize("family,order", [("sdirk2", 2), ("sdirk3", 3), ("sdirk4", 4)])
    def test_sdirk_orders(self, family, order):
        problem = make_problem("dahlquist", lam_re=-1.0)
        tableau = make_tableau(family)
        errs = []
        for dt in (0.2, 0.1):
            res = integrate(problem.system, problem.u0, 0.0, 1.0, dt, tableau, TIGHT)
            errs.append(abs(res.u_final[0] - np.exp(-1.0)))
        rate = np.log2(errs[0] / errs[1])
        assert rate >= order - 0.3

    def test_sdirk_on_burgers_counts_applications_singly(self):
        problem = make_problem("burgers1d", n=64, nu=0.02)
        cfg = SolverConfig(newton_rtol=1e-9, krylov_rtol=1e-6)
        _, stats = step(problem.system, problem.u0, 0.0, 0.05,
                        make_tableau("sdirk2"), cfg)
        assert stats.precond_applications == stats.krylov_iterations
        # each stage's solves are counted under its stage index
        assert sorted(stats.block_iterations) == [0, 1]
        assert sum(map(sum, stats.block_iterations.values())) == stats.krylov_iterations

    @pytest.mark.parametrize("refresh", ["every", "frozen"])
    def test_one_stage_solver_per_linearization(self, monkeypatch, refresh):
        # a frozen stage keeps its linearization over several Richardson
        # iterations, and its plan's shifted solver with it
        built = []
        init = ShiftedSolver.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ShiftedSolver, "__init__", spy)
        problem = make_problem("burgers1d", n=64)
        _, stats = step(problem.system, problem.u0, 0.0, 1e-2, make_tableau("sdirk3"),
                        SolverConfig(jacobian_refresh=refresh))
        assert len(built) == stats.jacobian_assemblies
        if refresh == "frozen":
            assert stats.jacobian_assemblies == 3 < stats.newton_iterations
        else:
            assert stats.jacobian_assemblies == stats.newton_iterations

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_stage_matrix_fails_as_a_linearization(self):
        # the stage plan is built with the linearization, so a shifted matrix
        # that overflows fails the step as the IRK path's Jacobians do
        problem = make_problem("dahlquist")
        sys = replace(problem.system,
                      linearize=lambda u, t: SparseMatrix(np.array([[-1e308]])))
        with pytest.raises(StepFailureError, match="DIRK stage 0 linearization failed") as err:
            step(sys, problem.u0, 0.0, 10.0, make_tableau("sdirk2"))
        assert isinstance(err.value.__cause__, ValueError)


class TestAccounting:
    def test_mixed_block_accounting(self):
        # gauss(3) has one real and one complex block: applications must be
        # 1x and 2x the per-block Krylov iterations respectively
        problem = make_problem("heat1d", n=24)
        prep = prepare_stages(make_tableau("gauss", 3))
        cfg = SolverConfig(newton_rtol=1e-11, krylov_rtol=1e-11)
        _, stats = step(problem.system, problem.u0, 0.0, 0.01,
                        make_tableau("gauss", 3), cfg)
        sizes = {blk.offset: blk.size for blk in prep.blocks}
        expected = sum(
            sizes[off] * sum(its) for off, its in stats.block_iterations.items()
        )
        assert stats.precond_applications == expected

    def test_two_by_two_only_accounting(self):
        problem = make_problem("heat1d", n=24)
        cfg = SolverConfig(newton_rtol=1e-11, krylov_rtol=1e-11)
        res = integrate(problem.system, problem.u0, 0.0, 0.05, 0.01,
                        make_tableau("gauss", 2), cfg)
        assert res.total("precond_applications") == 2 * res.total("krylov_iterations")


class TestJacobianValidation:
    @pytest.mark.parametrize("name,params", [
        ("heat1d", {"n": 24}),
        ("advection1d", {"n": 24}),
        ("advdiff1d", {"n": 24}),
        ("burgers1d", {"n": 48, "nu": 0.02}),
    ])
    def test_finite_difference_directional_derivative(self, name, params):
        problem = make_problem(name, **params)
        rng = np.random.default_rng(1)
        u = problem.u0 + 0.01 * rng.standard_normal(problem.system.dim)
        v = rng.standard_normal(problem.system.dim)
        v /= np.linalg.norm(v)
        eps = 1e-6
        fd = (problem.system.rhs(u + eps * v, 0.1) - problem.system.rhs(u - eps * v, 0.1)) / (2 * eps)
        jv = problem.system.linearize(u, 0.1) @ v
        scale = max(np.linalg.norm(jv), 1.0)
        assert np.linalg.norm(fd - jv) / scale <= 1e-5


LOGISTIC_CFG = SolverConfig(newton_rtol=1e-13, krylov_rtol=1e-13, newton_abs_floor=1e-15)


def _forced_logistic():
    def rhs(u, t):
        return u * (1.0 - u) + 0.5 * np.sin(2.0 * t)

    def linearize(u, t):
        return SparseMatrix(np.array([[1.0 - 2.0 * u[0]]]))

    return OdeSystem(1, rhs, linearize)


@pytest.fixture(scope="module")
def logistic_reference():
    """Radau IIA(3) at dt = 0.002, computed once and shared by every case."""
    ref = integrate(_forced_logistic(), np.array([0.4]), 0.0, 0.8, 0.4 / 200,
                    make_tableau("radau_iia", 3), LOGISTIC_CFG)
    return ref.u_final[0]


@pytest.mark.parametrize("family,s", [
    ("gauss", 1), ("gauss", 2), ("gauss", 3),
    ("radau_iia", 1), ("radau_iia", 2), ("radau_iia", 3),
    ("lobatto_iiic", 2), ("lobatto_iiic", 3),
])
def test_stage_order_on_smooth_nonlinear_problem(family, s, logistic_reference):
    # forced logistic equation; reference from the same scheme family at a
    # hundredth of the finest step (orders above 6 are not measurable in
    # double precision at these sizes and are exercised elsewhere)
    sys = _forced_logistic()
    tableau = make_tableau(family, s)
    errs = []
    for dt in (0.4, 0.2, 0.1):
        res = integrate(sys, np.array([0.4]), 0.0, 0.8, dt, tableau, LOGISTIC_CFG)
        errs.append(abs(res.u_final[0] - logistic_reference))
    rate = np.log2(errs[1] / errs[2])
    assert rate >= tableau.order - 0.35, (errs, rate)


class TestFrozenJacobian:
    def test_frozen_equals_refreshed_on_linear_problem(self):
        problem = make_problem("advdiff1d", n=20)
        tableau = make_tableau("gauss", 2)
        u_every, _ = step(problem.system, problem.u0, 0.0, 0.05, tableau,
                          SolverConfig(newton_rtol=1e-12, krylov_rtol=1e-13))
        u_frozen, _ = step(problem.system, problem.u0, 0.0, 0.05, tableau,
                           SolverConfig(newton_rtol=1e-12, krylov_rtol=1e-13,
                                        jacobian_refresh="frozen"))
        assert np.max(np.abs(u_every - u_frozen)) <= 1e-12

    @pytest.mark.parametrize("scheme", [("radau_iia", 2), ("sdirk2",)],
                             ids=["radau_iia2", "sdirk2"])
    def test_frozen_saves_assemblies_on_burgers(self, scheme):
        problem = make_problem("burgers1d", n=64, nu=0.02)
        tableau = make_tableau(*scheme)
        cfg_every = SolverConfig(newton_rtol=1e-9, krylov_rtol=1e-6, newton_maxit=60)
        cfg_frozen = SolverConfig(newton_rtol=1e-9, krylov_rtol=1e-6, newton_maxit=60,
                                  jacobian_refresh="frozen")
        u1, st1 = step(problem.system, problem.u0, 0.0, 0.1, tableau, cfg_every)
        u2, st2 = step(problem.system, problem.u0, 0.0, 0.1, tableau, cfg_frozen)
        assert st2.jacobian_assemblies < st1.jacobian_assemblies
        assert np.max(np.abs(u1 - u2)) <= 1e-7  # same fixed point


def test_write_step_stats_csv(tmp_path):
    from irkit.nonlinear import write_step_stats_csv

    problem = make_problem("heat1d", n=16)
    res = integrate(problem.system, problem.u0, 0.0, 0.03, 0.01,
                    make_tableau("gauss", 2), TIGHT)
    path = tmp_path / "steps.csv"
    write_step_stats_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("step,")
    assert len(lines) == 4  # header + 3 steps


def test_jacobian_memo_tells_dropped_preps_apart():
    # preps made and dropped in turn can reuse one address; the memo holds
    # each prep it is keyed by, so a new prep never gets an old one's sums
    ops = random_stage_operators("distinct", 3, np.random.default_rng(7))
    for family in ["gauss", "radau_iia", "lobatto_iiic"] * 4:
        prep = prepare_stages(make_tableau(family, 3))
        dw, _ = variant_weights(prep, 2)
        vjac = build_variant_jacobian(prep, ops, 2)
        for i in range(3):
            assert_same_bits(vjac.diag[i], combine(dw[i], ops))
        del prep, vjac
