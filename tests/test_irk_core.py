import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from irkit.dae import DaeOps, _CompositeMass
from irkit.errors import ConfigurationError, KrylovBreakdownError, StageSolveError
from irkit.irk_core import (
    Block2x2System,
    PrecondSpec,
    ShiftedSolver,
    ShiftedPlan,
    apply_block2x2,
    field_of_values_bound,
    make_block2x2_preconditioner,
    measure_kappa,
    solve_block,
    solve_transformed_system,
)
from irkit import dae, nonlinear, sparsela
from irkit.problems import make_problem
from irkit.nonlinear import SolverConfig, build_variant_jacobian, integrate, step
from irkit.sparsela import (BandedLU, KrylovReport, LinearOperator, SparseMatrix, combine,
                             gmres)
from irkit.tableau import kappa_bound, make_tableau, prepare_stages

from exact_schur import exact_schur_preconditioner


def scalar_system(l1, l2, eta=3.0, beta=np.sqrt(3.0), phi=1.0, dt=1.0):
    return Block2x2System(
        eta=eta,
        beta=beta,
        phi=phi,
        mass=None,
        l1=SparseMatrix(np.array([[l1]])),
        l2=SparseMatrix(np.array([[l2]])),
        dt=dt,
    )


def dense_stage_matrix(tableau, lmats, dt, mass=None):
    """Directly assembled coupled stage system (the independent oracle)."""
    s = tableau.s
    n = lmats[0].n
    m = np.eye(n) if mass is None else mass.to_dense()
    big = np.zeros((s * n, s * n))
    for i in range(s):
        big[i * n : (i + 1) * n, i * n : (i + 1) * n] = m
        for j in range(s):
            big[i * n : (i + 1) * n, j * n : (j + 1) * n] -= (
                dt * tableau.a0[i, j] * lmats[i].to_dense()
            )
    return big


class TestBlock2x2:
    def test_unit_vector_action(self):
        sysb = scalar_system(0.0, 0.0)
        y = apply_block2x2(sysb, np.array([1.0, 0.0]))
        assert np.allclose(y, [3.0, -3.0])  # (eta, -beta^2/phi)

    def test_scalar_action_oracle(self):
        sysb = scalar_system(-1.0, -2.0)
        y = apply_block2x2(sysb, np.array([1.0, 1.0]))
        assert np.allclose(y, [5.0, 2.0])

    def test_beta_zero_decouples(self):
        sysb = scalar_system(-1.0, -2.0, eta=2.0, beta=0.0, phi=1.0)
        y = apply_block2x2(sysb, np.array([1.0, 0.0]))
        assert y[1] == 0.0  # no feedback from the first component

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            apply_block2x2(scalar_system(0.0, 0.0), np.zeros(3))

    def test_precond_scalar_oracle(self):
        pre = make_block2x2_preconditioner(scalar_system(0.0, 0.0), PrecondSpec())
        z = pre.matvec(np.array([1.0, 0.0]))
        assert np.allclose(z, [1.0 / 3.0, 0.25])

    def test_precond_beta_zero_is_exact(self):
        # with beta = 0 the preconditioner degenerates to the exact inverse
        # of the uncoupled block-diagonal operator
        rng = np.random.default_rng(0)
        n = 12
        lmat = SparseMatrix(-np.eye(n) - 0.1 * rng.standard_normal((n, n)))
        sysb = Block2x2System(
            eta=2.0, beta=0.0, phi=1.0, mass=None, l1=lmat, l2=lmat, dt=0.3
        )
        pre = make_block2x2_preconditioner(sysb, PrecondSpec())

        def decoupled(x):
            x1, x2 = x[:n], x[n:]
            return np.concatenate(
                [2.0 * x1 - 0.3 * (lmat @ x1), 2.0 * x2 - 0.3 * (lmat @ x2)]
            )

        from irkit.sparsela import LinearOperator

        rhs = rng.standard_normal(2 * n)
        x, rep = gmres(
            LinearOperator(2 * n, decoupled), rhs, right_precond=pre, rtol=1e-12
        )
        assert rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("kind", ["snsd", "skew"])
    def test_exact_schur_two_iterations(self, kind):
        rng = np.random.default_rng(13)
        n = 32
        if kind == "snsd":
            r = rng.standard_normal((n, n))
            lmat = SparseMatrix(-(r @ r.T))
        else:
            b = rng.standard_normal((n, n))
            lmat = SparseMatrix(b - b.T)
        sysb = Block2x2System(
            eta=1.7, beta=2.2, phi=0.8, mass=None, l1=lmat, l2=lmat, dt=0.5
        )
        pre = exact_schur_preconditioner(sysb)
        rhs = rng.standard_normal(2 * n)
        x, rep = gmres(sysb.matrix, rhs, right_precond=pre, rtol=1e-10)
        assert rep.converged and rep.iterations <= 2

    def test_gamma_modes(self):
        spec = PrecondSpec(gamma_mode="star")
        assert spec.gamma(3.0, np.sqrt(3.0)) == pytest.approx(4.0)
        assert PrecondSpec(gamma_mode="eta").gamma(3.0, 1.0) == 3.0
        assert PrecondSpec(gamma_mode=2.5).gamma(3.0, 1.0) == 2.5
        with pytest.raises(ValueError):
            PrecondSpec(gamma_mode=-1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                PrecondSpec(gamma_mode=bad)
        with pytest.raises(ValueError):
            PrecondSpec(inner=0)
        with pytest.raises(ValueError, match="unknown gamma mode 'bogus'"):
            PrecondSpec(gamma_mode="bogus")

    @pytest.mark.parametrize("bad", [None, [1.0], 1j], ids=["none", "list", "complex"])
    def test_non_real_gamma_mode_rejected(self, bad):
        # a configuration error naming the field, not a bare TypeError
        with pytest.raises(ConfigurationError, match=rf"gamma_mode .*got {re.escape(repr(bad))}"):
            PrecondSpec(gamma_mode=bad)

    def test_inner_is_a_count_as_the_budgets_are(self):
        # one count rule: a numpy integer is accepted, as SolverConfig accepts it
        assert PrecondSpec(inner=np.int64(2)).inner == 2
        with pytest.raises(ConfigurationError, match="inner must be"):
            PrecondSpec(inner=np.float64(2.0))

    @pytest.mark.parametrize("field", ["gamma_mode", "inner"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_rejected(self, field, flag):
        # a bool is an int to Python, but neither a shift nor a sweep count
        with pytest.raises(ValueError, match=f"got {flag}"):
            PrecondSpec(**{field: flag})

    def test_jacobi_needs_a_nonzero_diagonal(self):
        # alpha*I - dt*I has a zero diagonal for alpha = dt = 1
        with pytest.raises(ValueError, match="Jacobi inner solver needs a nonzero diagonal"):
            ShiftedSolver(1.0, None, SparseMatrix(np.eye(3)), 1.0, inner=2)


def heat_pair(mass_kind):
    """A 2x2 eigen-block of gauss(4) on heat1d: SPD diagonal blocks."""
    lmat = make_problem("heat1d", n=64).operator
    mass = None if mass_kind == "identity" else SparseMatrix(sp.diags(np.linspace(1.0, 2.0, 64)))
    return Block2x2System(eta=4.2, beta=5.3, phi=1.1, mass=mass, l1=lmat, l2=lmat, dt=1e-3)


def returning_preconditioner(sysb, spec):
    """The block lower-triangular preconditioner as a plain ``apply(x)``
    operator, from the shifted solvers' returning solves."""
    n, coupling = sysb.n, sysb.beta**2 / sysb.phi
    s1 = ShiftedSolver(sysb.eta, sysb.mass, sysb.l1, sysb.dt, spec.inner)
    s2 = ShiftedSolver(spec.gamma(sysb.eta, sysb.beta), sysb.mass, sysb.l2, sysb.dt, spec.inner)

    def apply(r):
        z1 = s1.solve(r[:n])
        mz1 = z1 if sysb.mass is None else sysb.mass @ z1
        return np.concatenate([z1, s2.solve(r[n:] + coupling * mz1)])

    return LinearOperator(2 * n, apply, solves_per_apply=2)


class TestInPlacePreconditioners:
    """A preconditioner written into a row of GMRES's basis holds the bits of
    the returning solves it is built from."""

    @pytest.mark.parametrize("inner", ["exact", 2])
    @pytest.mark.parametrize("mass_kind", ["identity", "spd_diagonal"])
    def test_block2x2_row_matches_returned_vector(self, inner, mass_kind):
        sysb, spec = heat_pair(mass_kind), PrecondSpec(inner=inner)
        r = np.random.default_rng(3).standard_normal(2 * sysb.n)
        want = returning_preconditioner(sysb, spec).matvec(r)
        rows = np.full((3, 2 * sysb.n), np.nan)
        make_block2x2_preconditioner(sysb, spec).matvec_into(r, rows[1])
        assert np.array_equal(rows[1], want) and np.all(np.isnan(rows[[0, 2]]))

    @pytest.mark.parametrize("inner", ["exact", 2])
    def test_1x1_row_matches_returned_vector(self, inner):
        sysb = heat_pair("spd_diagonal")
        r = np.random.default_rng(4).standard_normal(sysb.n)
        pre = ShiftedPlan(2.5, sysb.l1, sysb.mass, sysb.dt, PrecondSpec(inner=inner)).precond
        rows = np.full((2, sysb.n), np.nan)
        pre.matvec_into(r, rows[0])
        want = ShiftedSolver(2.5, sysb.mass, sysb.l1, sysb.dt, inner).solve(r)
        assert np.array_equal(rows[0], want) and np.all(np.isnan(rows[1]))

    @pytest.mark.parametrize("restart", [200, 3])
    def test_gmres_in_place_matches_plain_apply(self, restart):
        sysb, spec = heat_pair("identity"), PrecondSpec()
        rhs = np.random.default_rng(5).standard_normal(2 * sysb.n)
        runs = [gmres(sysb.matrix, rhs, right_precond=pre, rtol=1e-12, restart=restart)
                for pre in (make_block2x2_preconditioner(sysb, spec),
                            returning_preconditioner(sysb, spec))]
        (x, rep), (x_plain, rep_plain) = runs
        assert rep.converged and rep.iterations > (3 if restart == 3 else 1)
        assert np.array_equal(x, x_plain) and rep == rep_plain

    def test_one_banded_solve_per_inner_solve_on_heat(self, monkeypatch):
        # the tracer's per-step BandedLU.solve count reads as preconditioner
        # applications only while each inner solve makes exactly one call
        calls = []
        solve = BandedLU.solve

        def spy(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(BandedLU, "solve", spy)
        problem = make_problem("heat1d", n=64)
        res = integrate(problem.system, problem.u0, 0.0, 3e-3, 1e-3, make_tableau("gauss", 4))
        applications = res.total("precond_applications")
        assert len(res.step_stats) == 3 and applications > 0
        assert len(calls) == applications


def dense(op, n):
    """Dense form of a block operand: ``None`` is the identity of size ``n``."""
    if op is None:
        return np.eye(n)
    if isinstance(op, DaeOps):
        return np.block([[part.to_dense() for part in op[:2]],
                         [part.to_dense() for part in op[2:]]])
    if isinstance(op, _CompositeMass):
        out = np.zeros((n, n))
        out[: op.nu, : op.nu] = dense(op.mass, op.nu)
        return out
    return op.to_dense()


def dense_block2x2(sys):
    """The 2x2 eigen-block operator assembled densely from ``to_dense()``."""
    n = sys.n
    m = dense(sys.mass, n)
    c12 = 0.0 if sys.offdiag12 is None else dense(sys.offdiag12, n)
    c21 = 0.0 if sys.offdiag21 is None else dense(sys.offdiag21, n)
    return np.block([
        [sys.eta * m - sys.dt * dense(sys.l1, n), sys.phi * m - sys.dt * c12],
        [-(sys.beta**2 / sys.phi) * m - sys.dt * c21, sys.eta * m - sys.dt * dense(sys.l2, n)],
    ])


def random_block_system(rng, kind, mass_kind, couplings):
    """A 2x2 eigen-block system with unequal random operators."""
    nu, nw = 7, 4

    def op():
        if kind == "ode":
            return SparseMatrix(sp.random(nu, nu, density=0.4, random_state=rng)
                                - 3.0 * sp.identity(nu))
        parts = [(nu, nu, 0.4), (nu, nw, 0.5), (nw, nu, 0.5), (nw, nw, 0.6)]
        return DaeOps(*(SparseMatrix(sp.random(r, c, density=d, random_state=rng))
                        for r, c, d in parts))

    mass = None if mass_kind == "identity" else SparseMatrix(sp.diags(1.0 + rng.random(nu)))
    if kind == "dae":
        mass = _CompositeMass(mass, nu)
    return Block2x2System(
        eta=rng.uniform(0.5, 3.0), beta=rng.uniform(0.2, 2.0), phi=rng.uniform(0.3, 2.0),
        mass=mass, l1=op(), l2=op(), dt=rng.uniform(0.01, 0.5),
        offdiag12=op() if couplings else None, offdiag21=op() if couplings else None,
    )


class TestBlockMatrix:
    """The 2x2 eigen-block operator as one assembled sparse matrix."""

    @pytest.mark.parametrize("kind", ["ode", "dae"])
    @pytest.mark.parametrize("mass_kind", ["identity", "spd_diagonal"])
    @pytest.mark.parametrize("couplings", [False, True])
    def test_matches_dense_assembly(self, kind, mass_kind, couplings):
        rng = np.random.default_rng([1, kind == "dae", mass_kind == "identity", couplings])
        sysb = random_block_system(rng, kind, mass_kind, couplings)
        want = dense_block2x2(sysb)
        got = sysb.matrix.to_dense()
        assert got.shape == want.shape == (2 * sysb.n, 2 * sysb.n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        x = rng.standard_normal(2 * sysb.n)
        ref = want @ x
        assert np.max(np.abs(apply_block2x2(sysb, x) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_memoized_on_the_operands(self):
        rng = np.random.default_rng(2)
        sysb = random_block_system(rng, "ode", "spd_diagonal", True)
        twin = Block2x2System(**{f: getattr(sysb, f) for f in sysb.__dataclass_fields__})
        assert twin.matrix is sysb.matrix
        moved = Block2x2System(**{**{f: getattr(sysb, f) for f in sysb.__dataclass_fields__},
                                  "dt": 2.0 * sysb.dt})
        assert moved.matrix is not sysb.matrix

    def test_composite_memoized_on_its_first_part(self):
        rng = np.random.default_rng(3)
        sysb = random_block_system(rng, "dae", "identity", False)
        again = Block2x2System(sysb.eta, sysb.beta, sysb.phi, _CompositeMass(None, 7),
                               DaeOps(*sysb.l1), sysb.l2, sysb.dt)
        assert again.matrix is sysb.matrix
        assert any(v is sysb.matrix for v in sysb.l1.lu._sums.values())


class TestShiftedPlan:
    """A real eigen-block's operator is its shifted solver's matrix."""

    @pytest.mark.parametrize("inner", ["exact", 2])
    def test_operator_is_the_solvers_matrix(self, inner):
        lmat = make_problem("heat1d", n=16).operator
        for mass in (None, SparseMatrix(sp.identity(16) * 2.0)):
            plan = ShiftedPlan(1.5, lmat, mass, 0.1, PrecondSpec(inner=inner))
            assert plan.op is ShiftedSolver(1.5, mass, lmat, 0.1, inner).mat

    @pytest.mark.parametrize("coupled", [False, True])
    def test_composite_operator_is_the_solvers_matrix(self, coupled):
        # a DAE's 1x1 block applies the composite matrix its elimination
        # solver assembles, alpha*diag(M, 0) - dt*J
        rng = np.random.default_rng([4, coupled])
        nu, nw, alpha, dt = 7, 4, 1.7, 0.3
        parts = [SparseMatrix(sp.random(nu, nu, density=0.4, random_state=rng) - 3 * sp.eye(nu)),
                 SparseMatrix(sp.random(nu, nw, density=0.5 * coupled, random_state=rng)),
                 SparseMatrix(sp.random(nw, nu, density=0.5, random_state=rng)),
                 SparseMatrix(sp.random(nw, nw, density=0.3, random_state=rng) + 2 * sp.eye(nw))]
        assert (parts[1].nnz > 0) is coupled
        ops, mass = DaeOps(*parts), SparseMatrix(sp.diags(1.0 + rng.random(nu)))
        composite = _CompositeMass(mass, nu)
        plan = ShiftedPlan(alpha, ops, composite, dt, PrecondSpec(),
                           shifted=dae._EliminationSolver)
        assert plan.op is dae._EliminationSolver(alpha, composite, ops, dt).mat
        jac = np.block([[p.to_dense() for p in parts[:2]], [p.to_dense() for p in parts[2:]]])
        mass_dense = np.zeros((nu + nw, nu + nw))
        mass_dense[:nu, :nu] = mass.to_dense()
        want = alpha * mass_dense - dt * jac
        assert np.max(np.abs(plan.op.to_dense() - want)) <= 1e-15 * np.max(np.abs(want))
        x = rng.standard_normal(nu + nw)
        assert np.allclose(plan.precond.matvec(want @ x), x, rtol=0, atol=1e-12)

    def test_kept_plans_solve_through_the_class(self, monkeypatch):
        # heat's plans outlive the step that built them; a wrapper patched on
        # BandedLU after step 1, as perfbench's tracer patches it, must still
        # see every solve of step 2, with no new factorization
        problem = make_problem("heat1d", n=32)
        tableau = make_tableau("radau_iia", 3)  # one real block and one pair
        prep = prepare_stages(tableau)
        u1, _ = step(problem.system, problem.u0, 0.0, 1e-3, tableau, prep=prep)
        calls = []
        solve, factor = BandedLU.solve, BandedLU.factor
        monkeypatch.setattr(BandedLU, "solve",
                            lambda lu, *a, **k: calls.append("solve") or solve(lu, *a, **k))
        monkeypatch.setattr(BandedLU, "factor",
                            classmethod(lambda cls, a: calls.append("factor") or factor(a)))
        _, stats = step(problem.system, u1, 1e-3, 1e-3, tableau, prep=prep)
        assert "factor" not in calls
        assert calls.count("solve") == stats.precond_applications > 0

    def test_one_assembly_per_shift(self, monkeypatch):
        # sdirk2's two stages share one shift, and heat's operator never
        # changes: three steps assemble one shifted matrix, not one per use
        built = []
        scatter = sparsela._scatter
        monkeypatch.setattr(sparsela, "_scatter",
                            lambda grid, terms: built.append(terms) or scatter(grid, terms))
        problem = make_problem("heat1d", n=32)
        dt = 1e-3
        res = integrate(problem.system, problem.u0, 0.0, 3 * dt, dt, make_tableau("sdirk2"),
                        SolverConfig())
        assert len(res.step_stats) == 3
        assert len(built) == 1
        assert [m for _, _, _, m in built[0]] == [None, problem.operator]


class TestSolveTransformed:
    def test_backward_euler_reduces_to_single_solve(self):
        prep = prepare_stages(make_tableau("radau_iia", 1))
        lmat = SparseMatrix(np.array([[-2.0]]))
        rhs = np.array([[1.0]])
        k, reports = solve_transformed_system(
            prep, build_variant_jacobian(prep, [lmat], 0), 0.1, rhs, krylov_rtol=1e-13
        )
        # (I - dt*L) k = f  ->  k = 1 / 1.2
        assert k[0, 0] == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert [(off, rep.iterations) for off, rep in reports] == [(0, 1)]

    def test_gauss3_reports_each_block_once_in_sweep_order(self, monkeypatch):
        # gauss(3) has one real block and one complex pair
        prep = prepare_stages(make_tableau("gauss", 3))
        blocks = prep.schur.blocks
        assert sorted(blk.size for blk in blocks) == [1, 2]
        lmat = make_problem("heat1d", n=16).operator
        _, reports = solve_transformed_system(prep, build_variant_jacobian(prep, [lmat] * 3, 3),
                                              0.01, np.ones((3, 16)))
        offsets = [off for off, _ in reports]
        assert offsets == sorted((blk.offset for blk in blocks), reverse=True)
        assert all(rep.converged for _, rep in reports)

        # a step's counters are the sums over its solves' report lists
        lists = []

        def spy(*args, **kwargs):  # what this call appended to the step's list
            start = len(kwargs["reports"])
            k, reps = solve_transformed_system(*args, **kwargs)
            lists.append(reps[start:])
            return k, reps

        monkeypatch.setattr(nonlinear, "solve_transformed_system", spy)
        problem = make_problem("burgers1d", n=32)
        _, stats = step(problem.system, problem.u0, 0.0, 1e-2, prep.tableau, prep=prep)
        pairs = [pair for reps in lists for pair in reps]
        assert len(lists) == stats.newton_iterations > 1
        assert [off for off, _ in pairs] == offsets * len(lists)
        assert stats.krylov_iterations == sum(rep.iterations for _, rep in pairs)
        assert stats.precond_applications == sum(rep.precond_applications for _, rep in pairs)
        assert stats.block_iterations == {
            off: [rep.iterations for o, rep in pairs if o == off] for off in offsets}

    def test_dahlquist_gauss2_matches_dense(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        lam = -1.0
        dt = 0.1
        lmat = SparseMatrix(np.array([[lam]]))
        rhs = np.array([[lam], [lam]])
        big = dense_stage_matrix(prep.tableau, [lmat, lmat], dt)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(2, 1)
        k, _ = solve_transformed_system(prep, build_variant_jacobian(prep, [lmat, lmat], 3), dt,
                                        rhs, krylov_rtol=1e-13)
        assert np.max(np.abs(k - oracle)) < 1e-10

    @pytest.mark.parametrize("family,s", [("gauss", 3), ("radau_iia", 3), ("lobatto_iiic", 4), ("gauss", 4)])
    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_linear_problem_matches_dense_all_variants(self, family, s, variant):
        # all stage operators equal, so every variant solves the true system
        prep = prepare_stages(make_tableau(family, s))
        problem = make_problem("advdiff1d", n=24)
        lmat = problem.operator
        dt = 0.05
        rng = np.random.default_rng(s)
        rhs = rng.standard_normal((s, 24))
        big = dense_stage_matrix(prep.tableau, [lmat] * s, dt)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(s, 24)
        k, _ = solve_transformed_system(
            prep, build_variant_jacobian(prep, [lmat] * s, variant), dt, rhs, krylov_rtol=1e-12,
            krylov_maxit=400
        )
        assert np.max(np.abs(k - oracle)) < 1e-9

    def test_distinct_operators_variant3_matches_dense(self):
        # with per-stage operators the full-coupling variant is the exact
        # Jacobian, so the transformed solve still matches the dense oracle
        prep = prepare_stages(make_tableau("radau_iia", 2))
        base = make_problem("heat1d", n=16).operator
        lmats = [
            SparseMatrix(base.csr * (1.0 + 0.2 * i)) for i in range(2)
        ]
        dt = 0.02
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal((2, 16))
        big = dense_stage_matrix(prep.tableau, lmats, dt)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(2, 16)
        k, _ = solve_transformed_system(
            prep, build_variant_jacobian(prep, lmats, 3), dt, rhs, krylov_rtol=1e-13,
            krylov_maxit=400
        )
        assert np.max(np.abs(k - oracle)) < 1e-8

    def test_mass_matrix_path(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        mass = SparseMatrix(np.diag([2.0, 3.0]))
        lmat = SparseMatrix(np.array([[-1.0, 0.2], [0.1, -0.5]]))
        dt = 0.2
        rhs = np.array([[1.0, 0.0], [0.0, 1.0]])
        big = dense_stage_matrix(prep.tableau, [lmat, lmat], dt, mass=mass)
        oracle = np.linalg.solve(big, rhs.ravel()).reshape(2, 2)
        k, _ = solve_transformed_system(
            prep, build_variant_jacobian(prep, [lmat, lmat], 2), dt, rhs, mass=mass,
            krylov_rtol=1e-13
        )
        assert np.max(np.abs(k - oracle)) < 1e-10

    def test_breakdown_report_raises_krylov_breakdown(self):
        # solve_block judges a report with ``breakdown`` set as a breakdown,
        # a stage solve failure like any other, and appends it first
        rep = KrylovReport(1, False, [1.0, 0.5], 2, breakdown=True)
        plan = SimpleNamespace(solve=lambda rhs, rtol, maxit: (rhs, rep))
        reports = [(2, KrylovReport(3, True, [1.0, 1e-9], 3))]
        with pytest.raises(KrylovBreakdownError, match=re.escape(
                "pair stopped at an Arnoldi breakdown with residual 5.000e-01 above "
                "rtol 1.000e-05")) as err:
            solve_block(plan, np.ones(2), 1e-5, 10, "pair", 0, reports)
        assert isinstance(err.value, StageSolveError)
        assert (err.value.block_offset, err.value.report) == (0, rep)
        assert err.value.reports is reports and reports[-1] == (0, rep) and len(reports) == 2

    def test_nonconvergence_raises_with_report(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        lmat = make_problem("heat1d", n=32).operator
        rhs = np.ones((2, 32))
        with pytest.raises(StageSolveError) as err:
            solve_transformed_system(
                prep, build_variant_jacobian(prep, [lmat, lmat], 2), 1.0, rhs,
                krylov_rtol=1e-13, krylov_maxit=2
            )
        assert err.value.report is not None
        assert err.value.block_offset is not None

    @pytest.mark.parametrize("dt, rows, fragment", [
        (0.1, 3, "rhs has 3 stage rows, expected 2"),
        (0.0, 2, "dt must be positive"),
        (np.nan, 2, "dt must be positive and finite, got nan"),
        (np.inf, 2, "dt must be positive and finite, got inf"),
    ], ids=["stage-rows", "zero-dt", "nan-dt", "inf-dt"])
    def test_bad_input_rejected(self, dt, rows, fragment):
        prep = prepare_stages(make_tableau("gauss", 2))
        lmat = make_problem("heat1d", n=8).operator
        vjac = build_variant_jacobian(prep, [lmat, lmat], 2)
        with pytest.raises(ValueError, match=fragment):
            solve_transformed_system(prep, vjac, dt, np.ones((rows, 8)))


class TestFieldOfValues:
    def test_heat_is_negative(self):
        assert field_of_values_bound(make_problem("heat1d", n=32).operator) < 0.0

    def test_skew_is_zero(self):
        bound = field_of_values_bound(make_problem("advection1d", n=32).operator)
        assert abs(bound) <= 1e-8

    def test_positive_definite_flags(self):
        assert field_of_values_bound(SparseMatrix(np.array([[1.0]]))) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_matches_dense_eigenvalue(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 40))
        mat = SparseMatrix(a)
        sym = 0.5 * (a + a.T)
        expected = np.max(np.linalg.eigvalsh(sym))
        got = field_of_values_bound(mat)
        norm = np.linalg.norm(sym, np.inf)
        assert abs(got - expected) <= 1e-6 * norm

    @pytest.mark.parametrize("name", ["heat1d", "advdiff1d"])
    def test_matches_dense_eigenvalue_n1024(self, name):
        op = make_problem(name, n=1024).operator
        sym = 0.5 * (op.to_dense() + op.to_dense().T)
        expected = np.linalg.eigvalsh(sym)[-1]
        got = field_of_values_bound(op)
        assert abs(got - expected) <= 1e-8 * np.linalg.norm(sym, np.inf)


class TestMeasureKappa:
    def test_zero_operator_gives_identity(self):
        z = SparseMatrix(sp.csr_matrix((8, 8)))
        assert measure_kappa(3.0, np.sqrt(3.0), z, z) == pytest.approx(1.0, abs=1e-8)

    def test_heat_below_bound(self):
        problem = make_problem("heat1d", n=64)
        h = 1.0 / 65
        dt = 10.0 * h * h  # dt / h^2 = 10
        lhat = SparseMatrix(dt * problem.operator.csr)
        kappa = measure_kappa(3.0, np.sqrt(3.0), lhat, lhat)
        assert kappa <= kappa_bound(3.0, np.sqrt(3.0)) + 1e-6

    def test_scaled_pair_below_distinct_bound(self):
        problem = make_problem("heat1d", n=48)
        lhat1 = SparseMatrix(0.05 * problem.operator.csr)
        lhat2 = SparseMatrix(2.0 * 0.05 * problem.operator.csr)
        kappa = measure_kappa(3.0, np.sqrt(3.0), lhat1, lhat2)
        assert kappa <= kappa_bound(3.0, np.sqrt(3.0), "distinct") + 1e-6

    def test_system_wrapper(self):
        # a block system's operators, scaled by its dt, with its gamma
        lmat = make_problem("heat1d", n=24).operator
        eta, beta, dt = 2.0, np.sqrt(2.0), 0.01
        gamma = PrecondSpec().gamma(eta, beta)
        kappa = measure_kappa(eta, beta, combine([dt], [lmat]), combine([dt], [lmat]), gamma)
        assert kappa <= kappa_bound(eta, beta) + 1e-6

    def test_size_cap(self):
        z = SparseMatrix(sp.identity(600, format="csr"))
        with pytest.raises(ValueError):
            measure_kappa(1.0, 1.0, z, z)


def test_gamma_star_not_worse_quick_sweep():
    # compact version of the shift comparison: the optimal shift should not
    # lose to the naive one on a stiff diffusion block
    problem = make_problem("heat1d", n=48)
    prep = prepare_stages(make_tableau("gauss", 4))
    norm = np.max(np.abs(problem.operator.csr).sum(axis=1))
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(96)
    for target in (1.0, 10.0):
        dt = target / norm
        for blk in prep.blocks:
            its = {}
            for mode in ("eta", "star"):
                sysb = Block2x2System(
                    eta=blk.eta, beta=blk.beta, phi=blk.phi, mass=None,
                    l1=problem.operator, l2=problem.operator, dt=dt,
                )
                pre = make_block2x2_preconditioner(sysb, PrecondSpec(gamma_mode=mode))
                _, rep = gmres(
                    sysb.matrix, rhs, right_precond=pre, rtol=1e-10, maxit=100
                )
                assert rep.converged
                its[mode] = rep.iterations
            assert its["star"] <= its["eta"] + 2


def test_unconstrained_pair_kappa_recorded_not_asserted(capsys):
    # pairs violating the inner-product hypothesis are measured and printed
    # for the record; the distinct-operator bound is not asserted for them
    heat = make_problem("heat1d", n=48).operator
    adv = make_problem("advection1d", n=48).operator
    lhat1 = SparseMatrix(0.02 * heat.csr)
    lhat2 = SparseMatrix(0.3 * adv.csr)
    kappa = measure_kappa(2.0, np.sqrt(2.0), lhat1, lhat2)
    bound = kappa_bound(2.0, np.sqrt(2.0), "distinct")
    print(f"unconstrained pair: kappa={kappa:.4f} (distinct bound {bound:.4f})")
    assert np.isfinite(kappa) and kappa >= 1.0


def test_fixed_iteration_inner_solver_still_converges():
    # a few damped-Jacobi sweeps per inner solve mimic one cycle of an
    # iterative preconditioner; the outer Krylov solve has to work harder
    # but still converges on a diffusion block
    problem = make_problem("heat1d", n=32)
    lmat = problem.operator
    dt = 2e-4
    sysb = Block2x2System(
        eta=3.0, beta=np.sqrt(3.0), phi=1.0, mass=None, l1=lmat, l2=lmat, dt=dt
    )
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(64)
    its = {}
    for inner in ("exact", 4):
        pre = make_block2x2_preconditioner(sysb, PrecondSpec(inner=inner))
        _, rep = gmres(sysb.matrix, rhs, right_precond=pre,
                       rtol=1e-8, maxit=200)
        assert rep.converged, inner
        its[inner] = rep.iterations
    assert its[4] >= its["exact"]
