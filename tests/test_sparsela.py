from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as hst

from irkit import sparsela
from irkit.errors import KrylovBreakdownError, SingularMatrixError
from irkit.irk_core import Block2x2System, solve_block
from irkit.problems import make_problem
from irkit.sparsela import (
    SUM_CACHE_SIZE,
    BandedLU,
    LinearOperator,
    Pattern,
    SparseMatrix,
    combine,
    combine_rows,
    gmres,
    storage_width,
)


def periodic_central(n, h):
    d = sp.lil_matrix((n, n))
    for i in range(n):
        d[i, (i + 1) % n] = 1.0 / (2 * h)
        d[i, (i - 1) % n] = -1.0 / (2 * h)
    return d.tocsr()


def dense_op(a):
    """A dense array as the operator GMRES takes."""
    return LinearOperator(len(a), a.__matmul__)


def judged(a, b, rtol):
    """:func:`solve_block`'s verdict on GMRES's solve of ``a x = b``."""
    plan = SimpleNamespace(
        solve=lambda rhs, rtol, maxit: gmres(dense_op(a), rhs, rtol=rtol, maxit=maxit))
    return solve_block(plan, np.array(b), rtol, 200, "block", 0, [])


class TestSparseMatrix:
    def test_sorted_unique_indices(self):
        m = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        for i in range(m.n):
            row = m.indices[m.indptr[i] : m.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 7))
        m = SparseMatrix(a)
        x = rng.standard_normal(7)
        assert np.allclose(m @ x, a @ x)

    def test_literal_bandwidth(self):
        m = SparseMatrix(sp.diags([1.0, 2.0, 1.0], [-1, 0, 1], shape=(5, 5)))
        k, perm, _, _ = m.pattern.band
        assert k == 1 and perm is None

    def test_combine(self):
        a = SparseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        b = SparseMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = combine([2.0, -1.0, 3.0], [a, b, None])
        assert np.allclose(out.to_dense(), [[5.0, -1.0], [-1.0, 7.0]])

    @pytest.mark.parametrize("call, fragment", [
        (lambda m: combine([1.0], [None]), "combine needs at least one concrete matrix"),
        (lambda m: combine_rows(np.ones((1, 2)), [m]), "2 weights per row for 1 operands"),
        (lambda m: gmres(m, np.ones(3)), r"rhs has shape \(3,\), expected \(2,\)"),
        (lambda m: SparseMatrix.on_pattern(m.pattern, np.ones(3)),
         r"data has shape \(3,\), expected \(2,\)"),
    ], ids=["combine-no-matrix", "combine-rows-weights", "gmres-rhs", "on-pattern-data"])
    def test_bad_operand_rejected(self, call, fragment):
        m = SparseMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match=fragment):
            call(m)


class TestKernelProduct:
    """``m @ x`` on a 1-D float64 vector calls scipy's CSR kernel directly and
    must give what ``m.csr @ x`` gives; every other operand goes through
    ``m.csr``."""

    @staticmethod
    def fresh(m):
        """``m``'s values on its pattern, with no scipy matrix built yet."""
        return SparseMatrix.on_pattern(m.pattern, m.data.copy())

    @pytest.mark.parametrize("shape", [(6, 6), (7, 4), (3, 5)], ids=["square", "tall", "wide"])
    def test_matches_scipy(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
        a[1] = 0.0  # an empty row
        m = self.fresh(SparseMatrix(a))
        x = rng.standard_normal(shape[1])
        y = m @ x
        assert m._csr is None  # the kernel builds no scipy matrix
        assert y.dtype == np.float64 and np.array_equal(y, m.csr @ x)
        assert np.array_equal(m.matvec(x), y)

    def test_no_entries(self):
        # as shear's L_w: a square block with nnz == 0
        m = self.fresh(SparseMatrix(sp.csr_matrix((5, 5))))
        y = m @ np.ones(5)
        assert m._csr is None and m.nnz == 0
        assert np.array_equal(y, np.zeros(5)) and np.array_equal(y, m.csr @ np.ones(5))

    def test_strided_and_integer_operands(self):
        rng = np.random.default_rng(3)
        m = self.fresh(random_operator(rng, 8, 2, True))
        strided = rng.standard_normal(16)[::2]
        y = m @ strided
        assert m._csr is None
        assert np.array_equal(y, m.csr @ strided)
        ints = np.arange(8)
        assert np.array_equal(m @ ints, m.csr @ ints)

    def test_other_operands_behave_as_before(self):
        rng = np.random.default_rng(4)
        m = self.fresh(random_operator(rng, 6, 1, True))
        block = rng.standard_normal((6, 3))
        assert np.array_equal(m @ block, m.csr @ block)
        column = rng.standard_normal((6, 1))
        assert np.array_equal(m @ column, m.csr @ column)
        for wrong in (np.ones(5), np.ones(7)):
            with pytest.raises(ValueError) as ours:
                m @ wrong
            with pytest.raises(ValueError) as scipys:
                m.csr @ wrong
            assert str(ours.value) == str(scipys.value)


class TestGmres:
    def test_identity_one_iteration(self):
        b = np.arange(1.0, 6.0)
        x, rep = gmres(dense_op(np.eye(5)), b, rtol=1e-12)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(x, b)

    def test_diagonal_krylov_bound(self):
        d = np.diag(np.arange(1.0, 11.0))
        x, rep = gmres(dense_op(d), np.ones(10), rtol=1e-12, maxit=50)
        assert rep.converged and rep.iterations <= 10
        assert np.allclose(d @ x, np.ones(10), atol=1e-10)

    def test_exactness_within_dimension(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((24, 24)) + 5 * np.eye(24)
        b = rng.standard_normal(24)
        x, rep = gmres(dense_op(a), b, rtol=1e-13, maxit=100, restart=100)
        assert rep.converged and rep.iterations <= 24
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-13

    def test_true_residual_reported(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((16, 16)) + 4 * np.eye(16)
        b = rng.standard_normal(16)
        x, rep = gmres(dense_op(a), b, rtol=1e-8)
        true_rel = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
        assert abs(true_rel - rep.residuals[-1]) <= 1e-13

    def test_history_non_increasing(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 20)) + 6 * np.eye(20)
        b = rng.standard_normal(20)
        _, rep = gmres(dense_op(a), b, rtol=1e-12, restart=7)
        h = rep.residuals
        assert all(h[i + 1] <= h[i] * (1 + 1e-10) + 1e-15 for i in range(len(h) - 1))

    def test_right_preconditioning_and_counting(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 12)) + 4 * np.eye(12)
        b = rng.standard_normal(12)
        inv = np.linalg.inv(a)
        pre = LinearOperator(12, lambda v: inv @ v, solves_per_apply=2)
        x, rep = gmres(dense_op(a), b, right_precond=pre, rtol=1e-12)
        assert rep.converged and rep.iterations == 1
        assert rep.precond_applications == 2 * rep.iterations

    def test_maxit_returns_unconverged(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30)) + 6 * np.eye(30)
        b = rng.standard_normal(30)
        _, rep = gmres(dense_op(a), b, rtol=1e-15, maxit=3, restart=2)
        assert not rep.converged and rep.iterations == 3

    def test_zero_rhs(self):
        x, rep = gmres(dense_op(np.eye(4)), np.zeros(4))
        assert rep.converged and rep.iterations == 0
        assert np.all(x == 0.0)

    def test_rtol_domain(self):
        with pytest.raises(ValueError):
            gmres(dense_op(np.eye(3)), np.ones(3), rtol=2.0)

    def test_rejects_nonfinite_rhs(self):
        with pytest.raises(ValueError, match="non-finite"):
            gmres(dense_op(np.eye(3)), np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("budget", [{"restart": 0}, {"maxit": 0}, {"maxit": -3},
                                        {"restart": -1}])
    def test_budget_below_one_rejected(self, budget):
        # restart=0 used to loop for ever (no iteration ever counted), maxit <= 0
        # returned zeros unconverged and restart=-1 failed inside numpy
        with pytest.raises(ValueError, match="maxit and restart must be >= 1"):
            gmres(SparseMatrix(np.eye(3)), np.ones(3), **budget)

    @pytest.mark.parametrize("budget, shown", [({"maxit": 2.5}, "maxit=2.5"),
                                               ({"restart": True}, "restart=True"),
                                               ({"maxit": True}, "maxit=True"),
                                               ({"restart": 3.0}, "restart=3.0"),
                                               ({"maxit": "5"}, "maxit='5'")])
    def test_non_integer_budget_rejected(self, budget, shown):
        # a float or string used to fail inside numpy with a bare TypeError,
        # and True ran as a budget of 1
        with pytest.raises(ValueError, match=f"must be >= 1 integers, got {shown}"):
            gmres(SparseMatrix(2 * np.eye(3)), np.ones(3), **budget)

    def test_numpy_integer_budget_accepted(self):
        x, report = gmres(SparseMatrix(2 * np.eye(3)), np.ones(3), maxit=np.int64(5),
                          restart=np.int32(3))
        assert report.converged and np.allclose(x, 0.5)

    def test_products_bound_once(self):
        # GMRES calls a matrix's ``@`` and a preconditioner's ``into`` directly
        assert SparseMatrix.matvec is SparseMatrix.__matmul__
        into = lambda x, out: np.copyto(out, x)  # noqa: E731
        assert LinearOperator(3, into=into).matvec_into is into

    def test_restarted_convergence(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 40)) + 8 * np.eye(40)
        b = rng.standard_normal(40)
        x, rep = gmres(dense_op(a), b, rtol=1e-10, maxit=400, restart=5)
        assert rep.converged
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-10

    @pytest.mark.parametrize("restart", [200, 6])
    def test_wide_and_restarted_solves_match_dense(self, restart):
        # more iterations than the 8 basis vectors a cycle starts with, and
        # (restart = 6) more than one cycle holds
        rng = np.random.default_rng(7)
        a = rng.standard_normal((60, 60)) + 9 * np.eye(60)
        b = rng.standard_normal(60)
        x, rep = gmres(dense_op(a), b, rtol=1e-12, maxit=400, restart=restart)
        assert rep.converged and rep.iterations > min(8, restart)
        ref = np.linalg.solve(a, b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_interleaved_sizes_match_fresh_calls(self):
        rng = np.random.default_rng(8)
        cases = [(rng.standard_normal((n, n)) + 6 * np.eye(n), pre, rng.standard_normal((3, n)))
                 for n, pre in ((20, None), (35, LinearOperator(35, lambda v: v / 6.0)))]
        fresh = [[gmres(dense_op(a), b, right_precond=pre, rtol=1e-10)[0] for b in bs]
                 for a, pre, bs in cases]
        for k in range(3):
            for (a, pre, bs), ref in zip(cases, fresh):
                x, _ = gmres(dense_op(a), bs[k], right_precond=pre, rtol=1e-10)
                assert np.array_equal(x, ref[k])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_rhs(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            gmres(dense_op(np.eye(3)), np.array([1.0, bad, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_rhs_with_overflowing_norm_is_not_rejected(self):
        # every entry is finite, so the finiteness check lets it through; its
        # norm overflows, so it is solved scaled by its largest entry
        rhs = np.array([1e300, -2e300, 5e299, 1e300])
        a = np.diag([1.0, 2.0, 4.0, 0.5])
        x, rep = gmres(dense_op(a), rhs, rtol=1e-12)
        assert rep.converged and rep.iterations == 4
        assert np.all(np.isfinite(rep.residuals)) and rep.residuals[-1] <= 1e-12
        assert np.allclose(x, rhs / np.diag(a), rtol=1e-12, atol=0.0)

    def test_breakdown_at_the_solution_converges(self):
        # the first Arnoldi step breaks down (h[1, 0] below 1e-14 of |A v|)
        # with the residual already met
        a = np.diag([1.0, 1.0 + 1e-15])
        x, rep = gmres(dense_op(a), np.ones(2), rtol=1e-12)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(x, 1.0, atol=1e-14)

    def test_breakdown_above_rtol_raises(self):
        # gmres reports the breakdown; solve_block, its one judge, raises it
        a = np.diag([1.0, 1.0 + 1e-15])
        _, rep = gmres(dense_op(a), np.ones(2), rtol=1e-17)
        assert rep.breakdown and not rep.converged and rep.iterations == 1
        with pytest.raises(KrylovBreakdownError, match="above rtol"):
            judged(a, np.ones(2), 1e-17)

    @pytest.mark.parametrize("a, b, residual", [
        (np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0], "1.000e\\+00"),
        (np.diag([1.0, 0.0]), [1.0, 1.0], "7.071e-01"),
    ])
    def test_dead_column_raises_with_the_least_squares_residual(self, a, b, residual):
        # A v_j falls into the span already built, with full cancellation:
        # at once for a nilpotent operator, at the second step for a
        # singular one
        _, rep = gmres(dense_op(a), np.array(b), rtol=1e-8)
        assert rep.breakdown and not rep.converged
        with pytest.raises(KrylovBreakdownError, match=f"residual {residual} above"):
            judged(a, b, 1e-8)


class TestBandedLU:
    def test_identity(self):
        f = BandedLU.factor(SparseMatrix(np.eye(6)))
        b = np.arange(6.0)
        assert np.allclose(f.solve(b), b)

    def test_tridiagonal_recovery(self):
        n = 40
        h = 1.0 / (n + 1)
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
        a = SparseMatrix(lap)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n)
        got = BandedLU.factor(a).solve(a @ x)
        assert np.max(np.abs(got - x)) < 1e-10

    def test_periodic_band_correction(self):
        n = 48
        a = SparseMatrix(sp.identity(n) - 0.2 * periodic_central(n, 1.0 / n))
        f = BandedLU.factor(a)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(n)
        x = f.solve(b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10

    def test_matrix_rhs(self):
        n = 16
        a = SparseMatrix(sp.identity(n) - 0.2 * periodic_central(n, 1.0 / n))
        f = BandedLU.factor(a)
        rng = np.random.default_rng(9)
        bs = rng.standard_normal((n, 3))
        xs = f.solve(bs)
        assert np.linalg.norm(a @ xs - bs) <= 1e-10

    def test_singular_banded(self):
        with pytest.raises(SingularMatrixError):
            BandedLU.factor(SparseMatrix(np.zeros((3, 3))))

    def test_singular_periodic(self):
        # the 1-D and 2-D periodic Laplacians have the constant nullspace; their
        # factorizations leave roundoff-sized pivots that must surface as errors
        # (20, 20) and (52, 52) leave pivots of 1.5e-14 and 1.1e-14 of the
        # largest entry, above a fixed 1e-14 threshold but below n * eps
        for dims in [(8,), (6, 6), (20, 20), (52, 52)]:
            lap = torus_operator(dims, 1.0)
            with pytest.raises(SingularMatrixError):
                f = BandedLU.factor(lap)
                f.solve(np.ones(lap.n))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            BandedLU.factor(SparseMatrix(np.ones((2, 3))))

    @pytest.mark.parametrize("kind,routine", [("spd", "dpttrs"), ("natural", "dgbtrs"),
                                              ("rcm", "dgbtrs")])
    def test_solve_into_a_row_is_bit_identical(self, monkeypatch, kind, routine):
        # the in-place solve writes the very bits the returning one gives, into
        # a row of a 2-D array as GMRES passes it, and onto its own rhs
        n, rng = 64, np.random.default_rng(11)
        if kind == "rcm":
            a = SparseMatrix(sp.identity(n) - 0.2 * periodic_central(n, 1.0 / n))
        else:
            a = (spd_tridiagonal if kind == "spd" else tridiagonal)(rng, n)
        assert (a.pattern.band[1] is not None) == (kind == "rcm")
        f = a.factorization
        b = rng.standard_normal(n)
        b.setflags(write=False)
        calls = lapack_calls(monkeypatch)
        want = f.solve(b)
        rows = np.full((3, n), np.nan)
        row = rows[1]
        assert f.solve(b, out=row) is row
        assert np.array_equal(row, want) and np.all(np.isnan(rows[[0, 2]]))
        row = rows[2]
        row[:] = b
        f.solve(row, out=row)
        assert np.array_equal(row, want)
        # a C-ordered matrix out, which LAPACK cannot overwrite in place
        bs, outs = rng.standard_normal((n, 3)), np.empty((n, 3))
        assert f.solve(bs, out=outs) is outs and np.array_equal(outs, f.solve(bs))
        assert calls == [routine] * 5


def lapack_calls(monkeypatch, names=("dpttrs", "dgbtrs")):
    """Names of the LAPACK routines among ``names`` that :class:`BandedLU`
    calls, in order (by default its two solve routines)."""
    calls = []
    for name in names:
        routine = getattr(sparsela.lapack, name)

        def spy(*args, _name=name, _routine=routine, **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(sparsela.lapack, name, spy)
    return calls


def tridiagonal(rng, n):
    """Random diagonally dominant tridiagonal matrix (a 1x1 one for n = 1)."""
    off = [rng.standard_normal(n - 1), rng.standard_normal(n - 1)]
    return SparseMatrix(sp.diags([off[0], 4.0 + rng.random(n), off[1]], [-1, 0, 1],
                                 shape=(n, n)))


def spd_tridiagonal(rng, n):
    """Random symmetric diagonally dominant tridiagonal matrix with a positive
    diagonal, so symmetric positive definite (``eta*I - dt*L`` on heat)."""
    off = rng.standard_normal(n - 1)
    return SparseMatrix(sp.diags([off, 4.0 + rng.random(n), off], [-1, 0, 1], shape=(n, n)))


SIZES = [1, 2, 3, 4, 9, 1024]


class TestTridiagonal:
    """Natural-order bands of half-width 1 factor as ``L D L^T`` through
    pttrf/pttrs when symmetric positive definite, otherwise through gbtrf/gbtrs."""

    @pytest.mark.parametrize("make,n", [(tridiagonal, n) for n in SIZES]
                             + [(spd_tridiagonal, n) for n in (2, 3, 9, 1024)],
                             ids=[str(n) for n in SIZES] + ["spd2", "spd3", "spd9", "spd1024"])
    @pytest.mark.parametrize("nrhs", [None, 1, 3])
    def test_solve_matches_dense(self, make, n, nrhs):
        rng = np.random.default_rng(n)
        a = make(rng, n)
        b = rng.standard_normal(n if nrhs is None else (n, nrhs))
        x = a.factorization.solve(b)
        ref = np.linalg.solve(a.to_dense(), b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pivoting_matches_dense(self):
        # a zero leading diagonal entry forces a row interchange
        a = SparseMatrix(np.array([[0.0, 1.0, 0.0], [2.0, 1.0, 3.0], [0.0, 1.0, 1.0]]))
        b = np.array([1.0, 2.0, 3.0])
        ref = np.linalg.solve(a.to_dense(), b)
        assert np.max(np.abs(a.factorization.solve(b) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n,routine", [(1, "dgbtrs"), (2, "dgbtrs"), (3, "dgbtrs"),
                                           (64, "dgbtrs"), (2, "dpttrs"), (3, "dpttrs"),
                                           (64, "dpttrs")])
    def test_routine_by_size(self, monkeypatch, n, routine):
        # the nonsymmetric inputs keep the general band solve at every size; an
        # SPD band takes LDL^T from n = 2 (a 1x1 matrix has half-width 0)
        make = spd_tridiagonal if routine == "dpttrs" else tridiagonal
        a = make(np.random.default_rng(0), n)
        calls = lapack_calls(monkeypatch)
        a.factorization.solve(np.ones(n))
        a.factorization.solve(np.ones((n, 2)))
        assert calls == [routine] * 2

    def test_diagonal_stays_banded(self, monkeypatch):
        a = SparseMatrix(sp.diags([2.0, 3.0, 4.0, 5.0]))
        calls = lapack_calls(monkeypatch)
        assert np.allclose(a.factorization.solve(np.ones(4)), [0.5, 1 / 3, 0.25, 0.2])
        assert calls == ["dgbtrs"]

    @pytest.mark.parametrize("n", [3, 4, 17])
    def test_singular_raises(self, n):
        # the Neumann Laplacian has the constant nullspace: a roundoff pivot
        lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)).tolil()
        lap[0, 0] = lap[n - 1, n - 1] = -1.0
        with pytest.raises(SingularMatrixError):
            SparseMatrix(lap.tocsr()).factorization
        # and an exactly zero row, kept as explicit zeros on the full band
        band = SparseMatrix(sp.diags([1.0, 2.0, 1.0], [-1, 0, 1], shape=(n, n))).pattern
        values = np.where(band.rows == 1, 0.0, 2.0)
        with pytest.raises(SingularMatrixError):
            SparseMatrix.on_pattern(band, values).factorization

    def test_symmetric_indefinite_falls_back_to_gbtrf(self, monkeypatch):
        # pttrf meets the negative pivot -3 - 1/2 in row 2 and reports it
        n = 9
        a = SparseMatrix(sp.diags([1.0, [2.0, -3.0] * 4 + [2.0], 1.0], [-1, 0, 1], shape=(n, n)))
        calls = lapack_calls(monkeypatch, ("dpttrf", "dgbtrf", "dpttrs", "dgbtrs"))
        b = np.arange(1.0, n + 1)
        x = a.factorization.solve(b)
        assert calls == ["dpttrf", "dgbtrf", "dgbtrs"]
        ref = np.linalg.solve(a.to_dense(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [3, 4, 17])
    @pytest.mark.parametrize("last,routines", [(1.0, ["dpttrf", "dgbtrf"]),
                                               (1.0 + 2.0**-50, ["dpttrf"])])
    def test_singular_psd_band_raises(self, monkeypatch, n, last, routines):
        # the negated Neumann Laplacian [1, 2, ..., 2, 1] with off-diagonals -1
        # is positive semidefinite: pttrf fails on its zero pivot and gbtrf's
        # pivot check raises; with its last entry 2**-50 larger, pttrf succeeds
        # and the check on D raises
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
        lap[0, 0], lap[n - 1, n - 1] = 1.0, last
        calls = lapack_calls(monkeypatch, ("dpttrf", "dgbtrf"))
        with pytest.raises(SingularMatrixError):
            SparseMatrix(lap.tocsr()).factorization
        assert calls == routines

    def test_burgers_and_shear_stay_banded(self, monkeypatch):
        # burgers is periodic (a band only in RCM order), shear's 2-D operators
        # are wider than one diagonal: both keep LAPACK's general band solve
        burgers = make_problem("burgers1d", n=256)
        jac = burgers.system.linearize(burgers.u0, 0.0)
        shear = make_problem("shear_layer_small", n=16)
        lu, _, _, gw = shear.system.blocks(shear.u0, shear.w0, 0.0)
        mats = [combine([3.0, -1e-4], [None, jac]), combine([3.0, -1e-2], [None, lu]), gw]
        assert [m.pattern.band[0] > 1 or m.pattern.band[1] is not None for m in mats] == [True] * 3
        calls = lapack_calls(monkeypatch)
        for m in mats:
            m.factorization.solve(np.ones(m.n))
        assert calls == ["dgbtrs"] * 3


class TestOwnership:
    """No writable alias of a matrix's values survives its construction."""

    @pytest.mark.parametrize("source", ["dense", "sparse"])
    def test_constructor_csr_is_read_only(self, source):
        dense = np.diag([2.0, 3.0, 4.0]) + np.diag([1.0, 1.0], 1)
        m = SparseMatrix(dense if source == "dense" else sp.csr_matrix(dense))
        with pytest.raises(ValueError, match="read-only"):
            m.csr.data[0] = 5.0

    def test_constructor_copies_a_sparse_input(self):
        src = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
        m = SparseMatrix(src)
        src.data[:] = 7.0  # still the caller's to write
        assert np.array_equal(m.to_dense(), np.diag([2.0, 3.0, 4.0]))

    def test_on_pattern_csr_is_read_only(self):
        m = SparseMatrix.on_pattern(SparseMatrix(np.eye(3)).pattern, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            m.csr.data[0] = 5.0

    def test_on_pattern_owns_an_array_that_owns_its_memory(self):
        data = np.array([1.0, 2.0, 3.0])
        SparseMatrix.on_pattern(SparseMatrix(np.eye(3)).pattern, data)
        with pytest.raises(ValueError, match="read-only"):
            data[0] = 5.0

    def test_on_pattern_keeps_an_owned_array_without_a_view(self):
        data = np.array([1.0, 2.0, 3.0])
        assert SparseMatrix.on_pattern(SparseMatrix(np.eye(3)).pattern, data).data is data

    def test_on_pattern_copies_a_view(self):
        # every cache built on the matrix must keep agreeing with its values
        base = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(6, 6), format="csr")
        buf = np.concatenate([base.data, base.data])
        view = buf[: base.nnz]
        m = SparseMatrix.on_pattern(SparseMatrix(base).pattern, view)
        x = np.arange(6.0)
        before = m @ x
        shifted = combine([2.0, -1.0], [None, m])
        factor = shifted.factorization
        block = Block2x2System(eta=2.0, beta=1.5, phi=1.0, mass=None, l1=m, l2=m, dt=0.1)
        matrix = block.matrix
        view[:] = 99.0  # the caller's buffer stays writable
        dense = base.toarray()
        assert np.array_equal(m @ x, before) and np.array_equal(m.to_dense(), dense)
        assert combine([2.0, -1.0], [None, m]) is shifted
        assert np.array_equal(shifted.to_dense(), 2.0 * np.eye(6) - dense)
        assert np.allclose(factor.solve(shifted @ x), x, rtol=0, atol=1e-12)
        again = Block2x2System(eta=2.0, beta=1.5, phi=1.0, mass=None, l1=m, l2=m, dt=0.1)
        assert again.matrix is matrix
        top = np.hstack([2.0 * np.eye(6) - 0.1 * dense, np.eye(6)])
        bottom = np.hstack([-2.25 * np.eye(6), 2.0 * np.eye(6) - 0.1 * dense])
        assert np.allclose(matrix.to_dense(), np.vstack([top, bottom]), rtol=0, atol=1e-15)


class TestStack:
    def test_blocks_in_place_with_identity(self):
        a = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        c = SparseMatrix(np.array([[4.0], [5.0]]))
        m = sparsela.stack((2, 1), [(0, 0, 2.0, a), (0, 0, -1.0, None), (0, 1, 3.0, c),
                                    (1, 1, 0.5, None)], owner=a)
        assert np.array_equal(m.to_dense(), [[1.0, 4.0, 12.0], [0.0, 5.0, 15.0],
                                             [0.0, 0.0, 0.5]])

    def test_memoized_on_the_owner(self):
        a = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        terms = [(0, 0, 1.0, a), (1, 1, 2.0, a), (0, 1, 1.0, None)]
        first = sparsela.stack((2, 2), terms, owner=a)
        assert sparsela.stack((2, 2), terms, owner=a) is first
        assert sparsela.stack((2, 2), terms[:2], owner=a) is not first

    def test_shape_mismatch_rejected(self):
        a = SparseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            sparsela.stack((3, 2), [(0, 0, 1.0, a)], owner=a)
        with pytest.raises(ValueError):
            sparsela.stack((2, 1), [(0, 1, 1.0, None), (0, 0, 1.0, a)], owner=a)


class TestMemo:
    """Immutable values, memoized sums and cached factorizations."""

    def test_values_are_read_only(self):
        m = SparseMatrix(sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(4, 4)))
        on = SparseMatrix.on_pattern(m.pattern, np.arange(m.nnz, dtype=float))
        for mat in (m, on, combine([2.0, 1.0], [None, m])):
            with pytest.raises(ValueError, match="read-only"):
                mat.data[0] = 5.0

    def test_same_operands_give_the_same_sum(self):
        m = SparseMatrix(sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(5, 5)))
        a = combine([1.5, -0.1], [None, m])
        assert combine([1.5, -0.1], [None, m]) is a
        assert combine(np.array([1.5, -0.1]), [None, m]) is a
        assert combine([np.array(1.5), -0.1], [None, m]) is a
        assert combine([1.5, -0.2], [None, m]) is not a
        assert combine([-0.1, 1.5], [m, None]) is not a
        assert a.factorization is a.factorization

    def test_equal_values_in_a_new_object_are_a_new_sum(self, factored):
        m = SparseMatrix(sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(5, 5)))
        twin = SparseMatrix.on_pattern(m.pattern, m.data.copy())
        first, second = (combine([3.0, -1.0], [None, op]) for op in (m, twin))
        assert first is not second
        assert np.array_equal(first.data, second.data)
        assert first.factorization is not second.factorization
        assert factored == [first, second]
        # the same for an operand other than the one that holds the memo
        mass = SparseMatrix(sp.identity(5) * 2.0)
        mass_twin = SparseMatrix.on_pattern(mass.pattern, mass.data)
        assert combine([1.0, -0.5], [mass, m]) is not combine([1.0, -0.5], [mass_twin, m])

    def test_cache_stays_within_its_cap(self):
        m = SparseMatrix(sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(5, 5)))
        sums = [combine([1.0, -dt], [None, m]) for dt in np.linspace(0.1, 1.0, 3 * SUM_CACHE_SIZE)]
        assert len(m._sums) == SUM_CACHE_SIZE
        # the oldest sums were evicted, the newest are still served
        assert combine([1.0, -0.1], [None, m]) is not sums[0]
        assert combine([1.0, -1.0], [None, m]) is sums[-1]

    def test_sum_does_not_keep_its_owner_alive(self):
        import weakref

        m = SparseMatrix(sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(5, 5)))
        mass = SparseMatrix(sp.identity(5) * 2.0)
        combine([1.0, -0.5], [mass, m]).factorization
        gone = weakref.ref(m)
        del m  # no reference cycle: freed at once, without the collector
        assert gone() is None and not mass._sums


def random_operator(rng, n, bandwidth, wraps, diagonal=True, zero_wrap=False):
    """Random banded operator with optional periodic wrap entries.

    Band entries are kept with probability 0.7; ``wraps`` adds the corner
    entries ``(0, n-1)`` and ``(n-1, 0)`` outside the band, and ``zero_wrap``
    stores the first of them as an explicit zero.  The CSR is built from
    triplets so explicit zeros survive.
    """
    rows, cols = [], []
    for i in range(n):
        for j in range(max(0, i - bandwidth), min(n, i + bandwidth + 1)):
            if (i == j and diagonal) or (i != j and rng.random() < 0.7):
                rows.append(i)
                cols.append(j)
    if wraps and n - 1 > bandwidth:
        rows += [0, n - 1]
        cols += [n - 1, 0]
    vals = rng.standard_normal(len(rows))
    if zero_wrap and wraps and n - 1 > bandwidth:
        vals[-2] = 0.0
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseMatrix(coo.tocsr())


def torus_operator(dims, off):
    """Operator on the 2*len(dims) + 1 point periodic stencil of a grid of
    shape ``dims``, both wraps of every axis included: off-diagonal entries
    ``off`` (a scalar, or 2*len(dims)*prod(dims) values), diagonal minus
    their row sum.
    """
    n = int(np.prod(dims))
    grid = np.arange(n).reshape(dims)
    cols = [np.roll(grid, shift, axis).ravel()
            for axis in range(len(dims)) for shift in (1, -1)]
    rows = np.tile(np.arange(n), len(cols))
    vals = off * np.ones(len(rows))
    coo = sp.coo_matrix((vals, (rows, np.concatenate(cols))), shape=(n, n)).tocsr()
    return SparseMatrix(coo - sp.diags(np.asarray(coo.sum(axis=1)).ravel()))


class TestPatternPath:
    def test_structurally_equal_patterns_are_one_object(self):
        a = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        b = SparseMatrix(np.array([[5.0, -1.0], [0.0, 7.0]]))
        assert a.pattern is b.pattern
        with pytest.raises(ValueError):
            a.pattern.indices[0] = 1

    def test_pattern_built_csr_keeps_explicit_zeros(self):
        p = Pattern.of((2, 2), [0, 2, 3], [0, 1, 1])
        m = SparseMatrix.on_pattern(p, [1.0, 0.0, 2.0])
        assert m.csr.nnz == 3 and np.array_equal(m.to_dense(), [[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix.on_pattern(p, [1.0, np.nan, 2.0])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(3, 9),
        shapes=hst.lists(
            hst.tuples(hst.sampled_from(["shared", "own", "nodiag", "identity"]),
                       hst.sampled_from([0.0, 1.0, -0.5, 2.25, 1e-3])),
            min_size=1, max_size=5,
        ),
        bandwidth=hst.integers(0, 2),
        wraps=hst.booleans(),
    )
    def test_combine_equals_dense_sum_in_order(self, seed, n, shapes, bandwidth, wraps):
        rng = np.random.default_rng(seed)
        shared = random_operator(rng, n, bandwidth, wraps)
        mats = [shared]  # one concrete operand at least
        for kind, _ in shapes:
            if kind == "shared":
                mats.append(SparseMatrix.on_pattern(shared.pattern,
                                                    rng.standard_normal(shared.nnz)))
            elif kind == "identity":
                mats.append(None)
            else:
                mats.append(random_operator(rng, n, rng.integers(0, 3), rng.random() < 0.5,
                                            diagonal=kind == "own"))
        coeffs = [0.75] + [c for _, c in shapes]
        out = combine(coeffs, mats)
        dense = np.zeros((n, n))
        for c, m in zip(coeffs, mats):
            if c != 0.0:
                dense += c * (np.eye(n) if m is None else m.to_dense())
        assert np.array_equal(out.to_dense(), dense)
        holds_diagonal = np.count_nonzero(shared.pattern.rows == shared.indices) == n
        if all(m is None or m.pattern is shared.pattern for m in mats) and holds_diagonal:
            assert out.pattern is shared.pattern

    @pytest.mark.parametrize("zero_row", [False, True])
    def test_rectangular_sums_on_distinct_patterns(self, zero_row):
        # a rectangular one-block scatter: each sum lives on the union of its
        # nonzero-weight operands' patterns and holds the bits of scipy's
        # entrywise sum in mats order; an all-zero row holds no entry at all
        mats = [SparseMatrix(sp.random(4, 6, density=0.4, random_state=seed, format="csr"))
                for seed in (1, 2, 3)]
        assert len({m.pattern for m in mats}) == 3
        last = [0.0, 0.0, 0.0] if zero_row else [-2.0, 0.0, 0.5]
        weights = np.array([[1.5, -0.25, 3.0], [0.0, 2.0, -1.0], last])
        for w, row in zip(weights, combine_rows(weights, mats)):
            single = combine(w, mats)
            assert row.pattern is single.pattern
            assert row.data.tobytes() == single.data.tobytes()
            union, want = sp.csr_matrix((4, 6)), sp.csr_matrix((4, 6))
            for c, m in zip(w, mats):
                if c != 0.0:
                    union = union + sp.csr_matrix((np.ones(m.nnz), m.indices, m.indptr), (4, 6))
                    want = want + c * m.csr
            assert row.pattern is Pattern.of((4, 6), union.indptr, union.indices)
            assert row.to_dense().tobytes() == want.toarray().tobytes()
        assert (row.nnz == 0) is zero_row

    def test_all_zero_weights_keep_a_shared_pattern(self):
        a = SparseMatrix(sp.random(4, 6, density=0.4, random_state=1, format="csr"))
        twin = SparseMatrix.on_pattern(a.pattern, -a.data)
        other = SparseMatrix(sp.random(4, 6, density=0.4, random_state=2, format="csr"))
        shared = combine([0.0, 0.0], [a, twin])
        assert shared.pattern is a.pattern
        assert shared.data.tobytes() == np.zeros(a.nnz).tobytes()  # +0.0, never -0.0
        assert combine([0.0, 0.0], [a, other]).shape == (4, 6)
        assert combine([0.0, 0.0], [a, other]).nnz == 0

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(3, 12),
        bandwidth=hst.integers(0, 3),
        wraps=hst.booleans(),
        zero_wrap=hst.booleans(),
        nrhs=hst.sampled_from([None, 3]),
    )
    def test_banded_solve_matches_dense(self, seed, n, bandwidth, wraps, zero_wrap, nrhs):
        rng = np.random.default_rng(seed)
        lmat = random_operator(rng, n, bandwidth, wraps, zero_wrap=zero_wrap)
        shift = 2.0 + np.abs(lmat.to_dense()).sum(axis=1).max()
        a = combine([shift, -1.0], [None, lmat])
        b = rng.standard_normal(n if nrhs is None else (n, nrhs))
        x = BandedLU.factor(a).solve(b)
        ref = np.linalg.solve(a.to_dense(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_matrix_market_round_trip(tmp_path):
    n = 10
    a = SparseMatrix(sp.identity(n) - 0.3 * periodic_central(n, 0.1))
    path = tmp_path / "op.mtx"
    scipy.io.mmwrite(str(path), a.csr)
    back = scipy.io.mmread(path).tocsr()
    assert np.allclose(back.toarray(), a.to_dense())


def layout_values(grid, terms):
    """The block scatter's sum of ``terms`` ``(i, j, w, m)``: ``bincount``
    over the positions :func:`sparsela._block_layout` gives every entry."""
    places = tuple((i, j, None if m is None else m.pattern) for i, j, _, m in terms)
    pattern, pos, bounds = sparsela._block_layout(grid, places)
    values = np.concatenate([np.full(b - a, w) if m is None else m.data * w
                             for (_, _, w, m), a, b in zip(terms, bounds, bounds[1:])])
    return pattern, np.bincount(pos, values, pattern.nnz)


class TestOnePatternPass:
    """A one-block sum on one pattern holding the whole diagonal is one array
    pass, bit for bit the block scatter's ``bincount``."""

    @staticmethod
    def operands(diagonal=True):
        rng = np.random.default_rng(11)
        a = random_operator(rng, 9, 2, True, diagonal=diagonal)
        data = [rng.standard_normal(a.nnz) for _ in range(2)]
        data[0][::3] = -0.0  # signed zeros among the entries
        data[1][1::4] = 0.0
        return [a] + [SparseMatrix.on_pattern(a.pattern, d) for d in data]

    @staticmethod
    def layout_calls(monkeypatch):
        calls = []
        layout = sparsela._block_layout
        monkeypatch.setattr(sparsela, "_block_layout",
                            lambda grid, places: calls.append(places) or layout(grid, places))
        return calls

    @pytest.mark.parametrize("weights", [
        [1.5, -2.0, 0.25, 3.0], [0.0, -0.0, 0.5, -1.0], [-0.0, 0.0, -0.0, 0.0],
        [2.0, 0.0, 0.0, 0.0], [0.0, 1e-300, -7.0, 0.0]])
    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0)])
    def test_matches_the_scatter(self, monkeypatch, weights, order):
        ops = [None] + self.operands()  # the identity, then three matrices
        terms = [(0, 0, weights[k], ops[k]) for k in order]
        calls = self.layout_calls(monkeypatch)
        out = sparsela.stack((9,), terms, owner=ops[1])
        assert calls == []  # the pass, not the layout
        pattern, want = layout_values(((9,), (9,)), terms)
        assert out.pattern is pattern is ops[1].pattern
        assert out.data.tobytes() == want.tobytes()

    def test_combine_takes_the_pass(self, monkeypatch):
        ops = self.operands()
        calls = self.layout_calls(monkeypatch)
        out = combine([2.0, 0.0, -0.5, 1.0], [None] + ops)  # a zero weight is skipped
        zero = combine([0.0, 0.0, 0.0], ops)
        assert calls == []
        _, want = layout_values(((9,), (9,)), [(0, 0, 2.0, None), (0, 0, -0.5, ops[1]),
                                               (0, 0, 1.0, ops[2])])
        assert out.data.tobytes() == want.tobytes()
        _, want = layout_values(((9,), (9,)), [(0, 0, 0.0, m) for m in ops])
        assert zero.data.tobytes() == want.tobytes() == np.zeros(ops[0].nnz).tobytes()

    def test_rows_match_the_scatter(self, monkeypatch):
        ops = self.operands()
        weights = np.array([[1.5, -2.0, 0.25], [0.0, -0.0, 1.0], [-0.0, 0.0, -0.0],
                            [1e-300, 3.0, -3.0]])
        calls = self.layout_calls(monkeypatch)
        rows = combine_rows(weights, ops)
        assert calls == []
        for w, row in zip(weights, rows):
            pattern, want = layout_values(((9,), (9,)), [(0, 0, c, m) for c, m in zip(w, ops)])
            assert row.pattern is pattern and row.data.tobytes() == want.tobytes()
            assert not row.data.flags.writeable and row.data.base is rows[0].data.base

    def test_missing_diagonal_takes_the_layout(self, monkeypatch):
        ops = self.operands(diagonal=False)
        assert ops[0].pattern.diag is None
        terms = [(0, 0, 0.5, ops[0]), (0, 0, -1.0, None), (0, 0, 2.0, ops[1])]
        calls = self.layout_calls(monkeypatch)
        out = sparsela.stack((9,), terms, owner=ops[0])
        assert len(calls) == 1
        pattern, want = layout_values(((9,), (9,)), terms)
        assert out.pattern is pattern is not ops[0].pattern
        assert out.data.tobytes() == want.tobytes()
        assert np.array_equal(out.to_dense(), 0.5 * ops[0].to_dense() - np.eye(9)
                              + 2.0 * ops[1].to_dense())

    def test_diagonal_positions(self):
        p = Pattern.of((3, 3), [0, 2, 3, 5], [0, 2, 1, 0, 2])
        assert p.diag.tolist() == [0, 2, 4]
        assert Pattern.of((3, 3), [0, 1, 2, 3], [1, 1, 2]).diag is None
        assert Pattern.of((2, 3), [0, 1, 2], [0, 1]).diag is None


class TestBandOrdering:
    def test_periodic_stencil_becomes_a_band(self):
        a = SparseMatrix(sp.identity(48) - 0.2 * periodic_central(48, 1.0 / 48))
        k, perm, _, _ = a.pattern.band
        assert k == 2 and sorted(perm) == list(range(48))

    @pytest.mark.parametrize("offsets", [[0], [-1, 0, 1]])
    def test_no_ordering_tried_at_half_bandwidth_one(self, monkeypatch, offsets):
        def refuse(*args, **kwargs):
            raise AssertionError("reverse Cuthill-McKee called")

        monkeypatch.setattr(sparsela, "reverse_cuthill_mckee", refuse)
        csr = sp.diags([np.ones(37 - abs(d)) for d in offsets], offsets, format="csr")
        pattern = sparsela.Pattern(csr.shape, csr.indptr, csr.indices)
        k, perm, inv, scatter = pattern.band
        assert (k, perm, inv) == (len(offsets) // 2, None, None)
        np.testing.assert_array_equal(
            scatter, 2 * k + pattern.rows - csr.indices + csr.indices * (3 * k + 1))

    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_reordered_solve_matches_dense_and_keeps_rhs(self, nrhs):
        rng = np.random.default_rng(9)
        n = 48
        a = SparseMatrix(3.0 * sp.identity(n) - periodic_central(n, 1.0 / n) / n
                         + sp.diags(rng.uniform(0.0, 1.0, n)))
        _, perm, inv, _ = a.pattern.band
        assert perm is not None and np.array_equal(inv[perm], np.arange(n))
        b = rng.standard_normal(n if nrhs is None else (n, nrhs))
        kept = b.copy()
        x = a.factorization.solve(b)
        assert x.shape == b.shape and np.array_equal(b, kept)
        ref = np.linalg.solve(a.to_dense(), b)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_shear_operators_reordered_to_a_narrow_band(self):
        problem = make_problem("shear_layer_small", n=16)
        lmat, _, _, gw = problem.system.blocks(problem.u0, problem.w0, 0.0)
        for m in (lmat, gw):
            k, perm, _, _ = m.pattern.band
            assert k < 32 and perm is not None

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        nx=hst.integers(3, 6),
        ny=hst.integers(3, 6),
        nrhs=hst.sampled_from([None, 3]),
    )
    def test_torus_solve_matches_dense(self, seed, nx, ny, nrhs):
        rng = np.random.default_rng(seed)
        lmat = torus_operator((nx, ny), rng.standard_normal(4 * nx * ny))
        shift = 2.0 + np.abs(lmat.to_dense()).sum(axis=1).max()
        a = combine([shift, -1.0], [None, lmat])
        b = rng.standard_normal(a.n if nrhs is None else (a.n, nrhs))
        x = BandedLU.factor(a).solve(b)
        ref = np.linalg.solve(a.to_dense(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def gbtrf_widths(monkeypatch):
    """``(kl, ku, piv)`` of every ``dgbtrf`` call :class:`BandedLU` makes."""
    calls, routine = [], sparsela.lapack.dgbtrf

    def spy(ab, kl, ku, **kwargs):
        lu, piv, info = routine(ab, kl, ku, **kwargs)
        calls.append((kl, ku, piv.copy()))
        return lu, piv, info

    monkeypatch.setattr(sparsela.lapack, "dgbtrf", spy)
    return calls


def full_band(rng, n, k, pivoting):
    """Random ``n x n`` matrix with every entry of half-bandwidth ``k`` stored,
    diagonally dominant unless ``pivoting``."""
    a = rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    a[np.abs(i - j) > k] = 0.0
    if not pivoting:
        a[i == j] += 2.0 * (2 * k + 1)
    return a


class TestStorageWidth:
    """The band is stored at ``storage_width(k)``, wider than ``k`` when the
    BLAS kernel's row blocks would otherwise leave a long scalar tail."""

    @pytest.mark.parametrize("k, width", [(2, 2), (12, 16), (13, 16), (14, 16), (15, 16),
                                          (17, 17), (28, 32), (29, 32), (30, 32), (31, 32)])
    @pytest.mark.parametrize("pivoting", [False, True], ids=["dominant", "pivoting"])
    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_matches_lapack_at_the_true_width(self, monkeypatch, k, width, pivoting, nrhs):
        # the oracle is dgbtrf/dgbtrs on the band stored k wide; equal bits are
        # checked by golden_steps.py --check, as kernels may round differently
        # on another CPU
        rng = np.random.default_rng(1000 * k + 10 * pivoting + (nrhs or 1))
        n = 3 * k + 20
        a = full_band(rng, n, k, pivoting)
        m = SparseMatrix(a)
        assert m.pattern.band[0] == k and m.pattern.band[1] is None
        ab = np.zeros((3 * k + 1, n))
        for d in range(-k, k + 1):
            j = np.arange(max(0, -d), min(n, n - d))
            ab[2 * k + d, j] = a[j + d, j]
        lu, piv, info = lapack.dgbtrf(ab, k, k)
        assert info == 0
        assert np.any(piv != np.arange(n)) == pivoting
        b = rng.standard_normal(n if nrhs is None else (n, nrhs))
        want = lapack.dgbtrs(lu, k, k, b, piv)[0]
        calls = gbtrf_widths(monkeypatch)
        x = m.factorization.solve(b)
        [(kl, ku, got_piv)] = calls
        assert kl == ku == width == storage_width(k)
        np.testing.assert_array_equal(got_piv, piv)
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dims, k", [((7, 7), 14), ((8, 8), 15), ((15, 15), 30),
                                         ((16, 16), 31)])
    def test_singular_torus_at_a_padded_width_raises(self, monkeypatch, dims, k):
        lap = torus_operator(dims, 1.0)
        assert lap.pattern.band[0] == k
        calls = gbtrf_widths(monkeypatch)
        with pytest.raises(SingularMatrixError):
            BandedLU.factor(lap)
        assert [c[:2] for c in calls] == [(storage_width(k),) * 2] and storage_width(k) > k

    def test_workload_operators(self, monkeypatch):
        # burgers' RCM band (k=2) would lose badly if padded; heat's SPD
        # tridiagonal takes pttrf; shear's 2-D operators (k=31) are stored 32
        # wide, so every dger column update runs in the 16-row kernel
        burgers = make_problem("burgers1d", n=256)
        jac = burgers.system.linearize(burgers.u0, 0.0)
        heat = make_problem("heat1d", n=1024)
        shear = make_problem("shear_layer_small", n=16)
        lu, _, _, gw = shear.system.blocks(shear.u0, shear.w0, 0.0)
        cases = [("burgers", combine([3.0, -1e-4], [None, jac]), 2, 2),
                 ("shear L_u", combine([3.0, -1e-2], [None, lu]), 31, 32),
                 ("shear G_w", gw, 31, 32)]
        for name, m, k, width in cases:
            calls = gbtrf_widths(monkeypatch)
            m.factorization
            assert m.pattern.band[0] == k, f"{name}: half-bandwidth moved"
            assert [c[:2] for c in calls] == [(width, width)], (
                f"{name}: band of half-width {k} must be stored {width} wide "
                f"(sparsela.storage_width, BLAS_KERNEL_ROWS = {sparsela.BLAS_KERNEL_ROWS})")
        calls = lapack_calls(monkeypatch, ("dpttrf", "dgbtrf"))
        combine([3.0, -1e-3], [None, heat.system.linearize(heat.u0, 0.0)]).factorization
        assert calls == ["dpttrf"]
