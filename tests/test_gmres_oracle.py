"""Bit-for-bit oracle for :func:`irkit.sparsela.gmres`.

``reference_gmres`` is the restarted GMRES loop as it stood before its
products were written with ``ndarray.dot``: every product with ``@`` and
the Givens rotations applied pairwise in the list.  On seeded nonsymmetric
systems ``gmres`` must return the same bits: ``x``, the iteration count and
the residual history, on paths the golden steps never take (restarts, a
``maxit`` cut, an ``into`` preconditioner, breakdowns, an rhs whose norm
overflows).
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from irkit.errors import KrylovBreakdownError
from irkit.irk_core import Block2x2System, PairPlan, PrecondSpec
from irkit.problems import make_problem
from irkit.sparsela import KrylovReport, LinearOperator, SparseMatrix, gmres


def reference_gmres(op, rhs, right_precond=None, rtol=1e-5, maxit=200, restart=200):
    n, apply_op = op.n, op.matvec
    rhs = np.asarray(rhs, dtype=float)
    bnorm, scale = math.sqrt(rhs @ rhs), 1.0
    if not math.isfinite(bnorm):
        scale = float(np.abs(rhs).max())
        rhs = rhs / scale
        bnorm = math.sqrt(rhs @ rhs)
    pre = right_precond or LinearOperator(n, lambda v: v, solves_per_apply=0)
    spa, apply_m = pre.solves_per_apply, pre.matvec_into
    if bnorm == 0.0:
        return np.zeros(n), KrylovReport(0, True, [0.0], 0)

    x = None
    r, beta = rhs, bnorm
    residuals = [beta / bnorm]
    total_it = 0
    converged = residuals[0] <= rtol

    while not converged and total_it < maxit:
        m = min(restart, maxit - total_it)
        z = np.empty((min(m, 8), n))
        v = np.empty((len(z) + 1, n))
        np.divide(r, beta, out=v[0])
        g = [beta]
        cols, cs, sn = [], [], []
        breakdown = False
        for j in range(m):
            if j == len(z):
                z = _widen(z, min(2 * j, m))
                v = _widen(v, len(z) + 1)
            apply_m(v[j], z[j])
            w = apply_op(z[j])
            wnorm0 = math.sqrt(w @ w)
            basis = v[: j + 1]
            coef = basis @ w
            w -= coef @ basis
            again = basis @ w
            w -= again @ basis
            col = (coef + again).tolist()
            hj = math.sqrt(w @ w)
            col.append(hj)
            if hj <= 1e-14 * max(wnorm0, 1e-300):
                breakdown = True
            else:
                np.divide(w, hj, out=v[j + 1])
            for i in range(j):
                a, b = col[i], col[i + 1]
                col[i], col[i + 1] = cs[i] * a + sn[i] * b, -sn[i] * a + cs[i] * b
            a, b = col[j], col[j + 1]
            denom = math.hypot(a, b)
            total_it += 1
            if denom == 0.0:
                breakdown = True
                residuals.append(residuals[-1])
                break
            cs.append(a / denom)
            sn.append(b / denom)
            cols.append(col[:j] + [denom])
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            est = abs(g[j + 1]) / bnorm
            residuals.append(est)
            if est <= rtol or breakdown or total_it >= maxit:
                break
        k = len(cols)
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - sum(cols[p][i] * y[p] for p in range(i + 1, k))) / cols[i][i]
        dx = np.array(y) @ z[:k]
        x = dx if x is None else x + dx
        r = rhs - apply_op(x)
        beta = math.sqrt(r @ r)
        true_rel = beta / bnorm
        residuals[-1] = true_rel
        if true_rel <= rtol:
            converged = True
        elif breakdown:
            raise KrylovBreakdownError(
                f"Arnoldi breakdown with residual {true_rel:.3e} above rtol {rtol:.3e}"
            )

    report = KrylovReport(total_it, converged, residuals, total_it * spa)
    return (np.zeros(n) if x is None else x) * scale, report


def _widen(a, rows):
    out = np.empty((rows, a.shape[1]))
    out[: len(a)] = a
    return out


def assert_same_bits(op, rhs, **kw):
    """``gmres`` and ``reference_gmres`` agree bit for bit; returns the report."""
    x, rep = gmres(op, rhs, **kw)
    ref_x, ref = reference_gmres(op, rhs, **kw)
    assert x.tobytes() == ref_x.tobytes()
    assert rep.iterations == ref.iterations and rep.converged == ref.converged
    assert rep.precond_applications == ref.precond_applications
    assert np.array(rep.residuals).tobytes() == np.array(ref.residuals).tobytes()
    return rep


def convection_diffusion(n, seed):
    """A seeded nonsymmetric sparse operator: a 1-D upwinded
    convection-diffusion stencil with random coefficients, plus a few
    random entries off the band."""
    rng = np.random.default_rng(seed)
    main = 4.0 + rng.uniform(0.0, 1.0, n)
    low = -1.0 - rng.uniform(0.0, 1.5, n - 1)
    up = -1.0 + rng.uniform(0.0, 0.5, n - 1)
    a = sp.diags([low, main, up], [-1, 0, 1], format="lil")
    for _ in range(n // 4):
        a[rng.integers(n), rng.integers(n)] += rng.uniform(-0.5, 0.5)
    return SparseMatrix(a.tocsr()), rng.standard_normal(n)


def jacobi_into(mat):
    inv = 1.0 / mat.csr.diagonal()

    def into(x, out):
        return np.multiply(x, inv, out=out)

    return LinearOperator(mat.n, into=into)


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("restart", [3, 7])
def test_restart_shorter_than_the_solve(seed, restart):
    a, b = convection_diffusion(80, seed)
    rep = assert_same_bits(a, b, rtol=1e-11, maxit=500, restart=restart)
    assert rep.converged and rep.iterations > 2 * restart


@pytest.mark.parametrize("seed", [21, 22])
def test_wide_cycle(seed):
    # more iterations in one cycle than the 8 rows a cycle starts with
    a, b = convection_diffusion(120, seed)
    rep = assert_same_bits(a, b, rtol=1e-12, maxit=500)
    assert rep.converged and rep.iterations > 8


@pytest.mark.parametrize("maxit, restart", [(5, 200), (9, 4), (12, 5)])
def test_maxit_cut(maxit, restart):
    a, b = convection_diffusion(60, 31)
    rep = assert_same_bits(a, b, rtol=1e-15, maxit=maxit, restart=restart)
    assert not rep.converged and rep.iterations == maxit


@pytest.mark.parametrize("seed", [41, 42])
def test_into_preconditioner(seed):
    a, b = convection_diffusion(70, seed)
    rep = assert_same_bits(a, b, right_precond=jacobi_into(a), rtol=1e-10, restart=6)
    assert rep.converged and rep.precond_applications == rep.iterations


@pytest.mark.parametrize("gamma_mode", ["star", "eta"])
def test_eigen_block_with_its_preconditioner(gamma_mode):
    # a nonsymmetric (burgers) 2x2 eigen-block, preconditioned by its plan's
    # block lower-triangular solver, which writes into GMRES's rows
    problem = make_problem("burgers1d", n=48)
    lmat = problem.system.linearize(problem.u0, 0.0)
    system = Block2x2System(2.0, 1.5, 1.0, None, lmat, lmat, 0.05)
    plan = PairPlan(system, PrecondSpec(gamma_mode=gamma_mode))
    op = LinearOperator(2 * lmat.n, lambda x: system.matrix @ x)
    rhs = np.random.default_rng(51).standard_normal(2 * lmat.n)
    for restart in (200, 2):
        rep = assert_same_bits(op, rhs, right_precond=plan.precond, rtol=1e-12, restart=restart)
        assert rep.converged and rep.precond_applications == 2 * rep.iterations


def test_breakdown_at_the_solution():
    # the operator has three distinct eigenvalues, so the third Arnoldi step
    # breaks down with the system solved
    rng = np.random.default_rng(61)
    v = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    a = SparseMatrix(v @ np.diag(np.repeat([1.0, 2.5, -3.0], 10)) @ np.linalg.inv(v))
    rep = assert_same_bits(a, rng.standard_normal(30), rtol=1e-12)
    assert rep.converged and rep.iterations == 3


@pytest.mark.parametrize("a, b", [
    (np.diag([1.0, 1.0 + 1e-15]), [1.0, 1.0]),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0]),
    (np.diag([1.0, 0.0]), [1.0, 1.0]),
], ids=["small-h", "nilpotent", "singular"])
def test_breakdown_above_rtol(a, b):
    op = LinearOperator(len(a), a.dot)
    with pytest.raises(KrylovBreakdownError) as got:
        gmres(op, np.array(b), rtol=1e-17)
    with pytest.raises(KrylovBreakdownError) as want:
        reference_gmres(op, np.array(b), rtol=1e-17)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("restart", [200, 4])
def test_rhs_whose_norm_overflows(restart):
    a, b = convection_diffusion(50, 71)
    rhs = b * 1e300
    assert not math.isfinite(math.sqrt(rhs @ rhs))
    rep = assert_same_bits(a, rhs, right_precond=jacobi_into(a), rtol=1e-10, restart=restart)
    assert rep.converged
