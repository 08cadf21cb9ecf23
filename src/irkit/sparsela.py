"""Sparse storage, banded factorization, and restarted GMRES.

Matrices are stored in CSR form with an optional bandwidth hint.  Entries
inside the declared band are factored with LAPACK's banded LU; entries
outside it (periodic wrap-around terms) are folded in through a
Sherman-Morrison-Woodbury bordered correction, so solves stay exact.

GMRES is right-preconditioned and keeps the preconditioned basis, which
makes the preconditioner cost exactly one application per iteration.  The
report counts preconditioner applications as ``iterations`` times the
``solves_per_apply`` declared by the preconditioner, matching the
convention that a 2x2 block preconditioner costs two inner solves per
Krylov iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.linalg import lapack

from . import densela
from .errors import KrylovBreakdownError, SingularMatrixError


class SparseMatrix:
    """CSR matrix with an optional bandwidth hint.

    Mostly square operators; rectangular coupling blocks (as in
    differential/algebraic systems) are allowed wherever no factorization
    is requested.  ``bandwidth`` declares which entries belong to the
    banded core; entries with ``|i - j| > bandwidth`` are treated as
    bordered corrections by the banded factorization.  When omitted, the
    literal bandwidth of the stored pattern is used (no border).
    """

    def __init__(self, mat, bandwidth=None):
        csr = sp.csr_matrix(mat, dtype=float)
        csr.sum_duplicates()
        csr.sort_indices()
        if csr.nnz and not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix contains non-finite entries")
        self._csr = csr
        self.shape = csr.shape
        self.n = csr.shape[0]
        if bandwidth is None:
            bandwidth = self._literal_bandwidth()
        self.bandwidth = int(bandwidth)

    def _literal_bandwidth(self):
        if self._csr.nnz == 0:
            return 0
        coo = self._csr.tocoo()
        return int(np.max(np.abs(coo.row - coo.col)))

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def values(self):
        return self._csr.data

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def csr(self):
        return self._csr

    def matvec(self, x):
        return self._csr @ x

    def __matmul__(self, x):
        if isinstance(x, SparseMatrix):
            return SparseMatrix(self._csr @ x._csr)
        return self._csr @ x

    def to_dense(self):
        return self._csr.toarray()

    @staticmethod
    def identity(n):
        return SparseMatrix(sp.identity(n, format="csr"), bandwidth=0)


def combine(coeffs, mats):
    """Weighted sum ``sum_k coeffs[k] * mats[k]`` of same-shape matrices.

    ``None`` entries in ``mats`` stand for the identity.  The result keeps
    the largest bandwidth hint of the participants.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("empty combination")
    shape = next((m.shape for m in mats if m is not None), None)
    if shape is None:
        raise ValueError("combine needs at least one concrete matrix")
    acc = sp.csr_matrix(shape)
    bw = 0
    for ck, mk in zip(coeffs, mats):
        if ck == 0.0:
            continue
        if mk is None:
            acc = acc + ck * sp.identity(shape[0], format="csr")
        else:
            acc = acc + ck * mk.csr
            bw = max(bw, mk.bandwidth)
    return SparseMatrix(acc, bandwidth=bw)


class LinearOperator:
    """Abstract linear action ``y = A x`` of dimension ``n``.

    ``solves_per_apply`` declares how many diagonal-block solver
    applications one call costs; preconditioner operators set it so Krylov
    reports can account for solver work in the standard unit.
    """

    def __init__(self, n, apply, solves_per_apply=1):
        self.n = n
        self._apply = apply
        self.solves_per_apply = solves_per_apply

    def __call__(self, x):
        return self._apply(x)

    def matvec(self, x):
        return self._apply(x)


@dataclass
class KrylovReport:
    """Outcome of one GMRES solve."""

    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    precond_applications: int = 0


def _as_apply(op):
    if isinstance(op, (LinearOperator, SparseMatrix)):
        return op.n, op.matvec
    a = np.asarray(op, dtype=float)
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        return a.shape[0], lambda x: a @ x
    raise TypeError(f"cannot interpret {type(op)!r} as a linear operator")


def gmres(op, rhs, right_precond=None, rtol=1e-5, maxit=200, restart=200):
    """Restarted GMRES with right preconditioning.

    Returns ``(x, KrylovReport)``.  The residual history tracks relative
    true residuals (right preconditioning leaves them unchanged), and the
    final entry is always recomputed as ``norm(rhs - op @ x) / norm(rhs)``.
    Reaching ``maxit`` returns a non-converged report; an Arnoldi breakdown
    whose residual misses the tolerance raises
    :class:`~irkit.errors.KrylovBreakdownError`.
    """
    n, apply_op = _as_apply(op)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    if not (0.0 < rtol < 1.0):
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    spa = right_precond.solves_per_apply if right_precond is not None else 0
    apply_m = right_precond if right_precond is not None else (lambda v: v)

    bnorm = np.linalg.norm(rhs)
    if bnorm == 0.0:
        return np.zeros(n), KrylovReport(0, True, [0.0], 0)

    x = np.zeros(n)
    r = rhs.copy()
    beta = np.linalg.norm(r)
    residuals = [beta / bnorm]
    total_it = 0
    converged = residuals[0] <= rtol

    while not converged and total_it < maxit:
        m = min(restart, maxit - total_it)
        v = np.zeros((n, m + 1))
        z = np.zeros((n, m))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        v[:, 0] = r / beta
        g[0] = beta
        breakdown = False
        j = -1
        for j in range(m):
            zj = apply_m(v[:, j])
            z[:, j] = zj
            w = apply_op(zj)
            wnorm0 = np.linalg.norm(w)
            # Modified Gram-Schmidt with one re-orthogonalization pass.
            for _ in range(2):
                coef = v[:, : j + 1].T @ w
                w -= v[:, : j + 1] @ coef
                h[: j + 1, j] += coef
            hj = np.linalg.norm(w)
            h[j + 1, j] = hj
            if hj <= 1e-14 * max(wnorm0, 1e-300):
                breakdown = True
            else:
                v[:, j + 1] = w / hj
            for i in range(j):
                tmp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = tmp
            denom = np.hypot(h[j, j], h[j + 1, j])
            if denom == 0.0:
                # dead column: the operator maps this direction into the
                # existing span with full cancellation; drop it and stop
                breakdown = True
                j -= 1
                total_it += 1
                residuals.append(residuals[-1])
                break
            cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total_it += 1
            est = abs(g[j + 1]) / bnorm
            residuals.append(est)
            if est <= rtol or breakdown or total_it >= maxit:
                break
        # Assemble the cycle solution from the preconditioned basis.
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - h[i, i + 1 : k] @ y[i + 1 : k]) / h[i, i]
        x = x + z[:, :k] @ y
        r = rhs - apply_op(x)
        true_rel = np.linalg.norm(r) / bnorm
        residuals[-1] = true_rel
        if true_rel <= rtol:
            converged = True
        elif breakdown:
            raise KrylovBreakdownError(
                f"Arnoldi breakdown with residual {true_rel:.3e} above rtol {rtol:.3e}"
            )
        beta = np.linalg.norm(r)

    report = KrylovReport(
        iterations=total_it,
        converged=converged,
        residuals=residuals,
        precond_applications=total_it * spa,
    )
    return x, report


class BandedLU:
    """LU factorization of a banded matrix with bordered wrap corrections.

    The in-band part is factored with LAPACK ``gbtrf``; out-of-band entries
    ``(i, j, v)`` are handled through the Sherman-Morrison-Woodbury formula
    with ``U[:, t] = column of corrections into j_t`` and unit probes
    ``e_{j_t}``, so periodic stencils solve exactly.
    """

    def __init__(self, n, kl, ku, lu, piv, border_cols, binv_u, cap_lu, cap_piv):
        self.n = n
        self._kl = kl
        self._ku = ku
        self._lu = lu
        self._piv = piv
        self._border_cols = border_cols
        self._binv_u = binv_u
        self._cap_lu = cap_lu
        self._cap_piv = cap_piv

    @classmethod
    def factor(cls, a: SparseMatrix):
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"cannot factor a non-square matrix {a.shape}")
        n = a.n
        if n == 0:
            return cls(0, 0, 0, None, None, None, None, None, None)
        bw = a.bandwidth
        kl = ku = min(bw, n - 1)
        coo = a.csr.tocoo()
        in_band = np.abs(coo.row - coo.col) <= bw
        ab = np.zeros((2 * kl + ku + 1, n))
        rows = coo.row[in_band]
        cols = coo.col[in_band]
        vals = coo.data[in_band]
        ab[kl + ku + rows - cols, cols] = vals
        lu, piv, info = lapack.dgbtrf(ab, kl, ku)
        if info != 0:
            raise SingularMatrixError(f"banded factorization failed (info={info})")

        border_cols = None
        binv_u = None
        cap_lu = cap_piv = None
        if not np.all(in_band):
            out = ~in_band
            cols_out = np.unique(coo.col[out])
            u = np.zeros((n, len(cols_out)))
            col_pos = {c: t for t, c in enumerate(cols_out)}
            for r, c, vv in zip(coo.row[out], coo.col[out], coo.data[out]):
                u[r, col_pos[c]] += vv
            binv_u, info = _gbtrs(lu, kl, ku, piv, u)
            cap = np.eye(len(cols_out)) + binv_u[cols_out, :]
            cap_lu, cap_piv = densela.lu_factor(cap)
            border_cols = cols_out
        return cls(n, kl, ku, lu, piv, border_cols, binv_u, cap_lu, cap_piv)

    def solve(self, rhs):
        """Solve against one vector or a matrix of stacked column vectors."""
        if self.n == 0:
            return np.zeros_like(np.asarray(rhs, dtype=float))
        b = np.asarray(rhs, dtype=float)
        one_dim = b.ndim == 1
        bb = b[:, None] if one_dim else b.copy()
        y, info = _gbtrs(self._lu, self._kl, self._ku, self._piv, bb)
        if self._border_cols is not None:
            mid = densela.lu_solve_factored(
                self._cap_lu, self._cap_piv, y[self._border_cols, :]
            )
            y = y - self._binv_u @ mid
        return y[:, 0] if one_dim else y


def _gbtrs(lu, kl, ku, piv, b):
    x, info = lapack.dgbtrs(lu, kl, ku, b, piv)
    if info != 0:
        raise SingularMatrixError(f"banded solve failed (info={info})")
    return x, info


def export_matrix_market(mat: SparseMatrix, path):
    """Write the matrix in Matrix Market coordinate format."""
    scipy.io.mmwrite(str(path), mat.csr)
