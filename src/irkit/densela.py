"""Small dense linear-algebra kernels for Runge-Kutta coefficient matrices.

The real Schur decomposition operates on float64 numpy arrays at tiny sizes
(capped at 16x16), so it is implemented here for exact control over the
quasi-triangular block structure rather than speed.  LU solves and the
singular values behind two-norm condition numbers call LAPACK through
scipy.

The quasi-triangular factor produced by :func:`real_schur` is standardized:
every 2x2 diagonal block carrying a complex pair ``eta +- i*beta`` has equal
diagonal entries, i.e. it reads ``[[eta, phi], [-beta**2/phi, eta]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DecompositionError, SingularMatrixError

MAX_SCHUR_DIM = 16

# Subdiagonal entry h[i+1, i] is deflated when below this multiple of the
# adjacent diagonal magnitudes.
DEFLATION_RTOL = 1e-14


def _as_square(a, name="a"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class EigenBlock:
    """Diagonal block of a standardized quasi-triangular factor.

    A size-1 block holds a real eigenvalue ``eta``.  A size-2 block encodes
    the complex pair ``eta +- i*beta`` and reads
    ``[[eta, phi], [-beta**2/phi, eta]]``.
    """

    offset: int
    size: int
    eta: float
    beta: float
    phi: float

    def eigenvalues(self):
        if self.size == 1:
            return (complex(self.eta, 0.0),)
        return (complex(self.eta, self.beta), complex(self.eta, -self.beta))


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition ``a = q @ r @ q.T`` with standardized blocks."""

    q: np.ndarray
    r: np.ndarray
    blocks: tuple[EigenBlock, ...]

    def eigenvalues(self):
        return np.array([lam for blk in self.blocks for lam in blk.eigenvalues()])


def hessenberg(a):
    """Reduce ``a`` to upper Hessenberg form by Householder similarity.

    Returns ``(h, q)`` with ``a = q @ h @ q.T`` and ``q`` orthogonal.
    """
    h = _as_square(a).copy()
    n = h.shape[0]
    q = np.eye(n)
    for k in range(n - 2):
        x = h[k + 1 :, k]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(normx, x[0] if x[0] != 0.0 else 1.0)
        vn = np.linalg.norm(v)
        if vn == 0.0:
            continue
        v /= vn
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v)
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v)
        h[k + 2 :, k] = 0.0
    return h, q


def _householder_unit(x):
    """Unit Householder vector reflecting ``x`` onto ``+-norm(x) * e1``.

    Returns None when the reflection is the identity.
    """
    normx = np.linalg.norm(x)
    if normx == 0.0 or np.linalg.norm(x[1:]) == 0.0:
        return None
    v = x.copy()
    v[0] += math.copysign(normx, x[0] if x[0] != 0.0 else 1.0)
    return v / np.linalg.norm(v)


def _apply_reflector(h, q, rows, v):
    """Apply ``P = I - 2 v v^T`` on ``rows`` as a similarity, accumulating q."""
    rows = list(rows)
    w = v @ h[rows, :]
    h[rows, :] -= 2.0 * np.outer(v, w)
    w = h[:, rows] @ v
    h[:, rows] -= 2.0 * np.outer(w, v)
    w = q[:, rows] @ v
    q[:, rows] -= 2.0 * np.outer(w, v)


def _apply_rotation(h, q, k, g):
    """Apply the 2x2 rotation ``g`` to rows/columns ``k, k+1`` as a similarity."""
    cols = [k, k + 1]
    h[cols, :] = g.T @ h[cols, :]
    h[:, cols] = h[:, cols] @ g
    q[:, cols] = q[:, cols] @ g


def _process_2x2(h, q, k):
    """Split or standardize the 2x2 diagonal block at offset ``k``.

    Real eigenvalue pairs are rotated to upper triangular form (the
    subdiagonal entry becomes an exact zero).  Complex pairs are rotated so
    the two diagonal entries agree.
    """
    a, b = h[k, k], h[k, k + 1]
    c, d = h[k + 1, k], h[k + 1, k + 1]
    if c == 0.0:
        return
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc >= 0.0:
        # Real eigenvalues: rotate the eigenvector for one root into e1.
        mu = 0.5 * (a + d)
        rad = math.sqrt(disc)
        lam = mu + math.copysign(rad, mu if mu != 0.0 else 1.0)
        v1 = np.array([b, lam - a])
        v2 = np.array([lam - d, c])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        nv = np.linalg.norm(v)
        if nv == 0.0:
            h[k + 1, k] = 0.0
            return
        v = v / nv
        g = np.array([[v[0], -v[1]], [v[1], v[0]]])
        _apply_rotation(h, q, k, g)
        h[k + 1, k] = 0.0
    else:
        # Complex pair: equalize the diagonal with the smallest rotation.
        theta = 0.5 * math.atan2(d - a, b + c)
        if theta > 0.25 * math.pi:
            theta -= 0.5 * math.pi
        elif theta <= -0.25 * math.pi:
            theta += 0.5 * math.pi
        ct, st = math.cos(theta), math.sin(theta)
        g = np.array([[ct, -st], [st, ct]])
        _apply_rotation(h, q, k, g)
        avg = 0.5 * (h[k, k] + h[k + 1, k + 1])
        h[k, k] = avg
        h[k + 1, k + 1] = avg
        if h[k, k + 1] * h[k + 1, k] >= 0.0:
            raise DecompositionError(
                "2x2 block standardization produced a non-complex block"
            )


def _francis_sweep(h, q, l, m, exceptional):
    """One implicit double-shift bulge chase on the active block ``l..m``."""
    if exceptional:
        sval = 0.75 * abs(h[m, m - 1]) + h[m, m]
        s = 2.0 * sval
        t = sval * sval
    else:
        s = h[m - 1, m - 1] + h[m, m]
        t = h[m - 1, m - 1] * h[m, m] - h[m - 1, m] * h[m, m - 1]
    x = h[l, l] * h[l, l] + h[l, l + 1] * h[l + 1, l] - s * h[l, l] + t
    y = h[l + 1, l] * (h[l, l] + h[l + 1, l + 1] - s)
    z = h[l + 1, l] * h[l + 2, l + 1]
    for k in range(l, m - 1):
        v = _householder_unit(np.array([x, y, z]))
        if v is not None:
            _apply_reflector(h, q, (k, k + 1, k + 2), v)
        if k > l:
            # The chase annihilates the bulge entries in column k-1.
            h[k + 1, k - 1] = 0.0
            h[k + 2, k - 1] = 0.0
        x = h[k + 1, k]
        y = h[k + 2, k]
        z = h[k + 3, k] if k + 3 <= m else 0.0
    v = _householder_unit(np.array([x, y]))
    if v is not None:
        _apply_reflector(h, q, (m - 1, m), v)
    h[m, m - 2] = 0.0


def real_schur(a):
    """Real Schur decomposition ``a = q @ r @ q.T`` with standardized blocks.

    Uses Householder reduction to Hessenberg form followed by Francis
    double-shift QR iteration with deflation.  Intended for Runge-Kutta
    coefficient matrices, so the dimension is capped at ``MAX_SCHUR_DIM``.

    Raises :class:`DecompositionError` when the QR iteration has not fully
    deflated the matrix after ``30 * n`` sweeps.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n > MAX_SCHUR_DIM:
        raise ValueError(f"real_schur supports n <= {MAX_SCHUR_DIM}, got {n}")
    h, q = hessenberg(a)
    max_sweeps = 30 * max(n, 1)
    sweeps = 0
    stall = 0
    m = n - 1
    while m > 0:
        l = m
        while l > 0:
            tol = DEFLATION_RTOL * (abs(h[l - 1, l - 1]) + abs(h[l, l]))
            if abs(h[l, l - 1]) <= tol:
                h[l, l - 1] = 0.0
                break
            l -= 1
        if l == m:
            m -= 1
            stall = 0
            continue
        if l == m - 1:
            _process_2x2(h, q, l)
            m -= 2
            stall = 0
            continue
        if sweeps >= max_sweeps:
            raise DecompositionError(
                f"QR iteration did not converge after {max_sweeps} sweeps"
            )
        sweeps += 1
        stall += 1
        _francis_sweep(h, q, l, m, exceptional=(stall % 11 == 10))

    blocks = []
    i = 0
    while i < n:
        if i < n - 1 and h[i + 1, i] != 0.0:
            eta = h[i, i]
            phi = h[i, i + 1]
            beta = math.sqrt(-phi * h[i + 1, i])
            blocks.append(EigenBlock(offset=i, size=2, eta=eta, beta=beta, phi=phi))
            i += 2
        else:
            blocks.append(EigenBlock(offset=i, size=1, eta=h[i, i], beta=0.0, phi=0.0))
            i += 1
    return SchurForm(q=q, r=h, blocks=tuple(blocks))


def _check_pivots(lu, a):
    """Raise unless every pivot of ``lu`` exceeds ``1e-14 * norm(a, inf)``."""
    pivots = np.abs(np.diag(lu))
    if pivots.size and pivots.min() <= 1e-14 * np.linalg.norm(a, np.inf):
        raise SingularMatrixError(f"pivot {pivots.min():.3e} below threshold")


def lu_factor(a):
    """LU factorization with partial pivoting (LAPACK ``getrf``).

    Returns ``(lu, piv)`` where ``piv`` records the row swapped with row k at
    step k.  Raises :class:`SingularMatrixError` when a pivot falls below
    ``1e-14 * norm(a, inf)``.
    """
    a = _as_square(a)
    if a.size == 0:
        return a, np.zeros(0, dtype=np.int32)
    # getrf directly: scipy's lu_factor would warn before the pivot check raises
    lu, piv, _ = scipy.linalg.lapack.dgetrf(a)
    _check_pivots(lu, a)
    return lu, piv


def lu_solve_factored(lu, piv, rhs):
    """Solve with a factorization from :func:`lu_factor`; rhs may be 1D or 2D."""
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def lu_solve(a, rhs):
    """Solve ``a x = rhs`` by LU with partial pivoting.

    A lower-triangular ``a`` (a DIRK coefficient matrix) is solved by
    substitution instead, so its inverse stays exactly triangular: pivoting
    leaves roundoff above the diagonal, which splits the repeated eigenvalue
    of the inverse by ``sqrt(eps)`` in its Schur form.
    """
    a = _as_square(a)
    if np.any(np.triu(a, 1)):
        return lu_solve_factored(*lu_factor(a), rhs)
    _check_pivots(a, a)
    return scipy.linalg.solve_triangular(a, rhs, lower=True, check_finite=False)


def singular_values(a):
    """Singular values in descending order (LAPACK ``gesdd``)."""
    a = _as_square(a)
    try:
        return scipy.linalg.svdvals(a, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge: {exc}") from exc


def cond2(a):
    """Two-norm condition number ``sigma_max / sigma_min``."""
    sigma = singular_values(a)
    if sigma.size == 0:
        return 1.0
    smin = float(sigma[-1])
    if smin < 1e-300:
        raise SingularMatrixError("smallest singular value underflows")
    return float(sigma[0]) / smin
