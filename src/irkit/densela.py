"""Small dense linear-algebra kernels for Runge-Kutta coefficient matrices.

The Schur form and the LU factorization and solve call LAPACK's ``dgees``,
``dgetrf`` and ``dgetrs`` directly; condition numbers go through scipy's
``svdvals``.  The Schur form is meant for coefficient matrices, so its size
is capped at 16x16.

The quasi-triangular factor produced by :func:`real_schur` is standardized:
every 2x2 diagonal block carrying a complex pair ``eta +- i*beta`` has equal
diagonal entries, i.e. it reads ``[[eta, phi], [-beta**2/phi, eta]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DecompositionError, SingularMatrixError

MAX_SCHUR_DIM = 16
EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition ``a = q @ r @ q.T`` with standardized blocks."""

    q: np.ndarray
    r: np.ndarray
    blocks: tuple[EigenBlock, ...]


def _standardized(a):
    """``a`` with its 2x2 block diagonals set to their means, or ``None``.

    Only an ``a`` already in standardized quasi-triangular form qualifies:
    exact zeros below the block diagonal, no two adjacent nonzero subdiagonal
    entries, and every 2x2 block with off-diagonals of opposite signs and
    diagonal entries that agree to 4 eps, relative.  Every orthogonal ``q``
    is a Schur basis of a scaled rotation such as ``[[1, 1], [-1, 1]]``, and
    LAPACK's choice turns on the last bit of the diagonal, so such inputs
    keep ``q = I``.
    """
    sub = a.diagonal(-1) != 0.0
    # row slices stop at the first nonzero row (at once for a dense a), where
    # np.tril builds a whole mask: 2.4 against 9.8 us at 3x3
    if any(a[i, :i - 1].any() for i in range(2, len(a))) or np.any(sub[1:] & sub[:-1]):
        return None
    h = a.copy()
    for i in np.flatnonzero(sub):
        d1, d2 = a[i, i], a[i + 1, i + 1]
        if a[i, i + 1] * a[i + 1, i] >= 0.0 or abs(d1 - d2) > 4 * EPS * max(abs(d1), abs(d2)):
            return None
        h[i, i] = h[i + 1, i + 1] = 0.5 * (d1 + d2)
    return h


def real_schur(a):
    """Real Schur decomposition ``a = q @ r @ q.T`` with standardized blocks.

    LAPACK ``dgees`` (as :func:`scipy.linalg.schur` calls it) returns each 2x2
    block standardized by ``lanv2``, with equal diagonal entries; an ``a``
    already in that form to roundoff keeps ``q = I``.  Intended
    for Runge-Kutta coefficient matrices, so the dimension is capped at
    ``MAX_SCHUR_DIM``.

    Raises :class:`DecompositionError` when the QR iteration does not
    converge.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n > MAX_SCHUR_DIM:
        raise ValueError(f"real_schur supports n <= {MAX_SCHUR_DIM}, got {n}")
    h, q = _standardized(a), np.eye(n)
    if h is None:
        # unsorted, so never a callback; n <= 16 runs unblocked, as in scipy's schur
        h, _, _, _, q, _, info = lapack.dgees(lambda re, im: None, a)
        if info > 0:
            raise DecompositionError(f"real Schur form did not converge (info {info})")

    blocks = []
    i = 0
    while i < n:
        if i < n - 1 and h[i + 1, i] != 0.0:
            eta = h[i, i]
            phi = h[i, i + 1]
            if phi * h[i + 1, i] >= 0.0:
                raise DecompositionError(
                    "2x2 block standardization produced a non-complex block"
                )
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
    lu, piv, _ = lapack.dgetrf(a)
    _check_pivots(lu, a)
    return lu, piv


def lu_solve_factored(lu, piv, rhs):
    """Solve with a factorization from :func:`lu_factor`; rhs may be 1D or 2D."""
    if lu.size == 0:
        return np.array(rhs, dtype=float)
    return lapack.dgetrs(lu, piv, rhs)[0]


def lu_solve(a, rhs):
    """Solve ``a x = rhs`` by LU with partial pivoting.

    A lower-triangular ``a`` (a DIRK coefficient matrix) is solved by
    substitution instead, so its inverse stays exactly triangular: pivoting
    leaves roundoff above the diagonal, which splits the repeated eigenvalue
    of the inverse by ``sqrt(eps)`` in its Schur form.
    """
    a = _as_square(a)
    if any(a[i, i + 1:].any() for i in range(len(a) - 1)):  # not lower triangular
        return lu_solve_factored(*lu_factor(a), rhs)
    _check_pivots(a, a)
    return scipy.linalg.solve_triangular(a, rhs, lower=True, check_finite=False)


def cond2(a):
    """Two-norm condition number ``sigma_max / sigma_min`` (LAPACK ``gesdd``)."""
    try:
        sigma = scipy.linalg.svdvals(_as_square(a), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD did not converge: {exc}") from exc
    if sigma.size == 0:
        return 1.0
    smin = float(sigma[-1])
    if smin < 1e-300:
        raise SingularMatrixError("smallest singular value underflows")
    return float(sigma[0]) / smin
