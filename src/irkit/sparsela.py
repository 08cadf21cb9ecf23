"""Sparse storage on interned patterns, banded factorization, restarted GMRES.

A :class:`SparseMatrix` is a :class:`Pattern` (an interned, immutable CSR
structure) plus a ``data`` vector.  Structurally equal patterns are one
object, so the operators of a stage solve (stage Jacobians, variant
operators, shifted blocks ``alpha*M - dt*L``) keep the pattern they share.
:func:`stack` lays weighted operators out as the blocks of one matrix on a
cached block pattern, and :func:`combine` is its one-block case.  When all
operands of a one-block sum are on one pattern that stores the whole
diagonal, and in :func:`combine_rows` on one pattern, the sum is one array
pass (``out += w * data`` per term, ``out[diag] += w`` for the identity)
that adds in a block scatter's order, to the same bits.
:class:`BandedLU` fills LAPACK's band storage through the pattern's cached
scatter, as RADAU5 forms ``fac*M - J`` in place (Hairer & Wanner, *Solving
ODEs II*, IV.8).  The band is the pattern's own: its literal half-bandwidth
in natural order, or in reverse Cuthill-McKee order when that is strictly
narrower (Cuthill & McKee 1969; George & Liu 1981), which turns periodic
wrap-around stencils into plain bands.  LAPACK stores a band just under a
multiple of 16 wide padded up to it (:func:`storage_width`; shear's 31 as
32), so OpenBLAS's ``dger`` runs every column update in its 16-row kernel
blocks, with no scalar tail, to the same bits.  A product with a vector
calls the CSR kernel behind scipy's own ``csr @ x`` on the pattern's index
arrays, so no scipy matrix is built for it.

Values are immutable (``data`` is read-only, and no writable alias of it is
kept), so one matrix object holds one set of values, checked finite once
when it is made: a finite sum of squares ``data.dot(data)`` proves every
entry finite, and only one that overflows rescans entry by entry.  Operator
assembly is memoized by identity on an operand: :func:`combine` and
:func:`combine_rows` hand back the same sums for the same weights on the same
operand objects, :func:`stack` the same block matrix, the stage solve the same
variant Jacobian and block plans, and :attr:`SparseMatrix.factorization`
factors a matrix once.  An unchanged stage Jacobian (a linear problem's
constant operator, a DAE's constant constraint block) therefore reuses its
plans and LU factors for as long as ``dt`` and the shift stay the same, as a
backward-Euler code keeps its factorization.

GMRES is right-preconditioned and keeps the preconditioned basis, which
makes the preconditioner cost exactly one application per iteration.  Both
bases are stored as rows, one contiguous vector each, in arrays sized to
the columns a restart cycle uses; the Hessenberg matrix and its Givens
rotations are scalars (Saad, *Iterative Methods for Sparse Linear
Systems*, 6.5).  The report counts preconditioner applications as
``iterations`` times the ``solves_per_apply`` declared by the
preconditioner, matching the convention that a 2x2 block preconditioner
costs two inner solves per Krylov iteration.
"""

from __future__ import annotations

import copy
import math
import numbers
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import SingularMatrixError

# Distinct sums, block matrices and variant Jacobians memoized per operand,
# evicted oldest first.  One linearization puts at most two entries on one
# operand; gauss(8) variant 3, the largest, puts its tuple of variant
# operators and its Jacobian on the last stage operator, and a shifted sum and
# a block matrix (or a second shifted sum) on each variant operator.  So the
# cap holds 32 plans (tableaux, variants or step sizes) of one constant operator.
SUM_CACHE_SIZE = 64
_OWNER = object()  # stands for the memo's owner in its keys
_EPS = np.finfo(float).eps
# LAPACK's banded LU (dgbtf2) and solve (dgbtrs) hand each column update to
# BLAS dger, whose OpenBLAS kernel runs 16 rows a block and the rest in a scalar
# tail.  A half-bandwidth k with k % 16 >= 12 is stored padded up to the next
# multiple of 16 with zero diagonals (same pivots, same bits).  In interleaved
# scans (tests/band_width_scan.py, n=256 and 1024) every such k factored 4-44%
# faster; smaller remainders mostly lost (k=2 stored 16 wide took 1.9-2.7x).
BLAS_KERNEL_ROWS, PAD_FROM_REMAINDER = 16, 12


def storage_width(k):
    """Half-bandwidth at which LAPACK stores a band of true half-bandwidth ``k``."""
    return k + -k % BLAS_KERNEL_ROWS if k % BLAS_KERNEL_ROWS >= PAD_FROM_REMAINDER else k


class Pattern:
    """Interned, immutable CSR structure: ``shape``, ``indptr`` and ``indices``
    (sorted and unique per row).

    Build patterns with :meth:`of`; structurally equal ones resolve to one
    object, so operators on one pattern are recognized by identity.  Row
    indices and the band storage are computed on first use and cached.
    """

    _interned = weakref.WeakValueDictionary()

    def __init__(self, shape, indptr, indices):
        self.shape, self.indptr, self.indices = shape, indptr, indices
        self.nnz = len(indices)

    @classmethod
    def of(cls, shape, indptr, indices):
        shape = (int(shape[0]), int(shape[1]))
        key = (shape, np.asarray(indptr, np.int64).tobytes(),
               np.asarray(indices, np.int64).tobytes())
        pattern = cls._interned.get(key)
        if pattern is None:
            dtype = np.int32 if max(shape[1], len(indices)) < 2**31 else np.int64
            indptr, indices = np.array(indptr, dtype), np.array(indices, dtype)
            indptr.flags.writeable = indices.flags.writeable = False
            pattern = cls._interned[key] = cls(shape, indptr, indices)
        return pattern

    @cached_property
    def rows(self):
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @cached_property
    def diag(self):
        """Positions of a square pattern's diagonal entries, ``None`` unless it stores all."""
        pos = np.flatnonzero(self.rows == self.indices)
        return pos if self.shape[0] == self.shape[1] == len(pos) else None

    @cached_property
    def csr(self):
        """A ``scipy.sparse`` CSR matrix on this pattern, with zero values."""
        return sp.csr_matrix((np.zeros(self.nnz), self.indices, self.indptr), shape=self.shape)

    @cached_property
    def band(self):
        """``(k, perm, inv, scatter)`` for a nonempty square pattern.

        ``k`` is the half-bandwidth in natural order, or in the reverse
        Cuthill-McKee order ``perm`` when that is strictly narrower (``perm``
        and ``inv`` are ``None`` otherwise): entry ``(i, j)`` moves to
        ``(inv[i], inv[j])`` with ``inv[perm] = arange(n)``.  ``scatter``
        holds the flat positions of the entries in a Fortran-ordered
        ``(3*K + 1, n)`` LAPACK ``ab`` array, ``K = storage_width(k)``.  At
        ``k <= 1`` no ordering is tried: a strictly narrower one would make
        the pattern diagonal.
        """
        rows, cols, perm = self.rows, self.indices, None
        k = int(np.max(np.abs(rows - cols), initial=0))
        if k > 1:
            graph = sp.csr_matrix((np.ones(self.nnz), cols, self.indptr), shape=self.shape)
            order = reverse_cuthill_mckee(graph, symmetric_mode=False)
            inv = np.empty_like(order)
            inv[order] = np.arange(len(order))
            k_rcm = int(np.max(np.abs(inv[rows] - inv[cols]), initial=0))
            if k_rcm < k:
                k, perm, rows, cols = k_rcm, order, inv[rows], inv[cols]
        w = storage_width(k)
        return k, perm, None if perm is None else inv, 2 * w + rows - cols + cols * (3 * w + 1)


@lru_cache(maxsize=256)
def _block_layout(grid, places):
    """Pattern of a block matrix on ``grid`` (row sizes, column sizes) holding
    ``places`` (``(i, j, pattern)``, ``None`` for the identity), the
    positions in it of all places' entries, one place after the other, and
    the bounds of each place's run of them."""
    rstart, cstart = (np.cumsum((0,) + sizes) for sizes in grid)
    nr, nc = int(rstart[-1]), int(cstart[-1])
    keys = [np.zeros(0, np.int64)]
    for i, j, p in places:
        shape = (grid[0][i], grid[1][j])
        if p is None and shape[0] == shape[1]:
            rows = cols = np.arange(shape[0])
        elif p is not None and p.shape == shape:
            rows, cols = p.rows, p.indices
        else:
            raise ValueError(f"block ({i}, {j}) is {shape}: cannot hold "
                             f"{'an identity' if p is None else p.shape}")
        keys.append((rows + rstart[i]).astype(np.int64) * nc + (cols + cstart[j]))
    bounds = np.cumsum([len(k) for k in keys]).tolist()
    keys = np.concatenate(keys)
    union = np.unique(keys)
    pattern = Pattern.of((nr, nc), np.searchsorted(union // nc, np.arange(nr + 1)), union % nc)
    return pattern, np.searchsorted(union, keys), bounds


class SparseMatrix:
    """A :class:`Pattern` plus its read-only ``data`` vector.

    Mostly square operators; rectangular coupling blocks (as in
    differential/algebraic systems) are allowed wherever no factorization
    is requested.  The constructor copies anything ``scipy.sparse.csr_matrix``
    accepts; :meth:`on_pattern` wraps values on an existing pattern.  Either
    way no writable alias of ``data`` is kept: :attr:`csr` holds the
    read-only values on the pattern's index arrays.
    """

    def __init__(self, mat):
        csr = sp.csr_matrix(mat, dtype=float)
        csr.data = np.array(csr.data)  # a sparse input's values stay the caller's
        csr.sum_duplicates()
        csr.sort_indices()
        csr.data.setflags(write=False)
        self._set(Pattern.of(csr.shape, csr.indptr, csr.indices), csr.data)
        csr.indptr, csr.indices = self.indptr, self.indices
        self._csr = csr

    @classmethod
    def on_pattern(cls, pattern: Pattern, data):
        """The matrix with values ``data`` (one per entry) on ``pattern``.

        Takes ownership of ``data``: an array that owns its memory is made
        read-only, so a later write by the caller raises; a view is copied.
        """
        data = np.asarray(data, dtype=float)
        if data.base is not None:
            data = data.copy()
        data.setflags(write=False)
        return cls.__new__(cls)._set(pattern, data)

    def _set(self, pattern, data):
        if data.shape != (pattern.nnz,):
            raise ValueError(f"data has shape {data.shape}, expected ({pattern.nnz},)")
        _check_finite(data)
        return self._bind(pattern, data)

    def _bind(self, pattern, data):
        """Takes ``data``, checked and read-only, as the values on ``pattern``."""
        self.pattern, self.data, self._csr, self._sums = pattern, data, None, {}
        self.shape, self.nnz = pattern.shape, pattern.nnz
        self.indptr, self.indices, self.n = pattern.indptr, pattern.indices, pattern.shape[0]
        return self

    @property
    def csr(self):
        if self._csr is None:
            # a shallow copy of the pattern's CSR, sharing its index arrays,
            # skips scipy's format checks on every new matrix
            self._csr = copy.copy(self.pattern.csr)
            self._csr.data = self.data
        return self._csr

    @cached_property
    def factorization(self):
        """The :class:`BandedLU` of this square matrix, computed on first use."""
        return BandedLU.factor(self)

    def __matmul__(self, x):
        """Product with a dense matrix or a vector.

        A 1-D float64 ndarray of the right length goes straight to the kernel
        behind scipy's own ``csr @ x``, on the pattern's index arrays; any
        other operand goes through :attr:`csr`.
        """
        if type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (self.shape[1],):
            y = np.zeros(self.shape[0])
            _sparsetools.csr_matvec(self.shape[0], self.shape[1], self.indptr, self.indices,
                                    self.data, x, y)
            return y
        return self.csr @ x

    matvec = __matmul__

    def to_dense(self):
        return self.csr.toarray()


def _check_finite(values):
    """Raise unless every entry is finite: a finite ``values.dot(values)``
    proves it, so only a sum of squares that overflows rescans entry by entry."""
    values = values.ravel()
    if not (math.isfinite(values.dot(values)) or np.all(np.isfinite(values))):
        raise ValueError("matrix contains non-finite entries")


def _is_count(value):
    """True for an integer >= 1 that is not a ``bool`` (a plain ``int`` checked first)."""
    return (type(value) is int or not isinstance(value, bool)
            and isinstance(value, numbers.Integral)) and value >= 1


def combine(coeffs, mats):
    """Weighted sum ``sum_k coeffs[k] * mats[k]`` of same-shape matrices.

    ``None`` entries in ``mats`` stand for the identity; zero weights are
    skipped.  The sum is the one-block :func:`stack` of the nonzero-weight
    terms: it lives on the union of their patterns (the operands' shared
    pattern when they have one that holds the diagonal the identity needs)
    and adds them from zero in ``mats`` order, as an entrywise sparse sum
    does.  All-zero weights give zeros on the operands' shared pattern, or
    on an empty one when their patterns differ.

    Sums are memoized on the last concrete operand (the operator, in
    ``alpha*M - dt*L``), keyed by the weights and the operand objects: the
    same weights on the same objects return the same matrix, with its
    factorization if one was taken.
    """
    mats = list(mats)
    concrete = [m for m in mats if m is not None]
    if not concrete:
        raise ValueError("combine needs at least one concrete matrix")
    return _stacked(*_sum_terms(coeffs, mats, concrete), concrete[-1])


def _sum_terms(coeffs, mats, concrete):
    """The one-block grid and the placed terms of ``combine(coeffs, mats)``."""
    terms = [(0, 0, float(c), m) for c, m in zip(coeffs, mats) if c != 0.0]
    if not terms and len({m.pattern for m in concrete}) == 1:
        terms = [(0, 0, 0.0, m) for m in concrete]
    return ((concrete[0].shape[0],), (concrete[0].shape[1],)), terms


def combine_rows(weights, mats):
    """The sums ``combine(weights[r], mats)`` for every row ``r`` of the 2-D
    ``weights``, as a tuple of matrices taken in one pass.

    When every operand is a :class:`SparseMatrix` on one pattern, the sums
    are the rows of one read-only ``(rows, nnz)`` array built as ``out[r] +=
    weights[r, l] * mats[l].data`` for ``l`` in ``mats`` order, starting from
    +0.0: the operations of :func:`combine`, plus the zero-weight terms it
    skips, which add a signed zero to a sum that is never -0.0 and so change
    no bit.  The array's finiteness is checked once.  Operands on distinct
    patterns are summed row by row through :func:`combine`'s scatter.  The
    tuple is memoized on the last operand like a :func:`combine` sum.
    """
    weights = np.asarray(weights, dtype=float)
    mats = list(mats)
    if weights.shape[1] != len(mats):
        raise ValueError(f"{weights.shape[1]} weights per row for {len(mats)} operands")
    owner = mats[-1]

    def build():
        pattern = owner.pattern
        if any(m.pattern is not pattern for m in mats):
            return tuple(_scatter(*_sum_terms(w, mats, mats)) for w in weights)
        out = _summed(pattern, (len(weights), pattern.nnz), zip(weights.T[:, :, None], mats))
        _check_finite(out)
        out.setflags(write=False)
        return tuple([SparseMatrix.__new__(SparseMatrix)._bind(pattern, row) for row in out])

    return _memoized(owner, weights.tobytes(), mats, build)


def stack(sizes, terms, owner):
    """Block matrix with square block grid ``sizes``: block ``(i, j)`` is
    ``sizes[i] x sizes[j]`` and holds the sum of ``weight * mat`` over the
    ``terms`` ``(i, j, weight, mat)`` placed there.

    ``mat`` is a :class:`SparseMatrix` or ``None`` for the identity.  This
    scatter builds every operator sum, :func:`combine`'s too.  The stacked
    pattern and the positions of every term's entries in it are cached per
    grid and placed patterns, so assembling is one scatter: the weighted
    entries of all terms, one term after the other, are summed into
    ``data`` by ``bincount``, which adds them from zero in ``terms`` order.
    A one-block sum on one pattern adds them in that order in one pass.
    The matrix is memoized on ``owner`` (one of the term matrices), keyed by
    the grid, placements, weights and operand objects.
    """
    sizes = tuple(sizes)
    return _stacked((sizes, sizes), [(i, j, float(w), m) for i, j, w, m in terms], owner)


def _stacked(grid, terms, owner):
    return _memoized(owner, (grid, tuple([t[:3] for t in terms])), [t[3] for t in terms],
                     lambda: _scatter(grid, terms))


def _scatter(grid, terms):
    shared = {m.pattern for _, _, _, m in terms if m is not None}
    p = shared.pop() if len(shared) == 1 else None
    if p is not None and p.diag is not None and grid == ((p.shape[0],),) * 2:  # one block
        return SparseMatrix.on_pattern(p, _summed(p, p.nnz, [t[2:] for t in terms]))
    places = tuple([(i, j, None if m is None else m.pattern) for i, j, _, m in terms])
    pattern, pos, bounds = _block_layout(grid, places)
    values = np.empty(len(pos))
    for (_, _, w, m), a, b in zip(terms, bounds, bounds[1:]):
        if m is None:
            values[a:b] = w
        else:
            np.multiply(m.data, w, out=values[a:b])
    return SparseMatrix.on_pattern(pattern, np.bincount(pos, values, pattern.nnz))


def _summed(pattern, shape, terms):
    """``zeros(shape) + w * m`` for ``(w, m)`` in ``terms``, ``m`` on ``pattern`` or
    ``None`` (the identity, in 1-D sums) on its diagonal: each entry's terms added
    from +0.0 in order, as ``bincount`` over a :func:`_block_layout` adds them."""
    out = np.zeros(shape)
    for w, m in terms:
        if m is None:
            out[pattern.diag] += w
        else:
            out += m.data * w
    return out


def _memoized(owner, key, operands, build):
    """``build()``, memoized on ``owner`` under ``key`` and the ``operands``
    objects (oldest evicted first).  The key stands a placeholder for the
    owner among the operands, since holding the owner itself would keep it
    alive through a reference cycle."""
    memo = owner._sums
    key = (key, tuple([_OWNER if m is owner else m for m in operands]))
    out = memo.get(key)
    if out is None:
        out = build()
        if len(memo) >= SUM_CACHE_SIZE:
            del memo[next(iter(memo))]
        memo[key] = out
    return out


class LinearOperator:
    """Linear action ``y = A x`` of dimension ``n``: ``apply(x)`` returns it,
    or ``into(x, out)``, bound as :meth:`matvec_into`, writes it into ``out``
    and returns ``out`` (how right preconditioners fill GMRES's rows in
    place).  ``solves_per_apply`` declares how many diagonal-block solver
    applications one call costs; preconditioner operators set it so Krylov
    reports can account for solver work in the standard unit.
    """

    def __init__(self, n, apply=None, solves_per_apply=1, into=None):
        self.n, self.solves_per_apply = n, solves_per_apply
        self._apply, self._into = apply, into
        if into is not None:
            self.matvec_into = into  # one frame fewer per application

    def matvec(self, x):
        return self._apply(x) if self._into is None else self._into(x, np.empty(self.n))

    def matvec_into(self, x, out):
        out[...] = self._apply(x)


@dataclass
class KrylovReport:
    """Outcome of one GMRES solve.  ``breakdown`` is set when the solve stopped
    at an Arnoldi breakdown with its residual above the tolerance."""

    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    precond_applications: int = 0
    breakdown: bool = False


def gmres(op, rhs, right_precond=None, rtol=1e-5, maxit=200, restart=200):
    """Restarted GMRES with right preconditioning.

    Returns ``(x, KrylovReport)`` for every outcome; only bad input raises.
    The residual history tracks relative true residuals (right
    preconditioning leaves them unchanged), and the final entry is always
    recomputed as ``norm(rhs - op @ x) / norm(rhs)``.  Reaching ``maxit``
    returns a non-converged report, and so does an Arnoldi breakdown whose
    residual misses the tolerance, with ``breakdown`` set; judging a report
    is the caller's (:func:`~irkit.irk_core.solve_block`).

    ``op`` has ``n`` and ``matvec`` (a :class:`LinearOperator`, or a
    :class:`SparseMatrix`, whose ``matvec`` is its ``@``).  The Krylov vectors
    ``v[j]`` and their preconditioned images ``z[j]`` are rows of arrays
    allocated per restart cycle, widened on demand and written in place: the
    preconditioner fills ``z[j]`` through :meth:`LinearOperator.matvec_into`,
    its ``into`` itself.  The Hessenberg columns and Givens rotations are
    lists of floats.  Nothing is sized by ``restart`` and nothing is kept
    between calls.  A ``maxit`` or ``restart`` that is not an integer (a
    ``bool`` is not one) or is below 1 raises ``ValueError``.

    Every product of two ndarrays is written ``a.dot(b)``, not ``a @ b``:
    both end in the same BLAS call (``ddot``, ``dgemv``) and give the same
    bits, but on numpy 2.4 ``@`` first goes through the ``matmul`` ufunc
    dispatch, about 1 µs a call (1.1 against 2.0 µs for a 1-D product,
    2.1 against 4.4 µs for a (3, 2048) by (2048,) one).  An iteration makes
    six such products (two norms, four for Gram-Schmidt with its
    re-orthogonalization) and a cycle two more (its update and the norm of
    its true residual).  On heat's 2x2 eigen-blocks (n = 2048, 3-4
    iterations a call), whose preconditioner and block product already run
    at kernel cost, that dispatch was a large share of GMRES's own time.
    """
    n, apply_op = op.n, op.matvec
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    # the same ddot as np.linalg.norm; a finite norm proves every entry
    # finite, so only an overflowing one rescans the vector.  A finite rhs
    # whose norm overflows is solved scaled by its largest entry: the
    # residual history is relative, so only x is scaled back.
    bnorm, scale = math.sqrt(rhs.dot(rhs)), 1.0
    if not math.isfinite(bnorm):
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs contains non-finite entries")
        scale = float(np.abs(rhs).max())
        rhs = rhs / scale
        bnorm = math.sqrt(rhs.dot(rhs))
    if not (0.0 < rtol < 1.0):
        raise ValueError(f"rtol must lie in (0, 1), got {rtol}")
    for name, value in (("maxit", maxit), ("restart", restart)):
        if not _is_count(value):
            raise ValueError(f"maxit and restart must be >= 1 integers, got {name}={value!r}")
    pre = right_precond or LinearOperator(n, lambda v: v, solves_per_apply=0)
    spa, apply_m = pre.solves_per_apply, pre.matvec_into
    if bnorm == 0.0:
        return np.zeros(n), KrylovReport(0, True, [0.0], 0)

    x = None  # set by the first cycle (maxit >= 1 runs one) to its update alone
    r, beta = rhs, bnorm
    residuals = [beta / bnorm]
    total_it = 0
    converged, breakdown = residuals[0] <= rtol, False

    while not (converged or breakdown) and total_it < maxit:
        m = min(restart, maxit - total_it)
        z = np.empty((min(m, 8), n))
        v = np.empty((len(z) + 1, n))
        np.divide(r, beta, out=v[0])
        g = [beta]  # the rotated right-hand side
        cols, cs, sn = [], [], []  # triangular factor by columns, rotations
        for j in range(m):
            if j == len(z):
                z = _widen(z, min(2 * j, m))
                v = _widen(v, len(z) + 1)
            apply_m(v[j], z[j])
            w = apply_op(z[j])
            wnorm0 = math.sqrt(w.dot(w))
            # classical Gram-Schmidt, then one re-orthogonalization pass
            basis = v[: j + 1]
            coef = basis.dot(w)
            w -= coef.dot(basis)
            again = basis.dot(w)
            w -= again.dot(basis)
            col = (coef + again).tolist()
            hj = math.sqrt(w.dot(w))
            if hj <= 1e-14 * max(wnorm0, 1e-300):
                breakdown = True
            else:
                np.divide(w, hj, out=v[j + 1])
            # apply the earlier rotations; each one's second output is the
            # next one's first input
            a = col[0]
            for i in range(j):
                c, s, b = cs[i], sn[i], col[i + 1]
                col[i], a = c * a + s * b, -s * a + c * b
            denom = math.hypot(a, hj)
            total_it += 1
            if denom == 0.0:
                # dead column: the operator maps this direction into the
                # existing span with full cancellation; drop it and stop
                breakdown = True
                residuals.append(residuals[-1])
                break
            c, s = a / denom, hj / denom
            cs.append(c)
            sn.append(s)
            col[j] = denom
            cols.append(col)
            g.append(-s * g[j])
            g[j] = c * g[j]
            est = abs(g[j + 1]) / bnorm
            residuals.append(est)
            if est <= rtol or breakdown or total_it >= maxit:
                break
        # Assemble the cycle solution from the preconditioned basis.
        k = len(cols)
        y = [0.0] * k
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - sum(cols[p][i] * y[p] for p in range(i + 1, k))) / cols[i][i]
        dx = np.array(y).dot(z[:k])
        x = dx if x is None else x + dx
        r = rhs - apply_op(x)
        beta = math.sqrt(r.dot(r))
        true_rel = beta / bnorm
        residuals[-1] = true_rel
        converged = true_rel <= rtol

    report = KrylovReport(
        iterations=total_it,
        converged=converged,
        residuals=residuals,
        precond_applications=total_it * spa,
        breakdown=breakdown and not converged,
    )
    return (x if scale == 1.0 else x * scale), report


def _widen(a, rows):
    out = np.empty((rows, a.shape[1]))
    out[: len(a)] = a
    return out


class BandedLU:
    """LU factorization of a square matrix in its pattern's band (LAPACK
    ``gbtrf``), in the bandwidth-reducing order :attr:`Pattern.band` picks.

    A band of half-width 1 in natural order whose sub- and superdiagonal are
    equal, and which LAPACK's ``pttrf`` finds positive definite, is factored
    as ``L D L^T`` without pivoting (``pttrf``/``pttrs``), whose solve costs
    about half of ``gbtrs``'s; every other band (nonsymmetric, indefinite,
    singular) takes ``gbtrf``/``gbtrs`` on the band stored
    :func:`storage_width` wide, which keeps OpenBLAS ``dger``'s column
    updates in its 16-row kernel.  Raises :class:`SingularMatrixError`
    when a pivot (an entry of ``D``) falls below ``n * eps`` times the
    largest entry: on singular periodic operators LAPACK leaves
    roundoff-sized pivots, not exact zeros, and their size grows with ``n``
    (1.5e-14 of the largest entry on a 20x20 torus).
    """

    def __init__(self, n, k, perm, inv, lu, piv):
        self.n, self._k, self._lu, self._piv = n, k, lu, piv
        self._perm, self._inv = perm, inv

    @classmethod
    def factor(cls, a: SparseMatrix):
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"cannot factor a non-square matrix {a.shape}")
        n = a.n
        if n == 0:
            return cls(0, 0, None, None, None, None)
        k, perm, inv, scatter = a.pattern.band
        k = storage_width(k)
        ab = np.zeros((n, 3 * k + 1))
        ab.ravel()[scatter] = a.data
        # columns 3, 2 and 1 of ab hold the sub-, main and superdiagonal
        sym = k == 1 and perm is None and np.array_equal(ab[:-1, 3], ab[1:, 1])
        d, e, info = lapack.dpttrf(ab[:, 2], ab[1:, 1]) if sym else (None, None, 1)
        if info == 0:
            lu, piv, pivots = (d, e), None, d
        else:
            lu, piv, _ = lapack.dgbtrf(ab.T, k, k, overwrite_ab=1)
            pivots = lu[2 * k]
        pivot = np.abs(pivots).min()
        if pivot <= n * _EPS * np.abs(a.data).max(initial=0.0):
            raise SingularMatrixError(f"banded LU pivot {pivot:.3e} below threshold")
        return cls(n, k, perm, inv, lu, piv)

    def solve(self, rhs, out=None):
        """Solve against one vector or a matrix of stacked column vectors, into
        ``out`` (which may be ``rhs``) when given: LAPACK overwrites a vector there."""
        b = np.asarray(rhs, dtype=float)
        if self.n == 0:
            return np.zeros_like(b) if out is None else out
        if self._perm is not None:
            # the gathered copy is LAPACK's to overwrite; mode "raise" would buffer out
            return self._trs(b[self._perm], 1).take(self._inv, 0, out, "clip")
        if out is None:
            return self._trs(b, 0)
        if out is not b:
            out[...] = b
        x = self._trs(out, 1)
        if x is not out:
            out[...] = x
        return out

    def _trs(self, b, overwrite):
        if self._piv is None:
            return lapack.dpttrs(*self._lu, b, overwrite_b=overwrite)[0]
        return lapack.dgbtrs(self._lu, self._k, self._k, b, self._piv, overwrite_b=overwrite)[0]
