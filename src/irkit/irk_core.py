"""Stage-transformed linear solves: shifted blocks, 2x2 eigen-block systems,
block backward substitution, and conditioning measurements.

After conjugating the stage system with the orthogonal factor of the real
Schur form, one linear stage solve reduces to a backward sweep over the
eigen-blocks of the quasi-triangular factor.  Real eigenvalues give shifted
systems ``eta*M - dt*L``; complex pairs give block 2x2 systems

    [[eta*M - dt*L1,          phi*M - dt*C12],
     [-(beta^2/phi)*M - dt*C21,  eta*M - dt*L2]]

solved by GMRES with a block lower-triangular preconditioner whose second
diagonal block uses the shift ``gamma`` (optimally ``eta + beta^2/eta``).
The coupling terms ``C12``/``C21`` are only present for the richest
linearization variant; the preconditioner always ignores them.

Each 2x2 block operator is assembled once as one CSR matrix on an interned
block pattern (:func:`~irkit.sparsela.stack`) and memoized on ``L1``, so a
Krylov iteration applies it with one sparse product, and a constant
operator's blocks are built on the first step only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eig_banded

from . import densela
from .errors import StageSolveError
from .sparsela import (
    KrylovReport,
    LinearOperator,
    SparseMatrix,
    combine,
    gmres,
    stack,
)
from .tableau import gamma_star

DENSE_KAPPA_LIMIT = 512


@dataclass(frozen=True)
class PrecondSpec:
    """Shift choice and inner-solver policy for the block preconditioners.

    ``gamma_mode`` is ``"star"`` (optimal shift), ``"eta"`` (naive shift) or
    a positive float.  ``inner`` is ``"exact"`` for factored solves or an
    integer for that many damped-Jacobi sweeps (a stand-in for one cycle of
    an iterative inner preconditioner).
    """

    gamma_mode: object = "star"
    inner: object = "exact"

    def __post_init__(self):
        if isinstance(self.gamma_mode, str):
            if self.gamma_mode not in ("star", "eta"):
                raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")
        elif not (float(self.gamma_mode) > 0.0):
            raise ValueError("custom gamma must be positive")
        if self.inner != "exact" and not (
            isinstance(self.inner, int) and self.inner > 0
        ):
            raise ValueError(f"inner must be 'exact' or a positive int")

    def gamma(self, eta, beta):
        if self.gamma_mode == "star":
            return gamma_star(eta, beta)
        if self.gamma_mode == "eta":
            return eta
        return float(self.gamma_mode)


@dataclass(frozen=True)
class Block2x2System:
    """One complex eigen-block system in mass form.

    ``l1``/``l2`` are the per-row stage operators (unscaled; ``dt`` is
    carried separately).  ``offdiag12``/``offdiag21`` hold the optional
    variant-3 coupling operators.  Operators are sparse matrices, or
    composite ones with ``n``, ``@`` and their sparse ``parts``, as the DAE
    path's ``[[L_u, L_w], [G_u, G_w]]`` with the mass ``diag(M, 0)``.
    :attr:`matrix` is the whole block operator as one sparse matrix.
    """

    eta: float
    beta: float
    phi: float
    mass: SparseMatrix | None
    l1: SparseMatrix
    l2: SparseMatrix
    dt: float
    offdiag12: SparseMatrix | None = None
    offdiag21: SparseMatrix | None = None

    @property
    def n(self):
        return self.l1.n

    def mass_apply(self, x):
        return x if self.mass is None else self.mass @ x

    @cached_property
    def matrix(self) -> SparseMatrix:
        """The block operator as one :class:`~irkit.sparsela.SparseMatrix`.

        Composite operators put their parts on a finer block grid.  Assembled
        by :func:`~irkit.sparsela.stack` in one scatter and memoized on
        ``l1`` (on its first part, if composite), keyed by the other operands
        and the scalars: the same operands and scalars give the same matrix.
        """
        dt, mass = self.dt, self.mass
        blocks = [(0, 0, self.eta, mass), (0, 0, -dt, self.l1), (0, 1, self.phi, mass),
                  (1, 0, -(self.beta**2 / self.phi), mass), (1, 1, self.eta, mass),
                  (1, 1, -dt, self.l2)]
        for bi, bj, coupling in ((0, 1, self.offdiag12), (1, 0, self.offdiag21)):
            if coupling is not None:
                blocks.append((bi, bj, -dt, coupling))
        sizes = getattr(self.l1, "sizes", (self.n,))
        g = len(sizes)
        terms = [(bi * g + i, bj * g + j, w, m)
                 for bi, bj, w, op in blocks for i, j, m in _parts(op)]
        return stack(sizes * 2, terms, owner=_parts(self.l1)[0][2])


def _parts(op):
    """``(i, j, matrix)`` sub-blocks of a block operand: a sparse matrix (or
    ``None``, the identity) is the single sub-block ``(0, 0)``."""
    return ((0, 0, op),) if op is None or isinstance(op, SparseMatrix) else op.parts


class ShiftedSolver:
    """Applies ``(alpha*M - dt*L)^{-1}``, exactly or by damped Jacobi sweeps.

    The shifted matrix is memoized by :func:`combine` and the exact solve
    uses its cached ``factorization``, so a solver rebuilt on the same
    ``lmat`` object, ``alpha``, ``mass`` and ``dt`` factors nothing new.
    """

    def __init__(self, alpha, mass, lmat, dt, inner="exact"):
        self.mat = combine([alpha, -dt], [mass, lmat])
        self.inner = inner
        if inner == "exact":
            self._factor = self.mat.factorization
        else:
            diag = self.mat.csr.diagonal()
            if np.any(diag == 0.0):
                raise ValueError("Jacobi inner solver needs a nonzero diagonal")
            self._invdiag = 1.0 / diag

    def solve(self, r):
        if self.inner == "exact":
            return self._factor.solve(r)
        x = np.zeros_like(r)
        for _ in range(self.inner):
            x = x + (2.0 / 3.0) * (self._invdiag * (r - self.mat @ x))
        return x


def apply_block2x2(sys: Block2x2System, x):
    """Matrix action of the 2x2 eigen-block system on ``x`` (length 2n): one
    product with :attr:`Block2x2System.matrix`."""
    x = np.asarray(x, dtype=float)
    mat = sys.matrix
    if x.shape != (mat.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({mat.n},)")
    return mat @ x


def _lower_triangular(sys: Block2x2System, solve1, solve2):
    """Solves ``z1 = solve1(r1)``, then ``z2 = solve2(r2 + (beta^2/phi) M z1)``."""
    n = sys.n
    coupling = sys.beta**2 / sys.phi

    def apply(r):
        z1 = solve1(r[:n])
        z2 = solve2(r[n:] + coupling * sys.mass_apply(z1))
        return np.concatenate([z1, z2])

    return LinearOperator(2 * n, apply, solves_per_apply=2)


def make_block2x2_preconditioner(sys: Block2x2System, spec: PrecondSpec,
                                 shifted=ShiftedSolver):
    """Block lower-triangular right preconditioner for the 2x2 system.

    Applying it solves ``(eta*M - dt*L1) z1 = r1`` and then
    ``(gamma*M - dt*L2) z2 = r2 + (beta^2/phi) M z1``.  Costs two inner
    solves per application.  ``shifted(alpha, mass, l, dt, inner)`` builds
    each diagonal-block solver; the DAE path passes its exact composite one.
    """
    gamma = spec.gamma(sys.eta, sys.beta)
    s1 = shifted(sys.eta, sys.mass, sys.l1, sys.dt, spec.inner)
    s2 = shifted(gamma, sys.mass, sys.l2, sys.dt, spec.inner)
    return _lower_triangular(sys, s1.solve, s2.solve)


def exact_schur_preconditioner(sys: Block2x2System):
    """Test hook: the triangular preconditioner with the exact Schur complement.

    Materializes ``S = eta*M - dt*L2 + beta^2 * M (eta*M - dt*L1)^{-1} M``
    densely, so GMRES on the 2x2 block converges in at most two iterations.
    """
    n = sys.n
    if n > DENSE_KAPPA_LIMIT:
        raise ValueError(f"exact Schur hook limited to n <= {DENSE_KAPPA_LIMIT}")
    s1 = ShiftedSolver(sys.eta, sys.mass, sys.l1, sys.dt, "exact")
    m_dense = np.eye(n) if sys.mass is None else sys.mass.to_dense()
    a2 = combine([sys.eta, -sys.dt], [sys.mass, sys.l2]).to_dense()
    schur = a2 + sys.beta**2 * (m_dense @ s1.solve(m_dense))
    lu, piv = densela.lu_factor(schur)
    return _lower_triangular(
        sys, s1.solve, lambda v: densela.lu_solve_factored(lu, piv, v)
    )


@dataclass
class SolveStats:
    """Krylov accounting for one transformed stage solve."""

    reports: list = field(default_factory=list)  # (block_offset, KrylovReport)

    @property
    def krylov_iterations(self):
        return sum(rep.iterations for _, rep in self.reports)

    @property
    def precond_applications(self):
        return sum(rep.precond_applications for _, rep in self.reports)


def _solve_2x2(sys2, rhs, spec, rtol, maxit, shifted=ShiftedSolver):
    return gmres(
        LinearOperator(2 * sys2.n, lambda x: apply_block2x2(sys2, x)),
        rhs,
        right_precond=make_block2x2_preconditioner(sys2, spec, shifted),
        rtol=rtol,
        maxit=maxit,
    )


def _solve_1x1(eta, lmat, mass, dt, rhs, spec, rtol, maxit, shifted=ShiftedSolver):
    op = LinearOperator(
        lmat.n,
        lambda x: eta * (x if mass is None else mass @ x) - dt * (lmat @ x),
    )
    solver = shifted(eta, mass, lmat, dt, spec.inner)
    pre = LinearOperator(lmat.n, solver.solve, solves_per_apply=1)
    return gmres(op, rhs, right_precond=pre, rtol=rtol, maxit=maxit)


def block_sweep(prep, rhs_stages, mass_apply, couple, solve_block):
    """Backward substitution over the eigen-blocks of the transformed system.

    ``rhs_stages`` has one row per stage.  It is rotated by ``q.T``; each
    eigen-block's right-hand side then loses the ``r[i, j]``-weighted mass
    action ``mass_apply(y_j)`` of the rows already solved below it and gains
    ``couple(i, j, y_j)`` (a variant-3 coupling term, or ``None``).
    ``solve_block(blk, acc)`` solves the block for its ``(size, m)`` right-hand
    side and returns the stacked rows and their :class:`KrylovReport`.  The
    stage increments are recovered with ``q @ r``.  Returns
    ``(x, SolveStats)``; a non-convergent block raises
    :class:`StageSolveError` carrying the block offset and report.
    """
    q = prep.schur.q
    r0 = prep.schur.r
    s = prep.tableau.s
    g = q.T @ rhs_stages
    y = np.zeros_like(g)
    my = [None] * s  # mass_apply(y[j]), cached once each block is solved
    stats = SolveStats()
    for blk in reversed(prep.schur.blocks):
        rows = range(blk.offset, blk.offset + blk.size)
        acc = g[rows].copy()
        for local, i in enumerate(rows):
            for j in range(blk.offset + blk.size, s):
                if r0[i, j] != 0.0:
                    acc[local] -= r0[i, j] * my[j]
                term = couple(i, j, y[j])
                if term is not None:
                    acc[local] += term
        sol, rep = solve_block(blk, acc)
        if not rep.converged:
            raise StageSolveError(
                f"{blk.size}x{blk.size} block at offset {blk.offset} did not converge",
                block_offset=blk.offset,
                report=rep,
            )
        y[rows] = sol.reshape(blk.size, -1)
        for i in rows:
            my[i] = mass_apply(y[i])
        stats.reports.append((blk.offset, rep))
    return (q @ r0) @ y, stats


def solve_transformed_system(
    prep,
    stage_ops=None,
    variant=None,
    dt=None,
    rhs_stages=None,
    mass=None,
    precond=PrecondSpec(),
    krylov_rtol=1e-5,
    krylov_maxit=200,
    variant_jacobian=None,
    shifted=ShiftedSolver,
    solve_pair=_solve_2x2,
):
    """Solve one linearized stage system through the Schur transform.

    ``rhs_stages`` has shape ``(s, n)``.  The quasi-triangular block system
    is swept by :func:`block_sweep` with 1x1 shifted solves and 2x2 block
    GMRES, swappable by keyword (the ODE ones by default): ``shifted(alpha,
    mass, l, dt, inner)`` builds each exact shifted solver and ``solve_pair(sys2,
    rhs, spec, rtol, maxit, shifted)`` returns a 2x2 block's ``(x, KrylovReport)``.

    The block-diagonal approximation of the transformed operator is taken
    from ``variant_jacobian`` when given, otherwise built from
    ``stage_ops`` and ``variant``.  Returns ``(k, SolveStats)``; a
    non-convergent inner solve raises :class:`StageSolveError` carrying the
    block offset and report.
    """
    if variant_jacobian is None:
        from .nonlinear import build_variant_jacobian

        vjac = build_variant_jacobian(prep, stage_ops, variant)
    else:
        vjac = variant_jacobian
    rhs = np.asarray(rhs_stages, dtype=float)
    s = prep.tableau.s
    if rhs.shape[0] != s:
        raise ValueError(f"rhs has {rhs.shape[0]} stage rows, expected {s}")
    if dt is None or dt <= 0.0:
        raise ValueError("dt must be positive")

    def mass_apply(vec):
        return vec if mass is None else mass @ vec

    def couple(i, j, yj):
        od = vjac.offdiag.get((i, j))
        return None if od is None else dt * (od @ yj)

    def solve_block(blk, acc):
        i = blk.offset
        if blk.size == 1:
            return _solve_1x1(blk.eta, vjac.diag[i], mass, dt, acc[0], precond,
                              krylov_rtol, krylov_maxit, shifted)
        sys2 = Block2x2System(
            eta=blk.eta,
            beta=blk.beta,
            phi=blk.phi,
            mass=mass,
            l1=vjac.diag[i],
            l2=vjac.diag[i + 1],
            dt=dt,
            offdiag12=vjac.offdiag.get((i, i + 1)),
            offdiag21=vjac.offdiag.get((i + 1, i)),
        )
        return solve_pair(sys2, acc.ravel(), precond, krylov_rtol, krylov_maxit, shifted)

    return block_sweep(prep, rhs, mass_apply, couple, solve_block)


def field_of_values_bound(l: SparseMatrix):
    """Largest eigenvalue of the symmetric part ``(L + L^T) / 2``.

    The symmetric part is stored in lower band form in its own
    :attr:`~irkit.sparsela.Pattern.band` order (natural or reverse
    Cuthill-McKee) and its largest eigenvalue taken by LAPACK's banded
    symmetric eigensolver (:func:`scipy.linalg.eig_banded`), a direct
    method, so the bound and its cost do not depend on a starting vector.
    An exactly zero symmetric part returns 0.0, so skew operators read
    exactly 0.  A non-positive return certifies that the field of values
    lies in the closed left half-plane.
    """
    sym = SparseMatrix((l.csr + l.csr.T) * 0.5)
    if not np.any(sym.data):
        return 0.0
    k, _, inv, _ = sym.pattern.band
    rows, cols = sym.pattern.rows, sym.indices
    if inv is not None:
        rows, cols = inv[rows], inv[cols]
    low = rows >= cols
    band = np.zeros((k + 1, sym.n))
    band[rows[low] - cols[low], cols[low]] = sym.data[low]
    top = sym.n - 1
    return float(eig_banded(band, lower=True, eigvals_only=True, select="i",
                            select_range=(top, top), check_finite=False)[0])


def measure_kappa(eta, beta, lhat1, lhat2, gamma=None):
    """Two-norm condition number of the shift-preconditioned Schur complement.

    ``lhat1``/``lhat2`` are the already scaled stage operators (time step
    folded in, identity mass).  Materializes
    ``P = [eta*I - L2 + beta^2 (eta*I - L1)^{-1}] (gamma*I - L2)^{-1}``
    column by column and takes its singular values with LAPACK.
    """
    n = lhat1.n
    if n > DENSE_KAPPA_LIMIT:
        raise ValueError(f"measure_kappa limited to n <= {DENSE_KAPPA_LIMIT}")
    if gamma is None:
        gamma = gamma_star(eta, beta)
    s2 = ShiftedSolver(gamma, None, lhat2, 1.0, "exact")
    s1 = ShiftedSolver(eta, None, lhat1, 1.0, "exact")
    x = s2.solve(np.eye(n))
    p = eta * x - lhat2.csr @ x + beta**2 * s1.solve(x)
    return densela.cond2(p)

