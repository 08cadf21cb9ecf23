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

Each eigen-block (and DIRK stage) is solved by its plan's ``solve(rhs, rtol,
maxit) -> (x, KrylovReport)``: a :class:`ShiftedPlan` or a :class:`PairPlan`.
The DAE path plugs in a ``PairPlan`` subclass as ``pair_plan=``; its
``shifted`` solver serves both kinds of block.

Each 2x2 block operator is one CSR matrix on an interned block pattern
(:func:`~irkit.sparsela.stack`), so a Krylov iteration applies it with one
sparse product.  The variant Jacobian keeps each block's plan: a constant
operator's are built on the first step only.
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
    an iterative inner preconditioner).  A ``bool`` is neither, although
    Python counts it as an int: it raises ``ValueError``.
    """

    gamma_mode: object = "star"
    inner: object = "exact"

    def __post_init__(self):
        if isinstance(self.gamma_mode, bool):
            raise ValueError(f"gamma mode must be 'star', 'eta' or a positive float, "
                             f"got {self.gamma_mode!r}")
        if isinstance(self.gamma_mode, str):
            if self.gamma_mode not in ("star", "eta"):
                raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")
        elif not (float(self.gamma_mode) > 0.0):
            raise ValueError("custom gamma must be positive")
        if self.inner != "exact" and not (
            isinstance(self.inner, int) and not isinstance(self.inner, bool) and self.inner > 0
        ):
            raise ValueError(f"inner must be 'exact' or a positive int, got {self.inner!r}")

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

    def solve(self, r, out=None):
        """The solve of ``r``, written into ``out`` when given (which may be ``r``)."""
        if self.inner == "exact":
            return self._factor.solve(r, out=out)
        x = np.zeros_like(r)
        for _ in range(self.inner):
            x = x + (2.0 / 3.0) * (self._invdiag * (r - self.mat @ x))
        if out is None:
            return x
        out[...] = x
        return out


def apply_block2x2(sys: Block2x2System, x):
    """Matrix action of the 2x2 eigen-block system on ``x`` (length 2n): one
    product with :attr:`Block2x2System.matrix`."""
    x = np.asarray(x, dtype=float)
    mat = sys.matrix
    if x.shape != (mat.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({mat.n},)")
    return mat @ x


def _lower_triangular(sys: Block2x2System, solve1, solve2):
    """Writes ``z1 = solve1(r1)``, then ``z2 = solve2(r2 + (beta^2/phi) M z1)``, into ``out``."""
    n = sys.n
    coupling = sys.beta**2 / sys.phi

    def into(r, out):
        z1, z2 = out[:n], out[n:]
        solve1(r[:n], z1)
        np.multiply(sys.mass_apply(z1), coupling, out=z2)
        z2 += r[n:]
        solve2(z2, z2)
        return out

    return LinearOperator(2 * n, into=into, solves_per_apply=2)


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


@dataclass
class PairPlan:
    """A 2x2 eigen-block's plan: its system and, built on first use by
    :func:`make_block2x2_preconditioner`, its preconditioner.  The class
    attribute ``shifted`` builds the diagonal-block solvers, and a
    :class:`ShiftedPlan`'s solver in the same sweep.  The plan refers to its
    system, never the other way round, so it dies by reference count."""

    system: Block2x2System
    spec: PrecondSpec
    shifted = ShiftedSolver

    @cached_property
    def precond(self):
        return make_block2x2_preconditioner(self.system, self.spec, self.shifted)

    def solve(self, rhs, rtol, maxit):
        """GMRES on the block; returns ``(x, KrylovReport)``."""
        sys2 = self.system
        op = LinearOperator(2 * sys2.n, lambda x: apply_block2x2(sys2, x))
        return gmres(op, rhs, right_precond=self.precond, rtol=rtol, maxit=maxit)


class ShiftedPlan:
    """A real eigen-block's plan: GMRES on ``eta*M - dt*L`` with its
    ``shifted`` solver as right preconditioner."""

    def __init__(self, eta, lmat, mass, dt, spec, shifted=ShiftedSolver):
        self.op = LinearOperator(
            lmat.n, lambda x: eta * (x if mass is None else mass @ x) - dt * (lmat @ x)
        )
        self.precond = LinearOperator(lmat.n, into=shifted(eta, mass, lmat, dt, spec.inner).solve)

    def solve(self, rhs, rtol, maxit):
        return gmres(self.op, rhs, right_precond=self.precond, rtol=rtol, maxit=maxit)


def solve_block(plan, rhs, rtol, maxit, what, offset):
    """``plan.solve(rhs, rtol, maxit)``; a solve that did not converge raises
    :class:`StageSolveError` naming ``what``, with ``offset`` and the report."""
    x, rep = plan.solve(rhs, rtol, maxit)
    if not rep.converged:
        raise StageSolveError(f"{what} did not converge", block_offset=offset, report=rep)
    return x, rep


def _block_plan(vjac, blk, dt, mass, spec, pair_plan):
    """The plan ``vjac`` keeps for eigen-block ``blk``: a :class:`ShiftedPlan`
    of a 1x1 block or a ``pair_plan`` of a 2x2 one, rebuilt (replacing the
    block's old one) when ``dt``, the ``mass`` object, ``spec`` or the
    ``pair_plan`` class is not what it was built for."""
    key = (dt, mass, spec, pair_plan)
    held = vjac.plans.get(blk.offset)
    if held is not None and held[0] == key:
        return held[1]
    i = blk.offset
    if blk.size == 1:
        plan = ShiftedPlan(blk.eta, vjac.diag[i], mass, dt, spec, pair_plan.shifted)
    else:
        plan = pair_plan(Block2x2System(blk.eta, blk.beta, blk.phi, mass, vjac.diag[i],
                                        vjac.diag[i + 1], dt, vjac.offdiag.get((i, i + 1)),
                                        vjac.offdiag.get((i + 1, i))), spec)
    vjac.plans[i] = key, plan
    return plan


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
    pair_plan=PairPlan,
):
    """Solve one linearized stage system through the Schur transform.

    ``rhs_stages`` has shape ``(s, n)``.  It is rotated by ``q.T`` and swept
    backward over the eigen-blocks of the quasi-triangular factor: each
    block's right-hand side loses the ``r[i, j]``-weighted mass action of
    the rows already solved below it and gains their variant-3 couplings,
    and the block is solved by its plan's ``solve``: a :class:`ShiftedPlan`
    for a 1x1 block, a ``pair_plan`` (a :class:`PairPlan` class, whose
    ``shifted`` also builds the 1x1 solvers) for a 2x2 one.  The stage
    increments are recovered with ``q @ r``.

    The block-diagonal approximation of the transformed operator is taken
    from ``variant_jacobian`` when given, otherwise built from
    ``stage_ops`` and ``variant``.  It keeps each block's plan for as long
    as ``dt``, ``mass``, ``precond`` and ``pair_plan`` stay the same, so a
    memoized Jacobian plans its solve once.  Returns ``(k, SolveStats)``; a
    non-convergent inner solve raises :class:`StageSolveError` carrying the
    block offset and report.
    """
    vjac = variant_jacobian
    if vjac is None:
        from .nonlinear import build_variant_jacobian

        vjac = build_variant_jacobian(prep, stage_ops, variant)
    rhs = np.asarray(rhs_stages, dtype=float)
    s = prep.tableau.s
    if rhs.shape[0] != s:
        raise ValueError(f"rhs has {rhs.shape[0]} stage rows, expected {s}")
    if dt is None or dt <= 0.0:
        raise ValueError("dt must be positive")
    q, r0 = prep.schur.q, prep.schur.r
    g = q.T.dot(rhs)
    y = np.empty_like(g)  # every row is solved before it is read
    my = [None] * s  # M y[j], cached once each block is solved
    stats = SolveStats()
    for blk in reversed(prep.schur.blocks):
        rows = range(blk.offset, blk.offset + blk.size)
        span = slice(blk.offset, blk.offset + blk.size)
        acc = g[span].copy()
        for local, i in enumerate(rows):
            for j in range(blk.offset + blk.size, s):
                if r0[i, j] != 0.0:
                    acc[local] -= r0[i, j] * my[j]
                od = vjac.offdiag.get((i, j))
                if od is not None:
                    acc[local] += dt * (od @ y[j])
        plan = _block_plan(vjac, blk, dt, mass, precond, pair_plan)
        sol, rep = solve_block(plan, acc.ravel(), krylov_rtol, krylov_maxit,
                               f"{blk.size}x{blk.size} block at offset {blk.offset}", blk.offset)
        y[span] = sol.reshape(blk.size, -1)
        for i in rows:
            my[i] = y[i] if mass is None else mass @ y[i]
        stats.reports.append((blk.offset, rep))
    return q.dot(r0).dot(y), stats


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

