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
The report is the block's verdict, which :func:`solve_block` alone judges.
The DAE path plugs in a ``PairPlan`` subclass as ``pair_plan=``; its
``shifted`` solver serves both kinds of block.

Every block's operator (a 2x2 block, a real 1x1 block or DIRK stage, a
composite DAE block) is one CSR matrix assembled by
:func:`~irkit.sparsela.stack`, so a Krylov iteration applies it with one
sparse product; a plain 1x1 block's is its preconditioner's own shifted
matrix.  The variant Jacobian keeps each block's plan: a constant
operator's are built on the first step only, a changing one's once per
linearization (3 factors and one block matrix for radau_iia(3)).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eig_banded

from . import densela
from .errors import ConfigurationError, KrylovBreakdownError, StageSolveError
from .sparsela import (
    KrylovReport,
    LinearOperator,
    SparseMatrix,
    _is_count,
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
    a positive finite real number.  ``inner`` is ``"exact"`` for factored
    solves or a count (:func:`~irkit.sparsela._is_count`) of damped-Jacobi
    sweeps (a stand-in for one cycle of an iterative inner preconditioner).
    Anything else, a ``bool`` included although Python counts it as an int,
    raises ``ConfigurationError`` naming the field.
    """

    gamma_mode: object = "star"
    inner: object = "exact"

    def __post_init__(self):
        g = self.gamma_mode
        if isinstance(g, str):
            if g not in ("star", "eta"):
                raise ConfigurationError(f"unknown gamma mode {g!r}")
        elif isinstance(g, bool) or not isinstance(g, numbers.Real) or not 0.0 < g < np.inf:
            raise ConfigurationError(f"gamma_mode must be 'star', 'eta' or a real number, "
                                     f"positive and finite, got {g!r}")
        if not (self.inner == "exact" or _is_count(self.inner)):
            raise ConfigurationError(f"inner must be 'exact' or a positive int, got {self.inner!r}")

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

    @cached_property
    def matrix(self) -> SparseMatrix:
        """The block operator as one :class:`~irkit.sparsela.SparseMatrix`.

        Built by :func:`_block_matrix`, memoized on ``l1``.
        """
        dt, mass = self.dt, self.mass
        blocks = [(0, 0, self.eta, mass), (0, 0, -dt, self.l1), (0, 1, self.phi, mass),
                  (1, 0, -(self.beta**2 / self.phi), mass), (1, 1, self.eta, mass),
                  (1, 1, -dt, self.l2)]
        for bi, bj, coupling in ((0, 1, self.offdiag12), (1, 0, self.offdiag21)):
            if coupling is not None:
                blocks.append((bi, bj, -dt, coupling))
        return _block_matrix(blocks, self.l1)


def _block_matrix(blocks, like):
    """One :class:`~irkit.sparsela.SparseMatrix` holding ``w * op`` in block
    ``(bi, bj)`` for each of ``blocks``, the blocks as large as ``like``.
    A composite operand puts its parts on its finer grid.  Assembled by
    :func:`~irkit.sparsela.stack` and memoized on ``like`` (its first part,
    if composite): the same operands and weights give the same matrix."""
    sizes = getattr(like, "sizes", (like.n,))
    g = len(sizes)
    terms = [(bi * g + i, bj * g + j, float(w), m)
             for bi, bj, w, op in blocks for i, j, m in _parts(op)]
    return stack(sizes * (1 + max(b[0] for b in blocks)), terms, owner=_parts(like)[0][2])


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
        self.mat, self.inner = combine([alpha, -dt], [mass, lmat]), inner
        self._factor = self.mat.factorization if inner == "exact" else None
        if self._factor is None:
            diag = self.mat.csr.diagonal()
            if np.any(diag == 0.0):
                raise ValueError("Jacobi inner solver needs a nonzero diagonal")
            self._invdiag = 1.0 / diag

    def solve(self, r, out=None):
        """The solve of ``r``, written into ``out`` when given (which may be ``r``)."""
        if self._factor is not None:
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
        np.multiply(z1 if sys.mass is None else sys.mass @ z1, coupling, out=z2)
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
        """GMRES on the block's :attr:`~Block2x2System.matrix`; returns
        ``(x, KrylovReport)``."""
        return gmres(self.system.matrix, rhs, right_precond=self.precond, rtol=rtol, maxit=maxit)


class ShiftedPlan:
    """A real eigen-block's plan: GMRES on the assembled ``eta*M - dt*L``
    with its ``shifted`` solver as right preconditioner.  The operator is
    the solver's own ``mat``: the matrix a :class:`ShiftedSolver` factors,
    or the one a composite solver assembles on first use."""

    def __init__(self, eta, lmat, mass, dt, spec, shifted=ShiftedSolver):
        solver = shifted(eta, mass, lmat, dt, spec.inner)
        self.op, self.precond = solver.mat, LinearOperator(lmat.n, into=solver.solve)

    def solve(self, rhs, rtol, maxit):
        return gmres(self.op, rhs, right_precond=self.precond, rtol=rtol, maxit=maxit)


def solve_block(plan, rhs, rtol, maxit, what, offset, reports):
    """The one verdict on a block solve: returns the ``x`` of ``plan.solve(rhs,
    rtol, maxit)`` after appending ``(offset, report)`` to ``reports``.  A report
    that has not converged raises :class:`KrylovBreakdownError` if it has
    ``breakdown`` set, else :class:`StageSolveError`, named by ``what``, with its
    last residual against ``rtol``, and carrying ``offset``, the report and ``reports``."""
    x, rep = plan.solve(rhs, rtol, maxit)
    reports.append((offset, rep))
    if not rep.converged:
        error = KrylovBreakdownError if rep.breakdown else StageSolveError
        how = "stopped at an Arnoldi breakdown with" if rep.breakdown else "did not converge:"
        raise error(f"{what} {how} residual {rep.residuals[-1]:.3e} above rtol {rtol:.3e}",
                    offset, rep, reports)
    return x


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


def _check_dt(dt):
    """The one rule for a step size, ``0 < dt < inf`` (NaN fails it)."""
    if not 0.0 < dt < np.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")


def solve_transformed_system(
    prep,
    variant_jacobian,
    dt,
    rhs_stages,
    mass=None,
    precond=PrecondSpec(),
    krylov_rtol=1e-5,
    krylov_maxit=200,
    pair_plan=PairPlan,
    reports=None,
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

    The block-diagonal approximation of the transformed operator is
    ``variant_jacobian``, from :func:`~irkit.nonlinear.build_variant_jacobian`.
    It keeps each block's plan for as long as ``dt``, ``mass``, ``precond``
    and ``pair_plan`` stay the same, so a memoized Jacobian plans its solve
    once.  A ``dt`` outside ``(0, inf)`` or a row count other than ``s``
    raises ``ValueError``.  Returns ``(k, reports)``: ``reports``, a fresh list
    if ``None``, with a ``(block_offset, KrylovReport)`` appended per block in
    sweep order, by descending offset; a block whose report has not converged
    raises from :func:`solve_block`, carrying its offset, its report and that list.
    """
    rhs = np.asarray(rhs_stages, dtype=float)
    s = prep.tableau.s
    if rhs.shape[0] != s:
        raise ValueError(f"rhs has {rhs.shape[0]} stage rows, expected {s}")
    _check_dt(dt)
    sweep = prep.memo.get(_sweep) or prep.memo.setdefault(_sweep, _sweep(prep))
    g = prep.schur.q.T.dot(rhs)
    y = np.empty_like(g)  # every row is solved before it is read
    my = [None] * s  # M y[j], cached once each block is solved
    reports = [] if reports is None else reports
    for blk, span, rows, what in sweep[1]:
        acc = g[span].copy()
        for row, cols in zip(acc, rows):  # each row a view, its terms added in place
            for j, key, rij in cols:
                if rij != 0.0:
                    row -= rij * my[j]
                od = variant_jacobian.offdiag.get(key)
                if od is not None:
                    row += dt * (od @ y[j])
        plan = _block_plan(variant_jacobian, blk, dt, mass, precond, pair_plan)
        sol = solve_block(plan, acc.ravel(), krylov_rtol, krylov_maxit, what, blk.offset, reports)
        y[span] = sol.reshape(blk.size, -1)
        for i in range(span.start, span.stop):
            my[i] = y[i] if mass is None else mass @ y[i]
    return sweep[0].dot(y), reports


def _sweep(prep):
    """``q @ r`` and, per block in sweep order, its span, its rows' ``(j, (i,
    j), r[i, j])`` for the columns right of it, and its name for a failed solve."""
    q, r, s = prep.schur.q, prep.schur.r, prep.tableau.s
    return q.dot(r), [(blk, slice(blk.offset, blk.offset + blk.size),
                       [[(j, (i, j), float(r[i, j])) for j in range(blk.offset + blk.size, s)]
                        for i in range(blk.offset, blk.offset + blk.size)],
                       f"{blk.size}x{blk.size} block at offset {blk.offset}")
                      for blk in reversed(prep.schur.blocks)]


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

