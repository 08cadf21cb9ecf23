"""Bit-for-bit oracles for the set-up: tableaux, stage preps, shear operators.

``reference_tableau`` is the collocation construction as it stood before it
was written as array broadcasts: a Lagrange row per evaluation point, a
barycentric weight per node with ``np.delete``, ``np.isclose`` as the hit
test, and a second ``roots_legendre`` call for the Gauss quadrature.
``reference_prepare`` inverts and Schur-factors the coefficient matrix
through the ``scipy.linalg`` wrappers, and ``reference_shear_ops`` builds
the 2-D shear operators with ``sp.kron`` and pins them through ``lil``.
The code in :mod:`irkit` must return the same bits: the same values, signs
of zero included, and the same interned patterns.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import roots_jacobi, roots_legendre

from irkit import densela, tableau
from irkit.errors import DecompositionError
from irkit.problems import _grid_ops_2d, make_problem
from irkit.sparsela import BandedLU, SparseMatrix
from irkit.tableau import (
    GAUSS,
    LOBATTO_IIIC,
    RADAU_IIA,
    SDIRK_FAMILIES,
    make_tableau,
    prepare_stages,
)

SCHEMES = (
    [(GAUSS, s) for s in range(1, 9)]
    + [(RADAU_IIA, s) for s in range(1, 9)]
    + [(LOBATTO_IIIC, s) for s in range(2, 9)]
    + [(family, None) for family in SDIRK_FAMILIES]
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _barycentric_weights(nodes):
    w = np.ones(len(nodes))
    for j, cj in enumerate(nodes):
        diff = cj - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def _lagrange_matrix(nodes, x):
    nodes = np.asarray(nodes)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    wbar = _barycentric_weights(nodes)
    out = np.empty((len(x), len(nodes)))
    for i, xi in enumerate(x):
        diff = xi - nodes
        hit = np.isclose(diff, 0.0, atol=1e-15)
        if np.any(hit):
            out[i] = hit.astype(float)
        else:
            terms = wbar / diff
            out[i] = terms / terms.sum()
    return out


def _integrated_lagrange(nodes, uppers, quad):
    xg, wg = quad
    out = np.empty((len(uppers), len(nodes)))
    for i, ci in enumerate(uppers):
        if ci == 0.0:
            out[i] = 0.0
            continue
        vals = _lagrange_matrix(nodes, ci * xg)
        out[i] = ci * (wg @ vals)
    return out


def reference_tableau(family, s):
    """``(a, b, c)`` of a collocation tableau, one evaluation point at a time."""
    if family == GAUSS:
        x = roots_legendre(s)[0]
    elif family == RADAU_IIA:
        x = np.append(roots_jacobi(s - 1, 1.0, 0.0)[0] if s > 1 else [], 1.0)
    else:
        x = np.concatenate(([-1.0], roots_jacobi(s - 2, 1.0, 1.0)[0] if s > 2 else [], [1.0]))
    c = 0.5 * (x + 1.0)
    u, w = roots_legendre(max(s, 2))
    quad = 0.5 * (u + 1.0), 0.5 * w
    b = _integrated_lagrange(c, np.array([1.0]), quad)[0]
    if family == LOBATTO_IIIC:
        a = np.empty((s, s))
        a[:, 0] = b[0]
        sub = c[1:]
        a[:, 1:] = _integrated_lagrange(sub, c, quad) - b[0] * _lagrange_matrix(sub, 0.0)[0]
    else:
        a = _integrated_lagrange(c, c, quad)
    return a, b, c


def reference_prepare(a0):
    """``(a0inv, q, r, d, blocks)`` through the ``scipy.linalg`` wrappers."""
    s = len(a0)
    if np.any(np.triu(a0, 1)):
        lu, piv, _ = scipy.linalg.lapack.dgetrf(a0)
        a0inv = scipy.linalg.lu_solve((lu, piv), np.eye(s), check_finite=False)
    else:
        a0inv = scipy.linalg.solve_triangular(a0, np.eye(s), lower=True, check_finite=False)
    r, q = densela._standardized(a0inv), np.eye(s)
    if r is None:
        r, q = scipy.linalg.schur(a0inv, output="real", check_finite=False)
    blocks, i = [], 0
    while i < s:
        if i < s - 1 and r[i + 1, i] != 0.0:
            blocks.append((i, 2, r[i, i], np.sqrt(-r[i, i + 1] * r[i + 1, i]), r[i, i + 1]))
            i += 2
        else:
            blocks.append((i, 1, r[i, i], 0.0, 0.0))
            i += 1
    return a0inv, q, r, np.einsum("ik,il->kli", q, q), blocks


def test_lagrange_rows_at_near_and_off_nodes_are_the_scalar_bits():
    # no tableau evaluates the basis within 1e-15 of a node, so the unit-row
    # branch is checked here: exact nodes, points 5e-16 off (hits) and 2e-15
    # off (barycentric), and a grid that contains the node 1
    nodes = make_tableau(RADAU_IIA, 4).c0
    x = np.concatenate([nodes, nodes + 5e-16, nodes - 2e-15, np.linspace(0.0, 1.0, 7)])
    assert same_bits(tableau._lagrange_matrix(nodes, x), _lagrange_matrix(nodes, x))


@pytest.mark.parametrize("family, s", SCHEMES)
def test_tableau_and_prep_are_the_scalar_bits(family, s):
    tab = make_tableau(family, s)
    if family not in SDIRK_FAMILIES:
        for mine, ref in zip((tab.a0, tab.b0, tab.c0), reference_tableau(family, s)):
            assert same_bits(mine, ref)
    prep = prepare_stages(tab)
    a0inv, q, r, d, blocks = reference_prepare(tab.a0)
    assert same_bits(prep.a0inv, a0inv)
    assert same_bits(prep.schur.q, q)
    assert same_bits(prep.schur.r, r)
    assert same_bits(prep.d, d)
    assert len(prep.blocks) == len(blocks)
    for blk, (offset, size, *floats) in zip(prep.blocks, blocks):
        assert (blk.offset, blk.size) == (offset, size)
        assert all(same_bits(np.float64(x), np.float64(y))
                   for x, y in zip((blk.eta, blk.beta, blk.phi), floats))


def test_densela_matches_the_scipy_wrappers_on_random_matrices():
    rng = np.random.default_rng(3)
    for n in range(2, densela.MAX_SCHUR_DIM + 1):
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        r, q = scipy.linalg.schur(a, output="real", check_finite=False)
        form = densela.real_schur(a)
        assert same_bits(form.q, q) and same_bits(form.r, r)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            lu, piv = densela.lu_factor(a)
            assert same_bits(densela.lu_solve(a, rhs),
                             scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False))


def test_schur_failure_raises_decomposition_error(monkeypatch):
    def dgees(select, a):
        n = len(a)
        return a, 0, np.zeros(n), np.zeros(n), np.eye(n), np.zeros(3 * n), n

    monkeypatch.setattr(densela, "lapack", type("Lapack", (), {"dgees": staticmethod(dgees)}))
    with pytest.raises(DecompositionError, match="did not converge"):
        densela.real_schur(np.array([[1.0, 2.0], [3.0, 4.0]]))


def _circulant(n, lower, diag, upper):
    cols = (np.arange(n)[:, None] + np.arange(-1, 2)) % n
    order = np.argsort(cols, axis=1)
    vals = np.take_along_axis(np.tile([lower, diag, upper], (n, 1)), order, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    return sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, 3 * n + 1, 3)),
                         shape=(n, n))


def reference_shear_ops(n, length=2.0 * np.pi):
    """``dx, dy, lap, gw, gu`` built with ``sp.kron`` and pinned through ``lil``."""
    h = length / n
    d1 = _circulant(n, -1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))
    lap1 = _circulant(n, 1.0 / h**2, -2.0 / h**2, 1.0 / h**2)
    eye = sp.identity(n, format="csr")
    dx = sp.kron(eye, d1, format="csr")
    dy = sp.kron(d1, eye, format="csr")
    lap = sp.kron(eye, lap1, format="csr") + sp.kron(lap1, eye, format="csr")
    pinned = lap.tolil()
    pinned[0, :] = 0.0
    pinned[0, 0] = 1.0
    gu = (sp.identity(n * n, format="csr") * (-1.0)).tolil()
    gu[0, :] = 0.0
    return [SparseMatrix(m) for m in (dx, dy, lap, pinned.tocsr(), gu.tocsr())]


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
def test_shear_operators_are_the_kron_bits(n):
    problem = make_problem("shear_layer_small", n=n)
    _, lw, gu, gw = problem.system.blocks(problem.u0, problem.w0, 0.0)
    ref = reference_shear_ops(n)
    for mine, old in zip([*_grid_ops_2d(n)[:3], gw, gu], ref):
        assert mine.pattern is old.pattern
        assert same_bits(mine.data, old.data)
    assert lw.pattern is SparseMatrix(sp.csr_matrix((n * n, n * n))).pattern
    rhs = problem.u0.copy()
    rhs[0] = 0.0
    assert same_bits(problem.w0, BandedLU.factor(ref[3]).solve(rhs))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 32])
def test_shear_advection_values_are_the_dense_entries(n):
    # dx's and dy's values on the Laplacian's pattern: their own entries, and
    # +0.0 where they hold none, as the bytes compare signs of zero too
    dx, dy, lap, _, dxv, dyv = _grid_ops_2d(n)
    rows, cols = lap.pattern.rows, lap.indices
    for values, op in ((dxv, dx), (dyv, dy)):
        assert same_bits(values, op.to_dense()[rows, cols])
        assert not np.any(np.signbit(values[values == 0.0]))
