"""Butcher tableaux for fully implicit collocation schemes and SDIRK baselines.

Supported families:

* ``gauss`` (s = 1..8, order 2s), ``radau_iia`` (s = 1..8, order 2s-1) and
  ``lobatto_iiic`` (s = 2..8, order 2s-2).  Abscissae are Gauss-Jacobi roots
  from :mod:`scipy.special`: the roots of ``P_s`` (Gauss), the roots of
  ``P_s - P_{s-1}``, i.e. the fixed node 1 and the Jacobi ``(1, 0)`` roots
  (Radau IIA), and the nodes -1, 1 with the roots of ``P'_{s-1}``, i.e. the
  Jacobi ``(1, 1)`` roots (Lobatto IIIC).  The coefficient matrix and
  weights are assembled from exact integrals of the barycentric Lagrange
  basis so the collocation identities hold to roundoff at every stage count.
* ``sdirk1`` .. ``sdirk4``: singly diagonally implicit reference schemes of
  orders 1-4 (backward Euler; the 2-stage L-stable scheme with
  gamma = 1 - 1/sqrt(2); the classical 3-stage L-stable scheme; the 5-stage
  L-stable order-4 scheme with gamma = 1/4).  These are comparison
  baselines and are stepped stage-by-stage rather than through the Schur
  transform.

:func:`prepare_stages` inverts the coefficient matrix, takes its real Schur
form, checks that every eigenvalue has positive real part, and tabulates
the stage-mixing weight vectors ``d[k, l, i] = q[i, k] * q[i, l]`` used by
the approximate linearizations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import densela
from .errors import AssumptionViolationError, ConfigurationError

GAUSS = "gauss"
RADAU_IIA = "radau_iia"
LOBATTO_IIIC = "lobatto_iiic"
SDIRK_FAMILIES = ("sdirk1", "sdirk2", "sdirk3", "sdirk4")
COLLOCATION_FAMILIES = (GAUSS, RADAU_IIA, LOBATTO_IIIC)

_ALIASES = {
    "gauss": GAUSS,
    "radau": RADAU_IIA,
    "radauiia": RADAU_IIA,
    "radau_iia": RADAU_IIA,
    "lobatto": LOBATTO_IIIC,
    "lobattoiiic": LOBATTO_IIIC,
    "lobatto_iiic": LOBATTO_IIIC,
    "sdirk1": "sdirk1",
    "sdirk2": "sdirk2",
    "sdirk3": "sdirk3",
    "sdirk4": "sdirk4",
}

_SDIRK_STAGES = {"sdirk1": 1, "sdirk2": 2, "sdirk3": 3, "sdirk4": 5}
MAX_COLLOCATION_STAGES = 8


def canonical_family(name):
    key = str(name).strip().lower().replace("-", "_").replace(" ", "")
    key = key.replace("_", "") if key.replace("_", "") in _ALIASES else key
    if key not in _ALIASES:
        raise ConfigurationError(f"unknown scheme family {name!r}")
    return _ALIASES[key]


@dataclass(frozen=True)
class ButcherTableau:
    family: str
    s: int
    a0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    order: int

    @property
    def is_dirk(self):
        return bool(np.all(np.triu(self.a0, 1) == 0.0))

    @property
    def label(self):
        return f"{self.family}({self.s})"


@dataclass(frozen=True)
class StagePrep:
    """Schur-transformed stage data for one tableau.

    ``d[k, l, i]`` is the elementwise product of row k of ``q.T`` with
    column l of ``q``; summing over i gives the Kronecker delta, so the
    off-diagonal weight vectors measure how much the transformed operator
    mixes different stage linearizations.
    """

    tableau: ButcherTableau
    a0inv: np.ndarray
    schur: densela.SchurForm
    d: np.ndarray

    @property
    def blocks(self):
        return self.schur.blocks


def _gauss_quadrature(m):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    u, w = roots_legendre(m)
    return 0.5 * (u + 1.0), 0.5 * w


def _barycentric_weights(nodes):
    w = np.ones(len(nodes))
    for j, cj in enumerate(nodes):
        diff = cj - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w


def _lagrange_matrix(nodes, x):
    """Values ``L[i, j] = ell_j(x_i)`` of the Lagrange basis on ``nodes``."""
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
    """Integrals ``I[i, j] = int_0^{uppers[i]} ell_j`` over the node basis."""
    xg, wg = quad
    out = np.empty((len(uppers), len(nodes)))
    for i, ci in enumerate(uppers):
        if ci == 0.0:
            out[i] = 0.0
            continue
        vals = _lagrange_matrix(nodes, ci * xg)
        out[i] = ci * (wg @ vals)
    return out


def _collocation_tableau(family, s, c):
    quad = _gauss_quadrature(max(s, 2))
    b = _integrated_lagrange(c, np.array([1.0]), quad)[0]
    if family == LOBATTO_IIIC:
        # First column pinned to b[0]; the rest from quadrature conditions of
        # degree s-2 expressed in the Lagrange basis on the trailing nodes.
        a = np.empty((s, s))
        a[:, 0] = b[0]
        sub = c[1:]
        ints = _integrated_lagrange(sub, c, quad)
        vals0 = _lagrange_matrix(sub, 0.0)[0]
        a[:, 1:] = ints - b[0] * vals0
    else:
        a = _integrated_lagrange(c, c, quad)
    return a, b


def _sdirk_tableau(family):
    if family == "sdirk1":
        a = np.array([[1.0]])
        b = np.array([1.0])
        c = np.array([1.0])
        order = 1
    elif family == "sdirk2":
        g = 1.0 - 1.0 / math.sqrt(2.0)
        a = np.array([[g, 0.0], [1.0 - g, g]])
        b = np.array([1.0 - g, g])
        c = np.array([g, 1.0])
        order = 2
    elif family == "sdirk3":
        # gamma is the root of x^3 - 3x^2 + 3x/2 - 1/6 in (1/3, 1/2), in its
        # trigonometric closed form; the remaining weights follow from the
        # quadrature conditions with a stiffly accurate last row.
        g = 1.0 + math.sqrt(2.0) * math.cos(
            (math.acos(2.0 * math.sqrt(2.0) / 3.0) - 2.0 * math.pi) / 3.0
        )
        c2 = 0.5 * (1.0 + g)
        rhs = np.array([1.0 - g, 0.5 - g])
        mat = np.array([[1.0, 1.0], [g, c2]])
        b1, b2 = np.linalg.solve(mat, rhs)
        a = np.array([[g, 0.0, 0.0], [c2 - g, g, 0.0], [b1, b2, g]])
        b = np.array([b1, b2, g])
        c = np.array([g, c2, 1.0])
        order = 3
    else:
        a = np.array(
            [
                [0.25, 0.0, 0.0, 0.0, 0.0],
                [0.5, 0.25, 0.0, 0.0, 0.0],
                [17.0 / 50.0, -1.0 / 25.0, 0.25, 0.0, 0.0],
                [371.0 / 1360.0, -137.0 / 2720.0, 15.0 / 544.0, 0.25, 0.0],
                [25.0 / 24.0, -49.0 / 48.0, 125.0 / 16.0, -85.0 / 12.0, 0.25],
            ]
        )
        b = a[-1].copy()
        c = np.array([0.25, 0.75, 11.0 / 20.0, 0.5, 1.0])
        order = 4
    return a, b, c, order


def make_tableau(family, s=None):
    """Construct the Butcher tableau for ``(family, s)``.

    For SDIRK families the stage count is fixed by the scheme; passing a
    mismatching ``s`` is a configuration error.
    """
    family = canonical_family(family)
    if family in SDIRK_FAMILIES:
        fixed = _SDIRK_STAGES[family]
        if s is not None and s != fixed:
            raise ConfigurationError(f"{family} has s = {fixed}, got s = {s}")
        a, b, c, order = _sdirk_tableau(family)
        return ButcherTableau(family, fixed, a, b, c, order)

    if s is None:
        raise ConfigurationError(f"{family} requires an explicit stage count")
    s = int(s)
    lo = 2 if family == LOBATTO_IIIC else 1
    if not (lo <= s <= MAX_COLLOCATION_STAGES):
        raise ConfigurationError(
            f"{family} supports {lo} <= s <= {MAX_COLLOCATION_STAGES}, got {s}"
        )
    if family == GAUSS:
        x = roots_legendre(s)[0]
        order = 2 * s
    elif family == RADAU_IIA:
        interior = roots_jacobi(s - 1, 1.0, 0.0)[0] if s > 1 else []
        x = np.append(interior, 1.0)
        order = 2 * s - 1
    else:
        interior = roots_jacobi(s - 2, 1.0, 1.0)[0] if s > 2 else []
        x = np.concatenate(([-1.0], interior, [1.0]))
        order = 2 * s - 2
    c = 0.5 * (x + 1.0)
    a, b = _collocation_tableau(family, s, c)
    return ButcherTableau(family, s, a, b, c, order)


def prepare_stages(tableau):
    """Invert the coefficient matrix and build its Schur-transformed data.

    Raises :class:`AssumptionViolationError` when some eigenvalue of the
    inverse coefficient matrix has non-positive real part.
    """
    s = tableau.s
    a0inv = densela.lu_solve(tableau.a0, np.eye(s))
    schur = densela.real_schur(a0inv)
    min_eta = min(blk.eta for blk in schur.blocks)
    if min_eta <= 0.0:
        raise AssumptionViolationError(
            f"{tableau.label}: eigenvalue with real part {min_eta:.3e} <= 0"
        )
    d = np.einsum("ik,il->kli", schur.q, schur.q)
    return StagePrep(tableau=tableau, a0inv=a0inv, schur=schur, d=d)


def gamma_star(eta, beta):
    """Optimal Schur-complement shift ``eta + beta**2 / eta``."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return eta + beta * beta / eta


def kappa_bound(eta, beta, regime="general"):
    """Condition-number bound for the shift-preconditioned Schur complement.

    ``general`` assumes both stage operators coincide and gives
    ``1 + beta**2 / (2 eta**2)``; ``distinct`` allows different operators
    and gives ``2 + beta**2 / eta**2``.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if regime == "general":
        return 1.0 + beta * beta / (2.0 * eta * eta)
    if regime == "distinct":
        return 2.0 + beta * beta / (eta * eta)
    raise ValueError(f"unknown regime {regime!r}")


def tableau_to_json(prep_or_tableau):
    """Serialize a tableau (and eigen-blocks, when prepared) to JSON."""
    if isinstance(prep_or_tableau, StagePrep):
        t = prep_or_tableau.tableau
        blocks = [
            {
                "offset": blk.offset,
                "size": blk.size,
                "eta": blk.eta,
                "beta": blk.beta,
                "phi": blk.phi,
            }
            for blk in prep_or_tableau.blocks
        ]
    else:
        t = prep_or_tableau
        blocks = None
    doc = {
        "family": t.family,
        "s": t.s,
        "order": t.order,
        "a0": t.a0.tolist(),
        "b0": t.b0.tolist(),
        "c0": t.c0.tolist(),
    }
    if blocks is not None:
        doc["eigen_blocks"] = blocks
    return json.dumps(doc, sort_keys=True)
