"""Butcher tableaux for fully implicit collocation schemes and SDIRK baselines.

Supported families:

* ``gauss`` (s = 1..8, order 2s), ``radau_iia`` (s = 1..8, order 2s-1) and
  ``lobatto_iiic`` (s = 2..8, order 2s-2).  Abscissae are Gauss-Jacobi roots
  from :mod:`scipy.special`: the roots of ``P_s`` (Gauss), the roots of
  ``P_s - P_{s-1}``, i.e. the fixed node 1 and the Jacobi ``(1, 0)`` roots
  (Radau IIA), and the nodes -1, 1 with the roots of ``P'_{s-1}``, i.e. the
  Jacobi ``(1, 1)`` roots (Lobatto IIIC).  The coefficient matrix and
  weights are exact Gauss-Legendre integrals of the barycentric Lagrange
  basis (Berrut & Trefethen, SIAM Review 46, 2004), every quadrature point
  in one broadcast, so the collocation identities hold to roundoff.
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

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import densela
from .errors import AssumptionViolationError, ConfigurationError

GAUSS = "gauss"
RADAU_IIA = "radau_iia"
LOBATTO_IIIC = "lobatto_iiic"
SDIRK_FAMILIES = ("sdirk1", "sdirk2", "sdirk3", "sdirk4")

_ALIASES = {
    "gauss": GAUSS,
    "radau": RADAU_IIA,
    "radauiia": RADAU_IIA,
    "lobatto": LOBATTO_IIIC,
    "lobattoiiic": LOBATTO_IIIC,
    **{family: family for family in SDIRK_FAMILIES},
}

MAX_COLLOCATION_STAGES = 8


def canonical_family(name):
    """The family ``name`` spells, with case, ``-``, ``_`` and spaces ignored."""
    key = str(name).strip().lower().replace("-", "").replace("_", "").replace(" ", "")
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
    def label(self):
        return f"{self.family}({self.s})"


@dataclass(frozen=True, eq=False)
class StagePrep:
    """Schur-transformed stage data for one tableau.

    ``d[k, l, i]`` is the elementwise product of row k of ``q.T`` with
    column l of ``q``; summing over i gives the Kronecker delta, so the
    off-diagonal weight vectors measure how much the transformed operator
    mixes different stage linearizations.  A prep hashes by identity, so
    memo keys can hold it; ``memo`` keeps the variant weights and the sweep's tables.
    """

    tableau: ButcherTableau
    a0inv: np.ndarray
    schur: densela.SchurForm
    d: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def blocks(self):
        return self.schur.blocks


def _barycentric_weights(nodes):
    """Weights ``1 / prod_{k != j} (c_j - c_k)``, one row product per node."""
    diff = nodes[:, None] - nodes
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _lagrange_matrix(nodes, x):
    """Values ``L[i, j] = ell_j(x_i)`` of the Lagrange basis on ``nodes``, all
    points in one broadcast: a point within 1e-15 of a node takes its unit
    row, any other the barycentric formula of the second kind."""
    diff = np.reshape(x, (-1, 1)) - nodes
    hit = np.abs(diff) <= 1e-15
    out = hit.astype(float)
    far = ~hit.any(axis=1)
    terms = _barycentric_weights(nodes) / diff[far]
    out[far] = terms / terms.sum(axis=1, keepdims=True)
    return out


def _integrated_lagrange(nodes, uppers, quad):
    """Integrals ``I[i, j] = int_0^{uppers[i]} ell_j`` over the node basis, the
    quadrature ``quad`` on [0, 1] scaled to all ``[0, uppers[i]]`` at once."""
    xg, wg = quad
    vals = _lagrange_matrix(nodes, np.multiply.outer(uppers, xg))
    return uppers[:, None] * (wg @ vals.reshape(len(uppers), len(xg), len(nodes)))


def _collocation_tableau(family, s, c, quad):
    if family != LOBATTO_IIIC:
        # one pass for the rows of a (integrals up to c) and b (up to 1); the
        # copies keep b0 from being a view into a0's buffer
        ints = _integrated_lagrange(c, np.append(c, 1.0), quad)
        return ints[:-1].copy(), ints[-1].copy()
    b = _integrated_lagrange(c, np.ones(1), quad)[0]
    # First column pinned to b[0]; the rest from quadrature conditions of
    # degree s-2 expressed in the Lagrange basis on the trailing nodes.
    a = np.empty((s, s))
    a[:, 0] = b[0]
    sub = c[1:]
    a[:, 1:] = _integrated_lagrange(sub, c, quad) - b[0] * _lagrange_matrix(sub, 0.0)[0]
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

    ``s`` must be an integer (numpy integers pass, ``bool`` does not).  For
    SDIRK families the stage count is fixed by the scheme; passing a
    mismatching ``s`` is a configuration error.
    """
    family = canonical_family(family)
    if s is not None:
        try:
            if isinstance(s, bool):
                raise TypeError
            s = operator.index(s)
        except TypeError:
            raise ConfigurationError(f"stage count must be an integer, got {s!r}") from None
    if family in SDIRK_FAMILIES:
        a, b, c, order = _sdirk_tableau(family)
        if s is not None and s != len(b):
            raise ConfigurationError(f"{family} has s = {len(b)}, got s = {s}")
        return ButcherTableau(family, len(b), a, b, c, order)

    if s is None:
        raise ConfigurationError(f"{family} requires an explicit stage count")
    lo = 2 if family == LOBATTO_IIIC else 1
    if not (lo <= s <= MAX_COLLOCATION_STAGES):
        raise ConfigurationError(
            f"{family} supports {lo} <= s <= {MAX_COLLOCATION_STAGES}, got {s}"
        )
    u, w = roots_legendre(max(s, 2))  # the quadrature; for s >= 2 the Gauss nodes too
    if family == GAUSS:
        x = u if s > 1 else roots_legendre(1)[0]
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
    a, b = _collocation_tableau(family, s, c, (0.5 * (u + 1.0), 0.5 * w))
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
