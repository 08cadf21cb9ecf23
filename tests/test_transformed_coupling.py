"""The transformed stage solve against the truncated dense transformed operator.

With ``A0^{-1} = q r q^T`` (real Schur form) and stage operators ``A_i``,
the linear stage system becomes ``T y = (q^T (x) I) rhs`` with blocks

    T[k, l] = r[k, l] * M - dt * sum_i q[i, k] q[i, l] A_i,

and the stage increments are ``x = ((q r) (x) I) y``.  Variant 2 keeps the
operator part of ``T`` on the diagonal only; variant 3 keeps it for every
``l`` in or after the eigen-block of row ``k``.  Variants 0 and 1 keep only a
diagonal operator too, one stage's ``A``: stage 0's, or that of the stage
with the largest weight ``q[i, k]^2`` in row ``k``.  The oracle assembles
that truncation densely from ``prep.schur.q`` and ``prep.schur.r`` alone, so
the sweep's cross-block coupling terms are checked against an independent
construction.  Unequal stage operators keep the coupling weights well away
from roundoff.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from irkit.dae import PAIR_PLANS, DaeOps, _CompositeMass
from irkit.irk_core import solve_transformed_system
from irkit.nonlinear import build_variant_jacobian
from irkit.sparsela import SparseMatrix
from irkit.tableau import make_tableau, prepare_stages

SCHEMES = [("radau_iia", 3), ("gauss", 3), ("gauss", 4), ("lobatto_iiic", 4)]
DT = 0.2


def truncated_oracle(prep, stage_mats, mass, rhs, variant, in_block=True):
    """Dense solve of the variant's truncated transformed operator.

    ``in_block=False`` also drops the operator couplings between the two
    rows of a 2x2 eigen-block (the ``reordered`` DAE ordering ignores them).
    """
    q, r = prep.schur.q, prep.schur.r
    s, n = rhs.shape
    start = np.empty(s, dtype=int)  # offset of each row's eigen-block
    for blk in prep.schur.blocks:
        start[blk.offset : blk.offset + blk.size] = blk.offset
    big = np.zeros((s * n, s * n))
    for k in range(s):
        for l in range(s):
            blk = r[k, l] * mass
            if variant < 2:
                if l == k:
                    lumped = 0 if variant == 0 else int(np.argmax(q[:, k] ** 2))
                    blk = blk - DT * stage_mats[lumped]
            elif l == k or (variant == 3 and (
                    start[l] > start[k] or (in_block and start[l] == start[k]))):
                blk = blk - DT * sum(q[i, k] * q[i, l] * stage_mats[i] for i in range(s))
            big[k * n : (k + 1) * n, l * n : (l + 1) * n] = blk
    y = np.linalg.solve(big, (q.T @ rhs).ravel()).reshape(s, n)
    return (q @ r) @ y


def check(x, oracle):
    assert np.max(np.abs(x - oracle)) <= 1e-9 * max(1.0, np.max(np.abs(oracle)))


@pytest.mark.parametrize("variant", [2, 3])
@pytest.mark.parametrize("family,s", SCHEMES)
def test_ode_solve_matches_truncated_operator(family, s, variant):
    rng = np.random.default_rng(100 * s + variant)
    n = 5
    prep = prepare_stages(make_tableau(family, s))
    mats = [rng.standard_normal((n, n)) - 3.0 * np.eye(n) for _ in range(s)]
    mass = np.diag(1.0 + rng.random(n))
    rhs = rng.standard_normal((s, n))
    x, _ = solve_transformed_system(
        prep, build_variant_jacobian(prep, [SparseMatrix(a) for a in mats], variant), DT, rhs,
        mass=SparseMatrix(mass), krylov_rtol=1e-13, krylov_maxit=400,
    )
    oracle = truncated_oracle(prep, mats, mass, rhs, variant)
    check(x, oracle)
    if variant == 3:
        # the couplings move the solution far beyond the tolerance above
        assert np.max(np.abs(oracle - truncated_oracle(prep, mats, mass, rhs, 2))) > 1e-3


def left_half_plane_operator(rng, n, bandwidth, periodic):
    """Random band of half-width ``bandwidth`` (plus the two corner entries
    if ``periodic``), shifted so its field of values lies left of -0.5."""
    a = np.triu(np.tril(rng.standard_normal((n, n)), bandwidth), -bandwidth)
    if periodic:
        a[0, -1], a[-1, 0] = rng.standard_normal(2)
    top = np.linalg.eigvalsh(0.5 * (a + a.T))[-1]
    return a - (top + 0.5) * np.eye(n)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    scheme=hst.sampled_from([(family, s) for family in ("gauss", "radau_iia", "lobatto_iiic")
                             for s in (2, 3, 4)]),
    seed=hst.integers(0, 2**32 - 1),
    n=hst.integers(3, 7),
    bandwidths=hst.lists(hst.integers(0, 2), min_size=4, max_size=4),
    periodic=hst.booleans(),
    diagonal_mass=hst.booleans(),
)
def test_property_ode_solve_matches_truncated_operator(scheme, seed, n, bandwidths, periodic,
                                                       diagonal_mass):
    # unequal stage operators, each on its own drawn band, for all four variants
    family, s = scheme
    rng = np.random.default_rng(seed)
    prep = prepare_stages(make_tableau(family, s))
    mats = [left_half_plane_operator(rng, n, bandwidths[i], periodic) for i in range(s)]
    mass = np.diag(0.5 + rng.random(n)) if diagonal_mass else np.eye(n)
    rhs = rng.standard_normal((s, n))
    ops = [SparseMatrix(sp.csr_matrix(a)) for a in mats]
    for variant in range(4):
        x, _ = solve_transformed_system(
            prep, build_variant_jacobian(prep, ops, variant), DT, rhs,
            mass=SparseMatrix(mass) if diagonal_mass else None,
            krylov_rtol=1e-13, krylov_maxit=400,
        )
        check(x, truncated_oracle(prep, mats, mass, rhs, variant))


def random_composite(rng, nu, nw, lw_zero):
    lw = np.zeros((nu, nw)) if lw_zero else 0.3 * rng.standard_normal((nu, nw))
    return (
        rng.standard_normal((nu, nu)) - 3.0 * np.eye(nu),
        lw,
        0.5 * rng.standard_normal((nw, nu)),
        rng.standard_normal((nw, nw)) + 4.0 * np.eye(nw),
    )


@pytest.mark.parametrize("mode", ["coupled", "reordered"])
@pytest.mark.parametrize("variant", [2, 3])
@pytest.mark.parametrize("family,s", SCHEMES)
def test_dae_solve_matches_truncated_operator(family, s, variant, mode):
    rng = np.random.default_rng(100 * s + 10 * variant + (mode == "reordered"))
    nu, nw = 3, 2
    prep = prepare_stages(make_tableau(family, s))
    blocks = [random_composite(rng, nu, nw, mode == "reordered") for _ in range(s)]
    mats = [np.block([[lu, lw], [gu, gw]]) for lu, lw, gu, gw in blocks]
    mass_u = np.diag(1.0 + rng.random(nu))
    mass = np.zeros((nu + nw, nu + nw))
    mass[:nu, :nu] = mass_u
    rhs = rng.standard_normal((s, nu + nw))
    ops = [DaeOps(*(SparseMatrix(b) for b in blk)) for blk in blocks]
    x, _ = solve_transformed_system(
        prep, dt=DT, rhs_stages=rhs,
        mass=_CompositeMass(SparseMatrix(mass_u), nu),
        krylov_rtol=1e-13, krylov_maxit=400,
        variant_jacobian=build_variant_jacobian(prep, ops, variant),
        pair_plan=PAIR_PLANS[mode],
    )
    check(x, truncated_oracle(prep, mats, mass, rhs, variant, in_block=mode == "coupled"))
