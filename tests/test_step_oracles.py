"""Whole-step oracles: pinned work counts of the benchmark cells, a dense
Kronecker solve of a linear step, the stage operators' shared pattern, the
couplings left out as roundoff, and the factorizations and 2x2 block
operators a run builds while its stage Jacobian stays unchanged.

The pinned counts are Newton iterations / Krylov iterations / preconditioner
applications of one step from ``problem.u0``.  They move with the shift of
the second diagonal block of the 2x2 preconditioner, with the variant
operators, and with anything else that changes the inner solves, so a
wrong ``gamma`` (``eta`` in its place) fails here even where the step
still converges.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from irkit import densela, irk_core, nonlinear, sparsela
from irkit.dae import DaeOps, DaeSystem, dae_step
from irkit.irk_core import Block2x2System, PrecondSpec
from irkit.nonlinear import (
    COUPLING_ROUNDOFF,
    OdeSystem,
    SolverConfig,
    build_variant_jacobian,
    step,
    variant_weights,
)
from irkit.problems import make_problem
from irkit.sparsela import SUM_CACHE_SIZE, SparseMatrix
from irkit.tableau import make_tableau, prepare_stages


def counts(stats):
    return stats.newton_iterations, stats.krylov_iterations, stats.precond_applications


@pytest.mark.parametrize("gamma_mode,expected", [("star", (2, 7, 12)), ("eta", (2, 8, 14))])
def test_burgers_cell_counts(gamma_mode, expected):
    problem = make_problem("burgers1d", n=256)
    cfg = SolverConfig(precond=PrecondSpec(gamma_mode=gamma_mode))
    _, stats = step(problem.system, problem.u0, 0.0, 1e-4, make_tableau("radau_iia", 3), cfg)
    assert counts(stats) == expected


def test_heat_cell_counts():
    problem = make_problem("heat1d", n=1024)
    _, stats = step(problem.system, problem.u0, 0.0, 1e-3, make_tableau("gauss", 4))
    assert counts(stats) == (1, 6, 12)


def test_shear_cell_counts():
    problem = make_problem("shear_layer_small", n=16)
    _, _, stats = dae_step(problem.system, problem.u0, problem.w0, 0.0, 1e-2,
                           make_tableau("radau_iia", 2), mode="reordered")
    assert counts(stats) == (4, 12, 24)


@pytest.mark.parametrize("family,s", [("gauss", 3), ("radau_iia", 3)])
def test_linear_step_matches_dense_kronecker_solve(family, s):
    # M u' = L u with a non-identity diagonal mass: the stages solve
    # (I (x) M - dt A (x) L) K = 1 (x) (L u), and u_next = u + dt (b^T (x) I) K
    rng = np.random.default_rng(11)
    n, dt = 12, 0.1
    band = sp.diags([1.0, -4.0, 1.5], [-1, 0, 1], shape=(n, n)).toarray()
    band[0, -1], band[-1, 0] = 0.7, -0.4  # periodic wrap entries
    lmat = SparseMatrix(band + 0.1 * np.triu(rng.standard_normal((n, n)), -1) * (band != 0))
    mass_diag = 1.0 + rng.random(n)
    mass = SparseMatrix(np.diag(mass_diag))
    system = OdeSystem(dim=n, rhs=lambda u, t: lmat @ u, linearize=lambda u, t: lmat,
                       mass=mass)
    u0 = rng.standard_normal(n)
    tableau = make_tableau(family, s)
    cfg = SolverConfig(variant=3, newton_rtol=1e-12, krylov_rtol=1e-12)
    u1, stats = step(system, u0, 0.0, dt, tableau, cfg)

    ldense = lmat.to_dense()
    big = np.kron(np.eye(s), np.diag(mass_diag)) - dt * np.kron(tableau.a0, ldense)
    k = np.linalg.solve(big, np.tile(ldense @ u0, s)).reshape(s, n)
    expected = u0 + dt * (tableau.b0 @ k)
    assert stats.converged
    assert np.max(np.abs(u1 - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("variant", [0, 1, 2, 3])
def test_variant_operators_share_the_stage_pattern(variant):
    problem = make_problem("burgers1d", n=32)
    prep = prepare_stages(make_tableau("radau_iia", 3))
    ops = [problem.system.linearize(problem.u0 * (1.0 + 0.1 * i), 0.0) for i in range(3)]
    vjac = build_variant_jacobian(prep, ops, variant)
    pattern = ops[0].pattern
    assert all(op.pattern is pattern for op in ops)
    assert all(op.pattern is pattern for op in (*vjac.diag, *vjac.offdiag.values()))


def test_dae_variant_operators_share_the_block_patterns():
    # DaeOps are summed block by block, each block on its stage pattern
    problem = make_problem("shear_layer_small", n=8)
    prep = prepare_stages(make_tableau("radau_iia", 3))
    ops = [problem.system.blocks(problem.u0, problem.w0 * (1.0 + 0.1 * i), 0.0)
           for i in range(3)]
    vjac = build_variant_jacobian(prep, [DaeOps(*blk) for blk in ops], 3)
    for field, stage_block in zip(DaeOps._fields, ops[0]):
        assert all(getattr(op, field).pattern is stage_block.pattern
                   for op in (*vjac.diag, *vjac.offdiag.values()))


def factorizations_per_step(factored, advance, steps):
    """Matrices ``BandedLU.factor`` sees in each of ``steps`` calls of ``advance``."""
    out = []
    for j in range(steps):
        start = len(factored)
        advance(j)
        out.append(factored[start:])
    return out


def heat_run(factored, tableau, cfg=SolverConfig(), dts=(1e-3,) * 3, system=None):
    problem = make_problem("heat1d", n=64)
    system = problem.system if system is None else system
    state = {"u": problem.u0}

    def advance(j):
        state["u"], _ = step(system, state["u"], j * dts[j], dts[j], tableau, cfg)

    return [len(f) for f in factorizations_per_step(factored, advance, len(dts))]


def test_heat_factors_on_the_first_step_only(factored):
    # two 2x2 eigen-blocks, two shifted blocks each; the constant operator
    # hands back the same sums and factors on every later step
    assert heat_run(factored, make_tableau("gauss", 4)) == [4, 0, 0]


def test_heat_refactors_on_a_new_dt(factored):
    assert heat_run(factored, make_tableau("gauss", 4), dts=(1e-3, 1e-3, 2e-3)) == [4, 0, 4]


def test_heat_refactors_only_the_blocks_whose_shift_changes(factored):
    # "eta" keeps the first diagonal block's shift and moves the second's
    problem = make_problem("heat1d", n=64)
    tableau = make_tableau("gauss", 4)
    for mode, new in (("star", 4), ("eta", 2), ("star", 0)):
        start = len(factored)
        step(problem.system, problem.u0, 0.0, 1e-3, tableau,
             SolverConfig(precond=PrecondSpec(gamma_mode=mode)))
        assert len(factored) - start == new


def test_new_jacobian_object_with_equal_values_refactors(factored):
    # the memo is keyed by identity, not by value
    mat = make_problem("heat1d", n=64).operator
    fresh = OdeSystem(dim=mat.n, rhs=lambda u, t: mat @ u,
                      linearize=lambda u, t: SparseMatrix.on_pattern(mat.pattern, mat.data))
    assert heat_run(factored, make_tableau("gauss", 4), system=fresh) == [4, 4, 4]


def test_sdirk_on_heat_factors_once(factored):
    # every stage shares the diagonal a_ii, so one shifted block serves the run
    assert sum(heat_run(factored, make_tableau("sdirk3"), dts=(1e-3,) * 4)) == 1


@pytest.mark.parametrize("refresh,per_step", [("every", 6), ("frozen", 3)])
def test_burgers_factorizations_per_step(factored, refresh, per_step):
    # radau_iia(3): one real and one complex eigen-block, three shifted blocks
    # per Jacobian; two Newton iterations per step, one Jacobian under frozen
    problem = make_problem("burgers1d", n=256)
    tableau = make_tableau("radau_iia", 3)
    cfg = SolverConfig(jacobian_refresh=refresh)
    state = {"u": problem.u0}

    def advance(j):
        state["u"], stats = step(problem.system, state["u"], j * 1e-4, 1e-4, tableau, cfg)
        assert stats.newton_iterations == 2

    per = factorizations_per_step(factored, advance, 3)
    assert [len(f) for f in per] == [per_step] * 3


def test_fresh_linearization_builds_each_part_once(factored, monkeypatch):
    # radau_iia(3) on burgers: a new stage Jacobian every Newton iteration,
    # whose plans take one combine_rows pass, three shifted sums each
    # factored once, and one assembly of the 2x2 block's matrix
    built = {"rows": 0, "sums": 0, "blocks": 0}
    summed, scatter = sparsela._summed, sparsela._scatter

    def counted_summed(pattern, shape, terms):
        built["rows"] += isinstance(shape, tuple)  # combine_rows' (rows, nnz) pass
        return summed(pattern, shape, terms)

    def counted_scatter(grid, terms):
        built["sums" if len(grid[0]) == 1 else "blocks"] += 1
        return scatter(grid, terms)

    monkeypatch.setattr(sparsela, "_summed", counted_summed)
    monkeypatch.setattr(sparsela, "_scatter", counted_scatter)
    problem = make_problem("burgers1d", n=32)
    tableau, u, newton = make_tableau("radau_iia", 3), problem.u0, 0
    prep = prepare_stages(tableau)
    for j in range(3):
        u, stats = step(problem.system, u, j * 1e-3, 1e-3, tableau, prep=prep)
        newton += stats.newton_iterations
    assert newton >= 6
    assert built == {"rows": newton, "sums": 3 * newton, "blocks": newton}
    assert len(factored) == 3 * newton


def test_shear_factors_its_constraint_block_on_the_first_step_only(factored):
    problem = make_problem("shear_layer_small", n=16)
    gw = problem.system.blocks(problem.u0, problem.w0, 0.0)[3]
    tableau = make_tableau("radau_iia", 2)
    state = {"uw": (problem.u0, problem.w0)}

    def advance(j):
        u, w, _ = dae_step(problem.system, *state["uw"], j * 1e-2, 1e-2, tableau,
                           mode="reordered")
        state["uw"] = (u, w)

    per = factorizations_per_step(factored, advance, 3)
    # the two stage rows weight G_w differently: two sums, each factored once
    assert [sum(m.pattern is gw.pattern for m in f) for f in per] == [2, 0, 0]
    assert [len(f) for f in per] == [10, 8, 8]


@pytest.mark.parametrize("family,s", [("gauss", 4), ("radau_iia", 3)])
def test_heat_couplings_are_roundoff_and_dropped(family, s):
    # one operator on every stage: each coupling is (sum w) * L with a weight
    # sum that is roundoff but not exactly zero
    prep = prepare_stages(make_tableau(family, s))
    _, weights = variant_weights(prep, 3)
    sums = np.array([abs(np.sum(w)) for w in weights.values()])
    scale = np.array([np.sum(np.abs(w)) for w in weights.values()])
    assert np.any(sums > 0.0)
    assert np.all(sums <= COUPLING_ROUNDOFF * np.finfo(float).eps * scale)
    op = make_problem("heat1d", n=64).operator
    assert build_variant_jacobian(prep, [op] * s, 3).offdiag == {}


@pytest.mark.parametrize("family", ["gauss", "radau_iia", "lobatto_iiic"])
@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7, 8])
def test_one_operator_drops_every_coupling(family, s):
    prep = prepare_stages(make_tableau(family, s))
    op = SparseMatrix(np.array([[-1.0]]))
    assert build_variant_jacobian(prep, [op] * s, 3).offdiag == {}


def test_distinct_operators_keep_every_coupling():
    prep = prepare_stages(make_tableau("radau_iia", 3))
    _, weights = variant_weights(prep, 3)
    burgers = make_problem("burgers1d", n=32)
    ops = [burgers.system.linearize(burgers.u0 * (1.0 + 0.1 * i), 0.0) for i in range(3)]
    assert set(build_variant_jacobian(prep, ops, 3).offdiag) == set(weights)
    # equal values in distinct objects are distinct operators too
    twins = [SparseMatrix.on_pattern(ops[0].pattern, ops[0].data) for _ in range(3)]
    assert set(build_variant_jacobian(prep, twins, 3).offdiag) == set(weights)
    shear = make_problem("shear_layer_small", n=8)
    dae_ops = [DaeOps(*shear.system.blocks(shear.u0, shear.w0 * (1.0 + 0.1 * i), 0.0))
               for i in range(3)]
    assert set(build_variant_jacobian(prep, dae_ops, 3).offdiag) == set(weights)


@pytest.fixture
def blocks_applied(monkeypatch):
    """Weak references to the 2x2 block operators GMRES applies, in order: the
    operators of the GMRES calls whose preconditioner makes two diagonal-block
    solves, a repeat of the previous operator recorded once."""
    seen = []
    solve = irk_core.gmres

    def spy(op, rhs, right_precond=None, **kwargs):
        pair = right_precond is not None and right_precond.solves_per_apply == 2
        if pair and (not seen or seen[-1]() is not op):
            seen.append(weakref.ref(op))
        return solve(op, rhs, right_precond=right_precond, **kwargs)

    monkeypatch.setattr(irk_core, "gmres", spy)
    return seen


def test_heat_builds_its_block_operators_once(blocks_applied):
    # two 2x2 eigen-blocks; the constant operator hands back the same blocks
    problem = make_problem("heat1d", n=64)
    tableau = make_tableau("gauss", 4)
    per_step = []
    u = problem.u0
    for j in range(2):
        start = len(blocks_applied)
        u, _ = step(problem.system, u, j * 1e-3, 1e-3, tableau)
        per_step.append([ref() for ref in blocks_applied[start:]])
    assert len(per_step[0]) == 2 and all(m is not None for m in per_step[0])
    assert all(a is b for a, b in zip(per_step[0], per_step[1], strict=True))


def test_burgers_builds_a_block_per_newton_iteration_and_frees_it(blocks_applied):
    problem = make_problem("burgers1d", n=64)
    tableau = make_tableau("radau_iia", 3)
    _, stats = step(problem.system, problem.u0, 0.0, 1e-4, tableau)
    # one 2x2 eigen-block, a new Jacobian on each Newton iteration
    assert stats.newton_iterations == 2 and len(blocks_applied) == 2
    # the step has dropped its Jacobians, and with them their blocks
    assert all(ref() is None for ref in blocks_applied)


def test_block_operator_dies_with_its_jacobian():
    # the memo lives on the operand, so no collector pass is needed
    problem = make_problem("burgers1d", n=64)
    prep = prepare_stages(make_tableau("radau_iia", 3))
    ops = [problem.system.linearize(problem.u0 * (1.0 + 0.1 * i), 0.0) for i in range(3)]
    vjac = build_variant_jacobian(prep, ops, 3)
    blk = next(b for b in prep.schur.blocks if b.size == 2)
    i = blk.offset
    sysb = Block2x2System(blk.eta, blk.beta, blk.phi, None, vjac.diag[i], vjac.diag[i + 1],
                          1e-4, vjac.offdiag.get((i, i + 1)), vjac.offdiag.get((i + 1, i)))
    gone = weakref.ref(sysb.matrix)
    rebuilt = Block2x2System(blk.eta, blk.beta, blk.phi, None, vjac.diag[i],
                             vjac.diag[i + 1], 1e-4, vjac.offdiag.get((i, i + 1)),
                             vjac.offdiag.get((i + 1, i)))
    assert rebuilt.matrix is gone()
    del sysb, rebuilt
    del vjac
    assert gone() is not None  # still held by the memo on the stage Jacobians' sums
    del ops
    assert gone() is None


@pytest.fixture
def planned(monkeypatch):
    """Every Jacobian ``build_variant_jacobian`` returns to the Newton loop and
    every 2x2 block preconditioner built, in order."""
    seen = {"jacobians": [], "preconditioners": []}
    for module, name, key in ((nonlinear, "build_variant_jacobian", "jacobians"),
                              (irk_core, "make_block2x2_preconditioner", "preconditioners")):
        def spy(*args, _original=getattr(module, name), _out=seen[key], **kwargs):
            out = _original(*args, **kwargs)
            _out.append(out)
            return out

        monkeypatch.setattr(module, name, spy)
    return seen


def test_heat_plans_its_stage_solve_once(planned, factored):
    # a loose Krylov tolerance takes several Newton iterations a step; the
    # constant operator hands back one Jacobian, and its block plans, to all
    problem = make_problem("heat1d", n=64)
    tableau = make_tableau("gauss", 4)
    cfg = SolverConfig(krylov_rtol=1e-3)
    prep = prepare_stages(tableau)
    u, built = problem.u0, []
    for j in range(2):
        u, stats = step(problem.system, u, j * 1e-3, 1e-3, tableau, cfg, prep=prep)
        assert stats.newton_iterations >= 2
        built.append((len(planned["preconditioners"]), len(factored)))
    jacobians = planned["jacobians"]
    assert len(jacobians) >= 4 and all(v is jacobians[0] for v in jacobians)
    # two 2x2 eigen-blocks with two shifted blocks each, all in the first step
    assert built == [(2, 4), (2, 4)]


def test_dae_plans_its_stage_solve_once(planned, monkeypatch):
    # the manufactured blocks are constant objects, so the first step's plans
    # serve every step: 3 dense reduced operators (L_w != 0; one real block,
    # two rows of the complex pair) and 1 pair preconditioner, on step 0 only
    problem = make_problem("dae_manufactured")
    tableau = make_tableau("radau_iia", 3)
    prep = prepare_stages(tableau)
    lu_factor, factored = densela.lu_factor, []
    monkeypatch.setattr(densela, "lu_factor", lambda a: factored.append(a) or lu_factor(a))
    state, seen = (problem.u0, problem.w0), []
    for j in range(3):
        *state, stats = dae_step(problem.system, *state, 0.1 * j, 0.1, tableau, prep=prep)
        seen.append((len(factored), len(planned["preconditioners"]), stats.newton_iterations,
                     stats.differential_solves, stats.precond_applications,
                     stats.constraint_solves))
        factored.clear()
        planned["preconditioners"].clear()
    assert seen == [(3, 1, 1, 5, 5, 10), (0, 0, 1, 5, 5, 10), (0, 0, 1, 5, 5, 10)]


def constant_dae_lw0():
    """``u' = L_u u``, ``0 = G_u u + G_w w`` with constant blocks, 2 + 1 rows."""
    lu = SparseMatrix(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    lw = SparseMatrix(sp.csr_matrix((2, 1)))
    gu, gw = SparseMatrix(np.array([[1.0, 1.0]])), SparseMatrix(np.array([[2.0]]))
    system = DaeSystem(2, 1, rhs=lambda u, w, t: lu @ u,
                       constraint=lambda u, w, t: gu @ u + gw @ w,
                       blocks=lambda u, w, t: (lu, lw, gu, gw))
    return system, np.array([1.0, 0.5]), np.array([-0.75])


@pytest.mark.parametrize("name,built", [("constant", [1, 0, 0]), ("shear", [4, 4, 4])],
                         ids=["constant", "shear"])
def test_reordered_dae_keeps_its_differential_plan(planned, name, built):
    # the differential block's plan lives with the pair's plan: a constant
    # system builds its preconditioner once, shear (whose L_u changes every
    # Newton iteration) once per iteration
    if name == "constant":
        (system, u, w), tableau, dt = constant_dae_lw0(), make_tableau("radau_iia", 2), 0.1
    else:
        problem = make_problem("shear_layer_small", n=16)
        system, u, w, tableau, dt = (problem.system, problem.u0, problem.w0,
                                     make_tableau("radau_iia", 2), 1e-2)
    prep, got = prepare_stages(tableau), []
    for j in range(3):
        u, w, stats = dae_step(system, u, w, j * dt, dt, tableau, prep=prep, mode="reordered")
        got.append(len(planned["preconditioners"]))
        planned["preconditioners"].clear()
        assert stats.converged and stats.constraint_solves > 0
    assert got == built


def test_alternating_dae_modes_get_their_own_plans():
    # one constant system and one prep: the stage Jacobian is memoized across
    # steps, so its block plans are reused unless their key, which holds the
    # pair-plan class, tells the two orderings apart
    (system, u, w), tableau, dt = constant_dae_lw0(), make_tableau("radau_iia", 2), 0.1
    prep = prepare_stages(tableau)
    for j, mode in enumerate(["coupled", "reordered", "coupled", "reordered"]):
        u1, w1, stats = dae_step(system, u, w, j * dt, dt, tableau, prep=prep, mode=mode)
        fresh, *_ = constant_dae_lw0()
        u2, w2, want = dae_step(fresh, u, w, j * dt, dt, tableau, prep=prep, mode=mode)
        assert u1.tobytes() == u2.tobytes() and w1.tobytes() == w2.tobytes()
        assert (*counts(stats), stats.differential_solves, stats.constraint_solves) == (
            *counts(want), want.differential_solves, want.constraint_solves)
        u, w = u1, w1


@pytest.mark.parametrize("change", ["dt", "gamma", "variant"])
def test_changed_step_gets_a_new_plan_with_the_same_bits(planned, change):
    problem = make_problem("heat1d", n=64)
    lmat = problem.operator
    tableau = make_tableau("gauss", 4)
    prep = prepare_stages(tableau)
    u1, _ = step(problem.system, problem.u0, 0.0, 1e-3, tableau, prep=prep)
    first = (planned["jacobians"][-1], len(planned["preconditioners"]))
    dt, cfg = {"dt": (2e-3, SolverConfig()),
               "gamma": (1e-3, SolverConfig(precond=PrecondSpec(gamma_mode="eta"))),
               "variant": (1e-3, SolverConfig(variant=2))}[change]
    u2, stats = step(problem.system, u1, 1e-3, dt, tableau, cfg, prep=prep)
    assert len(planned["preconditioners"]) == first[1] + 2
    assert (planned["jacobians"][-1] is first[0]) == (change != "variant")
    # the same step on a copy of the operator, which has no memo yet
    fresh = SparseMatrix.on_pattern(lmat.pattern, lmat.data.copy())
    system = OdeSystem(problem.system.dim, lambda u, t: fresh @ u, lambda u, t: fresh)
    want, want_stats = step(system, u1, 1e-3, dt, tableau, cfg, prep=prep)
    assert u2.tobytes() == want.tobytes()
    assert counts(stats) == counts(want_stats)


@pytest.mark.parametrize("name", ["burgers", "shear"])
def test_plans_die_with_their_step(planned, name):
    # each Newton iteration plans its own Jacobian; reference counting alone
    # frees them all once the step returns (on shear, although the constraint
    # parts of every stage operator are constant objects)
    gc.disable()
    try:
        if name == "burgers":
            problem = make_problem("burgers1d", n=64)
            _, stats = step(problem.system, problem.u0, 0.0, 1e-4, make_tableau("radau_iia", 3))
        else:
            problem = make_problem("shear_layer_small", n=8)
            *_, stats = dae_step(problem.system, problem.u0, problem.w0, 0.0, 1e-2,
                                 make_tableau("radau_iia", 2), mode="reordered")
        refs = [weakref.ref(obj) for key in ("jacobians", "preconditioners")
                for obj in planned[key]]
        planned["jacobians"].clear()
        planned["preconditioners"].clear()
        assert stats.newton_iterations >= 2 and len(refs) == 2 * stats.newton_iterations
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_largest_plan_fits_the_memo(planned):
    # gauss(8) with variant 3 on one constant operator: the second Newton
    # iteration reuses every plan, and no memo entry of the first is evicted
    lmat = make_problem("heat1d", n=32).operator
    prep = prepare_stages(make_tableau("gauss", 8))
    rng = np.random.default_rng(3)
    jacobians, memos = [], []
    for _ in range(2):
        vjac = build_variant_jacobian(prep, [lmat] * 8, 3)
        irk_core.solve_transformed_system(prep, dt=1e-3, rhs_stages=rng.standard_normal((8, 32)),
                                          variant_jacobian=vjac)
        operands = [lmat, *vjac.diag, *vjac.offdiag.values()]
        jacobians.append(vjac)
        memos.append([set(op._sums) for op in operands])
    assert jacobians[0] is jacobians[1] and len(planned["preconditioners"]) == 4
    assert memos[0] == memos[1]
    assert max(len(op._sums) for op in operands) <= SUM_CACHE_SIZE
