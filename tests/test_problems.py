import re

import numpy as np
import pytest
import scipy.sparse as sp

from irkit.errors import ConfigurationError
from irkit.irk_core import field_of_values_bound
from irkit.problems import (
    _grid_ops_2d,
    _periodic_central,
    _periodic_laplacian,
    make_problem,
    problem_names,
)


def test_unknown_problem():
    with pytest.raises(ConfigurationError):
        make_problem("not_a_problem")


def test_catalog_listing():
    names = problem_names()
    for expected in ("dahlquist", "heat1d", "advection1d", "advdiff1d",
                     "burgers1d", "dae_manufactured", "shear_layer_small"):
        assert expected in names


class TestHeat:
    def test_stencil(self):
        problem = make_problem("heat1d", n=4)
        h = 1.0 / 5.0
        dense = problem.operator.to_dense()
        expected = (np.diag([-2.0] * 4) + np.diag([1.0] * 3, 1) + np.diag([1.0] * 3, -1)) / h**2
        assert np.allclose(dense, expected)

    def test_symmetric_negative(self):
        problem = make_problem("heat1d", n=16)
        dense = problem.operator.to_dense()
        assert np.allclose(dense, dense.T)
        assert field_of_values_bound(problem.operator) < 0.0

    def test_exact_solution_satisfies_semidiscrete_system(self):
        problem = make_problem("heat1d", n=16)
        t0, eps = 0.07, 1e-6
        dudt = (problem.exact(t0 + eps) - problem.exact(t0 - eps)) / (2 * eps)
        rhs = problem.system.rhs(problem.exact(t0), t0)
        assert np.max(np.abs(dudt - rhs)) <= 1e-4 * np.max(np.abs(rhs))

    def test_exact_at_zero_matches_initial(self):
        problem = make_problem("heat1d", n=16)
        assert np.allclose(problem.exact(0.0), problem.u0, atol=1e-13)


class TestAdvection:
    def test_circulant_stencil(self):
        problem = make_problem("advection1d", n=4)
        h = 0.25
        dense = problem.operator.to_dense()
        row = np.array([0.0, 1.0 / (2 * h), 0.0, -1.0 / (2 * h)])
        for i in range(4):
            assert np.allclose(dense[i], np.roll(row, i))

    def test_skew_symmetric(self):
        problem = make_problem("advection1d", n=16)
        dense = problem.operator.to_dense()
        assert np.allclose(dense, -dense.T)
        assert field_of_values_bound(problem.operator) == 0.0

    def test_exact_solution_evolves_modes(self):
        problem = make_problem("advection1d", n=32)
        t0, eps = 0.3, 1e-6
        dudt = (problem.exact(t0 + eps) - problem.exact(t0 - eps)) / (2 * eps)
        rhs = problem.system.rhs(problem.exact(t0), t0)
        assert np.max(np.abs(dudt - rhs)) <= 1e-5 * max(1.0, np.max(np.abs(rhs)))


class TestPeriodicGrids:
    @pytest.mark.parametrize("name", ["advection1d", "advdiff1d", "burgers1d",
                                      "shear_layer_small"])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2])
    def test_fewer_than_three_points_rejected(self, name, n):
        # below three points the wrap entries fall on the +-1 diagonals; n <= 0
        # must fail the same way before the grid spacing divides by n
        with pytest.raises(ConfigurationError, match="n >= 3"):
            make_problem(name, n=n)

    def test_three_point_stencils(self):
        h = 1.0 / 3
        central = make_problem("advection1d", n=3).operator.to_dense()
        lap = make_problem("advdiff1d", n=3, speed=0.0, nu=1.0).operator.to_dense()
        for i in range(3):
            assert np.allclose(central[i], np.roll([0.0, 1.0, -1.0], i) / (2 * h))
            assert np.allclose(lap[i], np.roll([-2.0, 1.0, 1.0], i) / h**2)


class TestBurgers:
    def test_jacobian_at_constant_state_is_advection_plus_viscosity(self):
        # differentiate the discrete flux by hand: at u = c the Jacobian is
        # -c * (central difference) + nu * Laplacian
        n, nu, c = 16, 0.05, 0.7
        problem = make_problem("burgers1d", n=n, nu=nu)
        jac = problem.system.linearize(np.full(n, c), 0.0).to_dense()
        adv = make_problem("advection1d", n=n).operator.to_dense()
        heatlike = make_problem("advdiff1d", n=n, speed=0.0, nu=nu).operator.to_dense()
        assert np.allclose(jac, -c * adv + heatlike, atol=1e-12)

    def test_rhs_conserves_mass(self):
        # conservative flux form: the spatial sum of the tendency vanishes
        problem = make_problem("burgers1d", n=32, nu=0.01)
        rng = np.random.default_rng(0)
        u = problem.u0 + 0.1 * rng.standard_normal(32)
        assert abs(np.sum(problem.system.rhs(u, 0.0))) <= 1e-10

    def test_products_equal_the_scipy_ones(self):
        # rhs multiplies through SparseMatrix on the interned pattern: bit
        # for bit the scipy products the operators are built from
        n, nu = 64, 0.02
        problem = make_problem("burgers1d", n=n, nu=nu)
        h = 1.0 / n
        dmat, lap = _periodic_central(n, h).csr, nu * _periodic_laplacian(n, h).csr
        rng = np.random.default_rng(4)
        for _ in range(3):
            u = problem.u0 + 0.1 * rng.standard_normal(n)
            assert np.array_equal(problem.system.rhs(u, 0.0), -(dmat @ (0.5 * u * u)) + lap @ u)
            jac = problem.system.linearize(u, 0.0)
            assert np.array_equal(jac.data, -(dmat.data * u[dmat.indices]) + lap.data)


class TestDaeManufactured:
    def test_exact_solution(self):
        problem = make_problem("dae_manufactured")
        for t in (0.0, 0.4, 1.3):
            ue, we = problem.exact(t)
            # u' = -u + w with w = cos t
            eps = 1e-6
            up = (problem.exact(t + eps)[0] - problem.exact(t - eps)[0]) / (2 * eps)
            assert up[0] == pytest.approx(-ue[0] + we[0], abs=1e-8)
        ue, we = problem.exact(0.0)
        assert ue[0] == pytest.approx(1.0) and we[0] == pytest.approx(1.0)

    def test_consistent_initial_condition(self):
        problem = make_problem("dae_manufactured")
        g = problem.system.constraint(problem.u0, problem.w0, 0.0)
        assert np.max(np.abs(g)) <= 1e-12


class TestShearLayerStructure:
    def test_lw_is_structurally_zero(self):
        problem = make_problem("shear_layer_small", n=8)
        lu, lw, gu, gw = problem.system.blocks(problem.u0, problem.w0, 0.0)
        assert lw.nnz == 0

    def test_initial_state_consistent(self):
        problem = make_problem("shear_layer_small", n=8)
        g = problem.system.constraint(problem.u0, problem.w0, 0.0)
        assert np.max(np.abs(g)) <= 1e-10

    def test_velocity_is_discretely_divergence_free(self):
        # the advection operator applied to a constant field returns zero
        problem = make_problem("shear_layer_small", n=8)
        lu, _, _, _ = problem.system.blocks(problem.u0, problem.w0, 0.0)
        const = np.ones(64)
        visc_part = (1.0 / problem.spec.params["reynolds"])
        assert np.max(np.abs(lu @ const)) <= 1e-10 + visc_part * 1e-10

    def test_products_equal_the_scipy_ones(self):
        n, reynolds = 8, 1e4
        problem = make_problem("shear_layer_small", n=n, reynolds=reynolds)
        sysd = problem.system
        dx, dy, lap = (op.csr for op in _grid_ops_2d(n)[:3])
        visc = (1.0 / reynolds) * lap
        rng = np.random.default_rng(5)
        for _ in range(3):
            omega = problem.u0 + 0.1 * rng.standard_normal(n * n)
            psi = problem.w0 + 0.1 * rng.standard_normal(n * n)
            ux, uy = -(dy @ psi), dx @ psi
            rhs = -(dx @ (ux * omega) + dy @ (uy * omega)) + visc @ omega
            assert np.array_equal(sysd.rhs(omega, psi, 0.0), rhs)
            g = lap @ psi - omega
            g[0] = psi[0]
            assert np.array_equal(sysd.constraint(omega, psi, 0.0), g)
            lu = sysd.blocks(omega, psi, 0.0)[0]
            adv = -(dx @ sp.diags(ux) + dy @ sp.diags(uy)) + visc
            assert np.array_equal(lu.to_dense(), adv.toarray())


@pytest.mark.parametrize("name, params, fragment", [
    ("dahlquist", {"m": 3}, "dahlquist takes no parameter 'm'; accepted: lam_re, lam_im"),
    ("dae_manufactured", {"n": 8}, "takes no parameter 'n'; accepted: none"),
    ("heat1d", {"n": 0}, "n must be an integer >= 1, got 0"),
    ("heat1d", {"n": 2.5}, "n must be an integer >= 1, got 2.5"),
    ("heat1d", {"n": True}, "heat1d: n must be a real number, got True"),
    ("shear_layer_small", {"n": 4.0}, "integer n >= 3 points, got 4.0"),
    # a negative nu would make heat's operator positive semi-definite, not snsd
    ("heat1d", {"nu": -1.0}, "nu must be finite and >= 0, got -1.0"),
    ("heat1d", {"nu": np.nan}, "nu must be finite and >= 0, got nan"),
    # values that are not real numbers: burgers1d's nu="abc" ended in numpy's
    # _UFuncNoLoopError, heat1d's in a TypeError, and a bool ran as 0 or 1
    ("burgers1d", {"nu": "abc"}, "burgers1d: nu must be a real number, got 'abc'"),
    ("heat1d", {"nu": "0.5"}, "heat1d: nu must be a real number, got '0.5'"),
    ("advdiff1d", {"speed": True}, "advdiff1d: speed must be a real number, got True"),
    ("dahlquist", {"lam_re": None}, "dahlquist: lam_re must be a real number, got None"),
    ("dahlquist", {"lam_im": 1j}, "dahlquist: lam_im must be a real number, got 1j"),
], ids=["unknown-name", "no-params", "zero-n", "float-n", "bool-n", "float-grid-n",
        "negative-nu", "nan-nu", "string-nu", "numeric-string-nu", "bool-speed", "none-lam",
        "complex-lam"])
def test_rejects_bad_parameters(name, params, fragment):
    with pytest.raises(ConfigurationError, match=re.escape(fragment)):
        make_problem(name, **params)


def test_numpy_scalars_are_real_numbers():
    problem = make_problem("heat1d", n=np.int64(8), nu=np.float64(0.5))
    assert problem.u0.shape == (8,)
