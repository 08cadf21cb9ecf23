import math

import numpy as np
import pytest

from irkit.errors import AssumptionViolationError, ConfigurationError
from irkit.tableau import (
    ButcherTableau,
    gamma_star,
    kappa_bound,
    make_tableau,
    prepare_stages,
)

ALL_COLLOCATION = [("gauss", s) for s in range(1, 9)] + [
    ("radau_iia", s) for s in range(1, 9)
] + [("lobatto_iiic", s) for s in range(2, 9)]


class TestMakeTableau:
    def test_radau1_is_backward_euler(self):
        t = make_tableau("radau_iia", 1)
        assert np.allclose(t.a0, [[1.0]])
        assert np.allclose(t.b0, [1.0])
        assert np.allclose(t.c0, [1.0])
        assert t.order == 1

    def test_gauss1_is_midpoint(self):
        t = make_tableau("gauss", 1)
        assert np.allclose(t.a0, [[0.5]])
        assert np.allclose(t.b0, [1.0])
        assert np.allclose(t.c0, [0.5])

    def test_gauss2_closed_form(self):
        t = make_tableau("gauss", 2)
        r3 = math.sqrt(3.0)
        expected = np.array([[0.25, 0.25 - r3 / 6], [0.25 + r3 / 6, 0.25]])
        assert np.max(np.abs(t.a0 - expected)) < 1e-14
        assert np.allclose(t.c0, [0.5 - r3 / 6, 0.5 + r3 / 6])

    def test_radau2_closed_form(self):
        t = make_tableau("radau_iia", 2)
        expected = np.array([[5.0 / 12.0, -1.0 / 12.0], [0.75, 0.25]])
        assert np.max(np.abs(t.a0 - expected)) < 1e-14

    def test_lobatto2_closed_form(self):
        t = make_tableau("lobatto_iiic", 2)
        expected = np.array([[0.5, -0.5], [0.5, 0.5]])
        assert np.max(np.abs(t.a0 - expected)) < 1e-14

    @pytest.mark.parametrize("family,s", ALL_COLLOCATION)
    def test_quadrature_conditions(self, family, s):
        t = make_tableau(family, s)
        assert abs(t.b0.sum() - 1.0) < 1e-12
        assert np.max(np.abs(t.a0.sum(axis=1) - t.c0)) < 1e-12
        for q in range(1, t.order + 1):
            assert abs(t.b0 @ t.c0 ** (q - 1) - 1.0 / q) < 1e-10, (family, s, q)
        # stage order: C(s) for Gauss and Radau IIA, C(s-1) for Lobatto IIIC
        stage_order = s - 1 if family == "lobatto_iiic" else s
        for k in range(1, stage_order + 1):
            err = np.max(np.abs(t.a0 @ t.c0 ** (k - 1) - t.c0**k / k))
            assert err < 1e-13, (family, s, k)
        # abscissae against numpy's Legendre series: the roots of P_s, of
        # P_s - P_{s-1}, and -1, 1 with the roots of P'_{s-1}
        leg = np.polynomial.legendre
        if family == "gauss":
            x = leg.leggauss(s)[0]
        elif family == "radau_iia":
            x = leg.legroots([0.0] * (s - 1) + [-1.0, 1.0])
            assert t.c0[-1] == 1.0
        else:
            interior = leg.legroots(leg.legder([0.0] * (s - 1) + [1.0]))
            x = np.concatenate(([-1.0], interior, [1.0]))
            assert t.c0[0] == 0.0 and t.c0[-1] == 1.0
        assert np.max(np.abs(t.c0 - 0.5 * (np.sort(x) + 1.0))) < 1e-13, (family, s)

    def test_unsupported_configurations(self):
        with pytest.raises(ConfigurationError):
            make_tableau("lobatto_iiic", 1)
        with pytest.raises(ConfigurationError):
            make_tableau("gauss", 9)
        with pytest.raises(ConfigurationError):
            make_tableau("gauss", 0)
        with pytest.raises(ConfigurationError):
            make_tableau("nonsense", 2)
        with pytest.raises(ConfigurationError):
            make_tableau("sdirk2", 3)
        with pytest.raises(ConfigurationError, match="gauss requires an explicit stage count"):
            make_tableau("gauss")

    @pytest.mark.parametrize("s", [2.5, True, np.float64(3.7), "3"])
    def test_non_integer_stage_count_rejected(self, s):
        # a bool is an int to Python, and int() would round 2.5 down to gauss(2)
        with pytest.raises(ConfigurationError, match="stage count must be an integer"):
            make_tableau("gauss", s)

    def test_numpy_integer_stage_count_accepted(self):
        tab = make_tableau("radau_iia", np.int64(3))
        assert type(tab.s) is int and tab.s == 3

    def test_family_aliases(self):
        assert make_tableau("Radau", 2).family == "radau_iia"
        assert make_tableau("LOBATTO_IIIC", 2).family == "lobatto_iiic"


class TestSdirk:
    @pytest.mark.parametrize("family,order,s", [
        ("sdirk1", 1, 1), ("sdirk2", 2, 2), ("sdirk3", 3, 3), ("sdirk4", 4, 5),
    ])
    def test_shape_and_quadrature(self, family, order, s):
        t = make_tableau(family)
        assert t.s == s and t.order == order and not np.triu(t.a0, 1).any()
        for q in range(1, order + 1):
            assert abs(t.b0 @ t.c0 ** (q - 1) - 1.0 / q) < 1e-12

    def test_sdirk_stiffly_accurate(self):
        for family in ("sdirk1", "sdirk2", "sdirk3", "sdirk4"):
            t = make_tableau(family)
            assert np.allclose(t.a0[-1], t.b0)

    def test_sdirk3_third_order_condition(self):
        t = make_tableau("sdirk3")
        assert abs(t.b0 @ t.a0 @ t.c0 - 1.0 / 6.0) < 1e-12

    def test_sdirk4_fourth_order_conditions(self):
        t = make_tableau("sdirk4")
        a, b, c = t.a0, t.b0, t.c0
        assert abs(b @ a @ c - 1.0 / 6.0) < 1e-12
        assert abs(b @ a @ (c * c) - 1.0 / 12.0) < 1e-12
        assert abs(b @ a @ a @ c - 1.0 / 24.0) < 1e-12
        assert abs(b @ (c * (a @ c)) - 1.0 / 8.0) < 1e-12


class TestPrepareStages:
    @pytest.mark.parametrize("family,s", ALL_COLLOCATION)
    def test_inverse_and_weight_sums(self, family, s):
        prep = prepare_stages(make_tableau(family, s))
        assert np.max(np.abs(prep.tableau.a0 @ prep.a0inv - np.eye(s))) < 1e-10
        sums = prep.d.sum(axis=2)
        assert np.max(np.abs(sums - np.eye(s))) < 1e-12

    @pytest.mark.parametrize("family,s", ALL_COLLOCATION)
    def test_positive_real_parts(self, family, s):
        prep = prepare_stages(make_tableau(family, s))
        assert min(blk.eta for blk in prep.blocks) > 0.0

    def test_gauss2_weights_are_exact(self):
        prep = prepare_stages(make_tableau("gauss", 2))
        assert np.allclose(prep.d[0, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(prep.d[0, 1], [0.0, 0.0], atol=1e-12)
        assert np.allclose(prep.d[1, 1], [0.0, 1.0], atol=1e-12)

    def test_radau2_weights_closed_form(self):
        # The standardizing rotation satisfies tan(2 theta) = -1/4, so the
        # squared cosine/sine are (1 +- 4/sqrt(17))/2 and |cs| = 1/(2 sqrt(17)).
        prep = prepare_stages(make_tableau("radau_iia", 2))
        c2 = 0.5 * (1.0 + 4.0 / math.sqrt(17.0))
        s2 = 0.5 * (1.0 - 4.0 / math.sqrt(17.0))
        cs = 0.5 / math.sqrt(17.0)
        assert sorted(prep.d[0, 0]) == pytest.approx(sorted([c2, s2]), abs=1e-10)
        assert np.abs(prep.d[0, 1]) == pytest.approx([cs, cs], abs=1e-10)

    def test_defective_inverse_stays_consistent(self):
        # SDIRK coefficient matrices have a repeated real eigenvalue, so the
        # decomposition may come out as two real blocks or one complex block
        # with beta at the sqrt(eps) perturbation scale; either way the form
        # must reconstruct and carry the eigenvalue 1/gamma.
        t = make_tableau("sdirk2")
        prep = prepare_stages(t)
        rec = prep.schur.q @ prep.schur.r @ prep.schur.q.T
        assert np.max(np.abs(rec - prep.a0inv)) < 1e-10 * np.max(np.abs(prep.a0inv))
        gamma = t.a0[0, 0]
        for blk in prep.blocks:
            assert blk.eta == pytest.approx(1.0 / gamma, rel=1e-12)
            assert blk.beta <= 1e-6

    def test_assumption_violation(self):
        bad = ButcherTableau(
            family="gauss",
            s=1,
            a0=np.array([[-0.5]]),
            b0=np.array([1.0]),
            c0=np.array([0.5]),
            order=2,
        )
        with pytest.raises(AssumptionViolationError):
            prepare_stages(bad)


class TestShiftAndBounds:
    def test_gamma_star_values(self):
        assert gamma_star(3.0, math.sqrt(3.0)) == pytest.approx(4.0, abs=1e-14)
        assert gamma_star(2.0, math.sqrt(2.0)) == pytest.approx(3.0, abs=1e-14)
        assert gamma_star(5.0, 0.0) == pytest.approx(5.0)

    def test_gamma_star_domain(self):
        with pytest.raises(ValueError):
            gamma_star(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_star(-1.0, 1.0)

    def test_kappa_bound_values(self):
        assert kappa_bound(3.0, math.sqrt(3.0)) == pytest.approx(7.0 / 6.0)
        assert kappa_bound(2.0, math.sqrt(2.0)) == pytest.approx(1.25)
        assert kappa_bound(1.0, 1.0) == pytest.approx(1.5)
        assert kappa_bound(4.0, 0.0) == pytest.approx(1.0)
        assert kappa_bound(2.0, math.sqrt(2.0), "distinct") == pytest.approx(2.5)

    def test_kappa_bound_domain(self):
        with pytest.raises(ValueError):
            kappa_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            kappa_bound(1.0, 1.0, "weird")
