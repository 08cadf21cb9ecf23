import numpy as np
import pytest

from irkit.densela import (
    cond2,
    lu_factor,
    lu_solve,
    real_schur,
)
from irkit.errors import SingularMatrixError
from irkit.tableau import make_tableau

COLLOCATION_SCHEMES = (
    [("gauss", s) for s in range(1, 9)]
    + [("radau_iia", s) for s in range(1, 9)]
    + [("lobatto_iiic", s) for s in range(2, 9)]
)


def schur_eigenvalues(sf):
    """The eigenvalues ``eta +- i*beta`` a Schur form's blocks encode, sorted."""
    return np.sort_complex(np.array([complex(b.eta, sign * b.beta) for b in sf.blocks
                                     for sign in ((1, -1) if b.size == 2 else (0,))]))


def quadratic_roots(a):
    """Closed-form eigenvalues of a 2x2 matrix."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = complex(tr * tr / 4.0 - det)
    r = np.sqrt(disc)
    return np.sort_complex(np.array([tr / 2 + r, tr / 2 - r]))


def cubic_roots(a):
    """Closed-form eigenvalues of a 3x3 matrix via the characteristic cubic."""
    c2 = -np.trace(a)
    c1 = 0.5 * (np.trace(a) ** 2 - np.trace(a @ a))
    c0 = -np.linalg.det(a)
    return np.sort_complex(np.roots([1.0, c2, c1, c0]))


class TestRealSchur:
    def test_already_triangular(self):
        sf = real_schur(np.diag([2.0, 5.0]))
        assert np.allclose(sf.q, np.eye(2))
        assert np.allclose(sf.r, np.diag([2.0, 5.0]))
        assert [b.size for b in sf.blocks] == [1, 1]
        assert sorted(b.eta for b in sf.blocks) == [2.0, 5.0]

    def test_gauss2_inverse_block(self):
        # inverse coefficient matrix of the 2-stage Gauss scheme; its
        # characteristic polynomial is x^2 - 6x + 12 with roots 3 +- i*sqrt(3)
        a = np.array([[3.0, -3 + 2 * np.sqrt(3)], [-3 - 2 * np.sqrt(3), 3.0]])
        sf = real_schur(a)
        (blk,) = sf.blocks
        assert blk.size == 2
        assert blk.eta == pytest.approx(3.0, abs=1e-12)
        assert blk.beta == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert np.allclose(sf.q, np.eye(2), atol=1e-12)

    def test_radau2_inverse_block(self):
        # characteristic polynomial x^2 - 4x + 6, roots 2 +- i*sqrt(2)
        a = np.array([[1.5, 0.5], [-4.5, 2.5]])
        sf = real_schur(a)
        (blk,) = sf.blocks
        assert blk.size == 2
        assert blk.eta == pytest.approx(2.0, abs=1e-12)
        assert blk.beta == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("trial", range(5))
    def test_random_reconstruction(self, n, trial):
        rng = np.random.default_rng(1000 * n + trial)
        a = rng.standard_normal((n, n))
        sf = real_schur(a)
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(sf.q.T @ sf.q - np.eye(n))) <= 1e-12
        assert np.max(np.abs(sf.q @ sf.r @ sf.q.T - a)) <= 1e-10 * scale
        # zeros below the block diagonal
        for blk in sf.blocks:
            off = blk.offset
            assert np.max(np.abs(sf.r[off + blk.size :, off : off + blk.size]), initial=0.0) == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_eigenvalues_match_numpy(self, n):
        rng = np.random.default_rng(7 * n)
        a = rng.standard_normal((n, n))
        sf = real_schur(a)
        mine = schur_eigenvalues(sf)
        ref = np.sort_complex(np.linalg.eigvals(a))
        assert np.max(np.abs(mine - ref)) < 1e-9

    def test_eigenvalues_match_closed_form_2x2_3x3(self):
        rng = np.random.default_rng(5)
        for n, roots in ((2, quadratic_roots), (3, cubic_roots)):
            for _ in range(10):
                a = rng.standard_normal((n, n))
                mine = schur_eigenvalues(real_schur(a))
                assert np.max(np.abs(mine - roots(a))) < 1e-10

    def test_standardized_blocks(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            sf = real_schur(a)
            for blk in sf.blocks:
                if blk.size != 2:
                    continue
                o = blk.offset
                assert sf.r[o, o] == pytest.approx(sf.r[o + 1, o + 1], abs=1e-12)
                prod = sf.r[o, o + 1] * sf.r[o + 1, o]
                assert prod < 0.0
                assert prod == pytest.approx(-blk.beta**2, rel=1e-12)

    @pytest.mark.parametrize("family,s", COLLOCATION_SCHEMES)
    def test_collocation_inverse_contract(self, family, s):
        a = np.linalg.inv(make_tableau(family, s).a0)
        sf = real_schur(a)
        q, r = sf.q, sf.r
        assert np.max(np.abs(q.T @ q - np.eye(s))) <= 1e-13
        assert np.max(np.abs(q @ r @ q.T - a)) <= 1e-12 * np.max(np.abs(a))
        below = np.tril(np.ones((s, s), dtype=bool), -1)
        for blk in sf.blocks:
            if blk.size == 2:
                o = blk.offset
                below[o + 1, o] = False
                assert r[o, o] == r[o + 1, o + 1]
                assert r[o, o + 1] * r[o + 1, o] == pytest.approx(-blk.beta**2, rel=1e-12)
        assert np.all(r[below] == 0.0)
        mine = schur_eigenvalues(sf)
        ref = np.sort_complex(np.linalg.eigvals(a))
        assert np.max(np.abs(mine - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert all(blk.eta > 0.0 for blk in sf.blocks)

    @pytest.mark.parametrize("d", [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53])
    def test_standardized_input_keeps_identity_basis(self, d):
        # lobatto_iiic(2): A0^{-1} is the scaled rotation [[1, 1], [-1, 1]];
        # every orthogonal q is a Schur basis, so the last bit of a diagonal
        # entry must not pick a rotated one
        sf = real_schur(np.array([[d, 1.0], [-1.0, 1.0]]))
        assert np.array_equal(sf.q, np.eye(2))
        assert sf.r[0, 0] == sf.r[1, 1] == pytest.approx(1.0, abs=1e-15)
        assert (sf.blocks[0].eta, sf.blocks[0].beta) == pytest.approx((1.0, 1.0), abs=1e-15)
        lobatto = real_schur(np.linalg.inv(make_tableau("lobatto_iiic", 2).a0))
        assert np.array_equal(lobatto.q, np.eye(2))

    def test_defective_lower_triangular(self):
        # a Jordan-type block splits into two real 1x1 blocks
        sf = real_schur(np.array([[2.0, 0.0], [1.0, 2.0]]))
        assert [b.size for b in sf.blocks] == [1, 1]
        assert all(b.eta == pytest.approx(2.0, abs=1e-12) for b in sf.blocks)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            real_schur(np.eye(17))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            real_schur(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"a must be a square matrix, got shape \(2, 3\)"):
            real_schur(np.ones((2, 3)))


class TestLu:
    def test_identity(self):
        b = np.arange(5.0)
        assert np.allclose(lu_solve(np.eye(5), b), b)

    def test_diagonal(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_random_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        x = rng.standard_normal(8)
        assert np.max(np.abs(lu_solve(a, a @ x) - x)) < 1e-10

    def test_matrix_rhs(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        xs = rng.standard_normal((6, 3))
        assert np.max(np.abs(lu_solve(a, a @ xs) - xs)) < 1e-10

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        x = lu_solve(a, b)
        lhs = np.linalg.norm(a @ x - b, np.inf)
        rhs = 1e-10 * (
            np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf)
            + np.linalg.norm(b, np.inf)
        )
        assert lhs <= rhs

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestCond2:
    def test_identity(self):
        assert cond2(np.eye(5)) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert cond2(np.diag([4.0, 1.0])) == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize("theta", [0.1, 0.9, 2.3])
    def test_rotation(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        assert cond2(np.array([[c, -s], [s, c]])) == pytest.approx(1.0, abs=1e-8)

    def test_random_orthogonal(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        assert cond2(q) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [10, 30, 64])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        assert cond2(a) == pytest.approx(np.linalg.cond(a), rel=1e-7)

    def test_cond2_is_the_ratio_of_extreme_svd_values(self):
        # cond2 takes the first over the last of the descending singular values
        rng = np.random.default_rng(17)
        a = rng.standard_normal((12, 12))
        sigma = np.linalg.svd(a, compute_uv=False)
        assert cond2(a) == pytest.approx(sigma[0] / sigma[-1], rel=1e-9)

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            cond2(np.array([[1.0, 0.0], [0.0, 0.0]]))
