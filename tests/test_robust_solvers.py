"""Tests for the ridge and regularized IRLS solvers."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from huberdp.mechanisms import MechanismConfig, NoiseDraw, sample
from huberdp.robust_solvers import (
    IrlsConfig,
    RidgeProblem,
    WeightDiagonal,
    huber_objective,
    irls_weights,
    r_irls,
    ridge_solve,
)


class TestRidgeSolve:
    def test_identity_design(self):
        problem = RidgeProblem(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(ridge_solve(problem), [1.0, 2.0, 3.0], atol=1e-14)

    def test_shrinkage(self):
        problem = RidgeProblem(np.eye(2), np.array([2.0, 2.0]), 1.0)
        np.testing.assert_allclose(ridge_solve(problem), [1.0, 1.0], atol=1e-14)

    def test_against_explicit_inverse(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        lam = 0.5
        expected = np.linalg.inv(a.T @ a + lam * np.eye(4)) @ (a.T @ y)
        got = ridge_solve(RidgeProblem(a, y, lam))
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_noise_enters_rhs(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        t = np.array([0.3, -0.1, 0.7])
        expected = np.linalg.solve(a.T @ a + 2.0 * np.eye(3), a.T @ y + t)
        got = ridge_solve(RidgeProblem(a, y, 2.0), NoiseDraw(t))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_cholesky_reference(self, lam):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        t = rng.standard_normal(6)
        gram = a.T @ a + lam * np.eye(6)
        expected = cho_solve(cho_factor(gram, lower=True), a.T @ y + t)
        got = ridge_solve(RidgeProblem(a, y, lam), NoiseDraw(t))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_singular_unregularized_system_fails(self):
        a = np.ones((4, 2))  # rank one
        with pytest.raises(np.linalg.LinAlgError):
            ridge_solve(RidgeProblem(a, np.ones(4), 0.0))

    def test_noise_length_checked(self):
        problem = RidgeProblem(np.eye(2), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            ridge_solve(problem, NoiseDraw(np.ones(3)))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.ones(2), -1.0)


class TestIrlsWeights:
    def test_inside_quadratic_zone(self):
        w = irls_weights(np.array([0.5, -0.5]), 1.0).weights
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_downweights_outlier(self):
        assert irls_weights(np.array([4.0]), 2.0).weights[0] == pytest.approx(0.5)

    def test_zero_residual_limit(self):
        assert irls_weights(np.array([0.0]), 1.0).weights[0] == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(-50, 50, size=500)
        for alpha in (0.3, 1.0, 4.0):
            w = irls_weights(r, alpha).weights
            assert np.all(w > 0) and np.all(w <= 1)
            inside = np.abs(r) <= alpha
            assert np.all(w[inside] == 1.0)
            assert np.all(w[~inside] < 1.0)

    def test_weight_diagonal_validation(self):
        with pytest.raises(ValueError):
            WeightDiagonal(np.array([0.0]))
        with pytest.raises(ValueError):
            WeightDiagonal(np.array([1.5]))


def random_instance(rng, p=30, q=5, outliers=0):
    a = rng.standard_normal((p, q))
    theta = rng.standard_normal(q)
    y = a @ theta + 0.05 * rng.standard_normal(p)
    if outliers:
        idx = rng.choice(p, size=outliers, replace=False)
        y[idx] += rng.choice([-1, 1], size=outliers) * rng.uniform(20, 40, size=outliers)
    return a, y


def cholesky_irls(y, a, cfg, rng):
    """r_irls replayed on scipy's Cholesky solve: the same stream, weights
    psi(r)/r and noise draw per iteration."""
    q = a.shape[1]
    theta = rng.standard_normal(q)
    for _ in range(cfg.iterations):
        r = np.abs(y - a @ theta)
        w = np.where(r < 1e-12, 1.0, np.minimum(1.0, cfg.alpha / np.maximum(r, 1e-12)))
        t = sample(cfg.noise, q, rng).values
        gram = a.T @ (a * w[:, None]) + cfg.lam * np.eye(q)
        theta = cho_solve(cho_factor(gram, lower=True), a.T @ (w * y) + t)
    return theta


class TestRIrls:
    @pytest.mark.parametrize("noise", [MechanismConfig.none(), MechanismConfig.huber(2.0)],
                             ids=["none", "huber"])
    def test_matches_cholesky_reference(self, noise):
        rng = np.random.default_rng(14)
        a, y = random_instance(rng, p=40, q=6, outliers=4)
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=20, noise=noise)
        got = r_irls(y, a, cfg, np.random.default_rng(15))
        expected = cholesky_irls(y, a, cfg, np.random.default_rng(15))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_matches_ridge_when_residuals_small(self):
        rng = np.random.default_rng(7)
        a, y = random_instance(rng)
        cfg = IrlsConfig(alpha=50.0, lam=0.3, iterations=20)
        got = r_irls(y, a, cfg, np.random.default_rng(1))
        expected = ridge_solve(RidgeProblem(a, y, 0.3))
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_outlier_beats_plain_ridge_on_huber_objective(self):
        rng = np.random.default_rng(8)
        a, y = random_instance(rng, outliers=3)
        alpha, lam = 1.0, 0.3
        cfg = IrlsConfig(alpha=alpha, lam=lam, iterations=30)
        robust = r_irls(y, a, cfg, np.random.default_rng(2))
        plain = ridge_solve(RidgeProblem(a, y, lam))
        assert huber_objective(y, a, robust, alpha, lam) <= huber_objective(
            y, a, plain, alpha, lam
        )

    def test_single_iteration_with_unit_weights_is_noisy_ridge(self):
        rng = np.random.default_rng(9)
        a, y = random_instance(rng)
        mech = MechanismConfig.huber(2.0)
        cfg = IrlsConfig(alpha=1e9, lam=0.5, iterations=1, noise=mech)
        got = r_irls(y, a, cfg, np.random.default_rng(3))
        # replay the stream: init draw first, then the noise vector
        replay = np.random.default_rng(3)
        replay.standard_normal(a.shape[1])
        t = sample(mech, a.shape[1], replay)
        expected = ridge_solve(RidgeProblem(a, y, 0.5), t)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_noiseless_descent(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            a, y = random_instance(rng, p=40, q=6, outliers=trial % 4)
            alpha = float(rng.uniform(0.3, 3.0))
            lam = float(rng.uniform(0.1, 2.0))
            cfg = IrlsConfig(alpha=alpha, lam=lam, iterations=1)
            theta = np.random.default_rng(100 + trial).standard_normal(6)
            prev = huber_objective(y, a, theta, alpha, lam)
            for _ in range(20):
                w = irls_weights(y - a @ theta, alpha).weights
                gram = a.T @ (a * w[:, None]) + lam * np.eye(6)
                theta = np.linalg.solve(gram, a.T @ (w * y))
                now = huber_objective(y, a, theta, alpha, lam)
                assert now <= prev + 1e-10
                prev = now

    def test_fixed_point(self):
        # a point satisfying the ridge equations with all residuals inside the
        # quadratic zone must not move
        rng = np.random.default_rng(11)
        a = rng.standard_normal((25, 4))
        theta_true = rng.standard_normal(4)
        y = a @ theta_true
        lam = 0.1
        star = ridge_solve(RidgeProblem(a, y, lam))
        resid = y - a @ star
        alpha = float(np.abs(resid).max() * 2 + 1.0)
        w = irls_weights(resid, alpha).weights
        assert np.all(w == 1.0)
        gram = a.T @ a + lam * np.eye(4)
        step = np.linalg.solve(gram, a.T @ y)
        np.testing.assert_allclose(step, star, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        a, y = random_instance(rng)
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=5, noise=MechanismConfig.laplace(1.0))
        one = r_irls(y, a, cfg, np.random.default_rng(99))
        two = r_irls(y, a, cfg, np.random.default_rng(99))
        np.testing.assert_array_equal(one, two)

    def test_empty_design(self):
        # zero observations degenerate to (lam I)^-1 t
        a = np.empty((0, 3))
        y = np.empty(0)
        cfg = IrlsConfig(alpha=1.0, lam=2.0, iterations=4)
        got = r_irls(y, a, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_requires_positive_lambda(self):
        cfg = IrlsConfig(alpha=1.0, lam=0.0, iterations=1)
        with pytest.raises(ValueError):
            r_irls(np.ones(3), np.eye(3), cfg, np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IrlsConfig(alpha=0.0, lam=1.0)
        with pytest.raises(ValueError):
            IrlsConfig(alpha=1.0, lam=-1.0)
        with pytest.raises(ValueError):
            IrlsConfig(alpha=1.0, lam=1.0, iterations=0)
