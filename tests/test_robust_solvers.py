"""Tests for the ridge and regularized IRLS solvers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from huberdp import robust_solvers
from huberdp.mechanisms import MechanismConfig, NoiseDraw, sample
from huberdp.robust_solvers import (
    IrlsConfig,
    RidgeProblem,
    _huber_weights,
    _irls,
    huber_objective,
    irls_weights,
    r_irls,
    ridge_solve,
)


class TestRidgeSolve:
    def test_identity_design(self):
        problem = RidgeProblem(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.25)
        np.testing.assert_allclose(ridge_solve(problem), [0.8, 1.6, 2.4], atol=1e-14)

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
        got = ridge_solve(RidgeProblem(a, y, 2.0), t)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [1e-8, 0.5])
    def test_matches_cholesky_reference(self, lam):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        t = rng.standard_normal(6)
        gram = a.T @ a + lam * np.eye(6)
        expected = cho_solve(cho_factor(gram, lower=True), a.T @ y + t)
        got = ridge_solve(RidgeProblem(a, y, lam), t)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_noise_length_checked(self):
        problem = RidgeProblem(np.eye(2), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            ridge_solve(problem, np.ones(3))

    @pytest.mark.parametrize("noise,message", [
        # a nan would otherwise come back as a nan theta
        (np.array([0.5, np.nan]), "noise must be finite"),
        (np.array([0.5, 1j]), "noise must be a real array, got dtype complex128"),
        # the noise is an array, not the wrapper sample() returns
        (NoiseDraw(np.ones(2)), "noise must be a real array, got dtype object"),
    ], ids=["nan", "complex", "noise-draw"])
    def test_bad_noise_refused_by_name(self, noise, message):
        problem = RidgeProblem(np.eye(2), np.ones(2), 1.0)
        with pytest.raises(ValueError, match=message):
            ridge_solve(problem, noise)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.ones(2), -1.0)

    def test_one_dimensional_design_rejected(self):
        with pytest.raises(ValueError, match="design must be a p x q matrix"):
            RidgeProblem(np.ones(3), np.ones(3), 1.0)

    @pytest.mark.parametrize("name", ["design", "targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_problem_is_named(self, name, bad):
        # without the check one NaN in the design gives a NaN theta
        a, y = np.eye(3), np.ones(3)
        if name == "design":
            a[1, 2] = bad
        else:
            y[1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            RidgeProblem(a, y, 1.0)

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("p,q", [(20, 3), (200, 12)], ids=["eliminated", "lapack"])
    def test_leaves_its_inputs_alone(self, noisy, p, q):
        # _ridge adds the noise and lam I into the normal ridge_solve forms,
        # never into the design, the targets or the noise passed in
        rng = np.random.default_rng(31)
        a, y = rng.standard_normal((p, q)), 3.0 * rng.standard_normal(p)
        t = rng.standard_normal(q) if noisy else None
        inputs = {"design": a, "targets": y, "noise": t}
        before = {name: x.copy() for name, x in inputs.items() if x is not None}
        assert np.isfinite(ridge_solve(RidgeProblem(a, y, 0.5), t)).all()
        for name, x in before.items():
            np.testing.assert_array_equal(inputs[name], x, err_msg=name)

    @pytest.mark.parametrize("solver,call", [
        ("ridge_solve", lambda: ridge_solve(
            RidgeProblem(np.full((3, 2), 1e200), np.full(3, 1e200), 1.0))),
        # rounding loses lam against the rank-one Gram's diagonal, so the
        # elimination meets a zero pivot
        ("ridge_solve", lambda: ridge_solve(RidgeProblem(np.ones((4, 2)), np.ones(4), 1e-20))),
        # the same above rank 8, where LAPACK meets that pivot
        ("ridge_solve", lambda: ridge_solve(RidgeProblem(np.ones((40, 12)), np.ones(40), 1e-20))),
        ("r_irls", lambda: r_irls(np.full(3, 1e200), np.full((3, 2), 1e200),
                                  IrlsConfig(alpha=1e300, lam=1.0), 0)),
        # weights near 1e-200 leave the rank-one Gram near 1e200, against
        # which lam = 1 is lost: LAPACK meets a zero pivot there too
        ("r_irls", lambda: r_irls(np.full(3, 1e200), np.full((3, 2), 1e200),
                                  IrlsConfig(alpha=1.0, lam=1.0), 0)),
    ], ids=["ridge-overflow", "ridge-zero-pivot", "ridge-lapack-zero-pivot", "r_irls-overflow",
            "r_irls-zero-pivot"])
    def test_divergence_raises_without_warning(self, solver, call):
        # without the error policy the overflows print a RuntimeWarning from
        # the matmul, and ridge_solve returns [nan nan]; a zero pivot raises
        # this error, not numpy's LinAlgError, at every rank
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=f"^{solver} diverged: non-finite theta$"):
                call()


class TestIrlsWeights:
    def test_inside_quadratic_zone(self):
        w = irls_weights(np.array([0.5, -0.5]), 1.0)
        np.testing.assert_array_equal(w, [1.0, 1.0])

    def test_downweights_outlier(self):
        assert irls_weights(np.array([4.0]), 2.0)[0] == pytest.approx(0.5)

    def test_zero_residual_limit(self):
        assert irls_weights(np.array([0.0]), 1.0)[0] == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(-50, 50, size=500)
        for alpha in (0.3, 1.0, 4.0):
            w = irls_weights(r, alpha)
            assert np.all(w > 0) and np.all(w <= 1)
            inside = np.abs(r) <= alpha
            assert np.all(w[inside] == 1.0)
            assert np.all(w[~inside] < 1.0)

    def test_underflowed_weight_rejected(self):
        # alpha / |r| = 1e-600 rounds to a weight of 0
        with pytest.raises(ValueError, match=r"weights must lie in \(0, 1\]"):
            irls_weights(np.array([0.5, 1e300]), 1e-300)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a positive real"):
            irls_weights(np.array([0.5]), alpha)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_residual_is_named(self, bad):
        with pytest.raises(ValueError, match="residuals must be finite"):
            irls_weights(np.array([0.5, bad]), 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1e-12, 60.0),
        residuals=st.lists(st.floats(-1e300, 1e300), max_size=20),
        scales=st.lists(st.floats(0.0, 4.0), max_size=10),
    )
    def test_equals_former_rule_from_alpha_1e_minus_12(self, alpha, residuals, scales):
        tiny = np.finfo(float).smallest_subnormal
        r = np.array(
            residuals
            + [alpha * c for c in scales]
            + [0.0, alpha, -alpha, np.nextafter(alpha, 0.0), np.nextafter(alpha, 1.0)]
            + [tiny, -3 * tiny, 1e-310, 1e-12, np.nextafter(1e-12, 0.0), 1e300, -1e300]
        )
        # the rule before the helper, copied literally
        absr = np.abs(r)
        former = np.ones_like(absr)
        big = absr >= 1e-12
        former[big] = np.minimum(1.0, alpha / absr[big])
        assert np.array_equal(_huber_weights(np.abs(r), alpha), former)
        assert np.array_equal(irls_weights(r, alpha), former)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-15, 9.9e-13])
    def test_exact_psi_over_r_below_1e_minus_12(self, alpha):
        # the former rule gave weight 1 to every |r| < 1e-12
        r = alpha * np.array([0.0, 0.5, -1.0, 2.0, -7.0, 1e3])
        expected = np.concatenate(([1.0, 1.0, 1.0], alpha / np.abs(r[3:])))
        assert np.array_equal(irls_weights(r, alpha), expected)


def random_instance(rng, p=30, q=5, outliers=0):
    a = rng.standard_normal((p, q))
    theta = rng.standard_normal(q)
    y = a @ theta + 0.05 * rng.standard_normal(p)
    if outliers:
        idx = rng.choice(p, size=outliers, replace=False)
        y[idx] += rng.choice([-1, 1], size=outliers) * rng.uniform(20, 40, size=outliers)
    return a, y


def cholesky_irls(y, a, cfg, rng):
    """r_irls replayed on scipy's Cholesky solve: the same start theta = 0,
    stream (one block of every iteration's noise) and weights psi(r)/r."""
    q = a.shape[1]
    theta = np.zeros(q)
    noise = sample(cfg.noise, cfg.iterations * q, rng).values.reshape(cfg.iterations, q)
    for t in noise:
        r = np.abs(y - a @ theta)
        w = np.where(r < 1e-12, 1.0, np.minimum(1.0, cfg.alpha / np.maximum(r, 1e-12)))
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

    @pytest.mark.parametrize("noise", [MechanismConfig.none(), MechanismConfig.huber(1.08)],
                             ids=["none", "huber"])
    @pytest.mark.parametrize("scale", [1e12, 1e15])
    def test_weight_change_update_matches_cholesky_reference(self, noise, scale):
        # a 2000 x 10 design takes the weight-change form, so after iteration 0
        # the normal equations only add each changed weight's step; 5% outliers
        # held at weights near 1/scale must not leave rounding behind
        rng = np.random.default_rng(16)
        a = rng.standard_normal((2000, 10))
        y = a @ rng.standard_normal(10) + 0.5 * rng.standard_normal(2000)
        bad = rng.choice(2000, size=100, replace=False)
        y[bad] += scale * rng.choice([-1.0, 1.0], size=100)
        assert 10 >= robust_solvers._UPDATE_RANK and 2000 * 10 >= robust_solvers._UPDATE_ENTRIES
        cfg = IrlsConfig(alpha=1.08, lam=1.0, iterations=20, noise=noise)
        got = r_irls(y, a, cfg, np.random.default_rng(17))
        expected = cholesky_irls(y, a, cfg, np.random.default_rng(17))
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
        # replay the stream: the noise vector is its only draw
        t = sample(mech, a.shape[1], np.random.default_rng(3))
        expected = ridge_solve(RidgeProblem(a, y, 0.5), t.values)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_noiseless_leaves_the_generator_alone(self):
        # without noise r_irls starts at theta = 0 and draws nothing
        rng = np.random.default_rng(12)
        a, y = random_instance(rng, outliers=3)
        state = rng.bit_generator.state
        theta = r_irls(y, a, IrlsConfig(alpha=1.0, lam=0.3), rng)
        assert rng.bit_generator.state == state
        assert np.isfinite(theta).all()

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
                w = irls_weights(y - a @ theta, alpha)
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
        w = irls_weights(resid, alpha)
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

    def test_draws_start_then_one_noise_block(self, monkeypatch):
        sizes = []

        def counting_sample(mech, k, rng):
            sizes.append(k)
            return sample(mech, k, rng)

        monkeypatch.setattr(robust_solvers, "sample", counting_sample)
        a, y = random_instance(np.random.default_rng(17), p=30, q=5)
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=7, noise=MechanismConfig.laplace(1.0))
        r_irls(y, a, cfg, np.random.default_rng(18))
        assert sizes == [7 * 5]

    @pytest.mark.parametrize("name", ["y", "a"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_named(self, name, bad):
        a, y = random_instance(np.random.default_rng(19))
        if name == "y":
            y[3] = bad
        else:
            a[3, 1] = bad
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=3)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            r_irls(y, a, cfg, np.random.default_rng(0))

    def test_complex_y_is_named(self):
        # its real part alone would run without an error
        a, y = random_instance(np.random.default_rng(19))
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=3)
        with pytest.raises(ValueError, match="^y must be a real array, got dtype complex128$"):
            r_irls(y + 1j, a, cfg, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["y", "a", "theta"])
    def test_non_finite_objective_input_is_named(self, name):
        a, y = random_instance(np.random.default_rng(19))
        args = {"y": y, "a": a, "theta": np.ones(a.shape[1])}
        args[name].flat[3] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            huber_objective(args["y"], args["a"], args["theta"], 1.0, 0.5)

    @pytest.mark.parametrize(
        "y,theta,lam,message",
        [(np.ones((4, 1)), np.array([0.5, -0.25]), 0.5, "y must be a vector of length p"),
         (np.ones(4), np.ones(3), 0.5, "theta must be a vector of length q"),
         (np.ones(4), np.ones((2, 1)), 0.5, "theta must be a vector of length q"),
         (np.ones(4), np.array([0.5, -0.25]), "0.5", "lam must be a positive real, got '0.5'")],
        ids=["y-column", "theta-length", "theta-column", "string-lam"],
    )
    def test_bad_objective_input_is_named(self, y, theta, lam, message):
        # a 4 x 1 y would broadcast against a @ theta to a 4 x 4 residual
        # and sum 16 losses instead of 4
        a = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            huber_objective(y, a, theta, 1.0, lam)

    def test_objective_of_empty_design_is_the_penalty(self):
        theta = np.array([1.0, 2.0])
        assert huber_objective(np.empty(0), np.empty((0, 2)), theta, 1.0, 0.5) == 1.25

    @pytest.mark.parametrize(
        "y,a,message",
        [(np.ones(3), np.ones(3), "a must be a p x q matrix"),
         (np.ones(4), np.eye(3), "y must be a vector of length p")],
        ids=["a-1d", "y-length"],
    )
    def test_bad_shapes_rejected(self, y, a, message):
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=1)
        with pytest.raises(ValueError, match=message):
            r_irls(y, a, cfg, np.random.default_rng(0))

    def test_overflow_to_non_finite_theta_raises(self):
        # finite input whose At W y overflows: without the check r_irls
        # returns [nan nan nan]
        rng = np.random.default_rng(20)
        a = 1e5 * np.abs(rng.standard_normal((50, 3)))
        y = np.full(50, 1e306)
        cfg = IrlsConfig(alpha=1e300, lam=1.0, iterations=3)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="^r_irls diverged"):
                r_irls(y, a, cfg, np.random.default_rng(21))

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            cfg = IrlsConfig(alpha=1.0, lam=0.0, iterations=1)
            r_irls(np.ones(3), np.eye(3), cfg, np.random.default_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IrlsConfig(alpha=0.0, lam=1.0)
        with pytest.raises(ValueError):
            IrlsConfig(alpha=1.0, lam=-1.0)
        with pytest.raises(ValueError):
            IrlsConfig(alpha=1.0, lam=1.0, iterations=0)

    @pytest.mark.parametrize("iterations", [2.5, 3.0, np.float64(2.0), True, np.True_])
    def test_iterations_must_be_an_integer(self, iterations):
        # 2.5 used to fail inside r_irls's sample call, naming k = 5.0
        with pytest.raises(ValueError, match="^iterations must be an integer, got"):
            IrlsConfig(alpha=1.0, lam=0.5, iterations=iterations)

    def test_numpy_integer_iterations_run_as_an_int(self):
        a, y = random_instance(np.random.default_rng(22))
        noise = MechanismConfig.huber(1.0)
        cfg = IrlsConfig(alpha=1.0, lam=0.5, iterations=np.uint8(3), noise=noise)
        assert type(cfg.iterations) is int
        plain = IrlsConfig(alpha=1.0, lam=0.5, iterations=3, noise=noise)
        np.testing.assert_array_equal(
            r_irls(y, a, cfg, np.random.default_rng(0)),
            r_irls(y, a, plain, np.random.default_rng(0)),
        )


class TestIrlsStep:
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("p,q", [(20, 3), (1200, 10)], ids=["short", "weight-change"])
    def test_leaves_its_inputs_alone(self, noisy, p, q):
        # the step adds the noise and lam I into its own matmul outputs only,
        # and the weight-change form into copies of its running sums
        rng = np.random.default_rng(31)
        g, k = 4, 3
        inputs = dict(
            ag=rng.standard_normal((g, p, q)),
            vals=3.0 * rng.standard_normal((g, p)),
            theta=rng.standard_normal((g, q)),
            noise=rng.standard_normal((g, k, q)) if noisy else None,
        )
        before = {name: x.copy() for name, x in inputs.items() if x is not None}
        theta = _irls(**inputs, lam=0.5, alpha=0.5, iterations=k)
        assert np.isfinite(theta).all()
        for name, x in before.items():
            np.testing.assert_array_equal(inputs[name], x, err_msg=name)

    # 7 systems, each with two padded slots (a zero design row, value 0) at
    # the end; exactly linear targets plus a +10 outlier in every tenth row,
    # so the noiseless weights of each system repeat at an iteration of its
    # own within K = 60
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("p,q", [(4, 6), (30, 5), (1200, 10), (1500, 32)],
                             ids=["narrower-than-rank", "tall", "weight-change", "weight-change-wide"])
    def test_each_system_solves_as_on_a_stack_of_one(self, p, q, noisy, monkeypatch):
        # the threaded half-sweep deals count groups to any thread, in any
        # split, so every system's theta may not depend on its stack mates;
        # in the weight-change form that includes the zero padding of the
        # block of changed rows, whose width is the largest count in the
        # stack. At
        # rank 32 a padded product wider than _CHUNK rows changed a system's
        # bits on OpenBLAS, which split its inner sum where the padding put it
        rng = np.random.default_rng(7)
        g, k, alpha = 7, 60, 1.0
        ag = rng.standard_normal((g, p, q))
        vals = np.einsum("gpq,gq->gp", ag, rng.standard_normal((g, q)))
        vals[:, ::10] += 10.0
        ag[:, -2:] = 0.0
        vals[:, -2:] = 0.0
        theta = rng.standard_normal((g, q))
        noise = rng.standard_normal((g, k, q)) if noisy else None
        lam = 0.5
        solves = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            solves.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        updates = []
        weight_change = robust_solvers._weight_change
        monkeypatch.setattr(robust_solvers, "_weight_change",
                            lambda *args: updates.append(1) or weight_change(*args))

        def run(members):
            """(theta, solve calls) of the stack of these systems."""
            before = len(solves)
            inputs = [None if x is None else x[members].copy() for x in (ag, vals, theta, noise)]
            return _irls(*inputs, lam, alpha, k), len(solves) - before

        stacked, stack_solves = run(slice(None))
        alone = [run(slice(i, i + 1)) for i in range(g)]
        for i, (one, _) in enumerate(alone):
            np.testing.assert_array_equal(stacked[i], one[0], err_msg=f"system {i}")
        # an uneven split into stacks of 3 and 4
        split = np.concatenate([run(slice(None, 3))[0], run(slice(3, None))[0]])
        np.testing.assert_array_equal(split, stacked)
        # a stack solves as often as its slowest system: K times with noise,
        # without it until the last system's weights repeat
        assert stack_solves == max(count for _, count in alone)
        if not noisy:
            assert stack_solves < k
            assert min(count for _, count in alone) < stack_solves
        # only the shapes at or above _UPDATE_RANK and _UPDATE_ENTRIES take
        # the weight-change form; on the same input the full form's theta
        # differs by rounding only, though its noiseless stop may differ (at
        # rank 32 its weights can cycle at the last bit through all K)
        assert bool(updates) == (p >= 1200)
        if updates:
            monkeypatch.setattr(robust_solvers, "_UPDATE_ENTRIES", p * q + 1)
            full, _ = run(slice(None))
            np.testing.assert_allclose(full, stacked, rtol=1e-12, atol=1e-12)
