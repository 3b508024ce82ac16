"""Tests for the noise distributions, sampler, and privacy accounting.

Derived expectations are computed by independent oracles: a plain-Python
piecewise loss, adaptive quadrature of the unnormalized density, and brute
numeric maximization. Reference budget-table entries are frozen constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from huberdp.mechanisms import (
    CalibrationError,
    HuberParams,
    MechanismConfig,
    PrivacyBudget,
    Sensitivity,
    UNIT_VARIANCE_ALPHA,
    budget_table,
    calibrate_alpha,
    epsilon_gaussian,
    epsilon_huber,
    epsilon_laplace,
    huber_alpha_for_variance,
    huber_cdf,
    huber_central_mass,
    huber_influence,
    huber_loss,
    huber_normalizer,
    huber_pdf,
    huber_variance,
    mechanism_budget,
    privacy_gap,
    privacy_gap_estimates,
    sample,
)

ALPHA_GRID = [0.25, 0.5, 1.0, 2.0, 3.0, 8.0]


def ref_loss(t: float, alpha: float) -> float:
    """Scalar reference evaluation of the piecewise loss."""
    at = abs(t)
    return 0.5 * t * t if at <= alpha else alpha * (at - 0.5 * alpha)


def quad_normalizer(alpha: float) -> float:
    """kappa pinned by quadrature of the unnormalized density, split at the
    transition point for accuracy."""
    f = lambda t: math.exp(-ref_loss(t, alpha))
    core, _ = integrate.quad(f, 0, alpha, limit=200, epsabs=1e-14, epsrel=1e-13)
    tail, _ = integrate.quad(f, alpha, np.inf, limit=200, epsabs=1e-14, epsrel=1e-13)
    return 0.5 / (core + tail)


def quad_variance(alpha: float) -> float:
    """Variance by adaptive quadrature, split at the transition point."""
    f = lambda t: t * t * math.exp(-ref_loss(t, alpha))
    core, _ = integrate.quad(f, 0, alpha, limit=200, epsabs=1e-13, epsrel=1e-13)
    tail, _ = integrate.quad(f, alpha, np.inf, limit=200, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * (core + tail) * quad_normalizer(alpha)


class TestHuberLoss:
    def test_zero_at_origin(self):
        assert huber_loss(0.0, 1.5) == 0.0

    def test_branch_boundary_continuity(self):
        # both branches give alpha^2/2 at |t| = alpha
        assert huber_loss(2.0, 2.0) == pytest.approx(2.0, abs=1e-15)
        assert huber_loss(2.0 + 1e-12, 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_linear_branch_value(self):
        assert huber_loss(5.0, 1.0) == pytest.approx(4.5, abs=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-10, 10, size=200)
        for alpha in ALPHA_GRID:
            expected = np.array([ref_loss(x, alpha) for x in t])
            np.testing.assert_allclose(huber_loss(t, alpha), expected, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_t_rejected(self, bad):
        with pytest.raises(ValueError):
            huber_loss(bad, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_bad_alpha_rejected(self, bad):
        with pytest.raises(ValueError):
            huber_loss(1.0, bad)


class TestHuberInfluence:
    def test_identity_inside_quadratic_zone(self):
        assert huber_influence(0.5, 1.0) == 0.5

    def test_clamped_beyond_alpha(self):
        assert huber_influence(-7.0, 2.0) == -2.0

    def test_odd_function(self):
        t = np.linspace(-6, 6, 101)
        for alpha in ALPHA_GRID:
            np.testing.assert_allclose(
                huber_influence(-t, alpha), -huber_influence(t, alpha), atol=0
            )

    def test_matches_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(1)
        for _ in range(300):
            t = rng.uniform(-8, 8)
            alpha = rng.uniform(0.1, 5.0)
            fd = (huber_loss(t + h, alpha) - huber_loss(t - h, alpha)) / (2 * h)
            assert huber_influence(t, alpha) == pytest.approx(fd, abs=1e-5)

    def test_finite_difference_at_example_point(self):
        h = 1e-6
        fd = (huber_loss(0.3 + h, 1.0) - huber_loss(0.3 - h, 1.0)) / (2 * h)
        assert huber_influence(0.3, 1.0) == pytest.approx(fd, abs=1e-5)


class TestNormalizerAndPdf:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_density_integrates_to_one(self, alpha):
        total, _ = integrate.quad(
            lambda t: huber_pdf(t, alpha), -np.inf, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_normalizer_against_quadrature(self):
        for alpha in ALPHA_GRID:
            assert huber_normalizer(alpha) == pytest.approx(
                quad_normalizer(alpha), rel=1e-10
            )

    def test_normalizer_alpha_three(self):
        assert huber_normalizer(3.0) == pytest.approx(quad_normalizer(3.0), rel=1e-10)
        assert huber_normalizer(3.0) == pytest.approx(0.39884, abs=5e-6)

    def test_normalizer_gaussian_limit(self):
        assert huber_normalizer(40.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_pdf_peak_equals_normalizer(self):
        assert huber_pdf(0.0, 3.0) == huber_normalizer(3.0)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_central_mass_is_the_gaussian_segment(self, alpha):
        segment, _ = integrate.quad(
            lambda t: huber_pdf(t, alpha), -alpha, alpha, limit=200
        )
        assert huber_central_mass(alpha) == pytest.approx(segment, abs=1e-10)
        assert 0.0 < huber_central_mass(alpha) < 1.0

    def test_pdf_symmetry(self):
        for t in (0.1, 1.0, 10.0):
            assert huber_pdf(t, 2.0) == huber_pdf(-t, 2.0)

    def test_exponential_tail_ratio(self):
        alpha, s = 1.5, 2.0
        ratio = huber_pdf(alpha + s, alpha) / huber_pdf(alpha, alpha)
        assert ratio == pytest.approx(math.exp(-alpha * s), rel=1e-12)


class TestHuberCdf:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_half_at_zero(self, alpha):
        assert huber_cdf(0.0, alpha) == pytest.approx(0.5, abs=1e-14)

    def test_left_tail_against_quadrature(self):
        expected, _ = integrate.quad(lambda t: huber_pdf(t, 3.0), -np.inf, -3.0)
        assert huber_cdf(-3.0, 3.0) == pytest.approx(expected, rel=1e-9)
        assert huber_cdf(-3.0, 3.0) == pytest.approx(0.001477, abs=2e-6)

    @staticmethod
    def quad_cdf(t: float, alpha: float) -> float:
        """Quadrature oracle for the CDF, split at the density kinks."""
        total = 0.0
        lo = -np.inf
        for breakpoint in (-alpha, alpha):
            if t > breakpoint:
                piece, _ = integrate.quad(
                    lambda s: huber_pdf(s, alpha), lo, breakpoint,
                    limit=300, epsabs=1e-13,
                )
                total += piece
                lo = breakpoint
        piece, _ = integrate.quad(
            lambda s: huber_pdf(s, alpha), lo, t, limit=300, epsabs=1e-13
        )
        return total + piece

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_quadrature_everywhere(self, alpha):
        for t in (-2.5 * alpha, -alpha, -0.3, 0.7, alpha, 3.1 * alpha):
            assert huber_cdf(t, alpha) == pytest.approx(
                self.quad_cdf(t, alpha), abs=1e-9
            )

    def test_strictly_increasing(self):
        grid = np.linspace(-8.0, 8.0, 1000)
        vals = huber_cdf(grid, 0.5)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_symmetry_identity(self, alpha):
        t = np.linspace(-4 * alpha, 4 * alpha, 97)
        total = huber_cdf(t, alpha) + huber_cdf(-t, alpha)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_limits(self):
        assert 0.0 <= huber_cdf(-500.0, 1.0) < 1e-100
        assert huber_cdf(500.0, 1.0) == pytest.approx(1.0, abs=1e-15)


class TestVariance:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_closed_form_against_quadrature(self, alpha):
        assert huber_variance(alpha) == pytest.approx(quad_variance(alpha), abs=1e-10)

    def test_alpha_three_value(self):
        assert huber_variance(3.0) == pytest.approx(1.0036, abs=1e-4)

    def test_large_alpha_limit(self):
        assert huber_variance(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_alpha_for_variance_two(self):
        assert huber_variance(1.0764) == pytest.approx(2.0, rel=0.01)

    def test_strictly_decreasing(self):
        # beyond alpha ~ 8.3 the excess over 1 falls below double resolution,
        # so strictness is only checkable up to there
        grid = np.geomspace(0.01, 8.0, 400)
        vals = np.array([huber_variance(a) for a in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 1.0)


# alpha over the sampler's whole range, uniformly and on a log scale
_ALPHAS = st.floats(1e-6, 60.0) | st.floats(-6.0, 1.77).map(lambda e: 10.0**e)
_WIDE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def quad_half_moment(alpha: float, power: int, start: float = 0.0) -> float:
    """int_start^inf t^power exp(-huber_loss(t)) dt for start >= 0, by
    quadrature. The tail beyond alpha is integrated in units of its own
    scale 1/alpha (t = alpha + s/alpha), so alpha = 1e-6 stays resolved."""
    core = 0.0
    if start < alpha:
        f = lambda t: t**power * math.exp(-ref_loss(t, alpha))
        core, _ = integrate.quad(f, start, alpha, limit=200, epsabs=0, epsrel=1e-13)
    s0 = max(start - alpha, 0.0) * alpha
    g = lambda s: (alpha + s / alpha) ** power * math.exp(-ref_loss(alpha + s / alpha, alpha))
    tail, _ = integrate.quad(g, s0, np.inf, limit=200, epsabs=0, epsrel=1e-13)
    return core + tail / alpha


class TestAgainstQuadratureOverAlphaRange:
    @_WIDE
    @given(alpha=_ALPHAS, x=st.floats(0.0, 1.0), s=st.floats(0.0, 30.0))
    def test_pdf(self, alpha, x, s):
        kappa = 0.5 / quad_half_moment(alpha, 0)
        for t in (0.0, x * alpha, alpha, alpha + s / alpha):
            expected = kappa * math.exp(-ref_loss(t, alpha))
            assert huber_pdf(t, alpha) == pytest.approx(expected, rel=1e-9)
            assert huber_pdf(-t, alpha) == huber_pdf(t, alpha)

    @_WIDE
    @given(alpha=_ALPHAS, x=st.floats(0.0, 1.0), s=st.floats(0.0, 30.0))
    def test_cdf(self, alpha, x, s):
        half = quad_half_moment(alpha, 0)
        for t in (x * alpha, alpha + s / alpha):
            # F(-t) is the mass beyond t, and F(t) its complement
            beyond = 0.5 * quad_half_moment(alpha, 0, t) / half
            assert huber_cdf(-t, alpha) == pytest.approx(beyond, rel=1e-9, abs=1e-300)
            assert huber_cdf(t, alpha) == pytest.approx(1.0 - beyond, rel=0, abs=1e-12)

    @_WIDE
    @given(alpha=_ALPHAS)
    def test_variance(self, alpha):
        expected = quad_half_moment(alpha, 2) / quad_half_moment(alpha, 0)
        assert huber_variance(alpha) == pytest.approx(expected, rel=1e-10)


class TestCalibration:
    # frozen reference column: epsilon = 5 * alpha at delta_f = 5
    REFERENCE_EPS = {2.0: 5.382, 3.0: 4.235, 4.0: 3.602}

    @pytest.mark.parametrize("target,eps", sorted(REFERENCE_EPS.items()))
    def test_reference_targets(self, target, eps):
        alpha = calibrate_alpha(target)
        assert 5.0 * alpha == pytest.approx(eps, abs=0.02)
        # the root is consistent with the quadrature oracle, not just the
        # closed form it was solved against
        assert quad_variance(alpha) == pytest.approx(target, abs=1e-7)

    def test_roundtrip_identity(self):
        for alpha in np.linspace(0.3, 3.0, 12):
            back = calibrate_alpha(huber_variance(alpha))
            assert back == pytest.approx(alpha, abs=1e-6)

    @pytest.mark.parametrize("target", [1.0, 0.5, 0.999])
    def test_unreachable_targets_raise(self, target):
        with pytest.raises(CalibrationError):
            calibrate_alpha(target)

    def test_convention_fallback(self):
        alpha, convention = huber_alpha_for_variance(1.0)
        assert alpha == UNIT_VARIANCE_ALPHA and convention
        alpha, convention = huber_alpha_for_variance(2.0)
        assert not convention
        # above the calibration range there is no convention to fall back on
        with pytest.raises(CalibrationError, match="no bracket"):
            huber_alpha_for_variance(3e24)

    @_WIDE
    @given(
        target=st.floats(1.0, 1e24, exclude_min=True)
        | st.floats(1e-12, 24.0).map(lambda e: 10.0**e)
    )
    def test_roundtrip_over_reachable_targets(self, target):
        alpha, convention = huber_alpha_for_variance(target)
        assert not convention
        assert huber_variance(alpha) == pytest.approx(target, rel=1e-12)

    def test_huge_target_converges(self):
        alpha = calibrate_alpha(1e6)
        assert 0 < alpha < 0.01
        assert quad_variance(alpha) == pytest.approx(1e6, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_invalid_targets(self, bad):
        with pytest.raises(ValueError):
            calibrate_alpha(bad)


class TestSampler:
    def test_none_returns_zeros_without_consuming(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        draw = sample(MechanismConfig.none(), 5, rng)
        np.testing.assert_array_equal(draw.values, np.zeros(5))
        assert rng.bit_generator.state == before

    def test_deterministic_given_seed(self):
        cfg = MechanismConfig.huber(1.0)
        a = sample(cfg, 1000, np.random.default_rng(7)).values
        b = sample(cfg, 1000, np.random.default_rng(7)).values
        np.testing.assert_array_equal(a, b)

    def test_zero_length(self):
        draw = sample(MechanismConfig.huber(2.0), 0, np.random.default_rng(0))
        assert draw.values.shape == (0,)

    def test_huber_moments_at_million_draws(self):
        n = 1_000_000
        vals = sample(MechanismConfig.huber(3.0), n, np.random.default_rng(42)).values
        sigma = math.sqrt(huber_variance(3.0))
        assert abs(vals.mean()) < 3 * sigma / math.sqrt(n)
        assert vals.var() == pytest.approx(huber_variance(3.0), rel=0.01)

    @pytest.mark.parametrize("alpha", [0.5, 1.0764])
    def test_huber_moments(self, alpha):
        n = 400_000
        vals = sample(MechanismConfig.huber(alpha), n, np.random.default_rng(42)).values
        sigma = math.sqrt(huber_variance(alpha))
        assert abs(vals.mean()) < 4 * sigma / math.sqrt(n)
        assert vals.var() == pytest.approx(huber_variance(alpha), rel=0.01)

    def test_huber_ks_against_cdf(self):
        n = 100_000
        vals = sample(MechanismConfig.huber(1.0), n, np.random.default_rng(7)).values
        stat = stats.kstest(vals, lambda t: huber_cdf(t, 1.0)).statistic
        assert stat < 1.63 / math.sqrt(n)

    def test_huber_center_stays_finite_at_extreme_alpha(self):
        # Phi(-40) underflows to 0, so a zero uniform would map to ndtri(0)
        class ZeroUniforms:
            def random(self, k):
                return np.zeros(k)

            def standard_exponential(self, k):
                return np.zeros(k)

        vals = sample(MechanismConfig.huber(40.0), 3, ZeroUniforms()).values
        np.testing.assert_array_equal(vals, np.full(3, -40.0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1e-6, 60.0),
        k=st.integers(0, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_huber_finite_and_reproducible_over_alpha_range(self, alpha, k, seed):
        cfg = MechanismConfig.huber(alpha)
        a = sample(cfg, k, np.random.default_rng(seed)).values
        b = sample(cfg, k, np.random.default_rng(seed)).values
        assert a.shape == (k,)
        assert np.isfinite(a).all()
        np.testing.assert_array_equal(a, b)

    def test_laplace_and_gaussian_scales(self):
        rng = np.random.default_rng(11)
        lap = sample(MechanismConfig.laplace(2.0), 200_000, rng).values
        assert lap.var() == pytest.approx(8.0, rel=0.02)
        gau = sample(MechanismConfig.gaussian(1.5), 200_000, rng).values
        assert gau.var() == pytest.approx(2.25, rel=0.02)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            sample(MechanismConfig.none(), -1, np.random.default_rng(0))


class TestBudgets:
    def test_huber_reference_row(self):
        budget = epsilon_huber(HuberParams(3.0), Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(15.000, abs=1e-12)
        assert budget.delta == 0.0

    def test_huber_calibrated_row(self):
        budget = epsilon_huber(HuberParams(1.0764), Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(5.382, abs=1e-12)

    def test_huber_zero_sensitivity(self):
        assert epsilon_huber(HuberParams(2.0), Sensitivity.scalar(0.0)).epsilon == 0.0

    @pytest.mark.parametrize(
        "beta,expected",
        [(1.0, 5.000), (1 / math.sqrt(2), 7.071), (math.sqrt(2), 3.536)],
    )
    def test_laplace_reference_values(self, beta, expected):
        budget = epsilon_laplace(beta, Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(expected, abs=5e-4)
        assert budget.delta == 0.0

    def test_gaussian_base10_reference(self):
        budget = epsilon_gaussian(1.0, 1e-5, Sensitivity.scalar(5.0), "base10")
        assert budget.epsilon == pytest.approx(15.964, abs=5e-4)
        budget = epsilon_gaussian(math.sqrt(2), 1e-5, Sensitivity.scalar(5.0), "base10")
        assert budget.epsilon == pytest.approx(11.288, abs=5e-4)

    def test_gaussian_natural_is_the_formula(self):
        expected = math.sqrt(2 * math.log(1.25 / 1e-5)) * 5.0
        budget = epsilon_gaussian(1.0, 1e-5, Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(expected, rel=1e-12)
        assert budget.epsilon == pytest.approx(24.22, abs=0.01)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_gaussian_delta_domain(self, delta):
        with pytest.raises(ValueError):
            epsilon_gaussian(1.0, delta, Sensitivity.scalar(1.0))

    def test_epsilons_linear_in_sensitivity(self):
        for df in (0.5, 1.0, 3.0, 10.0):
            s = Sensitivity.scalar(df)
            assert epsilon_huber(HuberParams(2.0), s).epsilon == pytest.approx(
                2.0 * df, rel=1e-15
            )
            assert epsilon_laplace(1.5, s).epsilon == pytest.approx(
                df / 1.5, rel=1e-15
            )

    def test_laplace_scale_doubling_halves_epsilon(self):
        s = Sensitivity.scalar(5.0)
        assert epsilon_laplace(2.0, s).epsilon == pytest.approx(
            epsilon_laplace(1.0, s).epsilon / 2.0, rel=1e-15
        )

    def test_mechanism_budget_none_is_infinite(self):
        budget = mechanism_budget(MechanismConfig.none(), Sensitivity.scalar(5.0))
        assert math.isinf(budget.epsilon)

    def test_sensitivity_ordering_enforced(self):
        with pytest.raises(ValueError):
            Sensitivity(l1=1.0, l2=2.0)

    def test_privacy_budget_domain(self):
        with pytest.raises(ValueError):
            PrivacyBudget(-1.0, 0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 1.0)


class TestBudgetTable:
    # frozen reference table at delta_f = 5, delta = 1e-5, base-10 mode
    REFERENCE = {
        1.0: (15.964, 7.071, 15.000),
        2.0: (11.288, 5.000, 5.382),
        3.0: (9.217, 4.082, 4.235),
        4.0: (7.982, 3.536, 3.602),
    }

    def test_reference_table(self):
        rows = budget_table(
            [1.0, 2.0, 3.0, 4.0], Sensitivity.scalar(5.0), 1e-5, "base10"
        )
        for row in rows:
            gauss, lap, hub = self.REFERENCE[row.variance]
            assert row.gaussian.epsilon == pytest.approx(gauss, abs=0.01)
            assert row.laplace.epsilon == pytest.approx(lap, abs=0.01)
            assert row.huber.epsilon == pytest.approx(hub, abs=0.02)
            assert row.gaussian.delta == 1e-5
            assert row.laplace.delta == 0.0 and row.huber.delta == 0.0

    def test_empty_table(self):
        assert budget_table([], Sensitivity.scalar(5.0), 1e-5) == []

    def test_linear_scaling_in_sensitivity(self):
        rows = budget_table([2.0], Sensitivity.scalar(1.0), 1e-5)
        assert rows[0].laplace.epsilon == pytest.approx(1.0, rel=1e-12)
        assert rows[0].huber.epsilon == pytest.approx(1.0764, abs=0.004)

    def test_unit_variance_convention_flagged(self):
        rows = budget_table([1.0], Sensitivity.scalar(5.0), 1e-5)
        assert rows[0].huber_unit_variance_convention
        assert rows[0].huber_alpha == UNIT_VARIANCE_ALPHA

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            budget_table([-1.0], Sensitivity.scalar(5.0), 1e-5)


def brute_force_gap(alpha: float, delta_f: float) -> float:
    """Independent maximizer of rho(t + df) - rho(t) over a fine grid."""
    t = np.linspace(-delta_f - 3 * alpha - 2, 3 * alpha + delta_f + 2, 400_001)
    losses = np.array([ref_loss(x, alpha) for x in t] )
    shifted = np.array([ref_loss(x + delta_f, alpha) for x in t])
    return float(np.max(shifted - losses))


class TestPrivacyGap:
    def test_case_one(self):
        # delta_f <= 2 alpha
        assert privacy_gap(2.0, 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_case_two(self):
        # delta_f > 2 alpha
        assert privacy_gap(1.0, 5.0) == pytest.approx(5.0, abs=1e-12)

    def test_vanishing_shift(self):
        assert privacy_gap(3.0, 1e-9) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("delta_f", [0.1, 1.0, 5.0, 12.0])
    def test_matches_brute_force(self, alpha, delta_f):
        gap = privacy_gap(alpha, delta_f)
        assert gap == pytest.approx(alpha * delta_f, abs=1e-9)
        assert brute_force_gap(alpha, delta_f) <= gap + 1e-9

    @pytest.mark.parametrize("alpha,delta_f", [(1.5, 4.0), (2.0, 3.0), (0.5, 8.0)])
    def test_plateau_is_constant(self, alpha, delta_f):
        # item (v): beyond t = alpha the difference is exactly alpha * delta_f
        for t in alpha + np.linspace(0, 30, 50):
            g = huber_loss(t + delta_f, alpha) - huber_loss(t, alpha)
            assert g == pytest.approx(alpha * delta_f, abs=1e-9)

    def test_estimates_agree(self):
        closed, grid = privacy_gap_estimates(0.7, 2.3)
        assert closed == pytest.approx(grid, abs=1e-9)

    @pytest.mark.parametrize("alpha,delta_f", [(2.0, 3.0), (0.5, 8.0)])
    def test_likelihood_ratio_bound(self, alpha, delta_f):
        # the pointwise restatement of the epsilon guarantee
        t = np.linspace(-delta_f - 4 * alpha, 4 * alpha + delta_f, 20_001)
        ratio = huber_pdf(t, alpha) / huber_pdf(t + delta_f, alpha)
        assert np.all(ratio <= math.exp(alpha * delta_f) * (1 + 1e-12))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            privacy_gap(-1.0, 1.0)
        with pytest.raises(ValueError):
            privacy_gap(1.0, 0.0)


class TestMechanismConfig:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            MechanismConfig.huber(0.0)
        with pytest.raises(ValueError):
            MechanismConfig.laplace(-1.0)
        with pytest.raises(ValueError):
            MechanismConfig("none", 1.0)
        with pytest.raises(ValueError):
            MechanismConfig("banana", 1.0)

    def test_from_variance(self):
        assert MechanismConfig.from_variance("gaussian", 4.0).scale == 2.0
        assert MechanismConfig.from_variance("laplace", 2.0).scale == pytest.approx(1.0)
        hub = MechanismConfig.from_variance("huber", 2.0)
        assert huber_variance(hub.scale) == pytest.approx(2.0, abs=1e-8)
        assert MechanismConfig.from_variance("none", 1.0).kind == "none"

    def test_variance_accessor(self):
        assert MechanismConfig.none().variance() == 0.0
        assert MechanismConfig.gaussian(2.0).variance() == 4.0
        assert MechanismConfig.laplace(1.0).variance() == 2.0
        assert MechanismConfig.huber(3.0).variance() == pytest.approx(1.0036, abs=1e-4)
