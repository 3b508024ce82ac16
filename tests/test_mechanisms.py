"""Tests for the noise distributions, sampler, and privacy accounting.

Derived expectations are computed by independent oracles: a plain-Python
piecewise loss, adaptive quadrature of the unnormalized density, and brute
numeric maximization. Reference budget-table entries are frozen constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats
from scipy.optimize import brentq

from huberdp import bench_cli, mechanisms
from huberdp.data_io import (
    generate_synthetic, holdout_split, mask_entries, subsample, synthetic_truth,
)
from huberdp.lrmc import FactorPair, ObservedMatrix, SolverConfig, irls_huber, noisy_als
from huberdp.mechanisms import (
    CalibrationError,
    ConsistencyError,
    MechanismConfig,
    PrivacyBudget,
    Sensitivity,
    UNIT_VARIANCE_ALPHA,
    _unit_variance_convention,
    budget_table,
    calibrate_alpha,
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
    sample,
)
from huberdp.robust_solvers import IrlsConfig, RidgeProblem, huber_objective, irls_weights, r_irls

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

    # a complex array would lose its imaginary part with only a warning, and
    # a string one fail in numpy's conversion without naming t
    @pytest.mark.parametrize(
        "bad,dtype",
        [(np.array([1.0, 2 + 1j]), "complex128"), (np.array(["1.0", "2.0"]), "<U3"),
         (np.array([1.0, 2.0], dtype=object), "object")],
        ids=["complex", "string", "object"],
    )
    def test_non_real_t_is_named_with_its_dtype(self, bad, dtype):
        with pytest.raises(ValueError, match=f"^t must be a real array, got dtype {dtype}$"):
            huber_loss(bad, 1.0)

    @pytest.mark.parametrize("t", [np.array([True, False]), np.array([-2, 3]),
                                   np.array([2, 3], dtype=np.uint8), np.float32(1.5)],
                             ids=["bool", "int", "uint", "float32"])
    def test_bool_integer_and_real_t_run_as_float(self, t):
        np.testing.assert_array_equal(huber_loss(t, 1.0),
                                      huber_loss(np.asarray(t, dtype=float), 1.0))

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
#: calibration targets in (1, 1e24], uniform and log-uniform
_TARGETS = st.floats(1.0, 1e24, exclude_min=True) | st.floats(1e-12, 24.0).map(
    lambda e: 10.0**e
)


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
        assert huber_alpha_for_variance(1.0) == UNIT_VARIANCE_ALPHA
        assert _unit_variance_convention(1.0)
        assert not _unit_variance_convention(2.0)
        # above the calibration range there is no convention to fall back on
        with pytest.raises(CalibrationError, match="no bracket"):
            huber_alpha_for_variance(3e24)

    @_WIDE
    @given(target=_TARGETS)
    def test_roundtrip_over_reachable_targets(self, target):
        alpha = huber_alpha_for_variance(target)
        assert not _unit_variance_convention(target)
        assert huber_variance(alpha) == pytest.approx(target, rel=1e-12)

    @_WIDE
    @given(target=_TARGETS)
    def test_agrees_with_brentq(self, target):
        eps = np.finfo(float).eps
        ref = brentq(
            lambda a: huber_variance(a) - target, 1e-13, 60.0,
            xtol=np.finfo(float).tiny, rtol=4 * eps, maxiter=500,
        )
        # close to target 1 the variance is so flat that a few ulps of it
        # span an alpha interval no root finder can split; that span widens
        # the bound, and where the closed form cannot resolve it the bound
        # is open
        h = 1e-6 * ref
        slope = (huber_variance(ref - h) - huber_variance(ref + h)) / (2.0 * h)
        unresolved = 4.0 * eps * target / slope if slope > 0 else math.inf
        assert abs(calibrate_alpha(target) - ref) <= 1e-12 * ref + unresolved

    # the alphas scipy's brentq (rtol 4 eps) returned for the protocol variances
    BRENTQ_ALPHAS = {2.0: 1.0759779011734085, 3.0: 0.8432682871233624, 4.0: 0.7202404343384305}

    @pytest.mark.parametrize("target,alpha", sorted(BRENTQ_ALPHAS.items()))
    def test_protocol_alphas_kept(self, target, alpha):
        assert calibrate_alpha(target) == pytest.approx(alpha, rel=1e-12)

    def test_huge_target_converges(self):
        alpha = calibrate_alpha(1e6)
        assert 0 < alpha < 0.01
        assert quad_variance(alpha) == pytest.approx(1e6, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan])
    def test_invalid_targets(self, bad):
        with pytest.raises(ValueError):
            calibrate_alpha(bad)


#: shapes from nearly all tail to all center
SAMPLER_ALPHAS = [0.05, 1.0, 3.0, 40.0]


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

    @pytest.mark.parametrize("alpha", SAMPLER_ALPHAS)
    def test_huber_ks_against_cdf(self, alpha):
        n = 100_000
        vals = sample(MechanismConfig.huber(alpha), n, np.random.default_rng(7)).values
        stat = stats.kstest(vals, lambda t: huber_cdf(t, alpha)).statistic
        assert stat < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("alpha", SAMPLER_ALPHAS)
    def test_huber_central_share(self, alpha):
        n = 1_000_000
        vals = sample(MechanismConfig.huber(alpha), n, np.random.default_rng(8)).values
        p = huber_central_mass(alpha)
        share = np.count_nonzero(np.abs(vals) <= alpha) / n
        assert abs(share - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)

    @_WIDE
    @given(alpha=_ALPHAS)
    def test_thinning_probability_at_most_one(self, alpha):
        # the Mills ratio bound Q(a) <= phi(a)/a; at large alpha the product
        # rounds to 1 + 1 ulp, harmless since a uniform draw is always < 1
        assert huber_normalizer(alpha) * math.sqrt(2.0 * math.pi) <= 1.0 + 2.0**-52

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

    @pytest.mark.parametrize("kind", ["none", "gaussian", "huber"])
    @pytest.mark.parametrize("bad", [2.7, float("nan"), "3"], ids=["2.7", "nan", "str"])
    def test_non_integral_k_rejected_naming_k(self, kind, bad):
        cfg = MechanismConfig.from_variance(kind, 2.0)
        with pytest.raises(ValueError, match="k must be an integer"):
            sample(cfg, bad, np.random.default_rng(0))

    def test_numpy_integer_k_accepted(self):
        draw = sample(MechanismConfig.huber(1.0), np.int64(3), np.random.default_rng(0))
        assert draw.values.shape == (3,)


def ulps_apart(x, ref) -> np.ndarray:
    """|x - ref| in units of the spacing of doubles at ref."""
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return np.abs(x - ref) / np.spacing(np.abs(ref))


def scipy_huber_normalizer(alpha: float) -> float:
    central = math.sqrt(2.0 * math.pi) * special.erf(alpha / math.sqrt(2.0))
    return 1.0 / ((2.0 / alpha) * math.exp(-0.5 * alpha * alpha) + central)


def scipy_huber_variance(alpha: float) -> float:
    central = math.sqrt(2.0 * math.pi) * special.erf(alpha / math.sqrt(2.0))
    tails = 2.0 * math.exp(-0.5 * alpha * alpha) * (2.0 / alpha + 2.0 / alpha**3)
    return scipy_huber_normalizer(alpha) * (central + tails)


def scipy_huber_central_mass(alpha: float) -> float:
    central = math.sqrt(2.0 * math.pi) * special.erf(alpha / math.sqrt(2.0))
    return scipy_huber_normalizer(alpha) * central


class TestClosedFormsWithoutScipy:
    @_WIDE
    @given(alpha=_ALPHAS)
    def test_within_4_ulps_of_scipy_erf(self, alpha):
        assert ulps_apart(huber_normalizer(alpha), scipy_huber_normalizer(alpha)) <= 4
        assert ulps_apart(huber_variance(alpha), scipy_huber_variance(alpha)) <= 4
        assert ulps_apart(huber_central_mass(alpha), scipy_huber_central_mass(alpha)) <= 4


class TestBudgets:
    def test_huber_reference_row(self):
        budget = mechanism_budget(MechanismConfig.huber(3.0), Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(15.000, abs=1e-12)
        assert budget.delta == 0.0

    def test_huber_calibrated_row(self):
        budget = mechanism_budget(MechanismConfig.huber(1.0764), Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(5.382, abs=1e-12)

    def test_huber_zero_sensitivity(self):
        assert mechanism_budget(MechanismConfig.huber(2.0), Sensitivity.scalar(0.0)).epsilon == 0.0

    @pytest.mark.parametrize(
        "beta,expected",
        [(1.0, 5.000), (1 / math.sqrt(2), 7.071), (math.sqrt(2), 3.536)],
    )
    def test_laplace_reference_values(self, beta, expected):
        budget = mechanism_budget(MechanismConfig.laplace(beta), Sensitivity.scalar(5.0))
        assert budget.epsilon == pytest.approx(expected, abs=5e-4)
        assert budget.delta == 0.0

    def test_gaussian_base10_reference(self):
        s = Sensitivity.scalar(5.0)
        budget = mechanism_budget(MechanismConfig.gaussian(1.0), s, 1e-5, "base10")
        assert budget.epsilon == pytest.approx(15.964, abs=5e-4)
        budget = mechanism_budget(MechanismConfig.gaussian(math.sqrt(2)), s, 1e-5, "base10")
        assert budget.epsilon == pytest.approx(11.288, abs=5e-4)

    def test_gaussian_natural_is_the_formula(self):
        expected = math.sqrt(2 * math.log(1.25 / 1e-5)) * 5.0
        budget = mechanism_budget(MechanismConfig.gaussian(1.0), Sensitivity.scalar(5.0), 1e-5)
        assert budget.epsilon == pytest.approx(expected, rel=1e-12)
        assert budget.epsilon == pytest.approx(24.22, abs=0.01)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_gaussian_delta_domain(self, delta):
        with pytest.raises(ValueError):
            mechanism_budget(MechanismConfig.gaussian(1.0), Sensitivity.scalar(1.0), delta)

    def test_epsilons_linear_in_sensitivity(self):
        for df in (0.5, 1.0, 3.0, 10.0):
            s = Sensitivity.scalar(df)
            assert mechanism_budget(MechanismConfig.huber(2.0), s).epsilon == pytest.approx(
                2.0 * df, rel=1e-15
            )
            assert mechanism_budget(MechanismConfig.laplace(1.5), s).epsilon == pytest.approx(
                df / 1.5, rel=1e-15
            )

    def test_laplace_scale_doubling_halves_epsilon(self):
        s = Sensitivity.scalar(5.0)
        assert mechanism_budget(MechanismConfig.laplace(2.0), s).epsilon == pytest.approx(
            mechanism_budget(MechanismConfig.laplace(1.0), s).epsilon / 2.0, rel=1e-15
        )

    def test_mechanism_budget_none_is_infinite(self):
        budget = mechanism_budget(MechanismConfig.none(), Sensitivity.scalar(5.0))
        assert math.isinf(budget.epsilon)

    def test_sensitivity_ordering_enforced(self):
        with pytest.raises(ValueError):
            Sensitivity(l1=1.0, l2=2.0)

    @pytest.mark.parametrize(
        "l1,l2,message",
        [(math.inf, 1.0, "finite"), (1.0, math.nan, "finite"), (1.0, -1.0, "nonnegative")],
    )
    def test_sensitivity_domain(self, l1, l2, message):
        with pytest.raises(ValueError, match=message):
            Sensitivity(l1, l2)

    def test_unknown_log_base_rejected(self):
        with pytest.raises(ValueError, match="log_base"):
            mechanism_budget(MechanismConfig.gaussian(1.0), Sensitivity.scalar(1.0), 1e-5, "log2")

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

    @pytest.mark.parametrize(
        "delta_f,alpha",
        [(df, a) for df in (0.1, 1.0, 5.0, 12.0) for a in (0.25, 0.5, 1.0, 2.0, 4.0)]
        + [(2.3, 0.7)],
    )
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

    def test_wrong_loss_raises(self, monkeypatch):
        # a loss off by one part in a million moves the grid maximum far
        # past 1e-9, so the check is live
        exact = mechanisms.huber_loss
        monkeypatch.setattr(mechanisms, "huber_loss", lambda t, a: exact(t, a) * (1 + 1e-6))
        with pytest.raises(ConsistencyError, match="privacy gap mismatch"):
            privacy_gap(2.0, 3.0)

    def test_nan_grid_raises(self):
        # huber_loss overflows at alpha = delta_f = 1e155, so the grid maximum
        # is NaN; a NaN must fail the check, not return alpha * delta_f = inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConsistencyError, match="grid=nan"):
                privacy_gap(1e155, 1e155)

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

    def test_from_variance_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown mechanism kind 'banana'"):
            MechanismConfig.from_variance("banana", 2.0)

    def test_variance_accessor(self):
        assert MechanismConfig.none().variance() == 0.0
        assert MechanismConfig.gaussian(2.0).variance() == 4.0
        assert MechanismConfig.laplace(1.0).variance() == 2.0
        assert MechanismConfig.huber(3.0).variance() == pytest.approx(1.0036, abs=1e-4)


# Every public entry point that takes a positive real or a count, as
# (field name, call passing the value in that field, the stored field of the
# call's result or None for a function that stores nothing). One rule checks
# them all: mechanisms._positive_real and mechanisms._count.
REAL_FIELDS = [
    ("alpha", lambda v: huber_loss(1.0, v), None),
    ("alpha", lambda v: huber_influence(1.0, v), None),
    ("alpha", huber_normalizer, None),
    ("alpha", lambda v: huber_pdf(0.5, v), None),
    ("alpha", lambda v: huber_cdf(0.5, v), None),
    ("alpha", huber_variance, None),
    ("alpha", huber_central_mass, None),
    ("alpha", lambda v: privacy_gap(v, 1.0), None),
    ("delta_f", lambda v: privacy_gap(2.0, v), None),
    ("huber scale", lambda v: MechanismConfig("huber", v), lambda c: c.scale),
    ("huber scale", MechanismConfig.huber, lambda c: c.scale),
    ("laplace scale", MechanismConfig.laplace, lambda c: c.scale),
    ("gaussian scale", MechanismConfig.gaussian, lambda c: c.scale),
    ("variance", lambda v: MechanismConfig.from_variance("laplace", v), None),
    ("target_variance", calibrate_alpha, None),
    ("variance", lambda v: budget_table([v], Sensitivity.scalar(1.0), 1e-5),
     lambda rows: rows[0].variance),
    ("alpha", lambda v: IrlsConfig(alpha=v, lam=1.0), lambda c: c.alpha),
    ("lam", lambda v: IrlsConfig(alpha=1.0, lam=v), lambda c: c.lam),
    ("alpha", lambda v: irls_weights([0.5, -4.0], v), None),
    ("lam", lambda v: SolverConfig(rank=1, lam=v), lambda c: c.lam),
    ("huber_loss_alpha", lambda v: SolverConfig(rank=1, huber_loss_alpha=v),
     lambda c: c.huber_loss_alpha),
    ("delta_f", bench_cli._sensitivity, None),
    ("lam", lambda v: RidgeProblem(np.eye(2), np.ones(2), v), lambda p: p.lam),
    ("lam", lambda v: huber_objective(np.ones(2), np.eye(2), np.ones(2), 1.0, v), None),
]

# a plan's fields pass the JSON type check first, which refuses a bool or a
# string as "plan field ..."
PLAN_REAL_FIELDS = [
    ("delta_f", lambda v: bench_cli.ExperimentPlan(delta_f=v), None),
    ("variance", lambda v: bench_cli.ExperimentPlan(variances=[v]), None),
]

# reals whose range rule admits 0 keep that rule in their own class; only
# the type rule, mechanisms._real, is shared
NONNEGATIVE_REAL_FIELDS = [
    ("l1", lambda v: Sensitivity(v, 0.0), lambda s: s.l1),
    ("l2", lambda v: Sensitivity(5.0, v), lambda s: s.l2),
    ("epsilon", PrivacyBudget, lambda b: b.epsilon),
    ("delta", lambda v: PrivacyBudget(1.0, v), lambda b: b.delta),
    ("variance", huber_alpha_for_variance, None),
]

_FULL_4X4 = mask_entries(np.ones((4, 4)), 1.0, np.random.default_rng(0))

# reals whose range rule is part of (0, 1]; at 0.5 each call runs
FRACTION_FIELDS = [
    ("delta", lambda v: mechanism_budget(MechanismConfig.gaussian(1.0), Sensitivity.scalar(1.0), v),
     lambda b: b.delta),
    ("fraction", lambda v: generate_synthetic(4, 4, 1, v, 0), None),
    ("fraction", lambda v: mask_entries(np.ones((4, 4)), v, np.random.default_rng(0)), None),
    ("fraction", lambda v: subsample(_FULL_4X4, v, np.random.default_rng(0)), None),
    ("test_fraction", lambda v: holdout_split(_FULL_4X4, v, np.random.default_rng(0)), None),
]

# (field name, call, stored field or None, least value the field takes)
COUNT_FIELDS = [
    ("m", lambda v: ObservedMatrix(v, 3, [0], [0], [1.0]), lambda o: o.m, 1),
    ("n", lambda v: ObservedMatrix(3, v, [0], [0], [1.0]), lambda o: o.n, 1),
    ("m", lambda v: generate_synthetic(v, 3, 1, 1.0, 0), lambda d: d[1].m, 1),
    ("n", lambda v: generate_synthetic(3, v, 1, 1.0, 0), lambda d: d[1].n, 1),
    ("synthetic rank", lambda v: generate_synthetic(3, 3, v, 1.0, 0), None, 1),
    ("rank", lambda v: SolverConfig(rank=v), lambda c: c.rank, 1),
    ("outer_iterations", lambda v: SolverConfig(rank=1, outer_iterations=v),
     lambda c: c.outer_iterations, 1),
    ("inner_iterations", lambda v: SolverConfig(rank=1, inner_iterations=v),
     lambda c: c.inner_iterations, 1),
    ("iterations", lambda v: IrlsConfig(alpha=1.0, lam=1.0, iterations=v),
     lambda c: c.iterations, 1),
    ("k", lambda v: sample(MechanismConfig.huber(2.0), v, np.random.default_rng(0)),
     lambda d: d.values.size, 0),
    # a matrix stores no count; its shape holds m and n
    ("m", lambda v: synthetic_truth(v, 3, 1, np.random.default_rng(0)), lambda x: x.shape[0], 1),
    ("n", lambda v: synthetic_truth(3, v, 1, np.random.default_rng(0)), lambda x: x.shape[1], 1),
    ("synthetic rank", lambda v: synthetic_truth(3, 3, v, np.random.default_rng(0)), None, 1),
]

# a plan's counts pass the JSON type check first
PLAN_COUNT_FIELDS = [
    ("trials", lambda v: bench_cli.ExperimentPlan(trials=v), None, 1),
    ("seed", lambda v: bench_cli.ExperimentPlan(seed=v), None, 0),
]

NOT_A_NUMBER = [True, np.True_, "2"]
# 10**400 is finite as an int but overflows every float
NOT_POSITIVE = [math.nan, math.inf, 0.0, -1.0, 10**400]


def _rows(entries, values):
    return [pytest.param(name, call, value, id=f"{i}-{name}-{value!r:.12}")
            for i, (name, call, *_) in enumerate(entries) for value in values]


class TestScalarParameterRule:
    @pytest.mark.parametrize("name,call,value", _rows(REAL_FIELDS, NOT_A_NUMBER + NOT_POSITIVE)
                             + _rows(PLAN_REAL_FIELDS, NOT_POSITIVE))
    def test_reals_refuse_a_bool_a_string_and_a_non_positive_value(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be a positive real, got "):
            call(value)

    @pytest.mark.parametrize("name,call,value", _rows(NONNEGATIVE_REAL_FIELDS, NOT_A_NUMBER))
    def test_nonnegative_reals_refuse_a_bool_and_a_string(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real, got "):
            call(value)

    def test_a_plan_refuses_a_bool_or_string_real_by_its_json_type(self):
        for value in NOT_A_NUMBER:
            with pytest.raises(ValueError, match="^plan field variances must be"):
                bench_cli.ExperimentPlan(variances=[value])
            with pytest.raises(ValueError, match="^plan field delta_f must be"):
                bench_cli.ExperimentPlan(delta_f=value)

    @pytest.mark.parametrize("name,call,value", _rows(
        COUNT_FIELDS, NOT_A_NUMBER + [math.nan, math.inf, 2.5, 3.0]))
    def test_counts_refuse_a_bool_a_string_and_a_non_integer(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(value)

    @pytest.mark.parametrize("name,call,value", _rows(FRACTION_FIELDS, [True, np.True_, "0.5"]))
    def test_fractions_refuse_a_bool_and_a_string(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real, got "):
            call(value)

    @pytest.mark.parametrize("name,call,least", [
        pytest.param(name, call, least, id=f"{i}-{name}")
        for i, (name, call, _, least) in enumerate(COUNT_FIELDS + PLAN_COUNT_FIELDS)])
    def test_counts_keep_their_range_rules(self, name, call, least):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
            call(least - 1)
        call(least)

    # the plan's JSON type check takes a float subclass but no numpy integer
    @pytest.mark.parametrize("name,call,read,value", [
        (*entry, value) for entry in REAL_FIELDS for value in (np.float64(2.0), np.int64(3))
    ] + [(*entry, np.float64(2.0)) for entry in PLAN_REAL_FIELDS]
      + [(*entry, np.float64(0.5)) for entry in NONNEGATIVE_REAL_FIELDS + FRACTION_FIELDS])
    def test_reals_take_numpy_scalars_and_store_python_floats(self, name, call, read, value):
        out = call(value)
        if read is not None:
            assert type(read(out)) is float and read(out) == value

    @pytest.mark.parametrize("name,call,read", [entry[:3] for entry in COUNT_FIELDS])
    def test_counts_take_numpy_integers_and_store_python_ints(self, name, call, read):
        out = call(np.int64(3))
        if read is not None:
            assert type(read(out)) is int and read(out) == 3

    def test_narrow_numpy_shape_does_not_overflow(self):
        obs = ObservedMatrix(np.int8(100), np.int8(100), [0], [0], [1.0])
        assert obs.observed_fraction == 1e-4


_NOISY = SolverConfig(rank=1, outer_iterations=2, inner_iterations=2,
                      mechanism=MechanismConfig.huber(1.0))

# Every public function that draws, as (name, call passing rng). Each takes a
# seed or a Generator through np.random.default_rng.
SEEDED_DRAWS = [
    ("sample", lambda rng: sample(MechanismConfig.huber(2.0), 50, rng)),
    ("r_irls", lambda rng: r_irls(np.arange(4.0), np.eye(4, 2), IrlsConfig(
        1.0, 0.5, 3, MechanismConfig.huber(1.0)), rng)),
    ("synthetic_truth", lambda rng: synthetic_truth(4, 3, 2, rng)),
    ("mask_entries", lambda rng: mask_entries(np.ones((4, 4)), 0.5, rng)),
    ("subsample", lambda rng: subsample(_FULL_4X4, 0.5, rng)),
    ("holdout_split", lambda rng: holdout_split(_FULL_4X4, 0.5, rng)),
    ("generate_synthetic", lambda rng: generate_synthetic(4, 4, 1, 0.5, rng)),
    ("noisy_als", lambda rng: noisy_als(_FULL_4X4, _NOISY, rng)),
    ("irls_huber", lambda rng: irls_huber(_FULL_4X4, _NOISY, rng)),
]


def _drawn(result) -> list[np.ndarray]:
    """The arrays a drawing call returned, in order."""
    if isinstance(result, tuple):
        return [a for part in result for a in _drawn(part)]
    if isinstance(result, ObservedMatrix):
        return [result.rows, result.cols, result.values]
    if isinstance(result, FactorPair):
        return [result.U, result.V]
    return [getattr(result, "values", result)]


@pytest.mark.parametrize("name,call", SEEDED_DRAWS, ids=[name for name, _ in SEEDED_DRAWS])
def test_a_seed_draws_what_its_generator_draws(name, call):
    seeded, generated = _drawn(call(7)), _drawn(call(np.random.default_rng(7)))
    assert len(seeded) == len(generated)
    for a, b in zip(seeded, generated):
        assert np.array_equal(a, b)
