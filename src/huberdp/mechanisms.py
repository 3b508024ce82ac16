"""Noise mechanisms for differential privacy: Huber, Laplace, and Gaussian.

The Huber distribution has density kappa_alpha * exp(-rho_alpha(t)) where
rho_alpha is the Huber loss: quadratic on [-alpha, alpha] with exponential
(Laplace-like) tails beyond. Adding i.i.d. Huber noise to a query with
l1-sensitivity df yields epsilon-DP with epsilon = alpha * df, which this
module computes alongside the classical Laplace and Gaussian budgets. It
also provides an exact rejection-free sampler, variance calibration, and a
numeric verifier for the epsilon bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, ndtr, ndtri

__all__ = [
    "CalibrationError",
    "ConsistencyError",
    "HuberParams",
    "MechanismConfig",
    "Sensitivity",
    "PrivacyBudget",
    "NoiseDraw",
    "BudgetRow",
    "UNIT_VARIANCE_ALPHA",
    "huber_loss",
    "huber_influence",
    "huber_normalizer",
    "huber_pdf",
    "huber_cdf",
    "huber_variance",
    "huber_central_mass",
    "huber_alpha_for_variance",
    "calibrate_alpha",
    "sample",
    "epsilon_huber",
    "epsilon_laplace",
    "epsilon_gaussian",
    "mechanism_budget",
    "budget_table",
    "privacy_gap",
    "privacy_gap_estimates",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: alpha used when a unit-variance Huber mechanism is requested. The Huber
#: variance is strictly greater than 1 for every finite alpha and tends to 1
#: as alpha grows; at alpha = 3 it is already ~1.0036, so alpha = 3 is the
#: working convention for "variance 1".
UNIT_VARIANCE_ALPHA = 3.0


class CalibrationError(ValueError):
    """Requested noise variance cannot be reached by any finite alpha."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


def _check_alpha(alpha) -> float:
    a = float(alpha)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")
    return a


def _as_finite_array(t) -> np.ndarray:
    x = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("t must be finite")
    return x


def _scalar_or_array(out: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or getattr(like, "ndim", None) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HuberParams:
    """Transition parameter of the Huber loss / distribution."""

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class Sensitivity:
    """l1 and l2 sensitivity of the protected query.

    For the single-entry neighboring relation l2 <= l1 always holds, which is
    checked on construction.
    """

    l1: float
    l2: float

    def __post_init__(self):
        if not (math.isfinite(self.l1) and math.isfinite(self.l2)):
            raise ValueError("sensitivities must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("sensitivities must be nonnegative")
        if self.l2 > self.l1 + 1e-12:
            raise ValueError(f"l2 sensitivity ({self.l2}) exceeds l1 ({self.l1})")

    @classmethod
    def scalar(cls, delta_f: float) -> "Sensitivity":
        """Sensitivity of a query whose output changes by at most delta_f in
        a single coordinate (then l1 = l2 = delta_f)."""
        return cls(delta_f, delta_f)


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) consumed by one calibrated noise release."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if math.isnan(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")


@dataclass(frozen=True)
class MechanismConfig:
    """Which noise distribution to add and its scale parameter.

    kind "huber" uses the transition parameter alpha as scale, "laplace" the
    scale beta, "gaussian" the standard deviation sigma. kind "none" adds no
    noise and carries no scale.
    """

    kind: Literal["huber", "laplace", "gaussian", "none"]
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in ("huber", "laplace", "gaussian", "none"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "none":
            if self.scale is not None:
                raise ValueError("kind 'none' takes no scale parameter")
        else:
            if self.scale is None or not math.isfinite(self.scale) or self.scale <= 0:
                raise ValueError(f"{self.kind} scale must be a positive real")

    @classmethod
    def huber(cls, alpha: float) -> "MechanismConfig":
        return cls("huber", float(alpha))

    @classmethod
    def laplace(cls, beta: float) -> "MechanismConfig":
        return cls("laplace", float(beta))

    @classmethod
    def gaussian(cls, sigma: float) -> "MechanismConfig":
        return cls("gaussian", float(sigma))

    @classmethod
    def none(cls) -> "MechanismConfig":
        return cls("none", None)

    @classmethod
    def from_variance(cls, kind: str, variance: float) -> "MechanismConfig":
        """Configuration whose noise has the given variance.

        For "huber" the alpha solving huber_variance(alpha) = variance is
        used; variances <= 1 are unreachable and fall back to the
        UNIT_VARIANCE_ALPHA convention.
        """
        if kind == "none":
            return cls.none()
        if variance <= 0 or not math.isfinite(variance):
            raise ValueError("variance must be a positive real")
        if kind == "gaussian":
            return cls.gaussian(math.sqrt(variance))
        if kind == "laplace":
            return cls.laplace(math.sqrt(variance / 2.0))
        if kind == "huber":
            alpha, _ = huber_alpha_for_variance(variance)
            return cls.huber(alpha)
        raise ValueError(f"unknown mechanism kind {kind!r}")

    def variance(self) -> float:
        """Variance of a single noise coordinate."""
        if self.kind == "none":
            return 0.0
        if self.kind == "gaussian":
            return self.scale**2
        if self.kind == "laplace":
            return 2.0 * self.scale**2
        return huber_variance(self.scale)


@dataclass
class NoiseDraw:
    """A vector of noise values."""

    values: np.ndarray


# ---------------------------------------------------------------------------
# Huber loss, influence, density
# ---------------------------------------------------------------------------


def huber_loss(t, alpha: float):
    """Huber loss: t^2/2 inside [-alpha, alpha], alpha*(|t| - alpha/2) beyond.

    Continuous and continuously differentiable at |t| = alpha. Accepts scalars
    or arrays.
    """
    a = _check_alpha(alpha)
    x = _as_finite_array(t)
    ax = np.abs(x)
    out = np.where(ax <= a, 0.5 * x * x, a * (ax - 0.5 * a))
    return _scalar_or_array(out, t)


def huber_influence(t, alpha: float):
    """Derivative of the Huber loss: sign(t) * min(|t|, alpha)."""
    a = _check_alpha(alpha)
    x = _as_finite_array(t)
    out = np.sign(x) * np.minimum(np.abs(x), a)
    return _scalar_or_array(out, t)


def huber_normalizer(alpha: float) -> float:
    """Normalizing constant kappa_alpha of the Huber density.

    kappa = [ (2/alpha) exp(-alpha^2/2) + sqrt(2 pi) (2 Phi(alpha) - 1) ]^-1.
    2 Phi(alpha) - 1 is evaluated as erf(alpha/sqrt(2)), which is free of
    cancellation for small alpha.
    """
    a = _check_alpha(alpha)
    return 1.0 / ((2.0 / a) * math.exp(-0.5 * a * a) + SQRT_2PI * erf(a * _INV_SQRT2))


def huber_pdf(t, alpha: float):
    """Density kappa_alpha * exp(-huber_loss(t, alpha)).

    Gaussian-shaped on [-alpha, alpha] with exponential tails; symmetric in t.
    """
    a = _check_alpha(alpha)
    k = huber_normalizer(a)
    out = k * np.exp(-np.asarray(huber_loss(t, a), dtype=float))
    return _scalar_or_array(out, t)


def huber_cdf(t, alpha: float):
    """Distribution function of the Huber density, in closed form.

    For t <= -alpha: (kappa/alpha) exp(alpha^2/2 + alpha t); inside
    (-alpha, alpha) the Gaussian segment; for t >= alpha the symmetric
    complement. Continuous, nondecreasing, F(0) = 1/2.
    """
    a = _check_alpha(alpha)
    x = _as_finite_array(t)
    k = huber_normalizer(a)
    scalar_in = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    lo = x <= -a
    hi = x >= a
    mid = ~(lo | hi)
    f_minus_a = (k / a) * math.exp(-0.5 * a * a)
    out[lo] = (k / a) * np.exp(0.5 * a * a + a * x[lo])
    out[mid] = f_minus_a + k * SQRT_2PI * (ndtr(x[mid]) - ndtr(-a))
    out[hi] = 1.0 - (k / a) * np.exp(0.5 * a * a - a * x[hi])
    if scalar_in:
        return float(out[0])
    return _scalar_or_array(out, t)


def huber_variance(alpha: float) -> float:
    """Variance of the Huber distribution, in closed form.

    kappa * [ sqrt(2 pi)(2 Phi(alpha) - 1) + 2 exp(-alpha^2/2)(2/alpha +
    2/alpha^3) ]. Strictly decreasing in alpha with limit 1 as alpha -> inf
    (the test suite validates both claims against adaptive quadrature).
    """
    a = _check_alpha(alpha)
    k = huber_normalizer(a)
    central = SQRT_2PI * erf(a * _INV_SQRT2)
    tails = 2.0 * math.exp(-0.5 * a * a) * (2.0 / a + 2.0 / a**3)
    return k * (central + tails)


def huber_central_mass(alpha: float) -> float:
    """Probability mass of the Gaussian segment [-alpha, alpha]."""
    a = _check_alpha(alpha)
    return huber_normalizer(a) * SQRT_2PI * erf(a * _INV_SQRT2)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


#: calibrate_alpha's initial bracket; its lower end shrinks to 1e-12 at most
_CALIBRATION_BRACKET = (1e-4, 60.0)


def calibrate_alpha(target_variance: float) -> float:
    """Solve huber_variance(alpha) = target_variance by bracketed root search.

    The variance decreases strictly from ~2/alpha^2 (alpha -> 0) to 1
    (alpha -> inf), so any target > 1 has a unique solution. Targets <= 1 are
    unreachable and raise CalibrationError, as do targets above about 2e24
    (alpha < 1e-12); callers wanting the "variance 1" convention should use
    UNIT_VARIANCE_ALPHA (see huber_alpha_for_variance). The search stops on a
    relative tolerance, so alpha is exact to a few ulps at every scale.
    """
    v = float(target_variance)
    if not math.isfinite(v) or v <= 0:
        raise ValueError("target variance must be a positive real")
    if v <= 1.0:
        raise CalibrationError(
            f"Huber variance exceeds 1 for every finite alpha; target {v} is "
            f"unreachable. Use the alpha={UNIT_VARIANCE_ALPHA} convention for "
            "unit-variance noise."
        )
    lo, hi = _CALIBRATION_BRACKET
    while huber_variance(lo) < v:
        lo /= 10.0
        if lo < 1e-12:
            raise CalibrationError(f"no bracket found for target variance {v}")
    alpha = brentq(
        lambda a: huber_variance(a) - v,
        lo,
        hi,
        xtol=np.finfo(float).tiny,
        rtol=4 * np.finfo(float).eps,
        maxiter=200,
    )
    resid = abs(huber_variance(alpha) - v)
    if resid > 1e-8 * max(1.0, v):
        raise ConsistencyError(
            f"calibration residual {resid:.3e} for target {v} (alpha={alpha})"
        )
    return float(alpha)


def huber_alpha_for_variance(variance: float) -> tuple[float, bool]:
    """alpha whose Huber noise has the given variance.

    Returns (alpha, convention_applied); convention_applied is True when the
    target lies in (0, 1] and UNIT_VARIANCE_ALPHA was substituted. Other
    targets raise calibrate_alpha's errors.
    """
    if 0.0 < variance <= 1.0:
        return UNIT_VARIANCE_ALPHA, True
    return calibrate_alpha(variance), False


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(config: MechanismConfig, k: int, rng: np.random.Generator) -> NoiseDraw:
    """Draw k i.i.d. noise values for the configured mechanism.

    Huber noise uses an exact two-part mixture: with probability
    huber_central_mass(alpha) a standard normal truncated to [-alpha, alpha]
    (inverse-CDF method), otherwise magnitude alpha + Exponential(rate alpha)
    with a uniform random sign. Deterministic given the generator state; kind
    "none" returns zeros without consuming the stream.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    kind = config.kind
    if kind == "none":
        return NoiseDraw(np.zeros(k))
    if kind == "laplace":
        return NoiseDraw(rng.laplace(0.0, config.scale, size=k))
    if kind == "gaussian":
        return NoiseDraw(rng.normal(0.0, config.scale, size=k))
    return NoiseDraw(_sample_huber(config.scale, k, rng))


@lru_cache(maxsize=64)
def _huber_sampler_constants(alpha: float) -> tuple[float, float]:
    return huber_central_mass(alpha), float(ndtr(-alpha))


def _sample_huber(alpha: float, k: int, rng: np.random.Generator) -> np.ndarray:
    a = _check_alpha(alpha)
    p_central, phi_lo = _huber_sampler_constants(a)
    central = rng.random(k) < p_central
    n_central = int(np.count_nonzero(central))
    out = np.empty(k)
    # Center: Phi^-1 of a uniform on [Phi(-alpha), Phi(alpha)]. Phi(-alpha)
    # underflows to 0 for alpha >~ 38, where a zero uniform would map to
    # -inf, so the result is clipped back onto the support.
    u = phi_lo + (1.0 - 2.0 * phi_lo) * rng.random(n_central)
    out[central] = np.clip(ndtri(u), -a, a)
    # Tails: the conditional density beyond alpha is alpha*exp(-alpha(t-alpha)).
    n_tail = k - n_central
    magnitude = a + rng.standard_exponential(n_tail) / a
    sign = np.where(rng.random(n_tail) < 0.5, -1.0, 1.0)
    out[~central] = sign * magnitude
    return out


# ---------------------------------------------------------------------------
# Privacy accounting
# ---------------------------------------------------------------------------


def epsilon_huber(params: HuberParams, sens: Sensitivity) -> PrivacyBudget:
    """Budget of the Huber mechanism: pure epsilon-DP with epsilon = alpha * l1."""
    return PrivacyBudget(params.alpha * sens.l1, 0.0)


def epsilon_laplace(beta: float, sens: Sensitivity) -> PrivacyBudget:
    """Budget of the Laplace mechanism: epsilon = l1 / beta, delta = 0."""
    b = float(beta)
    if not math.isfinite(b) or b <= 0:
        raise ValueError("beta must be a positive real")
    return PrivacyBudget(sens.l1 / b, 0.0)


def epsilon_gaussian(
    sigma: float,
    delta: float,
    sens: Sensitivity,
    log_base: Literal["natural", "base10"] = "natural",
) -> PrivacyBudget:
    """Budget of the Gaussian mechanism: epsilon = sqrt(2 log(1.25/delta)) * l2 / sigma.

    The standard bound uses the natural logarithm (the default). log_base
    "base10" evaluates the same expression with log10 instead, which shrinks
    epsilon by a factor sqrt(ln 10) ~= 1.5174; it exists only to reproduce
    budget tables computed that way.
    """
    s = float(sigma)
    d = float(delta)
    if not math.isfinite(s) or s <= 0:
        raise ValueError("sigma must be a positive real")
    if not 0.0 < d < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if log_base == "natural":
        log_term = math.log(1.25 / d)
    elif log_base == "base10":
        log_term = math.log10(1.25 / d)
    else:
        raise ValueError(f"log_base must be 'natural' or 'base10', got {log_base!r}")
    return PrivacyBudget(math.sqrt(2.0 * log_term) / s * sens.l2, d)


def mechanism_budget(
    config: MechanismConfig,
    sens: Sensitivity,
    delta: float = 1e-5,
    log_base: Literal["natural", "base10"] = "natural",
) -> PrivacyBudget:
    """Budget of one release through the configured mechanism.

    kind "none" adds no noise and offers no privacy (epsilon = inf).
    """
    if config.kind == "none":
        return PrivacyBudget(math.inf, 0.0)
    if config.kind == "huber":
        return epsilon_huber(HuberParams(config.scale), sens)
    if config.kind == "laplace":
        return epsilon_laplace(config.scale, sens)
    return epsilon_gaussian(config.scale, delta, sens, log_base)


@dataclass(frozen=True)
class BudgetRow:
    """Budgets of the three mechanisms calibrated to one noise variance."""

    variance: float
    gaussian: PrivacyBudget
    laplace: PrivacyBudget
    huber: PrivacyBudget
    gaussian_sigma: float
    laplace_beta: float
    huber_alpha: float
    huber_unit_variance_convention: bool


def budget_table(
    variances: Sequence[float],
    sens: Sensitivity,
    delta: float,
    log_base: Literal["natural", "base10"] = "natural",
) -> list[BudgetRow]:
    """Budgets of Gaussian, Laplace, and Huber noise of matched variance.

    Per variance v: sigma = sqrt(v), beta = sqrt(v/2), and alpha calibrated so
    the Huber variance equals v (UNIT_VARIANCE_ALPHA convention for v <= 1).
    """
    rows = []
    for v in variances:
        v = float(v)
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"variance must be positive, got {v}")
        sigma = math.sqrt(v)
        beta = math.sqrt(v / 2.0)
        alpha, convention = huber_alpha_for_variance(v)
        rows.append(
            BudgetRow(
                variance=v,
                gaussian=epsilon_gaussian(sigma, delta, sens, log_base),
                laplace=epsilon_laplace(beta, sens),
                huber=epsilon_huber(HuberParams(alpha), sens),
                gaussian_sigma=sigma,
                laplace_beta=beta,
                huber_alpha=alpha,
                huber_unit_variance_convention=convention,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Privacy-gap verifier
# ---------------------------------------------------------------------------

_GAP_GRID_POINTS = 100_000


def privacy_gap_estimates(alpha: float, delta_f: float) -> tuple[float, float]:
    """Two independent estimates of sup_t [rho(t + df) - rho(t)].

    Returns (closed_form, grid_max). The closed form takes the maximum of the
    per-interval suprema of the piecewise difference, split on df <= 2 alpha
    vs df > 2 alpha; the grid estimate maximizes numerically over a dense grid
    spanning all breakpoints plus the constant plateau t >= alpha.
    """
    a = _check_alpha(alpha)
    df = float(delta_f)
    if not math.isfinite(df) or df <= 0:
        raise ValueError("delta_f must be a positive real")
    bound = a * df
    if df <= 2.0 * a:
        interval_maxima = [
            -bound,
            0.5 * df * (df - 2.0 * a),
            bound - 0.5 * df * df,
            bound,
            bound,
        ]
    else:
        interval_maxima = [
            -bound,
            a * (2.0 * a - df),
            bound - 2.0 * a * a,
            bound,
            bound,
        ]
    closed = max(interval_maxima)
    grid = np.linspace(-df - 2.0 * a - 1.0, 2.0 * a + df + 1.0, _GAP_GRID_POINTS)
    breakpoints = np.array([-df - a, -a, a - df, a])
    ts = np.concatenate([grid, breakpoints])
    g = huber_loss(ts + df, a) - huber_loss(ts, a)
    return closed, float(np.max(g))


def privacy_gap(alpha: float, delta_f: float, tol: float = 1e-9) -> float:
    """Verified supremum of the Huber log-likelihood-ratio at shift delta_f.

    Computes the supremum by closed form and by grid maximization, checks that
    both equal alpha * delta_f to within tol, and returns it. Disagreement
    signals an implementation bug and raises ConsistencyError.
    """
    closed, numeric = privacy_gap_estimates(alpha, delta_f)
    bound = _check_alpha(alpha) * float(delta_f)
    if (
        abs(closed - numeric) > tol
        or abs(closed - bound) > tol
        or abs(numeric - bound) > tol
    ):
        raise ConsistencyError(
            f"privacy gap mismatch at alpha={alpha}, delta_f={delta_f}: "
            f"closed={closed!r}, grid={numeric!r}, alpha*delta_f={bound!r}"
        )
    return closed
