"""Noise mechanisms for differential privacy: Huber, Laplace, and Gaussian.

The Huber distribution has density kappa_alpha * exp(-rho_alpha(t)) where
rho_alpha is the Huber loss: quadratic on [-alpha, alpha] with exponential
(Laplace-like) tails beyond. Adding i.i.d. Huber noise to a query with
l1-sensitivity df yields epsilon-DP with epsilon = alpha * df, which
mechanism_budget computes alongside the classical Laplace and Gaussian
budgets. The module also provides an exact sampler, variance calibration,
and privacy_gap, which checks the epsilon bound by comparing the grid maximum
of rho(t + df) - rho(t) with alpha * df at 1e-9.

The sampler thins one standard-normal draw: it keeps z on [-alpha, alpha]
with probability kappa * sqrt(2 pi), which the Mills ratio inequality
Q(alpha) <= phi(alpha)/alpha bounds by 1, and moves every other value to an
exponential tail. The module needs numpy alone: the closed forms call math.erf
and math.erfc.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

__all__ = [
    "CalibrationError",
    "ConsistencyError",
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
    "mechanism_budget",
    "budget_table",
    "privacy_gap",
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


def _count(value, name: str, least: int = 0) -> int:
    """value as a Python int of at least `least`, or a ValueError naming the
    field: a float fails only deep inside a solve, a bool would run as a count
    of 0 or 1, and a narrow numpy integer would overflow in size arithmetic."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _real(value, name: str) -> float:
    """value as a Python float; a bool or a non-number is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real, got {value!r}")
    return float(value)


def _positive_real(value, name: str) -> float:
    """value as a Python float, or a ValueError naming the field for a bool, a
    non-number, or a value outside (0, largest float]: nan, inf, or an int
    that float() would raise OverflowError on. float and int are tried before
    the numbers.Real ABC, whose isinstance costs several times more."""
    if (isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real))
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be a positive real, got {value!r}")
    return float(value)


def _finite_array(value, name: str) -> np.ndarray:
    """value as a float array, or a ValueError naming it if its dtype is not
    bool, integer or real (a cast would drop a complex array's imaginary
    part) or an entry is nan or infinite."""
    x = np.asarray(value)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a real array, got dtype {x.dtype}")
    x = x.astype(float, copy=False)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _scalar_or_array(out: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or getattr(like, "ndim", None) == 0:
        return float(out)
    return out


def _norm_cdf(x: float) -> float:
    """Standard normal CDF as 0.5 * erfc(-x / sqrt(2)), which keeps its
    relative accuracy deep in the left tail where 0.5 + 0.5 * erf cancels."""
    return 0.5 * math.erfc(-x * _INV_SQRT2)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sensitivity:
    """l1 and l2 sensitivity of the protected query.

    For the single-entry neighboring relation l2 <= l1 always holds, which is
    checked on construction.
    """

    l1: float
    l2: float

    def __post_init__(self):
        for name in ("l1", "l2"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
            object.__setattr__(self, "scale", _positive_real(self.scale, f"{self.kind} scale"))

    @classmethod
    def huber(cls, alpha: float) -> "MechanismConfig":
        return cls("huber", alpha)

    @classmethod
    def laplace(cls, beta: float) -> "MechanismConfig":
        return cls("laplace", beta)

    @classmethod
    def gaussian(cls, sigma: float) -> "MechanismConfig":
        return cls("gaussian", sigma)

    @classmethod
    def none(cls) -> "MechanismConfig":
        return cls("none", None)

    @classmethod
    def from_variance(cls, kind: str, variance: float) -> "MechanismConfig":
        """Configuration whose noise has the given variance.

        sigma = sqrt(variance), beta = sqrt(variance / 2), and for "huber"
        the alpha of huber_alpha_for_variance.
        """
        if kind == "none":
            return cls.none()
        variance = _positive_real(variance, "variance")
        if kind == "gaussian":
            return cls.gaussian(math.sqrt(variance))
        if kind == "laplace":
            return cls.laplace(math.sqrt(variance / 2.0))
        if kind == "huber":
            return cls.huber(huber_alpha_for_variance(variance))
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
    a = _positive_real(alpha, "alpha")
    x = _finite_array(t, "t")
    ax = np.abs(x)
    out = np.where(ax <= a, 0.5 * x * x, a * (ax - 0.5 * a))
    return _scalar_or_array(out, t)


def huber_influence(t, alpha: float):
    """Derivative of the Huber loss: sign(t) * min(|t|, alpha)."""
    a = _positive_real(alpha, "alpha")
    x = _finite_array(t, "t")
    out = np.sign(x) * np.minimum(np.abs(x), a)
    return _scalar_or_array(out, t)


def huber_normalizer(alpha: float) -> float:
    """Normalizing constant kappa_alpha of the Huber density.

    kappa = [ (2/alpha) exp(-alpha^2/2) + sqrt(2 pi) (2 Phi(alpha) - 1) ]^-1.
    2 Phi(alpha) - 1 is evaluated as erf(alpha/sqrt(2)), which is free of
    cancellation for small alpha.
    """
    a = _positive_real(alpha, "alpha")
    return 1.0 / ((2.0 / a) * math.exp(-0.5 * a * a) + SQRT_2PI * math.erf(a * _INV_SQRT2))


def huber_pdf(t, alpha: float):
    """Density kappa_alpha * exp(-huber_loss(t, alpha)).

    Gaussian-shaped on [-alpha, alpha] with exponential tails; symmetric in t.
    """
    a = _positive_real(alpha, "alpha")
    k = huber_normalizer(a)
    out = k * np.exp(-huber_loss(t, a))
    return _scalar_or_array(out, t)


def huber_cdf(t, alpha: float):
    """Distribution function of the Huber density, in closed form.

    For t <= -alpha: (kappa/alpha) exp(alpha^2/2 + alpha t); inside
    (-alpha, alpha) the Gaussian segment; for t >= alpha the symmetric
    complement. Continuous, nondecreasing, F(0) = 1/2.
    """
    a = _positive_real(alpha, "alpha")
    x = _finite_array(t, "t")
    k = huber_normalizer(a)
    out = np.empty_like(x)
    lo = x <= -a
    hi = x >= a
    mid = ~(lo | hi)
    f_minus_a = (k / a) * math.exp(-0.5 * a * a)
    out[lo] = (k / a) * np.exp(0.5 * a * a + a * x[lo])
    phi_mid = np.array([_norm_cdf(v) for v in x[mid].tolist()])
    out[mid] = f_minus_a + k * SQRT_2PI * (phi_mid - _norm_cdf(-a))
    out[hi] = 1.0 - (k / a) * np.exp(0.5 * a * a - a * x[hi])
    return _scalar_or_array(out, t)


def huber_variance(alpha: float) -> float:
    """Variance of the Huber distribution, in closed form.

    kappa * [ sqrt(2 pi)(2 Phi(alpha) - 1) + 2 exp(-alpha^2/2)(2/alpha +
    2/alpha^3) ]. Strictly decreasing in alpha with limit 1 as alpha -> inf
    (the test suite validates both claims against adaptive quadrature).
    """
    a = _positive_real(alpha, "alpha")
    k = huber_normalizer(a)
    central = SQRT_2PI * math.erf(a * _INV_SQRT2)
    tails = 2.0 * math.exp(-0.5 * a * a) * (2.0 / a + 2.0 / a**3)
    return k * (central + tails)


def huber_central_mass(alpha: float) -> float:
    """Probability mass of the Gaussian segment [-alpha, alpha]."""
    a = _positive_real(alpha, "alpha")
    return huber_normalizer(a) * SQRT_2PI * math.erf(a * _INV_SQRT2)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


#: calibrate_alpha's initial bracket; its lower end shrinks to 1e-12 at most
_CALIBRATION_BRACKET = (1e-4, 60.0)


def calibrate_alpha(target_variance: float) -> float:
    """Solve huber_variance(alpha) = target_variance by bisection.

    The variance decreases strictly from ~2/alpha^2 (alpha -> 0) to 1
    (alpha -> inf), so any target > 1 has a unique solution. Targets <= 1 are
    unreachable and raise CalibrationError, as do targets above about 2e24
    (alpha < 1e-12); callers wanting the "variance 1" convention should use
    UNIT_VARIANCE_ALPHA (see huber_alpha_for_variance). The bisection keeps
    huber_variance(lo) >= target > huber_variance(hi) and halves the bracket
    until lo and hi are adjacent doubles, then returns whichever of the two
    has the smaller residual: the closest double to the closed form's root.
    """
    v = _positive_real(target_variance, "target_variance")
    if v <= 1.0:
        raise CalibrationError(
            f"Huber variance exceeds 1 for every finite alpha; target {v} is "
            f"unreachable. Use the alpha={UNIT_VARIANCE_ALPHA} convention for "
            "unit-variance noise."
        )
    lo, hi = _CALIBRATION_BRACKET
    var_lo = huber_variance(lo)
    while var_lo < v:
        lo /= 10.0
        if lo < 1e-12:
            raise CalibrationError(f"no bracket found for target variance {v}")
        var_lo = huber_variance(lo)
    var_hi = huber_variance(hi)  # rounds to 1.0, below every target > 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        var_mid = huber_variance(mid)
        if var_mid >= v:
            lo, var_lo = mid, var_mid
        else:
            hi, var_hi = mid, var_mid
    alpha = lo if var_lo - v <= v - var_hi else hi
    resid = abs(huber_variance(alpha) - v)
    if resid > 1e-8 * max(1.0, v):
        raise ConsistencyError(
            f"calibration residual {resid:.3e} for target {v} (alpha={alpha})"
        )
    return alpha


def _unit_variance_convention(variance: float) -> bool:
    """True for a Huber target variance in (0, 1], which no finite alpha
    reaches and which therefore runs UNIT_VARIANCE_ALPHA."""
    return 0.0 < variance <= 1.0


def huber_alpha_for_variance(variance: float) -> float:
    """The one variance-to-alpha rule: UNIT_VARIANCE_ALPHA in [0, 1] (0 is kind
    "none", whose IRLS loss takes it too), else calibrate_alpha and its errors."""
    variance = _real(variance, "variance")
    if variance == 0.0 or _unit_variance_convention(variance):
        return UNIT_VARIANCE_ALPHA
    return calibrate_alpha(variance)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(config: MechanismConfig, k: int, rng: np.random.Generator | int) -> NoiseDraw:
    """Draw k i.i.d. noise values for the configured mechanism from rng, a
    seed or Generator.

    Huber noise thins k standard normals z with k uniforms u: z is kept where
    |z| <= alpha and u < kappa * sqrt(2 pi), which leaves the density
    kappa * exp(-t^2/2) on [-alpha, alpha] and is exact at every alpha since
    kappa * sqrt(2 pi) <= 1 (Mills ratio). Every other value becomes
    alpha + Exponential(rate alpha) with the sign of z, from one exponential
    block. Deterministic given the generator state; kind "none" returns zeros
    without consuming the stream.
    """
    k = _count(k, "k")
    rng = np.random.default_rng(rng)
    kind = config.kind
    if kind == "none":
        return NoiseDraw(np.zeros(k))
    if kind == "laplace":
        return NoiseDraw(rng.laplace(0.0, config.scale, size=k))
    if kind == "gaussian":
        return NoiseDraw(rng.normal(0.0, config.scale, size=k))
    return NoiseDraw(_sample_huber(config.scale, k, rng))


def _sample_huber(a: float, k: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(k)
    u = rng.random(k)
    tail = np.flatnonzero((np.abs(z) > a) | (u >= huber_normalizer(a) * SQRT_2PI))
    # beyond alpha the density is alpha * exp(-alpha (t - alpha)); the sign of
    # z does not depend on |z| or u, so it is a fair coin
    z[tail] = np.copysign(a + rng.standard_exponential(tail.size) / a, z[tail])
    return z


# ---------------------------------------------------------------------------
# Privacy accounting
# ---------------------------------------------------------------------------


def mechanism_budget(
    config: MechanismConfig,
    sens: Sensitivity,
    delta: float = 1e-5,
    log_base: Literal["natural", "base10"] = "natural",
) -> PrivacyBudget:
    """(epsilon, delta) of one release through the configured mechanism.

    Huber noise is pure epsilon-DP with epsilon = alpha * l1, Laplace noise
    with epsilon = l1 / beta. Gaussian noise takes the classical bound
    epsilon = sqrt(2 log(1.25/delta)) * l2 / sigma for delta in (0, 1), with
    the natural logarithm by default; log_base "base10" evaluates it with
    log10 instead, which shrinks epsilon by sqrt(ln 10) ~= 1.5174 and exists
    only to reproduce budget tables computed that way. kind "none" adds no
    noise and offers no privacy (epsilon = inf). The scale was checked when
    the config was built.
    """
    if config.kind == "none":
        return PrivacyBudget(math.inf, 0.0)
    if config.kind == "huber":
        return PrivacyBudget(config.scale * sens.l1, 0.0)
    if config.kind == "laplace":
        return PrivacyBudget(sens.l1 / config.scale, 0.0)
    d = _real(delta, "delta")
    if not 0.0 < d < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    log = {"natural": math.log, "base10": math.log10}.get(log_base)
    if log is None:
        raise ValueError(f"log_base must be 'natural' or 'base10', got {log_base!r}")
    return PrivacyBudget(math.sqrt(2.0 * log(1.25 / d)) / config.scale * sens.l2, d)


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

    Per variance v, MechanismConfig.from_variance calibrates the three
    mechanisms (sigma = sqrt(v), beta = sqrt(v/2), huber_alpha_for_variance)
    and mechanism_budget accounts them.
    """
    rows = []
    for v in (_positive_real(v, "variance") for v in variances):
        gaussian, laplace, huber = (
            MechanismConfig.from_variance(kind, v) for kind in ("gaussian", "laplace", "huber")
        )
        rows.append(
            BudgetRow(
                variance=v,
                gaussian=mechanism_budget(gaussian, sens, delta, log_base),
                laplace=mechanism_budget(laplace, sens),
                huber=mechanism_budget(huber, sens),
                gaussian_sigma=gaussian.scale,
                laplace_beta=laplace.scale,
                huber_alpha=huber.scale,
                huber_unit_variance_convention=_unit_variance_convention(v),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Privacy-gap verifier
# ---------------------------------------------------------------------------

_GAP_GRID_POINTS = 100_000
#: largest |grid maximum - alpha * delta_f| that privacy_gap and
#: verify-privacy accept
_GAP_TOL = 1e-9


def _gap_check(alpha: float, delta_f: float) -> tuple[float, float, bool]:
    """(grid maximum of rho(t + df) - rho(t), its deviation from
    alpha * delta_f, passed): the one pass rule of privacy_gap and
    verify-privacy, under which a NaN grid maximum fails.

    The grid spans every breakpoint (-df - alpha, -alpha, alpha - df, alpha),
    which are added to it exactly, and reaches into both constant plateaus.
    A loss that overflows makes the maximum NaN without a numpy warning: the
    check reports it as a failure itself.
    """
    a = _positive_real(alpha, "alpha")
    df = _positive_real(delta_f, "delta_f")
    grid = np.linspace(-df - 2.0 * a - 1.0, 2.0 * a + df + 1.0, _GAP_GRID_POINTS)
    breakpoints = np.array([-df - a, -a, a - df, a])
    ts = np.concatenate([grid, breakpoints])
    with np.errstate(over="ignore", invalid="ignore"):
        g_max = float(np.max(huber_loss(ts + df, a) - huber_loss(ts, a)))
    deviation = abs(g_max - a * df)
    return g_max, deviation, deviation <= _GAP_TOL


def privacy_gap(alpha: float, delta_f: float) -> float:
    """Verified supremum of the Huber log-likelihood ratio at shift delta_f.

    Maximizes rho(t + df) - rho(t) over a dense grid, checks that the maximum
    equals alpha * delta_f to within _GAP_TOL, and returns alpha * delta_f. A
    mismatch signals an implementation bug and raises ConsistencyError.
    """
    grid, _, passed = _gap_check(alpha, delta_f)
    bound = float(alpha) * float(delta_f)
    if not passed:
        raise ConsistencyError(
            f"privacy gap mismatch at alpha={alpha}, delta_f={delta_f}: "
            f"grid={grid!r}, alpha*delta_f={bound!r}"
        )
    return bound
