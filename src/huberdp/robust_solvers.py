"""Ridge regression and regularized IRLS for the Huber loss.

These are the inner solvers of the matrix-completion algorithms: a plain
ridge step (AtA + lambda I)^-1 (At y + t) and the regularized iteratively
re-weighted least squares loop that minimizes
sum_i rho_alpha(y_i - a_i theta) + (lambda/2) ||theta||^2 by repeated
weighted ridge solves, optionally with a noise vector added to the
right-hand side of every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import MechanismConfig, NoiseDraw, huber_loss, sample

__all__ = [
    "RidgeProblem",
    "IrlsConfig",
    "WeightDiagonal",
    "ridge_solve",
    "irls_weights",
    "r_irls",
    "huber_objective",
]

#: residual magnitudes below this use the analytic limit weight 1.
ZERO_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class RidgeProblem:
    """A dense least-squares system with Tikhonov regularizer lambda.

    lam > 0 guarantees that the normal-equation matrix AtA + lambda I is
    positive definite regardless of the rank of the design.
    """

    design: np.ndarray
    targets: np.ndarray
    lam: float

    def __post_init__(self):
        a = np.asarray(self.design, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("design must be a p x q matrix with p, q >= 1")
        if y.shape != (a.shape[0],):
            raise ValueError("targets must be a vector of length p")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be a nonnegative real")
        object.__setattr__(self, "design", a)
        object.__setattr__(self, "targets", y)


@dataclass(frozen=True)
class IrlsConfig:
    """Parameters of the regularized IRLS loop.

    alpha is the Huber-loss transition, lam the regularizer, iterations the
    fixed iteration count K, and noise the mechanism whose draw is added to
    the right-hand side of every iteration (kind "none" for the noiseless
    solver).
    """

    alpha: float
    lam: float
    iterations: int = 20
    noise: MechanismConfig = MechanismConfig.none()

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError("alpha must be a positive real")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be a nonnegative real")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class WeightDiagonal:
    """Diagonal of IRLS weights, each in (0, 1]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size and (np.any(w <= 0) or np.any(w > 1)):
            raise ValueError("weights must lie in (0, 1]")
        object.__setattr__(self, "weights", w)


def ridge_solve(problem: RidgeProblem, noise: NoiseDraw | None = None) -> np.ndarray:
    """Solve (AtA + lam I) theta = At y + t with numpy's LAPACK solve.

    t is the zero vector when noise is absent. Raises numpy's LinAlgError when
    the system is singular. With lam = 0 a rank-deficient design is often
    singular only up to rounding, and then the solve returns a meaningless
    huge theta instead of raising; lam > 0 rules that out.
    """
    a, y, lam = problem.design, problem.targets, problem.lam
    q = a.shape[1]
    gram = a.T @ a + lam * np.eye(q)
    rhs = a.T @ y
    if noise is not None:
        t = np.asarray(noise.values, dtype=float)
        if t.shape != (q,):
            raise ValueError(f"noise must have length {q}, got shape {t.shape}")
        rhs = rhs + t
    return np.linalg.solve(gram, rhs)


def irls_weights(residuals, alpha: float) -> WeightDiagonal:
    """Huber IRLS weights psi_alpha(r)/r = min(1, alpha/|r|).

    Residuals below ZERO_RESIDUAL_TOL in magnitude get weight 1, the analytic
    limit of psi_alpha(r)/r at r = 0.
    """
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be a positive real")
    r = np.abs(np.asarray(residuals, dtype=float))
    w = np.ones_like(r)
    big = r >= ZERO_RESIDUAL_TOL
    w[big] = np.minimum(1.0, alpha / r[big])
    return WeightDiagonal(w)


def r_irls(y, a, config: IrlsConfig, rng: np.random.Generator) -> np.ndarray:
    """Regularized IRLS estimate of theta from y ~ A theta.

    Starts from theta ~ N(0, I) drawn from rng, then runs config.iterations
    rounds of: residual weights, noise draw t, and the weighted ridge update
    theta <- (At W A + lam I)^-1 (At W y + t). With noise kind "none" the
    iteration is the classical majorize-minimize scheme for the regularized
    Huber objective and never increases it.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise ValueError("a must be a p x q matrix")
    if y.shape != (a.shape[0],):
        raise ValueError("y must be a vector of length p")
    if config.lam <= 0:
        raise ValueError("r_irls requires lam > 0")
    q = a.shape[1]
    eye = config.lam * np.eye(q)
    theta = rng.standard_normal(q)
    for _ in range(config.iterations):
        w = irls_weights(y - a @ theta, config.alpha).weights
        t = sample(config.noise, q, rng).values
        gram = a.T @ (a * w[:, None]) + eye
        rhs = a.T @ (w * y) + t
        theta = np.linalg.solve(gram, rhs)
    return theta


def huber_objective(y, a, theta, alpha: float, lam: float) -> float:
    """Objective descended by the noiseless IRLS iteration:
    sum_i rho_alpha(y_i - a_i theta) + (lam/2) ||theta||^2."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    resid = y - a @ theta
    return float(np.sum(huber_loss(resid, alpha)) + 0.5 * lam * float(theta @ theta))
