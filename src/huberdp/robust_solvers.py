"""Ridge regression and regularized IRLS for the Huber loss.

Each has one implementation. _ridge solves stacks of ridge systems from
their normal equations [A^T A | A^T y], for lrmc's ridge half-sweeps and for
ridge_solve. _irls runs the regularized iteratively re-weighted least
squares loop that minimizes
sum_i rho_alpha(y_i - a_i theta) + (lambda/2) ||theta||^2 by repeated weighted
ridge solves, optionally adding noise to every right-hand side, for lrmc's
IRLS half-sweeps once per count group and for r_irls on one system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanisms import MechanismConfig, _count, _finite_array, _positive_real, huber_loss, sample

__all__ = [
    "RidgeProblem",
    "IrlsConfig",
    "ridge_solve",
    "irls_weights",
    "r_irls",
    "huber_objective",
]


@dataclass(frozen=True)
class RidgeProblem:
    """A dense least-squares system with Tikhonov regularizer lambda.

    lam must be a positive real, as for every ridge system the package
    solves: it makes the normal-equation matrix AtA + lambda I positive
    definite regardless of the rank of the design.
    """

    design: np.ndarray
    targets: np.ndarray
    lam: float

    def __post_init__(self):
        a = _finite_array(self.design, "design")
        y = _finite_array(self.targets, "targets")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("design must be a p x q matrix with p, q >= 1")
        if y.shape != (a.shape[0],):
            raise ValueError("targets must be a vector of length p")
        object.__setattr__(self, "design", a)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "lam", _positive_real(self.lam, "lam"))


@dataclass(frozen=True)
class IrlsConfig:
    """Parameters of the regularized IRLS loop.

    alpha is the Huber-loss transition, lam > 0 the regularizer, iterations the
    fixed iteration count K, and noise the mechanism whose draw is added to
    the right-hand side of every iteration (kind "none" for the noiseless
    solver).
    """

    alpha: float
    lam: float
    iterations: int = 20
    noise: MechanismConfig = MechanismConfig.none()

    def __post_init__(self):
        for name in ("alpha", "lam"):
            object.__setattr__(self, name, _positive_real(getattr(self, name), name))
        object.__setattr__(self, "iterations", _count(self.iterations, "iterations", 1))


# _irls updates the normal equations of a p x q system by the rows whose
# weight changed once q >= _UPDATE_RANK and p q >= _UPDATE_ENTRIES
_UPDATE_RANK = 8
_UPDATE_ENTRIES = 12_000
_CHUNK = 256  # changed rows per product of that update
# _ridge solves systems of rank r <= _ELIMINATION_RANK by batched elimination
_ELIMINATION_RANK = 8


def ridge_solve(problem: RidgeProblem, noise: np.ndarray | None = None) -> np.ndarray:
    """Solve (AtA + lam I) theta = At y + t: a ridge half-sweep's step on one
    target. Its normal [AtA | At y] is the one product At [A | y], as a
    half-sweep's group forms it, and _ridge solves it, so a one-target ridge
    half returns this theta bit for bit.

    t is noise, a finite length-q array; without it t is absent, not a zero
    vector. Both steps run under the policy a half-sweep sets, overflow and
    invalid values ignored, so finite input that overflows raises only
    FloatingPointError for its non-finite theta, as r_irls does.
    """
    a, y = problem.design, problem.targets
    q = a.shape[1]
    t = None
    if noise is not None:
        t = _finite_array(noise, "noise")
        if t.shape != (q,):
            raise ValueError(f"noise must have length {q}, got shape {t.shape}")
        t = t[None]
    rows = np.concatenate((a, y[:, None]), axis=1)[None]  # [A | y]
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _ridge(rows[..., :q].transpose(0, 2, 1) @ rows, t, problem.lam)[0]
    if not np.isfinite(theta).all():
        raise FloatingPointError("ridge_solve diverged: non-finite theta")
    return theta


def _huber_weights(abs_residuals, alpha):
    """psi_alpha(r)/r = alpha / max(|r|, alpha), written over abs_residuals;
    exactly 1 for |r| <= alpha, and alpha > 0 never divides by zero."""
    np.maximum(abs_residuals, alpha, out=abs_residuals)
    return np.divide(alpha, abs_residuals, out=abs_residuals)


def _weight_change(rows, w, prev_w, changed):
    """sum_i (w_i - prev_w_i) [a_i; y_i] a_i^T per system over the rows whose
    weight changed: rows (g, p, q+1) holds [A | y] of the g systems, w and
    prev_w (g, p) the weights of two iterations, and changed the flat
    positions where they differ, by system then row. The changed rows are
    gathered into one (g, m, q+1) block, m the largest count of a system; a
    system with fewer is padded with its row 0 at a step of 0, whose
    products add exact zeros after its own terms. The block is multiplied
    _CHUNK rows at a time: OpenBLAS splits a longer inner sum at places that
    depend on its length, so padding would move the split and change a
    system's bits (seen at rank 32 from about 1,000 rows). So a system's
    theta is independent of its stack mates only on a BLAS that sums an
    inner length of at most _CHUNK the same way at every length: checked on
    1,820 padded shapes with OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell
    kernels) on 1 and 2 threads, not on other kernels or thread counts.
    Padding every system to a multiple of _CHUNK would fix the shapes;
    done through the stacked branch below, it made a single 2000 x 10
    system 1.18x slower than the full form."""
    g, p = w.shape
    step = np.take(w, changed) - np.take(prev_w, changed)
    index, width = changed, changed.size
    if g > 1:
        starts = np.searchsorted(changed, np.arange(0, g * p, p))
        counts = np.diff(starts, append=changed.size)
        width = counts.max()
        slots = np.arange(changed.size) + np.repeat(np.arange(0, g * width, width) - starts, counts)
        index = np.repeat(np.arange(0, g * p, p), width)  # each system's row 0
        index[slots] = changed
        padded = np.zeros(g * width)
        padded[slots] = step
        step = padded
    block = np.take(rows.reshape(g * p, -1), index, axis=0).reshape(g, width, -1)
    weighted = np.multiply(block, step.reshape(g, width, 1)).transpose(0, 2, 1)
    update = weighted[..., :_CHUNK] @ block[:, :_CHUNK, :-1]
    for start in range(_CHUNK, width, _CHUNK):
        update += weighted[..., start:start + _CHUNK] @ block[:, start:start + _CHUNK, :-1]
    return update


def _irls(ag, vals, theta, noise, lam, alpha, iterations):
    """Regularized Huber IRLS on a stack of g same-shape systems: designs ag
    (g, p, q), targets vals (g, p), starts theta (g, q), noise (g, K, q) or
    None, and a finite alpha. Iteration k solves
    (A^T W A + lam I) theta = A^T W y + noise[:, k],
    W = diag(min(1, alpha/|y - A theta|)) from the previous iterate, in one
    np.linalg.solve. Without noise the weights fix the next theta, so once
    they repeat exactly the loop stops, by one check for both forms below:
    every later iteration would recompute the same theta bit for bit.

    The full form stacks the targets under the transposed design once,
    [A | y]^T (g, q+1, p). Each iteration scales it by the weights into one
    buffer and multiplies that by ag, one BLAS dgemm per system: rows :q of
    the product are A^T W A and row q is (A^T W y)^T. The residual, its
    absolute value and the weights are written in place into the product
    ag @ theta. The noise is added in place into the right-hand side, and
    lam I as lam added to a writable view of each Gram's diagonal: a full
    (q, q) add into the strided Gram view took as long as the product itself
    on narrow rank-32 groups.

    A stack of systems with at least _UPDATE_RANK columns and
    _UPDATE_ENTRIES entries p q forms that product at iteration 0 only.
    After that only rows near or beyond the Huber transition change weight,
    so each later iteration adds sum_i (w_i - w'_i) [a_i; y_i] a_i^T
    over just the rows whose weight changed (_weight_change) to the running
    [A^T W A; (A^T W y)^T], and the noise and lam go into a copy of it. This
    form keeps [A | y] row by row, (g, p, q+1), so that one take gathers the
    changed rows, and iteration 0 multiplies its weighted copy, transposed,
    by ag: the full form's (g, q+1, p) layout, as a strided view of it or
    as a second copy, made r_irls on 2000 x 10 designs 5-20% slower. A
    noiseless stack stops by the same check as the full form, but not
    always at the same iteration: the last bits of the running sums moved
    the stop by one on 1200 x 10 systems, and on 1500 x 32 systems it came
    after 12-13 iterations where the full form's weights cycled at the last
    bit through all K = 60 (theta agreed to 3e-15 relative). Adding weight changes
    keeps theta within about 1e-14 of the full form even with rows at 1e15,
    where subtracting down-weighted rows from a matrix that holds them at
    weight 1 does not. The choice reads only (p, q), so a system solves the
    same on a stack of any size (on the BLAS builds _weight_change names).
    The constants follow the measured crossovers (2 vCPUs, OpenBLAS on 1
    thread, stacks of 1 and 8): the update broke even at p q of about
    10,000 at every q from 8 to 64 (p = 1250, 800-1000, 625, 300 and 160
    for q = 8, 10, 16, 32 and 64) and was faster above it, by 10-45% at
    p q of 16,000-20,000; at q = 5 it did not win up to p = 6400, since the full
    product of 6 rows is cheap. _UPDATE_ENTRIES keeps a 20% margin above
    break-even. Every synth-irls count group (rank 5) keeps the full form.
    """
    g, p, q = ag.shape
    tall = q >= _UPDATE_RANK and p * q >= _UPDATE_ENTRIES
    if tall:
        # [A | y] row by row, so that one take gathers the changed rows
        rows = np.concatenate((ag, vals[..., None]), axis=2)
    else:
        aty = np.empty((g, q + 1, p))
        aty[:, :q] = ag.transpose(0, 2, 1)
        aty[:, q] = vals
        weighted = np.empty_like(aty)
    prev_w = None
    for k in range(iterations):
        w = (ag @ theta[..., None])[..., 0]
        np.subtract(vals, w, out=w)
        w = _huber_weights(np.abs(w, out=w), alpha)
        if noise is None and prev_w is not None and np.array_equal(w, prev_w):
            break
        if not tall:
            normal = np.multiply(aty, w[:, None, :], out=weighted) @ ag
        else:
            if prev_w is None:
                running = np.multiply(rows, w[..., None]).transpose(0, 2, 1) @ ag
            else:
                changed = np.flatnonzero(w != prev_w)
                if changed.size:
                    running += _weight_change(rows, w, prev_w, changed)
            normal = running.copy()
        prev_w = w
        gram, rhs = normal[:, :q], normal[:, q, :, None]
        if noise is not None:
            rhs += noise[:, k, :, None]
        diagonal = np.einsum("gii->gi", gram)  # a writable view
        diagonal += lam
        theta = np.linalg.solve(gram, rhs)[..., 0]
    return theta


def _ridge(normal, noise, lam):
    """theta (n, r) of the n ridge systems (A^T A + lam I) theta = A^T y + t
    whose [A^T A | A^T y] normal (n, r, r+1) holds, noise t (n, r) or None
    (absent); normal gets the noise and lam added in place, once.

    Above rank _ELIMINATION_RANK one np.linalg.solve solves the stack. Up to
    it one Gaussian elimination without pivoting solves all n systems, with
    the systems along the last axis of a (r, r+1, n) copy, so each of its
    O(r^2) steps is one numpy operation over every system. np.linalg.solve
    pays LAPACK's call overhead per system instead: on 500 rank-5 systems
    (BLAS on 1 thread) it took 222 us, this layout 109 us, and the same
    elimination laid out (n, r, r+1) 289 us. Whole ridge halves on 500-1,000
    targets of 25-100 entries (2 vCPUs, BLAS on 1 thread) took 0.57-0.84 of
    the LAPACK time up to rank 8, 0.68-0.84 at ranks 10 and 12 and 0.96-1.06
    at rank 16, so the crossover is near 16; 8 keeps the rank-12 thread
    tests on LAPACK. Every A^T A + lam I with lam > 0 is symmetric positive
    definite, so its pivots stay positive without row exchanges. Either way
    a system's theta does not depend on the others in the stack.

    The elimination runs under the policy np.linalg.solve sets for its
    LAPACK call: overflow, division and underflow ignored. Invalid values
    are ignored too; here they arise only from non-finite input, which
    LAPACK also turns into NaN without a warning (np.linalg.solve raises
    only on an exact zero pivot, which lam > 0 rules out unless rounding
    loses lam against the Gram's diagonal). So neither solve
    adds a warning to a diverging run, and the solvers report its
    non-finite theta.
    """
    r = normal.shape[1]
    if noise is not None:
        normal[..., r] += noise
    diagonal = np.einsum("nii->ni", normal[..., :r])  # a writable view
    diagonal += lam
    if r > _ELIMINATION_RANK:
        return np.linalg.solve(normal[..., :r], normal[..., r:])[..., 0]
    m = normal.transpose(1, 2, 0).copy()
    with np.errstate(all="ignore"):
        # row k over its pivot, then out of the rows below; then back
        # substitution up column r, which ends as theta
        for k in range(r):
            m[k, k + 1:] /= m[k, k]
            m[k + 1:, k + 1:] -= m[k + 1:, k, None] * m[k, None, k + 1:]
        for k in range(r - 1, 0, -1):
            m[:k, r] -= m[:k, k] * m[k, r]
    return m[:, r].T


def _system(y, a) -> tuple[np.ndarray, np.ndarray]:
    """y and a of y ~ A theta: a length-p vector and a p x q matrix, p >= 0."""
    y, a = _finite_array(y, "y"), _finite_array(a, "a")
    if a.ndim != 2:
        raise ValueError("a must be a p x q matrix")
    if y.shape != (a.shape[0],):
        raise ValueError("y must be a vector of length p")
    return y, a


def irls_weights(residuals, alpha: float) -> np.ndarray:
    """Huber IRLS weights psi_alpha(r)/r = min(1, alpha/|r|), 1 at r = 0.

    Raises ValueError for a non-finite residual, and for a weight that
    underflows to 0 (alpha tiny against |r|), which would drop its row.
    """
    alpha = _positive_real(alpha, "alpha")
    w = _huber_weights(np.abs(_finite_array(residuals, "residuals")), alpha)
    if not ((w > 0) & (w <= 1)).all():
        raise ValueError("weights must lie in (0, 1]")
    return w


def r_irls(y, a, config: IrlsConfig, rng: np.random.Generator | int) -> np.ndarray:
    """Regularized IRLS estimate of theta from y ~ A theta.

    Draws from rng, a seed or Generator, the start theta ~ N(0, I), then the
    noise of all K = config.iterations rounds in one sample call (row k is
    round k's t), and runs the engine's group step, _irls, on this one
    system: K rounds of residual weights, then
    theta <- (At W A + lam I)^-1 (At W y + t). This is the layout of one
    target in an lrmc column half-sweep. With noise kind "none" nothing
    follows the start draw and t is absent, so the loop stops once its
    weights repeat, as a noiseless engine group does; the iteration
    is then the classical majorize-minimize scheme for the regularized Huber
    objective and never increases it. Raises ValueError when y or a has a
    non-finite entry, and FloatingPointError, with no warning (the loop runs
    under ridge_solve's error policy), when finite input overflows into a
    non-finite theta.
    """
    y, a = _system(y, a)
    q, k = a.shape[1], config.iterations
    rng = np.random.default_rng(rng)
    start = rng.standard_normal((1, q))
    noise = None
    if config.noise.kind != "none":
        noise = sample(config.noise, k * q, rng).values.reshape(1, k, q)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _irls(a[None], y[None], start, noise, config.lam, config.alpha, k)[0]
    if not np.isfinite(theta).all():
        raise FloatingPointError("r_irls diverged: non-finite theta")
    return theta


def huber_objective(y, a, theta, alpha: float, lam: float) -> float:
    """Objective descended by the noiseless IRLS iteration:
    sum_i rho_alpha(y_i - a_i theta) + (lam/2) ||theta||^2, lam > 0."""
    y, a = _system(y, a)
    theta = _finite_array(theta, "theta")
    if theta.shape != (a.shape[1],):
        raise ValueError("theta must be a vector of length q")
    penalty = 0.5 * _positive_real(lam, "lam") * float(theta @ theta)
    return float(np.sum(huber_loss(y - a @ theta, alpha)) + penalty)
