"""Differentially private low-rank matrix completion.

Two alternating solvers estimate factors U (m x r) and V (n x r) of a
partially observed matrix X, and both run one engine. Every sweep updates
each row of U by a noiseless ridge solve against the fixed V, then each
column of V by K iterations of regularized IRLS under the Huber loss with
transition alpha against the fixed U, adding a fresh mechanism noise vector
to the right-hand side of every iteration. Noisy alternating least squares
is the case alpha = infinity (every weight 1) with K = 1, where the IRLS
update is the ridge update; irls_huber uses the resolved loss alpha and
K = inner_iterations. Without noise, a group of columns stops iterating
once its IRLS weights repeat exactly, which leaves the result of all K
iterations unchanged. Noise enters only the column half-sweep; the row
half-sweep never touches the noise stream, which the draw counters make
auditable.

Sweep s draws from one stream, split from (solver entropy, s) by a
SeedSequence, in at most two block calls: the (n, r) IRLS starting points
N(0, I) first, then the (n, K, r) mechanism noise (K = 1 for ALS). Column j
reads slice j of each block, so results are independent of the order in
which columns are processed. A solver call runs its larger half-sweeps on a
thread per usable CPU and joins them before it returns; the factors are the
same bit for bit on any number of CPUs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .mechanisms import MechanismConfig, huber_alpha_for_variance, sample
from .robust_solvers import _huber_weights

__all__ = [
    "ObservedMatrix",
    "FactorPair",
    "SolverConfig",
    "DrawCounters",
    "SolverDivergence",
    "noisy_als",
    "irls_huber",
    "rmse",
    "complete",
    "completion_objective",
    "resolve_loss_alpha",
]


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """A partially observed m x n matrix stored as coordinate triplets.

    rows, cols, values are parallel arrays over the observed index set; no
    duplicate coordinate is allowed. value_range is the nominal ratings scale
    (lo, hi), kept as metadata for clipping and sensitivity assumptions; the
    stored values themselves are not forced into it.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    value_range: tuple[float, float] = (1.0, 5.0)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be >= 1")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, values must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.n:
                raise ValueError("column index out of range")
            flat = np.sort(rows * self.n + cols)
            if (flat[1:] == flat[:-1]).any():
                raise ValueError("duplicate (row, col) coordinates")
        if not np.all(np.isfinite(values)):
            raise ValueError("observed values must be finite")
        lo, hi = self.value_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("value_range must satisfy lo < hi")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_range", (float(lo), float(hi)))

    @classmethod
    def from_entries(cls, m, n, entries, value_range=(1.0, 5.0)) -> "ObservedMatrix":
        """Build from an iterable of (i, j, value) triplets."""
        entries = list(entries)
        if entries:
            rows, cols, values = (np.asarray(x) for x in zip(*entries))
        else:
            rows = cols = values = np.empty(0)
        return cls(m, n, rows, cols, values, value_range)

    @classmethod
    def from_dense(cls, x, value_range=(1.0, 5.0)) -> "ObservedMatrix":
        """Fully observed view of a dense matrix."""
        x = np.asarray(x, dtype=float)
        m, n = x.shape
        rows, cols = np.divmod(np.arange(m * n), n)
        return cls(m, n, rows, cols, x.ravel().copy(), value_range)

    @property
    def n_observed(self) -> int:
        return int(self.rows.size)

    @property
    def observed_fraction(self) -> float:
        return self.rows.size / (self.m * self.n)

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        return [
            (int(i), int(j), float(v))
            for i, j, v in zip(self.rows, self.cols, self.values)
        ]


@dataclass(eq=False)
class FactorPair:
    """Low-rank factors U (m x r) and V (n x r) of the estimate U V^T."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.U, dtype=float)
        v = np.asarray(self.V, dtype=float)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ValueError("U and V must be 2-d with equal column counts")
        if u.shape[1] > min(u.shape[0], v.shape[0]):
            raise ValueError("rank exceeds min(m, n)")
        self.U = u
        self.V = v

    def predict_entries(self, rows, cols) -> np.ndarray:
        """Entry-wise predictions (U V^T)[rows, cols] without forming U V^T."""
        return _predict_entries(self.U, self.V, rows, cols)


_PREDICT_BLOCK = 8192  # entries whose factor rows are gathered at once


def _predict_entries(u, v, rows, cols):
    """(u v^T)[rows, cols], gathering the factor rows of a fixed-size block of
    entries at a time so memory stays bounded for any number of entries."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = np.empty(rows.size)
    for start in range(0, rows.size, _PREDICT_BLOCK):
        block = slice(start, start + _PREDICT_BLOCK)
        out[block] = np.einsum(
            "er,er->e", np.take(u, rows[block], axis=0), np.take(v, cols[block], axis=0)
        )
    return out


@dataclass(frozen=True)
class SolverConfig:
    """Shared configuration of the completion solvers.

    outer_iterations is the number of alternating sweeps (T for ALS, N for
    the IRLS variant); inner_iterations the IRLS iteration count K. Without
    noise a group of columns runs at most K, stopping once its weights
    repeat; the result equals K iterations.
    huber_loss_alpha overrides the loss transition used by the IRLS solver;
    when None it defaults to the mechanism's own alpha for Huber noise and
    otherwise to huber_alpha_for_variance of the noise variance (0 without
    noise).
    """

    rank: int
    lam: float = 0.5
    outer_iterations: int = 50
    inner_iterations: int = 20
    huber_loss_alpha: float | None = None
    mechanism: MechanismConfig = MechanismConfig.none()
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not math.isfinite(self.lam) or self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.outer_iterations < 1 or self.inner_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        alpha = self.huber_loss_alpha
        if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
            raise ValueError("huber_loss_alpha must be a positive real")


@dataclass
class DrawCounters:
    """Count of mechanism noise values consumed per half-sweep kind."""

    u_sweep: int = 0
    v_sweep: int = 0


class SolverDivergence(ArithmeticError):
    """A half-sweep produced non-finite factors.

    solver is "noisy_als" or "irls_huber", sweep the 0-based sweep index and
    half "u" (row half-sweep) or "v" (column half-sweep).
    """

    def __init__(self, solver: str, sweep: int, half: str):
        super().__init__(
            f"{solver} diverged: non-finite factors after the {half} half of sweep {sweep}"
        )
        self.solver = solver
        self.sweep = sweep
        self.half = half


def resolve_loss_alpha(config: SolverConfig) -> float:
    """Huber-loss transition used by the IRLS solver under this config."""
    if config.huber_loss_alpha is not None:
        return config.huber_loss_alpha
    mech = config.mechanism
    if mech.kind == "huber":
        return mech.scale
    return huber_alpha_for_variance(mech.variance())


# ---------------------------------------------------------------------------
# Batched half-sweep engine
# ---------------------------------------------------------------------------
# Targets (rows in the U half-sweep, columns in the V half-sweep) are grouped
# so each group solves a stack of identically shaped r x r systems in one
# LAPACK call. Walking the distinct observation counts in ascending order, a
# group of width w (its largest count) with g targets absorbs the next count c
# while the padding this adds, (c - w) * g entries at r^2 multiply-adds of
# Gram work each, stays within _MERGE_BUDGET. A group of at most
# _GIL_BATCH / r targets also absorbs the next count while the merged group
# stays at most 1/8 padding: np.linalg.solve releases the GIL only for batches
# above about 500 / r systems, and a smaller batch would hold the other
# threads up. Every target is padded to its group's width with slots that
# index a zero row appended to the fixed factor (index -1) and carry the
# value 0, so they add nothing to the Gram, the right-hand side or the
# residual. Each group's block of fixed-factor rows is one np.take along
# axis 0, as are the noise and IRLS-start slices: it copies the same rows as
# the advanced index other[oidx], which sends every short r-float row through
# numpy's generic index loop, in about a quarter of the time at rank 5. The
# residual, Gram and right-hand-side contractions are stacked matmuls on that
# block, so they run on BLAS. Per-target results match solving each system on
# its own up to rounding.
#
# A half whose Gram work (padded slots x r^2 x iterations) exceeds
# _PARALLEL_WORK runs on every usable CPU: the groups are dealt round-robin
# into one part per CPU; the calling thread runs one part and the solver's
# own pool of one thread per further CPU runs the rest (a thread fewer also
# means a malloc arena fewer in the peak RSS).
# Each group's arithmetic does not depend on the thread that runs it, so the
# factors equal the serial ones bit for bit whatever the CPU count.

_MERGE_BUDGET = 4096  # multiply-adds of Gram work one merge may add as padding
_GIL_BATCH = 500  # systems x rank up to which np.linalg.solve keeps the GIL
_PARALLEL_WORK = 2**22  # Gram multiply-adds below which a half stays serial


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _target_groups(target_idx, other_idx, values, num_targets, rank):
    counts = np.bincount(target_idx, minlength=num_targets)
    order = np.argsort(target_idx, kind="stable")
    ptr = np.concatenate(([0], np.cumsum(counts)))
    # the sorted entries plus one trailing padding slot (zero row, value 0)
    other_sorted = np.append(other_idx[order], -1)
    values_sorted = np.append(values[order], 0.0)
    distinct, sizes = np.unique(counts, return_counts=True)
    runs = []  # [smallest count, width, members, observed entries]
    for c, g in zip(distinct.tolist(), sizes.tolist()):
        if runs:
            run = runs[-1]
            _, width, members, entries = run
            padding = c * members - entries  # of the merged group
            if (c - width) * members * rank * rank <= _MERGE_BUDGET or (
                members * rank <= _GIL_BATCH and 8 * padding <= c * (members + g)
            ):
                run[1:] = c, members + g, entries + c * g
                continue
        runs.append([c, c, g, c * g])
    groups = []
    for low, width, _, _ in runs:
        ids = np.flatnonzero((counts >= low) & (counts <= width))
        slot = np.arange(width)
        entry = np.where(
            slot < counts[ids, None], ptr[ids, None] + slot, other_sorted.size - 1
        )
        groups.append((ids, other_sorted[entry], values_sorted[entry]))
    return groups


def _half_sweep(
    groups, other, lam, alpha, iterations, init, noise, num_targets, pool=None, workers=1
):
    """Regularized Huber IRLS for every target against the fixed factor.

    Iteration k solves (A^T W A + lam I) theta = A^T W y + noise[:, k] with
    W = diag(min(1, alpha/|y - A theta|)) from the previous iterate (init at
    k = 0). With alpha infinite every weight is 1, so the weight step is
    skipped and one iteration is exactly the ridge update. A target with no
    observations solves lam I theta = noise, i.e. theta = noise / lam or 0.
    groups come from _target_groups: their padded slots index the zero row
    appended here as row -1 with value 0, so a padded slot's residual is 0,
    its weight 1, and its Gram and right-hand-side terms vanish.

    Without noise the iteration is a fixed-point map on the weights: the Gram
    and right-hand side depend only on W, so once a group's weights equal
    the previous iteration's, every later iteration recomputes the same
    theta bit for bit. The group then stops early and keeps its theta; the
    result equals running all the iterations. With noise, every iteration
    runs.

    With a pool of workers - 1 threads, a half above _PARALLEL_WORK deals
    its groups round-robin into `workers` parts: the calling thread runs the
    first, the pool the others, each part writing only its own targets'
    rows. An error in any part is raised once every part has finished.
    Otherwise every group runs in the calling thread.
    """
    r = other.shape[1]
    other = np.concatenate((other, np.zeros((1, r))))
    out = np.empty((num_targets, r))
    lam_eye = lam * np.eye(r)
    reweight = math.isfinite(alpha)

    def solve_groups(part):
        for ids, oidx, vals in part:
            ag = np.take(other, oidx, axis=0)
            agt = ag.transpose(0, 2, 1)
            vcol = vals[..., None]
            gnoise = None if noise is None else np.take(noise, ids, axis=0)
            theta = np.take(init, ids, axis=0) if reweight else None
            prev_w = None
            for k in range(iterations):
                awt = agt
                if reweight:
                    w = _huber_weights(np.abs(vals - (ag @ theta[..., None])[..., 0]), alpha)
                    if gnoise is None:
                        if prev_w is not None and np.array_equal(w, prev_w):
                            break
                        prev_w = w
                    awt = agt * w[:, None, :]
                rhs = awt @ vcol
                if gnoise is not None:
                    rhs = rhs + gnoise[:, k, :, None]
                theta = np.linalg.solve(awt @ ag + lam_eye, rhs)[..., 0]
            out[ids] = theta

    slots = sum(vals.size for _, _, vals in groups)
    if pool is None or workers < 2 or slots * r * r * iterations <= _PARALLEL_WORK:
        solve_groups(groups)
        return out
    err = np.geterr()  # numpy's error state is per thread; workers take the caller's

    def solve_part(part):
        with np.errstate(**err):
            solve_groups(part)

    futures = [pool.submit(solve_part, groups[i::workers]) for i in range(1, workers)]
    # every part finishes before any error propagates, so no thread still
    # writes to out once the caller sees the exception
    try:
        solve_groups(groups[::workers])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return out


def _column_draws(mech, e0, e1, sweep, n, iterations, r, draw_init):
    """IRLS starts (n, r) and noise (n, iterations, r) for one V half-sweep.

    Both come from the sweep's one stream, the N(0, I) starts first (when
    draw_init), then every column's noise in a single sample call; column j
    owns row j of each block. Either result is None when not drawn; without
    either, no stream is built.
    """
    draw_noise = mech.kind != "none"
    if not (draw_init or draw_noise):
        return None, None
    stream = np.random.default_rng(np.random.SeedSequence((e0, e1, sweep)))
    init = stream.standard_normal((n, r)) if draw_init else None
    noise = None
    if draw_noise:
        noise = sample(mech, n * iterations * r, stream).values.reshape(n, iterations, r)
    return init, noise


def _alternate(solver, obs, config, rng, counters, init, history, alpha, iterations):
    rng = np.random.default_rng(config.seed if rng is None else rng)
    r = config.rank
    if r > min(obs.m, obs.n):
        raise ValueError("rank exceeds min(m, n)")
    if init is None:
        u = rng.standard_normal((obs.m, r)) / math.sqrt(r)
        v = rng.standard_normal((obs.n, r)) / math.sqrt(r)
    else:
        if init.U.shape != (obs.m, r) or init.V.shape != (obs.n, r):
            raise ValueError("init factors have wrong shape")
        u = init.U.copy()
        v = init.V.copy()
    e0, e1 = (int(x) for x in rng.integers(0, 2**63, size=2))
    row_groups = _target_groups(obs.rows, obs.cols, obs.values, obs.m, r)
    col_groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, r)
    lam = config.lam
    workers = _usable_cpus()
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        for sweep in range(config.outer_iterations):
            u = _half_sweep(
                row_groups, v, lam, math.inf, 1, None, None, obs.m, pool, workers
            )
            if not np.isfinite(u).all():
                raise SolverDivergence(solver, sweep, "u")
            if history is not None:
                history.append(completion_objective(obs, u, v, lam))
            starts, noise = _column_draws(
                config.mechanism, e0, e1, sweep, obs.n, iterations, r, math.isfinite(alpha)
            )
            if counters is not None and noise is not None:
                counters.v_sweep += noise.size
            v = _half_sweep(
                col_groups, u, lam, alpha, iterations, starts, noise, obs.n, pool, workers
            )
            if not np.isfinite(v).all():
                raise SolverDivergence(solver, sweep, "v")
            if history is not None:
                history.append(completion_objective(obs, u, v, lam))
    return FactorPair(u, v)


def noisy_als(
    obs: ObservedMatrix,
    config: SolverConfig,
    rng=None,
    *,
    counters: DrawCounters | None = None,
    init: FactorPair | None = None,
    history: list[float] | None = None,
) -> FactorPair:
    """Alternating least squares with noise in the column updates.

    Each sweep solves the ridge update for every row of U against the fixed
    V, then for every column of V against the fixed U with a mechanism noise
    vector added to the normal-equation right-hand side. rng may be a seed or
    Generator; omitted, config.seed is used. history, when given a list,
    receives the regularized completion objective after every half-sweep.
    init sets the start of V; its U must have the right shape but is never
    read, since the first row half-sweep replaces it. Raises
    SolverDivergence when a half-sweep yields non-finite factors.
    """
    return _alternate("noisy_als", obs, config, rng, counters, init, history, math.inf, 1)


def irls_huber(
    obs: ObservedMatrix,
    config: SolverConfig,
    rng=None,
    *,
    counters: DrawCounters | None = None,
    init: FactorPair | None = None,
    history: list[float] | None = None,
) -> FactorPair:
    """Alternating completion solver with IRLS column updates.

    Rows of U are updated by plain (noiseless) least squares; each column of
    V is re-estimated by regularized IRLS under the Huber loss with a fresh
    noise vector inside every inner iteration: the r_irls update, started
    from the column's slice of the sweep's start block and fed its slices of
    the sweep's noise block. Without noise, a group of columns stops once its
    weights repeat exactly; the factors equal those of all K iterations.
    init.U is not read, and divergence raises SolverDivergence, as in
    noisy_als.
    """
    return _alternate(
        "irls_huber", obs, config, rng, counters, init, history,
        resolve_loss_alpha(config), config.inner_iterations,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rmse(truth, factors: FactorPair) -> float:
    """Root mean squared error of the factorization.

    An ObservedMatrix truth gives the RMSE over its entries only (use a
    held-out split for test error on real data). Any other truth is the
    dense ground-truth matrix X and gives ||X - U V^T||_F / sqrt(m n).
    """
    if isinstance(truth, ObservedMatrix):
        if truth.n_observed == 0:
            raise ValueError("cannot compute RMSE over an empty index set")
        err = truth.values - factors.predict_entries(truth.rows, truth.cols)
        return float(math.sqrt(np.mean(err * err)))
    x = np.asarray(truth, dtype=float)
    if x.shape != (factors.U.shape[0], factors.V.shape[0]):
        raise ValueError("truth shape does not match the factors")
    return float(np.linalg.norm(x - factors.U @ factors.V.T) / math.sqrt(x.size))


def complete(obs: ObservedMatrix, factors: FactorPair, clip: bool = False) -> np.ndarray:
    """Dense completed matrix U V^T, optionally clipped to obs.value_range."""
    if factors.U.shape[0] != obs.m or factors.V.shape[0] != obs.n:
        raise ValueError("factor shapes do not match the observed matrix")
    z = factors.U @ factors.V.T
    if clip:
        lo, hi = obs.value_range
        np.clip(z, lo, hi, out=z)
    return z


def completion_objective(obs: ObservedMatrix, u, v, lam: float) -> float:
    """Regularized masked least-squares objective
    ||P_Omega(X - U V^T)||_F^2 + lam (||U||_F^2 + ||V||_F^2)."""
    resid = obs.values - _predict_entries(u, v, obs.rows, obs.cols)
    return float(resid @ resid + lam * ((u * u).sum() + (v * v).sum()))
