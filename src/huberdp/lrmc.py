"""Differentially private low-rank matrix completion.

Two alternating solvers estimate factors U (m x r) and V (n x r) of a
partially observed matrix X, and both run one engine on the ridge and IRLS
steps of robust_solvers (_ridge, _irls), as ridge_solve and r_irls do. Every
sweep updates each row of U by a noiseless ridge solve against the fixed V, then each
column of V by K iterations of regularized IRLS under the Huber loss with
transition alpha against the fixed U, adding a fresh mechanism noise vector
to the right-hand side of every iteration. Noisy alternating least squares
is the case alpha = infinity (every weight 1) with K = 1, where the IRLS
update is the ridge update; irls_huber uses the resolved loss alpha and
K = inner_iterations. Without noise, a group of columns stops iterating
once its IRLS weights repeat exactly, which leaves the result of all K
iterations unchanged. Noise enters only the column half-sweep; the row
half-sweep draws nothing, and FactorPair.noise_draws counts the column draws.

Each IRLS column update starts from the column's row of the previous V,
already released, so the start costs no privacy and draws nothing. Sweep s
draws only its (n, K, r) mechanism noise (K = 1 for ALS), in one block call
from one stream split from (solver entropy, s) by a SeedSequence; without
noise it draws nothing. Column j reads slice j of the block, so results are
independent of the order in which columns are processed. A solver call
deals each half-sweep once (_deal): a larger one is split into parts for a
thread per usable CPU, and one join (_join) runs the parts and waits for all
of them before the half returns; the factors are the same bit for bit on
any number of CPUs. When the column half-sweep runs on threads, the same
join also draws the noise of sweep s + 1 on the solver's pool while the
column half-sweep of sweep s runs; sweep 0 draws on the calling thread. A
sweep's stream depends only on (solver entropy, s), so its block is the same
on any thread, and every draw still ends inside a column half-sweep.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .mechanisms import (MechanismConfig, _count, _finite_array, _positive_real,
                         huber_alpha_for_variance, sample)
from .robust_solvers import _ELIMINATION_RANK, _irls, _ridge

__all__ = [
    "ObservedMatrix",
    "FactorPair",
    "SolverConfig",
    "SolverDivergence",
    "noisy_als",
    "irls_huber",
    "rmse",
    "completion_objective",
    "resolve_loss_alpha",
]


def _coordinates(index, name: str) -> np.ndarray:
    """An index array as int64. Integer arrays pass as they are; any other must
    pass _finite_array and hold whole numbers, which the cast would truncate.
    A bool array is refused: it would run as the coordinates 0 and 1."""
    index = np.asarray(index)
    if index.dtype.kind == "b" and index.size:
        raise ValueError(f"{name} must be integer coordinates, got {index.flat[0]}")
    if index.dtype.kind not in "iu":
        index = _finite_array(index, name)
        bad = index != np.floor(index)
        if bad.any():
            raise ValueError(f"{name} must be integer coordinates, got {index[bad][0]:g}")
    return np.asarray(index, dtype=np.int64)


def _check_parallel(**arrays: np.ndarray) -> None:
    """Refuse arrays that are not 1-d arrays of equal length, naming them all."""
    first, *rest = arrays.values()
    if first.ndim != 1 or any(a.shape != first.shape for a in rest):
        raise ValueError(f"{', '.join(arrays)} must be 1-d arrays of equal length")


def _check_range(rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> None:
    """Refuse a coordinate outside an m x n matrix, negative ones included."""
    for index, size, axis in ((rows, m, "row"), (cols, n, "column")):
        if index.size and (index.min() < 0 or index.max() >= size):
            raise ValueError(f"{axis} index out of range")


def _flat_keys(rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> np.ndarray:
    """The row-major int64 key rows * n + cols of each coordinate of an m x n
    matrix. A shape of 2**63 entries or more is refused: its keys, or n
    itself, would not fit int64, and distinct coordinates could share a key."""
    if int(m) * int(n) >= 2**63:
        raise ValueError(f"a {m}x{n} matrix has 2**63 or more entries, "
                         f"too many for int64 coordinate keys")
    return rows * n + cols


@dataclass(frozen=True, eq=False)
class ObservedMatrix:
    """A partially observed m x n matrix stored as coordinate triplets.

    rows, cols, values are parallel arrays over the observed index set; no
    duplicate coordinate is allowed.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        rows, cols = _coordinates(self.rows, "rows"), _coordinates(self.cols, "cols")
        values = _finite_array(self.values, "values")
        _check_parallel(rows=rows, cols=cols, values=values)
        _check_range(rows, cols, self.m, self.n)
        if rows.size:
            flat = np.sort(_flat_keys(rows, cols, self.m, self.n))
            if (flat[1:] == flat[:-1]).any():
                raise ValueError("duplicate (row, col) coordinates")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    @property
    def n_observed(self) -> int:
        return int(self.rows.size)

    @property
    def observed_fraction(self) -> float:
        return self.rows.size / (self.m * self.n)


@dataclass(eq=False)
class FactorPair:
    """Low-rank factors U (m x r) and V (n x r) of the estimate U V^T, and
    the number of mechanism noise values the solve that made them drew."""

    U: np.ndarray
    V: np.ndarray
    noise_draws: int = 0

    def __post_init__(self):
        u, v = _finite_array(self.U, "U"), _finite_array(self.V, "V")
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ValueError("U and V must be 2-d with equal column counts")
        if u.shape[1] > min(u.shape[0], v.shape[0]):
            raise ValueError("rank exceeds min(m, n)")
        self.U = u
        self.V = v

    def predict_entries(self, rows, cols) -> np.ndarray:
        """(U V^T)[rows, cols] without forming U V^T, coordinates as in ObservedMatrix."""
        rows, cols = _coordinates(rows, "rows"), _coordinates(cols, "cols")
        _check_parallel(rows=rows, cols=cols)
        _check_range(rows, cols, self.U.shape[0], self.V.shape[0])
        return _predict_entries(self.U, self.V, rows, cols)


_PREDICT_BLOCK = 8192  # entries whose factor rows are gathered at once


def _predict_entries(u, v, rows, cols):
    """(u v^T)[rows, cols], gathering the factor rows of a fixed-size block of
    entries at a time so memory stays bounded for any number of entries."""
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

    def __post_init__(self):
        for name in ("rank", "outer_iterations", "inner_iterations"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        object.__setattr__(self, "lam", _positive_real(self.lam, "lam"))
        if self.huber_loss_alpha is not None:
            object.__setattr__(self, "huber_loss_alpha",
                               _positive_real(self.huber_loss_alpha, "huber_loss_alpha"))


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
# call. Walking the distinct observation counts in ascending order, a
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
# axis 0, as are its rows of the noise and of the IRLS start: it copies the
# same rows as the advanced index other[oidx], which sends every short
# r-float row through numpy's generic index loop, in about a quarter of the
# time at rank 5. An IRLS group then runs _irls once, whose residual and
# normal-equation contractions are stacked matmuls on that block, so they run
# on BLAS: an iteration takes A^T W A and A^T W y from one product of the weighted
# [A | y]^T and the block. A group of rank r >= 8 whose count x r reaches 12,000
# (robust_solvers._UPDATE_RANK and _UPDATE_ENTRIES) forms that product at its
# first iteration only and then adds the weight changes of just the rows
# whose weight changed, all targets' changed rows in one zero-padded block,
# multiplied in batched matmuls of at most 256 rows. The update broke even on
# 2 vCPUs at count x r of about 10,000 for ranks 8 to 64; no rank-5
# synthetic-protocol group takes it, and at rank 32 only counts of 375 or
# more do. Each product multiplies two buffers (dgemm), never a
# block and its own transposed view, which matmul would send to the slower
# syrk.
#
# A ridge half (alpha = infinity, one iteration) gathers each group's rows
# of the fixed factor with a column more, [A | y] (g, w, r+1), and one
# product A^T [A | y] writes its [A^T A | A^T y]; robust_solvers._ridge adds
# the noise and lam once and solves. Up to rank _ELIMINATION_RANK a part's
# groups fill one (targets, r, r+1) buffer, solved by one batched
# elimination whose steps each run over every target of the part. Above it
# each group keeps its own buffer and LAPACK call: one buffer per part
# raised the rank-32 ratings benchmark's peak RSS from 103 to 116 MB.
# Per-target results match solving each system on its own up to rounding.
#
# A solve deals each half once (_deal): when the half's Gram work (padded
# slots x r^2 x iterations) exceeds _PARALLEL_WORK, its groups are dealt
# round-robin into one part per usable CPU, otherwise they form one part.
# _join is the only code that runs work on the solver's pool of one thread
# per further CPU (a thread fewer also means a malloc arena fewer in the peak
# RSS): the calling thread runs the first call, the pool the rest. A column
# half with several parts also hands the pool the next sweep's column draws
# (_alternate), ahead of its own parts: round-robin dealing leaves a pool
# thread idle for part of the half, and numpy's bulk fills release the GIL.
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
    # numpy sorts 8- and 16-bit keys by radix: the same stable order, at a
    # tenth of the int64 sort's cost
    order = np.argsort(target_idx.astype(np.min_scalar_type(num_targets - 1)), kind="stable")
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


def _deal(groups, r, iterations, workers):
    """The parts a half-sweep over these groups runs as: the groups dealt
    round-robin into one part per worker when the half's Gram work exceeds
    _PARALLEL_WORK, otherwise one part."""
    slots = sum(vals.size for _, _, vals in groups)
    if workers > 1 and slots * r * r * iterations > _PARALLEL_WORK:
        return [groups[i::workers] for i in range(workers)]
    return [groups]


def _join(pool, first, *rest):
    """[first(), *rest()]: first on the calling thread, rest on the pool in
    submission order under the caller's numpy error state, which numpy keeps
    per thread. Every call finishes before any error propagates, so no
    thread still works for the caller once it sees one; the caller's own
    error comes first."""
    err = np.geterr()
    futures = [pool.submit(np.errstate(**err)(fn)) for fn in rest]
    try:
        results = [first()]
    finally:
        wait(futures)
    return results + [future.result() for future in futures]


def _half_sweep(parts, other, lam, alpha, iterations, init, noise, num_targets, pool=None):
    """Every target's update against the fixed factor, from noise (target,
    iteration, r) or None. A ridge half (alpha infinite, one iteration)
    forms each group's normal equations and solves them by _ridge: one call
    per part up to rank _ELIMINATION_RANK, one per group above it. An IRLS
    half runs _irls once per count group, from the group's rows of init. A
    target with no observations solves lam I theta = noise, i.e.
    theta = noise / lam or 0. parts come from _deal over _target_groups,
    whose padded slots index the zero row appended here as row -1 with
    value 0, so a padded slot's residual is 0, its weight 1, and its Gram
    and right-hand-side terms vanish.

    The calling thread runs the first part and the pool the others (_join),
    each part writing only its own targets' rows. An error in any part is
    raised once every part has finished. Overflow and invalid values raise
    no warning: the solvers report a non-finite half as SolverDivergence.
    """
    r = other.shape[1]
    ridge = alpha == math.inf
    # the fixed factor over the zero row -1; for a ridge half with a column
    # more, which each group's gather fills with its values
    fixed = np.zeros((other.shape[0] + 1, r + 1 if ridge else r))
    fixed[:-1, :r] = other
    out = np.empty((num_targets, r))

    def irls_groups(part):
        for ids, oidx, vals in part:
            theta = np.take(init, ids, axis=0)
            gnoise = None if noise is None else np.take(noise, ids, axis=0)
            ag = np.take(fixed, oidx, axis=0)
            out[ids] = _irls(ag, vals, theta, gnoise, lam, alpha, iterations)

    def ridge_groups(part):
        batches = [part] if r <= _ELIMINATION_RANK else [[group] for group in part]
        for batch in filter(None, batches):  # a part is empty with more workers than groups
            ids = np.concatenate([group_ids for group_ids, _, _ in batch])
            normal = np.empty((ids.size, r, r + 1))
            stop = 0
            for group_ids, oidx, vals in batch:
                start, stop = stop, stop + group_ids.size
                rows = np.take(fixed, oidx, axis=0)  # [A | y]
                rows[..., r] = vals
                np.matmul(rows[..., :r].transpose(0, 2, 1), rows, out=normal[start:stop])
            t = None if noise is None else np.take(noise[:, 0], ids, axis=0)
            out[ids] = _ridge(normal, t, lam)

    solve = ridge_groups if ridge else irls_groups
    with np.errstate(over="ignore", invalid="ignore"):
        _join(pool, *(partial(solve, part) for part in parts))
    return out


def _column_draws(mech, e0, e1, sweep, n, iterations, r):
    """The noise (n, iterations, r) of one V half-sweep, every column's in a
    single sample call from the sweep's one stream; column j owns row j.
    None without noise, when no stream is built."""
    if mech.kind == "none":
        return None
    stream = np.random.default_rng(np.random.SeedSequence((e0, e1, sweep)))
    return sample(mech, n * iterations * r, stream).values.reshape(n, iterations, r)


def _alternate(solver, obs, config, rng, init, history, alpha, iterations):
    rng = np.random.default_rng(rng)
    r = config.rank
    if r > min(obs.m, obs.n):
        raise ValueError("rank exceeds min(m, n)")
    if init is None:
        rng.standard_normal((obs.m, r))  # an unread U start, kept so streams stay as recorded
        v = rng.standard_normal((obs.n, r)) / math.sqrt(r)
    else:
        v = _finite_array(init, "init")
        if v.shape != (obs.n, r):
            raise ValueError(f"init must be the {(obs.n, r)} start of V, got {v.shape}")
    e0, e1 = (int(x) for x in rng.integers(0, 2**63, size=2))
    row_groups = _target_groups(obs.rows, obs.cols, obs.values, obs.m, r)
    col_groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, r)
    lam = config.lam
    sweeps = config.outer_iterations
    workers = _usable_cpus()
    drawn = 0

    def draw(sweep):
        return _column_draws(config.mechanism, e0, e1, sweep, obs.n, iterations, r)

    row_parts = _deal(row_groups, r, 1, workers)
    col_parts = _deal(col_groups, r, iterations, workers)
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        ahead = []
        for sweep in range(sweeps):
            u = _half_sweep(row_parts, v, lam, math.inf, 1, None, None, obs.m, pool)
            if not np.isfinite(u).all():
                raise SolverDivergence(solver, sweep, "u")
            if history is not None:
                history.append(completion_objective(obs, u, v, lam))
            noise = ahead[0] if ahead else draw(sweep)
            drawn += 0 if noise is None else noise.size
            # a threaded V half hands the pool the next sweep's draw ahead of
            # its own parts
            prefetch = len(col_parts) > 1 and sweep + 1 < sweeps
            v, *ahead = _join(
                pool,
                partial(_half_sweep, col_parts, u, lam, alpha, iterations, v, noise, obs.n, pool),
                *([partial(draw, sweep + 1)] if prefetch else []),
            )
            if not np.isfinite(v).all():
                raise SolverDivergence(solver, sweep, "v")
            if history is not None:
                history.append(completion_objective(obs, u, v, lam))
    return FactorPair(u, v, drawn)


def noisy_als(
    obs: ObservedMatrix,
    config: SolverConfig,
    rng,
    *,
    init: np.ndarray | None = None,
    history: list[float] | None = None,
) -> FactorPair:
    """Alternating least squares with noise in the column updates.

    Each sweep solves the ridge update for every row of U against the fixed
    V, then for every column of V against the fixed U with a mechanism noise
    vector added to the normal-equation right-hand side. rng, a seed or
    Generator, is the run's one source of randomness. history, when given a
    list, receives the regularized completion objective after every
    half-sweep. init, an (n, rank) array, is the start of V, which the first
    row half-sweep reads; without it V starts at N(0, I / rank). Raises
    SolverDivergence when a half-sweep yields non-finite factors.
    """
    return _alternate("noisy_als", obs, config, rng, init, history, math.inf, 1)


def irls_huber(
    obs: ObservedMatrix,
    config: SolverConfig,
    rng,
    *,
    init: np.ndarray | None = None,
    history: list[float] | None = None,
) -> FactorPair:
    """Alternating completion solver with IRLS column updates.

    Rows of U are updated by plain (noiseless) least squares; each column of
    V is re-estimated by regularized IRLS under the Huber loss with a fresh
    noise vector inside every inner iteration: the r_irls update, started
    from the column's row of the previous V (in sweep 0, of init or the
    drawn V start) and fed its slices of the sweep's noise block. Without
    noise, a group of columns stops once its weights repeat exactly; the
    factors equal those of all K iterations.
    rng, init, history and SolverDivergence are as in noisy_als.
    """
    return _alternate(
        "irls_huber", obs, config, rng, init, history,
        resolve_loss_alpha(config), config.inner_iterations,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rmse(truth, factors: FactorPair) -> float:
    """Root mean squared error of the factorization.

    An ObservedMatrix truth gives the RMSE over its entries only (use a
    held-out split for test error on real data). Any other truth is the
    dense ground-truth matrix X and gives ||X - U V^T||_F / sqrt(m n),
    summed over blocks of rows of about _PREDICT_BLOCK entries, so no m x n
    array is formed.
    """
    observed = isinstance(truth, ObservedMatrix)
    x = truth if observed else _finite_array(truth, "truth")
    shape = (x.m, x.n) if observed else x.shape
    if shape != (factors.U.shape[0], factors.V.shape[0]):
        raise ValueError("truth shape does not match the factors")
    if (x.n_observed if observed else x.size) == 0:
        raise ValueError("cannot compute RMSE over an empty index set")
    if observed:
        err = x.values - _predict_entries(factors.U, factors.V, x.rows, x.cols)
        return float(math.sqrt(np.mean(err * err)))
    u, vt = factors.U, factors.V.T
    step = max(1, _PREDICT_BLOCK // x.shape[1])
    total = 0.0
    for start in range(0, x.shape[0], step):
        err = x[start:start + step] - u[start:start + step] @ vt
        total += np.vdot(err, err)
    return float(math.sqrt(total / x.size))


def completion_objective(obs: ObservedMatrix, u, v, lam: float) -> float:
    """Regularized masked least-squares objective
    ||P_Omega(X - U V^T)||_F^2 + lam (||U||_F^2 + ||V||_F^2)."""
    resid = obs.values - _predict_entries(u, v, obs.rows, obs.cols)
    return float(resid @ resid + lam * ((u * u).sum() + (v * v).sum()))
