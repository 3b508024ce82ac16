"""Tests for the matrix-completion solvers and metrics.

The batched half-sweep engine is cross-checked column by column against the
reference ridge_solve / r_irls implementations fed with identical starts and
noise, so the fast path and the literal per-column algorithm stay
interchangeable. Solver runs are replayed from their seed: the initial
factors, then one stream per sweep holding the (n, r) IRLS start block and
the (n, K, r) noise block, in that order.
"""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from huberdp import lrmc
from huberdp.data_io import SyntheticSpec, generate_synthetic
from huberdp.lrmc import (
    DrawCounters,
    FactorPair,
    ObservedMatrix,
    SolverConfig,
    SolverDivergence,
    _column_draws,
    _half_sweep,
    _target_groups,
    complete,
    completion_objective,
    irls_huber,
    noisy_als,
    resolve_loss_alpha,
    rmse,
)
from huberdp.mechanisms import (
    MechanismConfig,
    NoiseDraw,
    UNIT_VARIANCE_ALPHA,
    huber_variance,
    sample,
)
from huberdp.robust_solvers import IrlsConfig, RidgeProblem, r_irls, ridge_solve


def _replay(seed, obs, r, sweep):
    """Initial factors U0, V0 and the draw stream of `sweep` of a solver run."""
    replay = np.random.default_rng(seed)
    u0 = replay.standard_normal((obs.m, r)) / math.sqrt(r)
    v0 = replay.standard_normal((obs.n, r)) / math.sqrt(r)
    e0, e1 = (int(v) for v in replay.integers(0, 2**63, size=2))
    return u0, v0, np.random.default_rng(np.random.SeedSequence((e0, e1, sweep)))


class TestObservedMatrix:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix.from_entries(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
        # the two (1, 2) entries are not neighbours in input order
        entries = [(1, 2, 1.0), (0, 0, 1.0), (2, 1, 1.0), (1, 2, 2.0)]
        with pytest.raises(ValueError, match="duplicate"):
            ObservedMatrix.from_entries(3, 3, entries)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix.from_entries(2, 2, [(2, 0, 1.0)])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix.from_entries(2, 2, [(0, 0, np.nan)])

    @pytest.mark.parametrize(
        "m,rows,cols,values,message",
        [(0, [], [], [], "dimensions must be >= 1"),
         (2, [0, 1], [0], [1.0, 2.0], "1-d arrays of equal length"),
         (2, [0], [2], [1.0], "column index out of range")],
        ids=["zero-m", "ragged", "column-out-of-range"],
    )
    def test_malformed_triplets_rejected(self, m, rows, cols, values, message):
        with pytest.raises(ValueError, match=message):
            ObservedMatrix(m, 2, rows, cols, values)

    def test_bad_value_range(self):
        with pytest.raises(ValueError):
            ObservedMatrix.from_entries(2, 2, [(0, 0, 1.0)], value_range=(5.0, 1.0))

    def test_from_dense_round_trip(self):
        x = np.arange(6.0).reshape(2, 3)
        obs = ObservedMatrix.from_dense(x)
        assert obs.n_observed == 6
        assert obs.observed_fraction == 1.0
        dense = np.zeros_like(x)
        dense[obs.rows, obs.cols] = obs.values
        np.testing.assert_array_equal(dense, x)

    def test_entries_property(self):
        obs = ObservedMatrix.from_entries(3, 3, [(0, 1, 2.0), (2, 2, 4.0)])
        assert obs.entries == [(0, 1, 2.0), (2, 2, 4.0)]


class TestFactorPair:
    @pytest.mark.parametrize(
        "u,v,message",
        [(np.ones(3), np.ones((3, 1)), "must be 2-d"),
         (np.ones((2, 3)), np.ones((4, 3)), "rank exceeds min")],
        ids=["one-dimensional", "rank-above-shape"],
    )
    def test_malformed_factors_rejected(self, u, v, message):
        with pytest.raises(ValueError, match=message):
            FactorPair(u, v)

    @pytest.mark.parametrize("rank", [1, 5, 32])
    def test_predict_entries_past_one_block(self, rank):
        # more entries than two gather blocks, with rows and columns repeated
        rng = np.random.default_rng(rank)
        f = FactorPair(rng.standard_normal((40, rank)), rng.standard_normal((35, rank)))
        size = 2 * lrmc._PREDICT_BLOCK + 17
        rows = rng.integers(0, 40, size)
        cols = rng.integers(0, 35, size)
        got = f.predict_entries(rows, cols)
        assert got.shape == (size,)
        np.testing.assert_allclose(got, (f.U @ f.V.T)[rows, cols], rtol=1e-12, atol=1e-12)

    def test_predict_no_entries(self):
        f = FactorPair(np.ones((3, 2)), np.ones((4, 2)))
        empty = np.empty(0, dtype=np.int64)
        assert f.predict_entries(empty, empty).shape == (0,)


class TestRmse:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(1)
        f = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
        assert rmse(f.U @ f.V.T, f) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(2)
        f = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
        assert rmse(f.U @ f.V.T + 1.0, f) == pytest.approx(1.0, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 4))
        f = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((4, 2)))
        z = f.U @ f.V.T
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += (x[i, j] - z[i, j]) ** 2
        expected = math.sqrt(total / 16)
        assert rmse(x, f) == pytest.approx(expected, abs=1e-12)

    def test_observed_scope_matches_brute_force(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 6))
        obs = ObservedMatrix.from_entries(
            6, 6, [(0, 0, x[0, 0]), (3, 2, x[3, 2]), (5, 5, x[5, 5])]
        )
        f = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
        z = f.U @ f.V.T
        expected = math.sqrt(
            ((x[0, 0] - z[0, 0]) ** 2 + (x[3, 2] - z[3, 2]) ** 2 + (x[5, 5] - z[5, 5]) ** 2) / 3
        )
        assert rmse(obs, f) == pytest.approx(expected, abs=1e-12)

    def test_empty_index_set_rejected(self):
        obs = ObservedMatrix.from_entries(2, 2, [])
        f = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            rmse(obs, f)

    def test_truth_shape_checked(self):
        f = FactorPair(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError, match="truth shape"):
            rmse(np.ones((3, 2)), f)


class TestComplete:
    def test_rank_one_product(self):
        f = FactorPair(np.ones((3, 1)), 2.0 * np.ones((4, 1)))
        obs = ObservedMatrix.from_entries(3, 4, [(0, 0, 2.0)])
        np.testing.assert_array_equal(complete(obs, f), 2.0 * np.ones((3, 4)))

    def test_clipping(self):
        f = FactorPair(np.array([[6.3]]), np.array([[1.0], [0.0]]))
        obs = ObservedMatrix.from_entries(1, 2, [(0, 0, 5.0)], value_range=(1.0, 5.0))
        clipped = complete(obs, f, clip=True)
        np.testing.assert_array_equal(clipped, [[5.0, 1.0]])
        raw = complete(obs, f)
        np.testing.assert_array_equal(raw, [[6.3, 0.0]])

    def test_factor_shapes_checked(self):
        obs = ObservedMatrix.from_entries(3, 4, [(0, 0, 2.0)])
        with pytest.raises(ValueError, match="factor shapes"):
            complete(obs, FactorPair(np.ones((4, 1)), np.ones((3, 1))))

    def test_noiseless_full_rank_fit_interpolates(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6))
        obs = ObservedMatrix.from_dense(x)
        cfg = SolverConfig(rank=6, lam=1e-9, outer_iterations=60, seed=0)
        factors = noisy_als(obs, cfg)
        z = complete(obs, factors)
        np.testing.assert_allclose(z[obs.rows, obs.cols], obs.values, atol=1e-6)


class TestNoisyAls:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(6)
        x = np.outer(rng.standard_normal(5), rng.standard_normal(5))
        obs = ObservedMatrix.from_dense(x)
        cfg = SolverConfig(rank=1, lam=1e-3, outer_iterations=50, seed=1)
        factors = noisy_als(obs, cfg)
        assert rmse(x, factors) < 1e-3

    def test_full_rank_interpolation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5))
        obs = ObservedMatrix.from_dense(x)
        cfg = SolverConfig(rank=5, lam=1e-9, outer_iterations=80, seed=2)
        assert rmse(x, noisy_als(obs, cfg)) < 1e-3

    def test_seeded_reproducibility_bit_identical(self):
        x, obs = generate_synthetic(SyntheticSpec(30, 25, 2, 0.5, seed=8))
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=5,
            mechanism=MechanismConfig.huber(1.0), seed=13,
        )
        a = noisy_als(obs, cfg)
        b = noisy_als(obs, cfg)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    @pytest.mark.parametrize("kind,variance", [("huber", 2.0), ("laplace", 2.0), ("gaussian", 2.0)])
    def test_noise_only_in_column_sweep(self, kind, variance):
        x, obs = generate_synthetic(SyntheticSpec(20, 15, 2, 0.5, seed=9))
        mech = MechanismConfig.from_variance(kind, variance)
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=4, mechanism=mech, seed=3)
        counters = DrawCounters()
        noisy_als(obs, cfg, counters=counters)
        assert counters.u_sweep == 0
        assert counters.v_sweep == 4 * obs.n * cfg.rank

    def test_no_noise_consumes_no_draws(self):
        x, obs = generate_synthetic(SyntheticSpec(20, 15, 2, 0.5, seed=10))
        counters = DrawCounters()
        noisy_als(obs, SolverConfig(rank=2, lam=0.5, outer_iterations=3), counters=counters)
        assert counters.u_sweep == 0 and counters.v_sweep == 0

    def test_noiseless_objective_monotone(self):
        x, obs = generate_synthetic(SyntheticSpec(40, 35, 3, 0.3, seed=11))
        cfg = SolverConfig(rank=3, lam=0.5, outer_iterations=15, seed=4)
        history = []
        noisy_als(obs, cfg, history=history)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        x, obs = generate_synthetic(SyntheticSpec(12, 10, 2, 0.6, seed=12))
        perm = rng.permutation(obs.m)
        permuted = ObservedMatrix(
            obs.m, obs.n, perm[obs.rows], obs.cols, obs.values, obs.value_range
        )
        init = FactorPair(
            rng.standard_normal((obs.m, 2)), rng.standard_normal((obs.n, 2))
        )
        # permute the initialization rows the same way as the data
        u_perm = np.empty_like(init.U)
        u_perm[perm] = init.U
        init_perm = FactorPair(u_perm, init.V.copy())
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=5, seed=5)
        base = noisy_als(obs, cfg, init=init)
        moved = noisy_als(permuted, cfg, init=init_perm)
        np.testing.assert_allclose(moved.U[perm], base.U, atol=1e-10)
        x_permuted = np.empty_like(x)
        x_permuted[perm] = x
        assert rmse(x_permuted, moved) == pytest.approx(rmse(x, base), abs=1e-10)

    def test_column_update_matches_ridge_solve(self):
        # one sweep of the batched engine equals per-column reference solves
        x, obs = generate_synthetic(SyntheticSpec(15, 12, 2, 0.5, seed=13))
        mech = MechanismConfig.huber(2.0)
        cfg = SolverConfig(rank=2, lam=0.7, outer_iterations=1, mechanism=mech, seed=6)
        factors = noisy_als(obs, cfg, np.random.default_rng(21))
        _, v0, stream = _replay(21, obs, 2, sweep=0)
        noise = sample(mech, obs.n * 2, stream).values.reshape(obs.n, 1, 2)
        u1 = np.empty((obs.m, 2))
        for i in range(obs.m):
            mine = obs.rows == i
            u1[i] = ridge_solve(RidgeProblem(v0[obs.cols[mine]], obs.values[mine], cfg.lam))
        v1 = np.empty((obs.n, 2))
        for j in range(obs.n):
            mine = obs.cols == j
            problem = RidgeProblem(u1[obs.rows[mine]], obs.values[mine], cfg.lam)
            v1[j] = ridge_solve(problem, NoiseDraw(noise[j, 0]))
        np.testing.assert_allclose(factors.U, u1, atol=1e-10)
        np.testing.assert_allclose(factors.V, v1, atol=1e-10)

    def test_empty_column_without_noise_is_zero(self):
        # column 2 has no observations
        obs = ObservedMatrix.from_entries(
            3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (0, 1, 0.5)]
        )
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=3, seed=7)
        factors = noisy_als(obs, cfg)
        np.testing.assert_array_equal(factors.V[2], np.zeros(2))

    def test_rank_validation(self):
        obs = ObservedMatrix.from_entries(3, 3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            noisy_als(obs, SolverConfig(rank=4, lam=0.5, outer_iterations=1))

    def test_init_shape_checked(self):
        obs = ObservedMatrix.from_entries(3, 4, [(0, 0, 1.0)])
        init = FactorPair(np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="init factors have wrong shape"):
            noisy_als(obs, SolverConfig(rank=2, outer_iterations=1), init=init)


class TestIrlsHuber:
    def test_matches_als_when_weights_stay_unit(self):
        # a huge loss transition keeps every weight at 1, so the IRLS column
        # update collapses onto the ridge update and the trajectories agree
        x, obs = generate_synthetic(SyntheticSpec(25, 20, 2, 0.5, seed=14))
        als_cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=8, seed=8)
        irls_cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=8, inner_iterations=20,
            huber_loss_alpha=1e9, seed=8,
        )
        a = noisy_als(obs, als_cfg)
        b = irls_huber(obs, irls_cfg)
        np.testing.assert_allclose(a.U, b.U, atol=1e-6)
        np.testing.assert_allclose(a.V, b.V, atol=1e-6)

    def test_column_update_matches_r_irls(self):
        # the batched engine must reproduce literal per-column r_irls calls
        # when fed the start and noise each call draws from its stream
        x, obs = generate_synthetic(SyntheticSpec(15, 12, 2, 0.5, seed=15))
        mech = MechanismConfig.huber(1.5)
        lam, iterations, r = 0.6, 4, 2
        irls_config = IrlsConfig(alpha=1.5, lam=lam, iterations=iterations, noise=mech)
        u = np.random.default_rng(33).standard_normal((obs.m, r))
        expected = np.empty((obs.n, r))
        init = np.empty((obs.n, r))
        noise = np.empty((obs.n, iterations, r))
        for j in range(obs.n):
            mine = obs.cols == j
            a, y = u[obs.rows[mine]], obs.values[mine]
            expected[j] = r_irls(y, a, irls_config, np.random.default_rng(j))
            stream = np.random.default_rng(j)
            init[j] = stream.standard_normal(r)
            noise[j] = sample(mech, iterations * r, stream).values.reshape(iterations, r)
        groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, r)
        got = _half_sweep(groups, u, lam, 1.5, iterations, init, noise, obs.n)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_noise_draw_accounting(self):
        x, obs = generate_synthetic(SyntheticSpec(20, 15, 2, 0.5, seed=16))
        mech = MechanismConfig.laplace(1.0)
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=3, inner_iterations=5,
            mechanism=mech, seed=10,
        )
        counters = DrawCounters()
        irls_huber(obs, cfg, counters=counters)
        assert counters.u_sweep == 0
        assert counters.v_sweep == 3 * obs.n * 5 * cfg.rank

    def test_seeded_reproducibility(self):
        x, obs = generate_synthetic(SyntheticSpec(20, 15, 2, 0.5, seed=17))
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=3, inner_iterations=4,
            mechanism=MechanismConfig.huber(1.0), seed=11,
        )
        a = irls_huber(obs, cfg)
        b = irls_huber(obs, cfg)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_empty_column_without_noise_is_zero(self):
        obs = ObservedMatrix.from_entries(
            3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (0, 1, 0.5)]
        )
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=2, inner_iterations=3, seed=12)
        factors = irls_huber(obs, cfg)
        np.testing.assert_array_equal(factors.V[2], np.zeros(2))


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_empty_column_under_noise_is_last_draw_over_lam(solve):
    # column 2 has no observations, so its update solves lam I theta = t with
    # t column 2's last noise draw of the final sweep
    obs = ObservedMatrix.from_entries(
        3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0), (0, 1, 0.5)]
    )
    mech = MechanismConfig.huber(1.2)
    cfg = SolverConfig(
        rank=2, lam=0.7, outer_iterations=3, inner_iterations=4,
        mechanism=mech, seed=14,
    )
    factors = solve(obs, cfg)
    *_, stream = _replay(cfg.seed, obs, 2, sweep=cfg.outer_iterations - 1)
    iterations = 1
    if solve is irls_huber:
        stream.standard_normal((obs.n, 2))  # the IRLS start block comes first
        iterations = cfg.inner_iterations
    noise = sample(mech, obs.n * iterations * 2, stream).values.reshape(obs.n, iterations, 2)
    np.testing.assert_allclose(factors.V[2], noise[2, -1] / cfg.lam, rtol=1e-15, atol=0)


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_sweep_draws_start_block_then_noise_block(solve):
    # pins the draw layout: one stream per sweep, the (n, r) IRLS starts
    # first, then every column's noise in one sample call
    x, obs = generate_synthetic(SyntheticSpec(15, 12, 2, 0.5, seed=19))
    mech = MechanismConfig.huber(1.5)
    cfg = SolverConfig(
        rank=2, lam=0.6, outer_iterations=1, inner_iterations=4,
        mechanism=mech, seed=15,
    )
    factors = solve(obs, cfg)
    _, v0, stream = _replay(cfg.seed, obs, 2, sweep=0)
    alpha, iterations, init = math.inf, 1, None
    if solve is irls_huber:
        alpha, iterations = resolve_loss_alpha(cfg), cfg.inner_iterations
        init = stream.standard_normal((obs.n, 2))
    noise = sample(mech, obs.n * iterations * 2, stream).values.reshape(obs.n, iterations, 2)
    row_groups = _target_groups(obs.rows, obs.cols, obs.values, obs.m, cfg.rank)
    col_groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, cfg.rank)
    u1 = _half_sweep(row_groups, v0, cfg.lam, math.inf, 1, None, None, obs.m)
    v1 = _half_sweep(col_groups, u1, cfg.lam, alpha, iterations, init, noise, obs.n)
    np.testing.assert_array_equal(factors.U, u1)
    np.testing.assert_array_equal(factors.V, v1)


@pytest.mark.parametrize("solve,iterations", [(noisy_als, 1), (irls_huber, 5)])
def test_noisy_solve_samples_one_block_per_sweep(monkeypatch, solve, iterations):
    sizes = []

    def counting_sample(mech, k, rng):
        sizes.append(k)
        return sample(mech, k, rng)

    monkeypatch.setattr(lrmc, "sample", counting_sample)
    x, obs = generate_synthetic(SyntheticSpec(20, 15, 2, 0.5, seed=16))
    cfg = SolverConfig(
        rank=2, lam=0.5, outer_iterations=3, inner_iterations=5,
        mechanism=MechanismConfig.laplace(1.0), seed=10,
    )
    solve(obs, cfg)
    assert sizes == [obs.n * iterations * cfg.rank] * cfg.outer_iterations


def test_noiseless_als_draws_nothing():
    draws = _column_draws(MechanismConfig.none(), 1, 2, 0, 15, 1, 2, draw_init=False)
    assert draws == (None, None)


def test_divergent_solve_raises_solver_divergence():
    # ratings scaled by 1e200 give a finite U after the first row half-sweep,
    # but U^T U overflows in the column half-sweep that follows
    x, obs = generate_synthetic(SyntheticSpec(30, 25, 2, 0.5, seed=8))
    huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, obs.values * 1e200)
    cfg = SolverConfig(rank=2, outer_iterations=3, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverDivergence) as info:
            noisy_als(huge, cfg)
    assert (info.value.solver, info.value.sweep, info.value.half) == ("noisy_als", 0, "v")


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_row_half_divergence_names_u(solve):
    # every rating 1e308: V^T y overflows in the first row half-sweep
    x, obs = generate_synthetic(SyntheticSpec(30, 25, 2, 0.5, seed=8))
    huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, np.full(obs.n_observed, 1e308))
    cfg = SolverConfig(rank=2, outer_iterations=3, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverDivergence) as info:
            solve(huge, cfg)
    assert (info.value.solver, info.value.sweep, info.value.half) == (solve.__name__, 0, "u")


# The engine against the single-target references over ranks 1..32: each
# instance mixes light (0-3) and heavy (20-60) targets and always has at
# least one target without observations.
_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_COUNTS = st.lists(st.integers(0, 3) | st.integers(20, 60), min_size=1, max_size=12)


def _engine_instance(seed, rank, counts):
    """Fixed factor, observed (target, other, value) triplets and target count."""
    rng = np.random.default_rng(seed)
    counts = rng.permutation(counts + [0])
    num_other = max(int(counts.max()), 1)
    other = rng.standard_normal((num_other, rank))
    target_idx = np.repeat(np.arange(counts.size), counts)
    other_idx = np.concatenate([rng.choice(num_other, c, replace=False) for c in counts])
    values = 3.0 * rng.standard_normal(target_idx.size)
    return other, target_idx, other_idx, values, counts.size


class TestEngineAgainstReference:
    @_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 32),
        counts=_COUNTS,
        lam=st.floats(0.1, 2.0),
    )
    def test_ridge_half_sweep_matches_ridge_solve(self, seed, rank, counts, lam):
        other, target_idx, other_idx, values, n = _engine_instance(seed, rank, counts)
        noise = np.random.default_rng(seed + 1).standard_normal((n, 1, rank))
        groups = _target_groups(target_idx, other_idx, values, n, rank)
        got = _half_sweep(groups, other, lam, math.inf, 1, None, noise, n)
        for j in range(n):
            mine = target_idx == j
            if mine.any():
                problem = RidgeProblem(other[other_idx[mine]], values[mine], lam)
                expected = ridge_solve(problem, NoiseDraw(noise[j, 0]))
            else:
                expected = noise[j, 0] / lam
            np.testing.assert_allclose(got[j], expected, rtol=0, atol=1e-9)

    @_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 32),
        counts=_COUNTS,
        lam=st.floats(0.1, 2.0),
        alpha=st.floats(0.2, 5.0),
        iterations=st.integers(1, 5),
    )
    def test_irls_half_sweep_matches_r_irls(self, seed, rank, counts, lam, alpha, iterations):
        instance = _engine_instance(seed, rank, counts)
        config = IrlsConfig(alpha, lam, iterations, MechanismConfig.huber(alpha))
        got, expected = _engine_and_r_irls(seed, instance, config)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    @_PROPERTY
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 32),
        counts=_COUNTS,
        lam=st.floats(0.1, 2.0),
        # above 50 every weight of these instances is 1 from the start, so
        # the engine stops at its second iteration
        alpha=st.floats(0.2, 5.0) | st.floats(50.0, 1e9),
        iterations=st.integers(1, 5),
    )
    def test_noiseless_irls_half_sweep_matches_r_irls(
        self, seed, rank, counts, lam, alpha, iterations
    ):
        instance = _engine_instance(seed, rank, counts)
        config = IrlsConfig(alpha, lam, iterations, MechanismConfig.none())
        got, expected = _engine_and_r_irls(seed, instance, config)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def _engine_and_r_irls(seed, instance, config):
    """_half_sweep against r_irls(default_rng((seed, j))) for every target j,
    replaying each stream into the engine's start and noise blocks."""
    other, target_idx, other_idx, values, n = instance
    rank, iterations = other.shape[1], config.iterations
    expected = np.empty((n, rank))
    init = np.empty((n, rank))
    noise = np.empty((n, iterations, rank))
    for j in range(n):
        mine = target_idx == j
        a, y = other[other_idx[mine]], values[mine]
        expected[j] = r_irls(y, a, config, np.random.default_rng((seed, j)))
        stream = np.random.default_rng((seed, j))
        init[j] = stream.standard_normal(rank)
        noise[j] = sample(config.noise, iterations * rank, stream).values.reshape(iterations, rank)
    if config.noise.kind == "none":
        noise = None
    groups = _target_groups(target_idx, other_idx, values, n, rank)
    got = _half_sweep(groups, other, config.lam, config.alpha, iterations, init, noise, n)
    return got, expected


class TestNoiselessFixedPoint:
    # exactly rank-8 values plus five +10 outliers: at alpha 1 the noiseless
    # IRLS weights of both count groups repeat within K = 20 iterations
    RANK, K, ALPHA, LAM = 8, 20, 1.0, 0.5

    def _instance(self):
        other, target_idx, other_idx, _, n = _engine_instance(0, self.RANK, [2, 25, 40, 60, 3])
        rng = np.random.default_rng(1)
        truth = rng.standard_normal((n, self.RANK))
        values = np.einsum("er,er->e", other[other_idx], truth[target_idx])
        values[rng.choice(values.size, 5, replace=False)] += 10.0
        groups = _target_groups(target_idx, other_idx, values, n, self.RANK)
        return groups, other, rng.standard_normal((n, self.RANK)), n

    def test_stopping_at_repeated_weights_equals_all_iterations(self):
        groups, other, init, n = self._instance()
        got = _half_sweep(groups, other, self.LAM, self.ALPHA, self.K, init, None, n)
        # zero noise takes the noisy path, which runs all K iterations
        zeros = np.zeros((n, self.K, self.RANK))
        full = _half_sweep(groups, other, self.LAM, self.ALPHA, self.K, init, zeros, n)
        np.testing.assert_array_equal(got, full)

    def test_repeated_weights_skip_the_remaining_solves(self, monkeypatch):
        groups, other, init, n = self._instance()
        assert len(groups) > 1
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        _half_sweep(groups, other, self.LAM, self.ALPHA, self.K, init, None, n)
        assert len(calls) < len(groups) * self.K


class TestThreadedHalves:
    """Forced onto threads (no work floor, 2 or 3 workers), a solve gives the
    serial factors bit for bit: each group runs the same arithmetic in
    whichever thread takes it."""

    RANK = 12

    def _observed(self):
        # row and column probabilities ramp from sparse to dense, so both
        # halves split into 4 count groups; row 11 and column 7 are empty
        rng = np.random.default_rng(3)
        m, n = 80, 60
        mask = rng.random((m, n)) < np.outer(np.linspace(0.05, 1, m), np.linspace(0.1, 1, n))
        mask[11, :] = False
        mask[:, 7] = False
        rows, cols = np.nonzero(mask)
        truth = rng.standard_normal((m, self.RANK)) @ rng.standard_normal((self.RANK, n))
        values = truth[rows, cols] + rng.standard_t(2, rows.size)
        obs = ObservedMatrix(m, n, rows, cols, values)
        for t, o, size in ((rows, cols, m), (cols, rows, n)):
            assert len(_target_groups(t, o, values, size, self.RANK)) == 4
        return obs

    @staticmethod
    def _record_solve_threads(monkeypatch):
        """The names of the threads that call np.linalg.solve from now on."""
        threads = set()
        solve_one = np.linalg.solve

        def recording_solve(a, b):
            threads.add(threading.current_thread().name)
            return solve_one(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        return threads

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("kind", ["none", "huber"])
    @pytest.mark.parametrize("solve", [noisy_als, irls_huber])
    def test_threads_give_the_serial_factors(self, monkeypatch, solve, kind, workers):
        obs = self._observed()
        mech = MechanismConfig.none() if kind == "none" else MechanismConfig.huber(1.3)
        cfg = SolverConfig(
            rank=self.RANK, lam=0.5, outer_iterations=3, inner_iterations=5,
            huber_loss_alpha=1.0, mechanism=mech, seed=17,
        )
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 1)
        serial = solve(obs, cfg)

        threads = self._record_solve_threads(monkeypatch)
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        alive = threading.active_count()
        threaded = solve(obs, cfg)
        assert threading.active_count() == alive  # the solve joined its threads
        # the calling thread ran one part and the solve's own workers the rest
        assert threading.current_thread().name in threads and len(threads) > 1
        np.testing.assert_array_equal(threaded.U, serial.U)
        np.testing.assert_array_equal(threaded.V, serial.V)

    def test_more_workers_than_cores_under_rapid_switching(self, monkeypatch):
        # 8 workers on 13 count groups, the interpreter switching threads
        # every 10 us: a lost or misplaced row write would change the result
        other, target_idx, other_idx, values, n = _engine_instance(
            4, 32, list(range(1, 400, 7)) * 2
        )
        groups = _target_groups(target_idx, other_idx, values, n, 32)
        assert len(groups) == 13
        noise = np.random.default_rng(5).standard_normal((n, 1, 32))
        serial = _half_sweep(groups, other, 0.5, math.inf, 1, None, noise, n)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(7) as pool:
                deadline = time.monotonic() + 5.0
                for _ in range(10):
                    threaded = _half_sweep(
                        groups, other, 0.5, math.inf, 1, None, noise, n, pool, 8
                    )
                    np.testing.assert_array_equal(threaded, serial)
                    if time.monotonic() > deadline:
                        break
        finally:
            sys.setswitchinterval(interval)

    def test_small_halves_stay_serial(self, monkeypatch):
        threads = self._record_solve_threads(monkeypatch)
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 2)
        noisy_als(self._observed(), SolverConfig(rank=self.RANK, outer_iterations=2))
        assert threads == {threading.current_thread().name}

    def test_divergence_is_reported_from_threads(self, monkeypatch):
        # the caller's np.errstate reaches the workers: the overflow stays
        # silent there and the solver names the diverged half
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        obs = self._observed()
        huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, obs.values * 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergence) as info:
                noisy_als(huge, SolverConfig(rank=self.RANK, outer_iterations=3, seed=1))
        assert (info.value.sweep, info.value.half) == (0, "v")

    def test_error_in_a_later_part_waits_for_every_part(self, monkeypatch):
        # four groups of 1, 1, 2 and 3 targets dealt to 3 parts: part 1 holds
        # only the second group, whose ids are out of range, and fails at
        # once; part 2's solve is slow (part 0 runs in the calling thread)
        other, target_idx, other_idx, values, n = _engine_instance(
            0, 32, [5, 30, 30, 60, 60, 60]
        )
        groups = _target_groups(target_idx, other_idx, values, n, 32)
        assert [ids.size for ids, _, _ in groups] == [1, 1, 2, 3]
        _, oidx, vals = groups[1]
        groups[1] = (np.array([n + 5]), oidx, vals)
        finished = []
        solve_one = np.linalg.solve

        def slow_solve(a, b):
            if a.shape[0] == 2:
                time.sleep(0.3)
            result = solve_one(a, b)
            finished.append(a.shape[0])
            return result

        monkeypatch.setattr(np.linalg, "solve", slow_solve)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(IndexError):
                _half_sweep(groups, other, 0.5, math.inf, 1, None, None, n, pool, 3)
            assert sorted(finished) == [1, 1, 2, 3]


class TestTargetGroups:
    @_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 32), counts=_COUNTS)
    def test_grouping_invariants(self, seed, rank, counts):
        other, target_idx, other_idx, values, n = _engine_instance(seed, rank, counts)
        counts = np.bincount(target_idx, minlength=n)
        groups = _target_groups(target_idx, other_idx, values, n, rank)
        covered = np.concatenate([ids for ids, _, _ in groups])
        assert np.array_equal(np.sort(covered), np.arange(n))
        for ids, oidx, vals in groups:
            width = oidx.shape[1]
            assert oidx.shape == vals.shape == (ids.size, width)
            assert width == counts[ids].max()
            for t, row_idx, row_vals in zip(ids, oidx, vals):
                c = counts[t]
                mine = target_idx == t
                # the observed entries fill the first c slots, each once
                assert sorted(zip(row_idx[:c], row_vals[:c])) == sorted(
                    zip(other_idx[mine], values[mine])
                )
                assert (row_idx[c:] == -1).all() and (row_vals[c:] == 0.0).all()
        # groups cover disjoint count ranges; each merge obeyed the rule, and
        # each group stopped where the next merge would have broken it
        def may_merge(members, width, c, g):
            # the run `members` (largest count `width`) absorbs the g targets
            # of count c within the Gram budget, or while its batch keeps the
            # GIL and padding stays at most 1/8 of the merged group's slots
            padding = c * members.size - counts[members].sum()
            return (c - width) * members.size * rank**2 <= lrmc._MERGE_BUDGET or (
                members.size * rank <= lrmc._GIL_BATCH
                and 8 * padding <= c * (members.size + g)
            )

        spans = sorted(
            ((counts[ids].min(), counts[ids].max(), ids) for ids, _, _ in groups),
            key=lambda span: span[0],
        )
        for (_, width, ids), (low, _, nxt) in zip(spans, spans[1:]):
            assert not may_merge(ids, width, low, int((counts[nxt] == low).sum()))
        for _, _, ids in spans:
            distinct = np.unique(counts[ids])
            for w, c in zip(distinct, distinct[1:]):
                members = ids[counts[ids] <= w]
                assert may_merge(members, w, c, int((counts[ids] == c).sum()))

    def test_rank5_synthetic_mask_merges_into_few_groups(self):
        # at rank 5 the IRLS V half-sweep is bound by numpy call overhead,
        # paid K times per group, so the merge must collapse the ~28 distinct
        # column counts of this mask into a few groups
        _, obs = generate_synthetic(SyntheticSpec(500, 500, 5, 0.05))
        groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, 5)
        assert len(groups) <= 6

    def test_rank32_heavy_tail_pads_at_most_an_eighth(self):
        # at rank 32 a batch of 15 or fewer systems keeps the GIL in
        # np.linalg.solve, so small groups merge until they release it; each
        # padded slot costs r^2 Gram work, so a group stays at most 1/8
        # padding (uncapped, this Zipf-like item-count vector would pad 39%)
        p = 1.0 / np.arange(1, 1683) ** 0.9
        counts = np.random.default_rng(0).multinomial(71_376, p / p.sum())
        target_idx = np.repeat(np.arange(counts.size), counts)
        other_idx = np.zeros_like(target_idx)
        values = np.ones(target_idx.size)
        groups = _target_groups(target_idx, other_idx, values, counts.size, 32)
        for ids, _, vals in groups:
            assert 8 * (vals.size - counts[ids].sum()) <= vals.size
        # few targets are left in batches that keep the GIL (417 of 1682
        # under the Gram budget alone)
        small = sum(ids.size for ids, _, _ in groups if ids.size * 32 <= lrmc._GIL_BATCH)
        assert small < 0.05 * counts.size


class TestSolverConfig:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_invalid_huber_loss_alpha(self, alpha):
        with pytest.raises(ValueError, match="huber_loss_alpha"):
            SolverConfig(rank=1, huber_loss_alpha=alpha)


class TestLossAlphaResolution:
    def test_explicit_override_wins(self):
        cfg = SolverConfig(rank=1, huber_loss_alpha=2.5, mechanism=MechanismConfig.huber(1.0))
        assert resolve_loss_alpha(cfg) == 2.5

    def test_huber_mechanism_alpha_is_shared(self):
        cfg = SolverConfig(rank=1, mechanism=MechanismConfig.huber(1.3))
        assert resolve_loss_alpha(cfg) == 1.3

    def test_none_defaults_to_unit_variance_convention(self):
        cfg = SolverConfig(rank=1)
        assert resolve_loss_alpha(cfg) == UNIT_VARIANCE_ALPHA

    def test_other_mechanisms_match_noise_variance(self):
        cfg = SolverConfig(rank=1, mechanism=MechanismConfig.laplace(1.0))
        alpha = resolve_loss_alpha(cfg)
        assert huber_variance(alpha) == pytest.approx(2.0, abs=1e-8)


class TestCompletionObjective:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        x, obs = generate_synthetic(SyntheticSpec(8, 7, 2, 0.5, seed=18))
        u = rng.standard_normal((8, 2))
        v = rng.standard_normal((7, 2))
        z = u @ v.T
        total = sum(
            (val - z[i, j]) ** 2 for i, j, val in obs.entries
        ) + 0.5 * ((u**2).sum() + (v**2).sum())
        assert completion_objective(obs, u, v, 0.5) == pytest.approx(total, rel=1e-12)
