"""Tests for the matrix-completion solvers and metrics.

The batched half-sweep engine is cross-checked column by column against
literal single-target ridge and IRLS solves written out below (r_irls and
ridge_solve run the engine's own steps, _irls and _ridge, so they cannot be
its oracle), fed with identical starts and noise, so the fast path and the
per-column algorithm stay interchangeable. Solver runs are replayed from
their seed: the initial factors, then one stream per sweep holding the
(n, r) IRLS start block and the (n, K, r) noise block, in that order.
"""

import math
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from huberdp import lrmc
from huberdp.data_io import generate_synthetic, mask_entries
from huberdp.lrmc import (
    FactorPair,
    ObservedMatrix,
    SolverConfig,
    SolverDivergence,
    _column_draws,
    _deal,
    _half_sweep,
    _target_groups,
    completion_objective,
    irls_huber,
    noisy_als,
    resolve_loss_alpha,
    rmse,
)
from huberdp.mechanisms import (
    MechanismConfig,
    UNIT_VARIANCE_ALPHA,
    huber_variance,
    sample,
)
from huberdp.robust_solvers import IrlsConfig, RidgeProblem, r_irls, ridge_solve


def _reference_ridge(a, y, lam, t=0.0):
    """(AtA + lam I)^-1 (At y + t), one system at a time."""
    return np.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]), a.T @ y + t)


def _reference_irls(y, a, config, rng):
    """r_irls written out one system at a time: the start, then one block of
    every iteration's noise, then K weighted ridge solves with the Huber
    weights alpha / max(|r|, alpha)."""
    q = a.shape[1]
    eye = config.lam * np.eye(q)
    theta = rng.standard_normal(q)
    noise = sample(config.noise, config.iterations * q, rng).values
    for t in noise.reshape(config.iterations, q):
        awt = a.T * (config.alpha / np.maximum(np.abs(y - a @ theta), config.alpha))
        theta = np.linalg.solve(awt @ a + eye, awt @ y + t)
    return theta


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
            ObservedMatrix(2, 2, [0, 0], [0, 0], [1.0, 2.0])
        # the two (1, 2) entries are not neighbours in input order
        with pytest.raises(ValueError, match="duplicate"):
            ObservedMatrix(3, 3, [1, 0, 2, 1], [2, 0, 1, 2], [1.0, 1.0, 1.0, 2.0])

    def test_shape_whose_keys_would_wrap_rejected(self):
        # (0, 0) and (2**32, 0) of a (2**32 + 1) x 2**32 matrix share the
        # int64 key 2**64 mod 2**64 = 0; the shape is refused, not the pair
        with pytest.raises(ValueError, match=r"4294967297x4294967296 matrix has 2\*\*63"):
            ObservedMatrix(2**32 + 1, 2**32, rows=[0, 2**32], cols=[0, 0], values=[1.0, 2.0])
        # 2**63 - 2**31 entries: the largest key still fits
        obs = ObservedMatrix(2**31, 2**32 - 1, rows=[0, 2**31 - 1], cols=[2**32 - 2, 0],
                             values=[1.0, 2.0])
        assert obs.n_observed == 2

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix(2, 2, [2], [0], [1.0])

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            ObservedMatrix(2, 2, [0], [0], [np.nan])

    @pytest.mark.parametrize(
        "m,rows,cols,values,message",
        [(0, [], [], [], "m must be >= 1, got 0"),
         (2, [0, 1], [0], [1.0, 2.0], "1-d arrays of equal length"),
         (2, [0], [2], [1.0], "column index out of range"),
         # a cast would truncate these to the entries (0, 1) and (1, 0)
         (2, [0.5, 1.9], [1, 0], [1.0, 2.0], "rows must be integer coordinates, got 0.5"),
         (2, [0, 1], [1.7, 0], [1.0, 2.0], "cols must be integer coordinates, got 1.7"),
         (2, [np.nan], [0], [1.0], "rows must be finite"),
         # a bool array would run as the rows 1 and 0
         (2, np.array([True, False]), [0, 1], [1.0, 2.0],
          "rows must be integer coordinates, got True"),
         # a cast would keep only the real parts 0 and 1
         (2, np.array([0, 1]) + 1j, [0, 1], [1.0, 2.0],
          "rows must be a real array, got dtype complex128"),
         (2, [0, 1], np.array([1, 0]) + 0j, [1.0, 2.0],
          "cols must be a real array, got dtype complex128"),
         # a cast would parse these as the numbers 0 and 1
         (2, np.array(["0", "1"]), [0, 1], [1.0, 2.0],
          "rows must be a real array, got dtype <U1"),
         (2, [0, 1], np.array(["1", "0"]), [1.0, 2.0],
          "cols must be a real array, got dtype <U1")],
        ids=["zero-m", "ragged", "column-out-of-range", "fractional-row",
             "fractional-col", "nan-row", "bool-row", "complex-row", "complex-col",
             "string-row", "string-col"],
    )
    def test_malformed_triplets_rejected(self, m, rows, cols, values, message):
        with pytest.raises(ValueError, match=message):
            ObservedMatrix(m, 2, rows, cols, values)


class TestFactorPair:
    @pytest.mark.parametrize(
        "u,v,message",
        [(np.ones(3), np.ones((3, 1)), "must be 2-d"),
         (np.ones((2, 3)), np.ones((4, 3)), "rank exceeds min"),
         # a cast would keep only the real part of U
         (np.ones((3, 1)) + 1j, np.ones((3, 1)), "U must be a real array, got dtype complex128"),
         (np.ones((3, 1)), np.full((3, 1), np.nan), "V must be finite")],
        ids=["one-dimensional", "rank-above-shape", "complex-u", "nan-v"],
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

    @pytest.mark.parametrize(
        "rows,cols,message",
        # numpy would read -1 as the last row, and raise its own IndexError
        # naming no argument for 3
        [([-1], [0], "row index out of range"),
         ([3], [0], "row index out of range"),
         ([0], [-1], "column index out of range"),
         ([0], [4], "column index out of range"),
         ([0.5], [0], "rows must be integer coordinates, got 0.5"),
         ([0], np.array([1 + 1j]), "cols must be a real array, got dtype complex128"),
         # a lone column would be broadcast against both rows
         ([0, 1], [0], "rows, cols must be 1-d arrays of equal length"),
         ([[0, 1]], [[0, 1]], "rows, cols must be 1-d arrays of equal length")],
        ids=["negative-row", "row-past-end", "negative-col", "col-past-end",
             "fractional-row", "complex-col", "unequal-lengths", "two-d"],
    )
    def test_predict_entries_refuses_bad_coordinates(self, rows, cols, message):
        f = FactorPair(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(ValueError, match=message):
            f.predict_entries(rows, cols)


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
        obs = ObservedMatrix(6, 6, [0, 3, 5], [0, 2, 5], [x[0, 0], x[3, 2], x[5, 5]])
        f = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)))
        z = f.U @ f.V.T
        expected = math.sqrt(
            ((x[0, 0] - z[0, 0]) ** 2 + (x[3, 2] - z[3, 2]) ** 2 + (x[5, 5] - z[5, 5]) ** 2) / 3
        )
        assert rmse(obs, f) == pytest.approx(expected, abs=1e-12)

    def test_empty_index_set_rejected(self):
        obs = ObservedMatrix(2, 2, [], [], [])
        f = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            rmse(obs, f)

    def test_empty_dense_truth_rejected(self):
        f = FactorPair(np.zeros((3, 0)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="cannot compute RMSE over an empty index set"):
            rmse(np.zeros((3, 0)), f)

    # 37 x 500 sums 16-row blocks and a 5-row tail; a row of 9000 entries
    # exceeds a block, so each block is one row
    @pytest.mark.parametrize("m,n", [(37, 500), (3, 9000)], ids=["row-blocks", "one-row-blocks"])
    def test_dense_blocks_match_the_whole_difference(self, m, n):
        rng = np.random.default_rng(6)
        f = FactorPair(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
        x = rng.standard_normal((m, n))
        expected = np.linalg.norm(x - f.U @ f.V.T) / math.sqrt(m * n)
        assert rmse(x, f) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "truth",
        [np.ones((4, 3)),
         mask_entries(np.ones((3, 9)), 1.0, np.random.default_rng(0)),
         mask_entries(np.ones((5, 4)), 1.0, np.random.default_rng(0))],
        ids=["dense", "observed-wider", "observed-taller"],
    )
    def test_truth_shape_checked(self, truth):
        f = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="truth shape"):
            rmse(truth, f)

    def test_nonfinite_dense_truth_rejected(self):
        # an RMSE of nan would score the solve as neither good nor bad
        truth = np.ones((3, 4))
        truth[1, 2] = np.nan
        with pytest.raises(ValueError, match="truth must be finite"):
            rmse(truth, FactorPair(np.ones((3, 1)), np.ones((4, 1))))


class TestComplete:
    def test_noiseless_full_rank_fit_interpolates(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6))
        obs = mask_entries(x, 1.0, rng)
        cfg = SolverConfig(rank=6, lam=1e-9, outer_iterations=60)
        factors = noisy_als(obs, cfg, 0)
        z = factors.predict_entries(obs.rows, obs.cols)
        np.testing.assert_allclose(z, obs.values, atol=1e-6)


class TestNoisyAls:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(6)
        x = np.outer(rng.standard_normal(5), rng.standard_normal(5))
        obs = mask_entries(x, 1.0, rng)
        cfg = SolverConfig(rank=1, lam=1e-3, outer_iterations=50)
        factors = noisy_als(obs, cfg, 1)
        assert rmse(x, factors) < 1e-3

    def test_full_rank_interpolation(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 5))
        obs = mask_entries(x, 1.0, rng)
        cfg = SolverConfig(rank=5, lam=1e-9, outer_iterations=80)
        assert rmse(x, noisy_als(obs, cfg, 2)) < 1e-3

    def test_seeded_reproducibility_bit_identical(self):
        x, obs = generate_synthetic(30, 25, 2, 0.5, 8)
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=5,
            mechanism=MechanismConfig.huber(1.0),
        )
        a = noisy_als(obs, cfg, 13)
        b = noisy_als(obs, cfg, 13)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    @pytest.mark.parametrize("kind,variance", [("huber", 2.0), ("laplace", 2.0), ("gaussian", 2.0)])
    def test_noise_only_in_column_sweep(self, kind, variance):
        x, obs = generate_synthetic(20, 15, 2, 0.5, 9)
        mech = MechanismConfig.from_variance(kind, variance)
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=4, mechanism=mech)
        assert noisy_als(obs, cfg, 3).noise_draws == 4 * obs.n * cfg.rank

    def test_no_noise_consumes_no_draws(self):
        x, obs = generate_synthetic(20, 15, 2, 0.5, 10)
        factors = noisy_als(obs, SolverConfig(rank=2, lam=0.5, outer_iterations=3), 0)
        assert factors.noise_draws == 0

    def test_noiseless_objective_monotone(self):
        x, obs = generate_synthetic(40, 35, 3, 0.3, 11)
        cfg = SolverConfig(rank=3, lam=0.5, outer_iterations=15)
        history = []
        noisy_als(obs, cfg, 4, history=history)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        x, obs = generate_synthetic(12, 10, 2, 0.6, 12)
        perm = rng.permutation(obs.m)
        permuted = ObservedMatrix(obs.m, obs.n, perm[obs.rows], obs.cols, obs.values)
        # permuting rows leaves the columns, and so the V start, as they are
        v0 = rng.standard_normal((obs.n, 2))
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=5)
        base = noisy_als(obs, cfg, 5, init=v0)
        moved = noisy_als(permuted, cfg, 5, init=v0)
        np.testing.assert_allclose(moved.U[perm], base.U, atol=1e-10)
        x_permuted = np.empty_like(x)
        x_permuted[perm] = x
        assert rmse(x_permuted, moved) == pytest.approx(rmse(x, base), abs=1e-10)

    @pytest.mark.parametrize("solve", [noisy_als, irls_huber])
    def test_column_permutation_equivariance(self, solve):
        rng = np.random.default_rng(12)
        x, obs = generate_synthetic(12, 10, 2, 0.6, 12)
        perm = rng.permutation(obs.n)
        permuted = ObservedMatrix(obs.m, obs.n, obs.rows, perm[obs.cols], obs.values)
        # column j moves to perm[j], and its row of the V start with it
        v0 = rng.standard_normal((obs.n, 2))
        v0_permuted = np.empty_like(v0)
        v0_permuted[perm] = v0
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=5)
        base = solve(obs, cfg, 5, init=v0)
        moved = solve(permuted, cfg, 5, init=v0_permuted)
        np.testing.assert_allclose(moved.U, base.U, atol=1e-10)
        np.testing.assert_allclose(moved.V[perm], base.V, atol=1e-10)

    def test_column_update_matches_ridge_solve(self):
        # one sweep of the batched engine equals per-column reference solves
        x, obs = generate_synthetic(15, 12, 2, 0.5, 13)
        mech = MechanismConfig.huber(2.0)
        cfg = SolverConfig(rank=2, lam=0.7, outer_iterations=1, mechanism=mech)
        factors = noisy_als(obs, cfg, np.random.default_rng(21))
        _, v0, stream = _replay(21, obs, 2, sweep=0)
        noise = sample(mech, obs.n * 2, stream).values.reshape(obs.n, 1, 2)
        u1 = np.empty((obs.m, 2))
        for i in range(obs.m):
            mine = obs.rows == i
            u1[i] = _reference_ridge(v0[obs.cols[mine]], obs.values[mine], cfg.lam)
        v1 = np.empty((obs.n, 2))
        for j in range(obs.n):
            mine = obs.cols == j
            v1[j] = _reference_ridge(u1[obs.rows[mine]], obs.values[mine], cfg.lam, noise[j, 0])
        np.testing.assert_allclose(factors.U, u1, atol=1e-10)
        np.testing.assert_allclose(factors.V, v1, atol=1e-10)

    def test_empty_column_without_noise_is_zero(self):
        # column 2 has no observations
        obs = ObservedMatrix(3, 3, [0, 1, 2, 0], [0, 1, 0, 1], [1.0, 2.0, 3.0, 0.5])
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=3)
        factors = noisy_als(obs, cfg, 7)
        np.testing.assert_array_equal(factors.V[2], np.zeros(2))

    def test_rank_validation(self):
        obs = ObservedMatrix(3, 3, [0], [0], [1.0])
        with pytest.raises(ValueError):
            noisy_als(obs, SolverConfig(rank=4, lam=0.5, outer_iterations=1), 0)

    def test_init_shape_checked(self):
        obs = ObservedMatrix(3, 4, [0], [0], [1.0])
        with pytest.raises(ValueError, match=r"init must be the \(4, 2\) start of V, got \(3, 2\)"):
            noisy_als(obs, SolverConfig(rank=2, outer_iterations=1), 0, init=np.ones((3, 2)))

    @pytest.mark.parametrize("solve", [noisy_als, irls_huber])
    def test_complex_init_rejected(self, solve):
        # a cast would start V from the real parts
        obs = ObservedMatrix(3, 4, [0], [0], [1.0])
        with pytest.raises(ValueError, match="init must be a real array, got dtype complex128"):
            solve(obs, SolverConfig(rank=2, outer_iterations=1), 0, init=np.ones((4, 2)) + 1j)


class TestIrlsHuber:
    def test_matches_als_when_weights_stay_unit(self):
        # a huge loss transition keeps every weight at 1, so the IRLS column
        # update collapses onto the ridge update and the trajectories agree
        x, obs = generate_synthetic(25, 20, 2, 0.5, 14)
        als_cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=8)
        irls_cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=8, inner_iterations=20, huber_loss_alpha=1e9,
        )
        a = noisy_als(obs, als_cfg, 8)
        b = irls_huber(obs, irls_cfg, 8)
        np.testing.assert_allclose(a.U, b.U, atol=1e-6)
        np.testing.assert_allclose(a.V, b.V, atol=1e-6)

    def test_column_update_matches_r_irls(self):
        # the batched engine must reproduce literal per-column IRLS solves
        # when fed the start and noise each call draws from its stream
        x, obs = generate_synthetic(15, 12, 2, 0.5, 15)
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
            expected[j] = _reference_irls(y, a, irls_config, np.random.default_rng(j))
            stream = np.random.default_rng(j)
            init[j] = stream.standard_normal(r)
            noise[j] = sample(mech, iterations * r, stream).values.reshape(iterations, r)
        groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, r)
        got = _half_sweep([groups], u, lam, 1.5, iterations, init, noise, obs.n)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_noise_draw_accounting(self):
        x, obs = generate_synthetic(20, 15, 2, 0.5, 16)
        mech = MechanismConfig.laplace(1.0)
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=3, inner_iterations=5,
            mechanism=mech,
        )
        assert irls_huber(obs, cfg, 10).noise_draws == 3 * obs.n * 5 * cfg.rank

    def test_seeded_reproducibility(self):
        x, obs = generate_synthetic(20, 15, 2, 0.5, 17)
        cfg = SolverConfig(
            rank=2, lam=0.5, outer_iterations=3, inner_iterations=4,
            mechanism=MechanismConfig.huber(1.0),
        )
        a = irls_huber(obs, cfg, 11)
        b = irls_huber(obs, cfg, 11)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_empty_column_without_noise_is_zero(self):
        obs = ObservedMatrix(3, 3, [0, 1, 2, 0], [0, 1, 0, 1], [1.0, 2.0, 3.0, 0.5])
        cfg = SolverConfig(rank=2, lam=0.5, outer_iterations=2, inner_iterations=3)
        factors = irls_huber(obs, cfg, 12)
        np.testing.assert_array_equal(factors.V[2], np.zeros(2))


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_empty_column_under_noise_is_last_draw_over_lam(solve):
    # column 2 has no observations, so its update solves lam I theta = t with
    # t column 2's last noise draw of the final sweep
    obs = ObservedMatrix(3, 3, [0, 1, 2, 0], [0, 1, 0, 1], [1.0, 2.0, 3.0, 0.5])
    mech = MechanismConfig.huber(1.2)
    cfg = SolverConfig(
        rank=2, lam=0.7, outer_iterations=3, inner_iterations=4,
        mechanism=mech,
    )
    factors = solve(obs, cfg, 14)
    *_, stream = _replay(14, obs, 2, sweep=cfg.outer_iterations - 1)
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
    x, obs = generate_synthetic(15, 12, 2, 0.5, 19)
    mech = MechanismConfig.huber(1.5)
    cfg = SolverConfig(
        rank=2, lam=0.6, outer_iterations=1, inner_iterations=4,
        mechanism=mech,
    )
    factors = solve(obs, cfg, 15)
    _, v0, stream = _replay(15, obs, 2, sweep=0)
    alpha, iterations, init = math.inf, 1, None
    if solve is irls_huber:
        alpha, iterations = resolve_loss_alpha(cfg), cfg.inner_iterations
        init = stream.standard_normal((obs.n, 2))
    noise = sample(mech, obs.n * iterations * 2, stream).values.reshape(obs.n, iterations, 2)
    row_groups = _target_groups(obs.rows, obs.cols, obs.values, obs.m, cfg.rank)
    col_groups = _target_groups(obs.cols, obs.rows, obs.values, obs.n, cfg.rank)
    u1 = _half_sweep([row_groups], v0, cfg.lam, math.inf, 1, None, None, obs.m)
    v1 = _half_sweep([col_groups], u1, cfg.lam, alpha, iterations, init, noise, obs.n)
    np.testing.assert_array_equal(factors.U, u1)
    np.testing.assert_array_equal(factors.V, v1)


@pytest.mark.parametrize("solve,iterations", [(noisy_als, 1), (irls_huber, 5)])
def test_noisy_solve_samples_one_block_per_sweep(monkeypatch, solve, iterations):
    sizes = []

    def counting_sample(mech, k, rng):
        sizes.append(k)
        return sample(mech, k, rng)

    monkeypatch.setattr(lrmc, "sample", counting_sample)
    x, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    cfg = SolverConfig(
        rank=2, lam=0.5, outer_iterations=3, inner_iterations=5,
        mechanism=MechanismConfig.laplace(1.0),
    )
    solve(obs, cfg, 10)
    assert sizes == [obs.n * iterations * cfg.rank] * cfg.outer_iterations


def _draw_audit(monkeypatch, solve, obs, cfg):
    """Values drawn through lrmc.sample from each sweep's stream, by the half
    in progress when the draw ends, and the solve's factors, which count its
    noise draws. Sweep s's stream is seeded with the entropy (e0, e1, s), so a
    block drawn ahead on a pool thread counts for the sweep that reads it. The
    history list gets one append per finished half, U first, so an even
    length means a U half is running."""
    sweeps = cfg.outer_iterations
    drawn = {"u": [0] * sweeps, "v": [0] * sweeps}
    history = []
    sample_values = lrmc.sample

    def audited_sample(mech, k, rng):
        draw = sample_values(mech, k, rng)
        sweep = rng.bit_generator.seed_seq.entropy[-1]
        drawn["v" if len(history) % 2 else "u"][sweep] += draw.values.size
        return draw

    monkeypatch.setattr(lrmc, "sample", audited_sample)
    return drawn, solve(obs, cfg, 3, history=history)


def _force_threads(monkeypatch, workers=2):
    """Every half-sweep of a solve on `workers` threads, so the column draws
    of sweeps 1 on are made ahead on the solver's pool."""
    monkeypatch.setattr(lrmc, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)


_AUDIT_CONFIG = SolverConfig(
    rank=2, lam=0.5, outer_iterations=3, inner_iterations=4,
    mechanism=MechanismConfig.huber(1.2),
)


@pytest.mark.parametrize(
    "solve,iterations,threaded",
    [
        pytest.param(noisy_als, 1, False, id="noisy_als-1"),
        pytest.param(irls_huber, 4, False, id="irls_huber-4"),
        pytest.param(noisy_als, 1, True, id="noisy_als-1-threaded"),
        pytest.param(irls_huber, 4, True, id="irls_huber-4-threaded"),
    ],
)
def test_u_half_draws_nothing(monkeypatch, solve, iterations, threaded):
    # one n x K x r block from each sweep's stream, none ending in a U half,
    # also when the blocks of sweeps 1 on are drawn ahead on a pool thread
    if threaded:
        _force_threads(monkeypatch)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    drawn, factors = _draw_audit(monkeypatch, solve, obs, _AUDIT_CONFIG)
    assert drawn["u"] == [0, 0, 0]
    assert drawn["v"] == [obs.n * iterations * _AUDIT_CONFIG.rank] * 3
    assert sum(drawn["v"]) == factors.noise_draws


def test_draw_audit_reports_a_u_half_draw(monkeypatch):
    # a draw slipped into every U half shows in the audit, not in the solve's count
    half_sweep = lrmc._half_sweep
    halves = []

    def leaky_half_sweep(*args):
        if len(halves) % 2 == 0:  # the halves alternate, U first
            stream = np.random.default_rng(np.random.SeedSequence((0, 0, len(halves) // 2)))
            lrmc.sample(MechanismConfig.laplace(1.0), 7, stream)
        halves.append(None)
        return half_sweep(*args)

    monkeypatch.setattr(lrmc, "_half_sweep", leaky_half_sweep)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    drawn, factors = _draw_audit(monkeypatch, noisy_als, obs, _AUDIT_CONFIG)
    assert drawn["u"] == [7, 7, 7]
    assert factors.noise_draws == sum(drawn["v"])


def _record_draw_threads(monkeypatch):
    """(sweep, thread name) of each lrmc.sample call from now on."""
    calls = []
    sample_values = lrmc.sample

    def recording_sample(mech, k, rng):
        calls.append((rng.bit_generator.seed_seq.entropy[-1], threading.current_thread().name))
        return sample_values(mech, k, rng)

    monkeypatch.setattr(lrmc, "sample", recording_sample)
    return calls


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_later_sweeps_draw_on_the_pool(monkeypatch, solve):
    _force_threads(monkeypatch)
    calls = _record_draw_threads(monkeypatch)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    solve(obs, _AUDIT_CONFIG, 3)
    caller = threading.current_thread().name
    assert [sweep for sweep, _ in calls] == [0, 1, 2]
    assert calls[0][1] == caller
    assert all(name != caller for _, name in calls[1:])


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_serial_halves_draw_on_the_caller(monkeypatch, solve):
    # two CPUs, but the 20 x 15 halves stay under _PARALLEL_WORK
    monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 2)
    calls = _record_draw_threads(monkeypatch)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    solve(obs, _AUDIT_CONFIG, 3)
    assert calls == [(s, threading.current_thread().name) for s in range(3)]


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_failed_draw_ahead_is_the_solve_error(monkeypatch, solve):
    # sweep 1's block, drawn on the pool during sweep 0's V half, raises: the
    # solve raises it and leaves no thread behind
    _force_threads(monkeypatch)
    sample_values = lrmc.sample

    def failing_sample(mech, k, rng):
        if rng.bit_generator.seed_seq.entropy[-1] == 1:
            raise RuntimeError("sampler failed at sweep 1")
        return sample_values(mech, k, rng)

    monkeypatch.setattr(lrmc, "sample", failing_sample)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    history = []
    alive = threading.active_count()
    with pytest.raises(RuntimeError, match="sampler failed at sweep 1"):
        solve(obs, _AUDIT_CONFIG, 3, history=history)
    assert threading.active_count() == alive
    assert len(history) == 1  # raised as sweep 0's V half returned


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_v_half_error_masks_a_failed_draw_ahead(monkeypatch, solve):
    # sweep 0's V half raises while sweep 1's block, drawn on the pool, raises
    # too: the solve raises the V half's error once the draw has finished.
    # The V half fails after its own solves, whichever path they take
    _force_threads(monkeypatch)
    history = []
    half_sweep = lrmc._half_sweep
    sample_values = lrmc.sample
    failed_draws = []

    def failing_half_sweep(*args):
        factor = half_sweep(*args)
        if len(history) == 1:
            raise RuntimeError("V half failed at sweep 0")
        return factor

    def failing_sample(mech, k, rng):
        if rng.bit_generator.seed_seq.entropy[-1] == 1:
            failed_draws.append(threading.current_thread().name)
            raise RuntimeError("sampler failed at sweep 1")
        return sample_values(mech, k, rng)

    monkeypatch.setattr(lrmc, "_half_sweep", failing_half_sweep)
    monkeypatch.setattr(lrmc, "sample", failing_sample)
    _, obs = generate_synthetic(20, 15, 2, 0.5, 16)
    alive = threading.active_count()
    with pytest.raises(RuntimeError, match="V half failed at sweep 0"):
        solve(obs, _AUDIT_CONFIG, 3, history=history)
    assert threading.active_count() == alive
    assert len(history) == 1
    assert failed_draws and failed_draws[0] != threading.current_thread().name


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_init_is_the_v_start_a_sweep_reads(solve):
    # a solve started at the replayed V start, its stream advanced past the
    # U and V starts, is the solve that drew them
    _, obs = generate_synthetic(15, 12, 2, 0.5, 19)
    cfg = SolverConfig(
        rank=2, lam=0.6, outer_iterations=2, inner_iterations=3,
        mechanism=MechanismConfig.huber(1.5),
    )
    _, v0, _ = _replay(23, obs, 2, sweep=0)
    advanced = np.random.default_rng(23)
    advanced.standard_normal((obs.m, 2))
    advanced.standard_normal((obs.n, 2))
    drawn = solve(obs, cfg, 23)
    started = solve(obs, cfg, advanced, init=v0)
    np.testing.assert_array_equal(started.U, drawn.U)
    np.testing.assert_array_equal(started.V, drawn.V)


def test_noiseless_als_draws_nothing():
    draws = _column_draws(MechanismConfig.none(), 1, 2, 0, 15, 1, 2, draw_init=False)
    assert draws == (None, None)


def test_divergent_solve_raises_solver_divergence():
    # ratings scaled by 1e200 give a finite U after the first row half-sweep,
    # but U^T U overflows in the column half-sweep that follows. The halves
    # ignore overflow and invalid values, and the solves keep
    # np.linalg.solve's silence on non-finite systems, so SolverDivergence
    # is the only report, even where every warning is shown
    x, obs = generate_synthetic(30, 25, 2, 0.5, 8)
    huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, obs.values * 1e200)
    cfg = SolverConfig(rank=2, outer_iterations=3)
    with np.errstate(all="warn"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverDivergence) as info:
            noisy_als(huge, cfg, 1)
    assert (info.value.solver, info.value.sweep, info.value.half) == ("noisy_als", 0, "v")
    assert not caught


@pytest.mark.parametrize("solve", [noisy_als, irls_huber])
def test_row_half_divergence_names_u(solve):
    # every rating 1e308: V^T y overflows in the first row half-sweep
    x, obs = generate_synthetic(30, 25, 2, 0.5, 8)
    huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, np.full(obs.n_observed, 1e308))
    cfg = SolverConfig(rank=2, outer_iterations=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverDivergence) as info:
            solve(huge, cfg, 1)
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
        # robust_solvers._ridge solves ranks up to 8 by elimination, the
        # rest by LAPACK: 18 and 22 of the 40 examples on hypothesis 6.155
        other, target_idx, other_idx, values, n = _engine_instance(seed, rank, counts)
        noise = np.random.default_rng(seed + 1).standard_normal((n, 1, rank))
        groups = _target_groups(target_idx, other_idx, values, n, rank)
        got = _half_sweep([groups], other, lam, math.inf, 1, None, noise, n)
        for j in range(n):
            mine = target_idx == j
            if mine.any():
                expected = _reference_ridge(other[other_idx[mine]], values[mine], lam, noise[j, 0])
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


class TestWideRidgeGroups:
    """Rank-32 count groups about 400 wide: there BLAS dgemm, which the
    engine's ridge Gram runs on, and the syrk that a.T @ a runs on sum in a
    different order, so their Grams can differ in the last bit."""

    RANK, WIDTH = 32, 400

    def _observed(self, seed):
        # every row holds 390 to 410 of the 600 columns, so every column
        # holds about 400 entries too
        rng = np.random.default_rng(seed)
        m = n = 600
        rows = np.repeat(np.arange(m), rng.integers(390, 411, m))
        cols = np.concatenate([rng.choice(n, c, replace=False) for c in np.bincount(rows)])
        values = 3.0 * rng.standard_normal(rows.size)
        return rows, cols, values, m, n

    def test_ridge_half_sweep_matches_per_target_solves(self):
        rows, cols, values, m, n = self._observed(5)
        rng = np.random.default_rng(6)
        other = rng.standard_normal((n, self.RANK))
        noise = rng.standard_normal((m, 1, self.RANK))
        groups = _target_groups(rows, cols, values, m, self.RANK)
        assert max(vals.shape[1] for _, _, vals in groups) >= self.WIDTH
        got = _half_sweep([groups], other, 0.5, math.inf, 1, None, noise, m)
        expected = np.array([
            _reference_ridge(other[cols[rows == i]], values[rows == i], 0.5, noise[i, 0])
            for i in range(m)
        ])
        error = np.linalg.norm(got - expected, axis=1)
        assert (error <= 1e-12 * np.linalg.norm(expected, axis=1)).all()

    def test_threads_give_the_serial_factors(self, monkeypatch):
        rows, cols, values, m, n = self._observed(7)
        obs = ObservedMatrix(m, n, rows, cols, values)
        cfg = SolverConfig(rank=self.RANK, lam=0.5, outer_iterations=2,
                           mechanism=MechanismConfig.huber(1.3))
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 1)
        serial = noisy_als(obs, cfg, 11)
        _force_threads(monkeypatch, 2)
        threaded = noisy_als(obs, cfg, 11)
        np.testing.assert_array_equal(threaded.U, serial.U)
        np.testing.assert_array_equal(threaded.V, serial.V)


def _engine_and_r_irls(seed, instance, config):
    """_half_sweep against _reference_irls(..., default_rng((seed, j))) for
    every target j, replaying each stream into the engine's start and noise
    blocks."""
    other, target_idx, other_idx, values, n = instance
    rank, iterations = other.shape[1], config.iterations
    expected = np.empty((n, rank))
    init = np.empty((n, rank))
    noise = np.empty((n, iterations, rank))
    for j in range(n):
        mine = target_idx == j
        a, y = other[other_idx[mine]], values[mine]
        expected[j] = _reference_irls(y, a, config, np.random.default_rng((seed, j)))
        stream = np.random.default_rng((seed, j))
        init[j] = stream.standard_normal(rank)
        noise[j] = sample(config.noise, iterations * rank, stream).values.reshape(iterations, rank)
    if config.noise.kind == "none":
        noise = None
    groups = _target_groups(target_idx, other_idx, values, n, rank)
    got = _half_sweep([groups], other, config.lam, config.alpha, iterations, init, noise, n)
    return got, expected


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("shape", ["square", "tall", "long"])
@pytest.mark.parametrize("r", [1, 2, 5, 8, 9, 12, 16, 32])
def test_ridge_solve_is_the_engine_on_one_target(r, shape, noisy):
    # ridge_solve forms its normal as a ridge half's group does and solves
    # it by the same _ridge, so a half over one unpadded target returns its
    # theta exactly, by elimination up to rank 8 and by LAPACK above
    p = {"square": r, "tall": 3 * r + 1, "long": 200}[shape]
    rng = np.random.default_rng(r)
    a, y = rng.standard_normal((p, r)), 3.0 * rng.standard_normal(p)
    t = rng.standard_normal(r) if noisy else None
    expected = ridge_solve(RidgeProblem(a, y, 0.5), t)
    groups = _target_groups(np.zeros(p, dtype=np.int64), np.arange(p), y, 1, r)
    noise = None if t is None else t.reshape(1, 1, r)
    got = _half_sweep([groups], a, 0.5, math.inf, 1, None, noise, 1)
    np.testing.assert_array_equal(got[0], expected)


@pytest.mark.parametrize("mech", [MechanismConfig.none(), MechanismConfig.huber(1.2)],
                         ids=["none", "huber"])
@pytest.mark.parametrize("p,r", [(30, 4), (1200, 10)], ids=["short", "weight-change"])
def test_r_irls_is_the_engine_on_one_target(mech, p, r):
    # r_irls runs the engine's group step on a batch of one, so a half-sweep
    # over one target fed r_irls's start and noise returns its theta exactly
    rng = np.random.default_rng(41)
    a, y = rng.standard_normal((p, r)), 3.0 * rng.standard_normal(p)
    config = IrlsConfig(1.2, 0.5, 6, mech)
    expected = r_irls(y, a, config, np.random.default_rng(42))
    stream = np.random.default_rng(42)
    init = stream.standard_normal((1, r))
    noise = sample(mech, 6 * r, stream).values.reshape(1, 6, r) if mech.kind != "none" else None
    groups = _target_groups(np.zeros(p, dtype=np.int64), np.arange(p), y, 1, r)
    got = _half_sweep([groups], a, config.lam, config.alpha, 6, init, noise, 1)
    np.testing.assert_array_equal(got[0], expected)


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
        got = _half_sweep([groups], other, self.LAM, self.ALPHA, self.K, init, None, n)
        # zero noise takes the noisy path, which runs all K iterations
        zeros = np.zeros((n, self.K, self.RANK))
        full = _half_sweep([groups], other, self.LAM, self.ALPHA, self.K, init, zeros, n)
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
        _half_sweep([groups], other, self.LAM, self.ALPHA, self.K, init, None, n)
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
            huber_loss_alpha=1.0, mechanism=mech,
        )
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 1)
        serial = solve(obs, cfg, 17)

        threads = self._record_solve_threads(monkeypatch)
        _force_threads(monkeypatch, workers)
        alive = threading.active_count()
        threaded = solve(obs, cfg, 17)
        assert threading.active_count() == alive  # the solve joined its threads
        # the calling thread ran one part and the solve's own workers the rest
        assert threading.current_thread().name in threads and len(threads) > 1
        np.testing.assert_array_equal(threaded.U, serial.U)
        np.testing.assert_array_equal(threaded.V, serial.V)

    @pytest.mark.parametrize("solve", [noisy_als, irls_huber])
    def test_the_pool_draws_ahead_before_its_part_of_the_v_half(self, monkeypatch, solve):
        # on 2 workers the one pool thread takes the next sweep's draw before
        # the V half's second part, so the draw overlaps the half; events are
        # keyed by the half in progress, as in _draw_audit
        _force_threads(monkeypatch)
        history = []
        first_on_pool = {}
        caller = threading.current_thread().name

        def recording(kind, fn):
            def call(*args):
                if threading.current_thread().name != caller:
                    first_on_pool.setdefault(len(history), kind)
                return fn(*args)

            return call

        monkeypatch.setattr(lrmc, "sample", recording("draw", lrmc.sample))
        monkeypatch.setattr(np.linalg, "solve", recording("solve", np.linalg.solve))
        cfg = SolverConfig(
            rank=self.RANK, outer_iterations=3, inner_iterations=2,
            mechanism=MechanismConfig.huber(1.3),
        )
        solve(self._observed(), cfg, 5, history=history)
        # V halves 0 and 1 draw ahead; the last sweep's V half draws nothing
        assert [first_on_pool[2 * s + 1] for s in range(3)] == ["draw", "draw", "solve"]
        assert [first_on_pool[2 * s] for s in range(3)] == ["solve"] * 3

    def test_deal_splits_only_above_the_work_floor(self):
        # Gram work is padded slots x r^2 x iterations: at r = 1 and one
        # iteration a slot is one multiply-add
        def groups(slots):
            sizes = [slots // 5] * 4 + [slots - 4 * (slots // 5)]
            return [(np.array([i]), None, np.broadcast_to(0.0, (size,)))
                    for i, size in enumerate(sizes)]

        def dealt(slots, r, iterations, workers):
            parts = _deal(groups(slots), r, iterations, workers)
            return [[int(ids[0]) for ids, _, _ in part] for part in parts]

        floor = lrmc._PARALLEL_WORK
        assert dealt(floor, 1, 1, 3) == [[0, 1, 2, 3, 4]]
        assert dealt(floor + 1, 1, 1, 3) == [[0, 3], [1, 4], [2]]
        assert dealt(floor // 16, 2, 4, 2) == [[0, 1, 2, 3, 4]]
        assert dealt(floor // 16 + 1, 2, 4, 2) == [[0, 2, 4], [1, 3]]
        assert dealt(floor + 1, 1, 1, 1) == [[0, 1, 2, 3, 4]]

    def test_more_workers_than_cores_under_rapid_switching(self, monkeypatch):
        # 8 workers on 13 count groups, the interpreter switching threads
        # every 10 us: a lost or misplaced row write would change the result
        other, target_idx, other_idx, values, n = _engine_instance(
            4, 32, list(range(1, 400, 7)) * 2
        )
        groups = _target_groups(target_idx, other_idx, values, n, 32)
        assert len(groups) == 13
        noise = np.random.default_rng(5).standard_normal((n, 1, 32))
        serial = _half_sweep([groups], other, 0.5, math.inf, 1, None, noise, n)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        parts = _deal(groups, 32, 1, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(7) as pool:
                deadline = time.monotonic() + 5.0
                for _ in range(10):
                    threaded = _half_sweep(parts, other, 0.5, math.inf, 1, None, noise, n, pool)
                    np.testing.assert_array_equal(threaded, serial)
                    if time.monotonic() > deadline:
                        break
        finally:
            sys.setswitchinterval(interval)

    def test_small_halves_stay_serial(self, monkeypatch):
        threads = self._record_solve_threads(monkeypatch)
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 2)
        noisy_als(self._observed(), SolverConfig(rank=self.RANK, outer_iterations=2), 0)
        assert threads == {threading.current_thread().name}

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        # where os.sched_getaffinity is missing, the CPU count is used, and
        # one CPU when that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert lrmc._usable_cpus() == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert lrmc._usable_cpus() == 1

    def test_divergence_is_reported_from_threads(self, monkeypatch):
        # the half's np.errstate reaches the workers: the overflow stays
        # silent there, where a warning would raise, and the solver names
        # the diverged half, also while the pool draws the next sweep's noise
        _force_threads(monkeypatch)
        obs = self._observed()
        huge = ObservedMatrix(obs.m, obs.n, obs.rows, obs.cols, obs.values * 1e200)
        for mech in (MechanismConfig.none(), MechanismConfig.huber(1.3)):
            cfg = SolverConfig(rank=self.RANK, outer_iterations=3, mechanism=mech)
            alive = threading.active_count()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SolverDivergence) as info:
                    noisy_als(huge, cfg, 1)
            assert (info.value.sweep, info.value.half) == (0, "v")
            assert threading.active_count() == alive

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
        parts = _deal(groups, 32, 1, 3)
        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(IndexError):
                _half_sweep(parts, other, 0.5, math.inf, 1, None, None, n, pool)
            assert sorted(finished) == [1, 1, 2, 3]


class TestRidgeHalves:
    """Ridge halves of every rank solve by robust_solvers._ridge, never
    through _irls, which each test here makes fail: up to rank
    _ELIMINATION_RANK each part in one batched elimination, above it each
    count group in one LAPACK call."""

    @staticmethod
    def _no_irls(monkeypatch):
        def refuse(*args):
            raise AssertionError("a ridge half ran _irls")

        monkeypatch.setattr(lrmc, "_irls", refuse)

    @pytest.mark.parametrize("rank", [1, 4, 8, 12, 32])
    def test_any_split_gives_the_serial_half(self, monkeypatch, rank):
        # each target's bits do not depend on its stack mates. The targets
        # are grouped by the merge rules of rank 8, which leave 6 groups,
        # so that every part holds some at every rank
        other, target_idx, other_idx, values, n = _engine_instance(
            rank, rank, [0, 0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60, 60] * 12
        )
        noise = np.random.default_rng(rank).standard_normal((n, 1, rank))
        groups = _target_groups(target_idx, other_idx, values, n, 8)
        assert len(groups) == 6
        self._no_irls(monkeypatch)
        serial = _half_sweep([groups], other, 0.5, math.inf, 1, None, noise, n)
        monkeypatch.setattr(lrmc, "_PARALLEL_WORK", 0)
        for workers in (2, 3, 5):
            parts = _deal(groups, rank, 1, workers)
            assert len(parts) == workers
            with ThreadPoolExecutor(workers - 1) as pool:
                split = _half_sweep(parts, other, 0.5, math.inf, 1, None, noise, n, pool)
            np.testing.assert_array_equal(split, serial)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_give_the_serial_als_factors(self, monkeypatch, workers):
        _, obs = generate_synthetic(60, 50, 4, 0.3, 12)
        cfg = SolverConfig(rank=4, lam=0.5, outer_iterations=3,
                           mechanism=MechanismConfig.huber(1.3))
        self._no_irls(monkeypatch)
        monkeypatch.setattr(lrmc, "_usable_cpus", lambda: 1)
        serial = noisy_als(obs, cfg, 17)
        _force_threads(monkeypatch, workers)
        threaded = noisy_als(obs, cfg, 17)
        np.testing.assert_array_equal(threaded.U, serial.U)
        np.testing.assert_array_equal(threaded.V, serial.V)

    # each target within ERROR * eps * cond(A^T A + lam I) of the one-system
    # LAPACK solve, relative to its norm: both solves are backward stable,
    # so each lies within a small multiple of eps * cond of the exact
    # theta. The largest multiple seen on these stacks was 52
    ERROR = 256

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "cond-1e8"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("rank", [*range(1, 9), 12, 32])
    def test_hard_stacks_match_per_target_solves(self, monkeypatch, rank, noisy, scaled):
        # widths 0 to 60 and two more targets without observations; scaling
        # one factor column by 1e4 takes the Grams of the wider targets to a
        # condition number of 1e8 and more
        other, target_idx, other_idx, values, n = _engine_instance(
            rank, rank, list(range(61)) + [0]
        )
        if scaled:
            other[:, 0] *= 1e4
        noise = None
        if noisy:
            noise = np.random.default_rng(rank).standard_normal((n, 1, rank))
        groups = _target_groups(target_idx, other_idx, values, n, rank)
        self._no_irls(monkeypatch)
        got = _half_sweep([groups], other, 0.5, math.inf, 1, None, noise, n)
        worst_condition = 0.0
        for j in range(n):
            mine = target_idx == j
            a = other[other_idx[mine]]
            t = 0.0 if noise is None else noise[j, 0]
            expected = _reference_ridge(a, values[mine], 0.5, t)
            if not mine.any():
                np.testing.assert_array_equal(got[j], expected)  # t / lam, or 0
                continue
            condition = np.linalg.cond(a.T @ a + 0.5 * np.eye(rank))
            error = np.linalg.norm(got[j] - expected)
            assert error <= self.ERROR * np.finfo(float).eps * condition * np.linalg.norm(expected)
            worst_condition = max(worst_condition, condition)
        if scaled and rank > 1:
            assert worst_condition > 1e8


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

    @pytest.mark.parametrize("num_targets", [1, 256, 257, 65_536, 65_537])
    def test_narrow_sort_key_gives_the_int64_groups(self, monkeypatch, num_targets):
        # each side of the uint8/uint16 and uint16/uint32 key boundaries, with
        # the largest id present; the reference sorts int64 keys
        rng = np.random.default_rng(num_targets)
        target_idx = rng.permutation(
            np.append(rng.integers(0, num_targets, 3 * num_targets + 5), num_targets - 1)
        )
        other_idx = rng.integers(0, 40, target_idx.size)
        values = rng.standard_normal(target_idx.size)
        got = _target_groups(target_idx, other_idx, values, num_targets, 4)
        monkeypatch.setattr(np, "min_scalar_type", lambda _: np.dtype(np.int64))
        reference = _target_groups(target_idx, other_idx, values, num_targets, 4)
        assert len(got) == len(reference)
        for group, expected in zip(got, reference):
            for a, b in zip(group, expected):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_rank5_synthetic_mask_merges_into_few_groups(self):
        # at rank 5 the IRLS V half-sweep is bound by numpy call overhead,
        # paid K times per group, so the merge must collapse the ~28 distinct
        # column counts of this mask into a few groups
        _, obs = generate_synthetic(500, 500, 5, 0.05, 0)
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

    @pytest.mark.parametrize("solve", [noisy_als, irls_huber])
    def test_rng_is_the_one_seed(self, solve):
        obs = ObservedMatrix(2, 2, [0], [0], [1.0])
        with pytest.raises(TypeError, match="rng"):
            solve(obs, SolverConfig(rank=1))
        with pytest.raises(TypeError, match="seed"):
            SolverConfig(rank=1, seed=0)


    @pytest.mark.parametrize(
        "field,value",
        [("rank", 2.0), ("rank", True), ("outer_iterations", True),
         ("outer_iterations", 3.0), ("inner_iterations", 2.5), ("inner_iterations", np.True_)],
    )
    def test_counts_must_be_integers(self, field, value):
        # a float count used to fail inside the solve, and
        # outer_iterations=True ran one sweep
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            SolverConfig(**{"rank": 2, field: value})

    def test_numpy_integer_counts_run_as_ints(self):
        # narrow numpy integers used to overflow in the solver's size arithmetic
        _, obs = generate_synthetic(60, 50, 2, 0.5, 16)
        mech = MechanismConfig.huber(1.0)
        cfg = SolverConfig(
            rank=np.int8(2), outer_iterations=np.int16(2), inner_iterations=np.uint8(3),
            mechanism=mech,
        )
        counts = (cfg.rank, cfg.outer_iterations, cfg.inner_iterations)
        assert counts == (2, 2, 3) and all(type(c) is int for c in counts)
        plain = SolverConfig(rank=2, outer_iterations=2, inner_iterations=3, mechanism=mech)
        np.testing.assert_array_equal(irls_huber(obs, cfg, 1).V, irls_huber(obs, plain, 1).V)


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
        x, obs = generate_synthetic(8, 7, 2, 0.5, 18)
        u = rng.standard_normal((8, 2))
        v = rng.standard_normal((7, 2))
        z = u @ v.T
        total = sum(
            (val - z[i, j]) ** 2 for i, j, val in zip(obs.rows, obs.cols, obs.values)
        ) + 0.5 * ((u**2).sum() + (v**2).sum())
        assert completion_objective(obs, u, v, 0.5) == pytest.approx(total, rel=1e-12)
