"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from huberdp import data_io, lrmc  # noqa: E402

import layers  # noqa: E402
import ratings  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_SWEEPS = {
    "als": dataclasses.replace(
        workloads.WORKLOADS["synth-als-noise"], m=40, n=30, rank=3, outer_t=3, fraction=0.3
    ),
    "irls": dataclasses.replace(
        workloads.WORKLOADS["synth-irls"], m=40, n=30, rank=3, outer_t=3, irls_k=3, fraction=0.3
    ),
    "ratings": dataclasses.replace(
        workloads.WORKLOADS["ratings-als-r32"], rank=4, outer_t=3, fraction=0.3,
        ratings={"users": 40, "items": 60, "ratings": 900},
    ),
}
TINY_LIBRARY = dataclasses.replace(
    workloads.WORKLOADS["library"], problems=3, rows=200, draws_per_alpha=20_000
)


@pytest.fixture
def fake_clock(monkeypatch):
    """spans.clock returning 0, 1, 2, ... on successive calls."""
    ticks = itertools.count()
    monkeypatch.setattr(spans, "clock", lambda: float(next(ticks)))


@pytest.mark.parametrize("spec", [*TINY_SWEEPS.values(), TINY_LIBRARY], ids=[*TINY_SWEEPS, "library"])
def test_traced_pass_matches_untraced(spec, tmp_path):
    job = workloads.prepare(spec, 7, tmp_path)
    plain = job.check(job.run())
    tracer = spans.Tracer()
    with tracer.patch(layers.patches(tracer)):
        traced = job.check(job.run())
    assert plain.failed == 0 and traced.failed == 0, plain.checks + traced.checks
    assert traced.fingerprint == plain.fingerprint
    assert traced.rmse == plain.rmse
    assert traced.draws == plain.draws
    metrics, audit = layers.layer_metrics(tracer, 1, traced.draws)
    assert all(ok for _, ok in audit), audit
    if isinstance(spec, workloads.Sweep):
        assert metrics["lrmc.solve.calls"] == len(spec.mechanisms)
        assert metrics["lrmc.draws.v_sweep"] == traced.draws


def test_patch_restores_originals():
    before = (lrmc.sample, lrmc.noisy_als, data_io.parse_movielens)
    tracer = spans.Tracer()
    with tracer.patch(layers.patches(tracer)):
        assert lrmc.sample is not before[0]
    assert (lrmc.sample, lrmc.noisy_als, data_io.parse_movielens) == before


def test_self_time_is_span_minus_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    name_id = np.array([0, 1, 2, 3])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    calls, total, own = spans.self_times(name_id, start, end, parent, 4)
    assert calls.tolist() == [1, 1, 1, 1]
    assert total.tolist() == [10.0, 3.0, 1.0, 1.0]
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_skips_reentrant_calls(fake_clock):
    tracer = spans.Tracer()
    inner = tracer.wrap("leaf", lambda: None)
    recursive = tracer.wrap("outer", lambda depth: recursive(depth - 1) if depth else inner())
    recursive(2)
    assert tracer.names == ["outer", "leaf"]
    # outer opens at 0, leaf spans [1, 2], outer closes at 3
    assert tracer.totals() == {"outer": (1, 3.0, 2.0), "leaf": (1, 1.0, 1.0)}


def test_solve_timeline_splits_sweeps(fake_clock):
    clock = spans.clock
    tl = spans.SolveTimeline(start=clock())  # 0
    for _ in range(2):
        tl.objective_starts.append(clock())  # U half ends
        tl.append(1.0)
        tl.on_draw(clock(), 5)  # noise window ends
        tl.objective_starts.append(clock())  # V half ends
        tl.append(1.0)
    # sweep 0: start 0, U objective 1, mark 2, draw 3, V objective 4, mark 5
    assert tl.halves() == [(1.0, 1.0, 1.0, True), (1.0, 1.0, 1.0, True)]
    assert tl.u_half_values == 0
    tl.on_draw(clock(), 4)
    assert tl.u_half_values == 4


def test_ratings_file_round_trips(tmp_path):
    shape = {"users": 40, "items": 60, "ratings": 900}
    path = tmp_path / "u.data"
    rows = ratings.write_ratings(path, 3, **shape)
    report = data_io.ParseReport()
    obs = data_io.parse_movielens(path, report)
    assert (report.duplicates, report.out_of_range) == (0, 0)
    assert (obs.m, obs.n, obs.n_observed) == (40, 60, 900)
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    got = np.lexsort((obs.cols, obs.rows))
    np.testing.assert_array_equal(obs.rows[got] + 1, rows[order, 0])
    np.testing.assert_array_equal(obs.cols[got] + 1, rows[order, 1])
    np.testing.assert_array_equal(obs.values[got], rows[order, 2])
    assert np.bincount(rows[:, 0])[1:].min() >= ratings.MIN_PER_USER


def test_ratings_depend_on_seed_only():
    shape = {"users": 40, "items": 60, "ratings": 900}
    a = ratings.generate_ratings(5, **shape)
    np.testing.assert_array_equal(a, ratings.generate_ratings(5, **shape))
    assert not np.array_equal(a, ratings.generate_ratings(6, **shape))


def test_full_size_ratings_shape():
    rows = ratings.generate_ratings(0)
    assert rows.shape == (ratings.RATINGS, 4)
    assert rows[:, 0].max() == ratings.USERS and rows[:, 1].max() == ratings.ITEMS
    assert np.unique(rows[:, 0] * (ratings.ITEMS + 1) + rows[:, 1]).size == ratings.RATINGS
    assert set(np.unique(rows[:, 2])) <= {1, 2, 3, 4, 5}


def test_quadrature_variance_matches_closed_form():
    from huberdp import mechanisms

    for alpha in (0.5, 1.08, 3.0):
        assert workloads.huber_variance_by_quadrature(alpha) == pytest.approx(
            mechanisms.huber_variance(alpha), rel=1e-9
        )
