"""Tests for dataset generation, parsers, splits, and persistence."""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from huberdp.data_io import (
    ParseReport,
    RatingsParseError,
    RunRecord,
    SchemaVersionError,
    SUMMARY_FIELDS,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_run,
    mask_entries,
    parse_movielens,
    parse_sweetrs,
    persist_run,
    subsample,
    write_summary_csv,
)


class TestGenerateSynthetic:
    def test_full_observation(self):
        x, obs = generate_synthetic(SyntheticSpec(10, 8, 2, 1.0, seed=0))
        assert obs.n_observed == 80

    def test_numerical_rank(self):
        x, _ = generate_synthetic(SyntheticSpec(100, 100, 5, 0.5, seed=1))
        singular = np.linalg.svd(x, compute_uv=False)
        assert np.count_nonzero(singular > 1e-8 * singular[0]) == 5

    def test_deterministic(self):
        spec = SyntheticSpec(30, 30, 3, 0.2, seed=5)
        x1, obs1 = generate_synthetic(spec)
        x2, obs2 = generate_synthetic(spec)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(obs1.rows, obs2.rows)
        np.testing.assert_array_equal(obs1.values, obs2.values)

    def test_entry_variance_near_one(self):
        x, _ = generate_synthetic(SyntheticSpec(200, 200, 4, 0.1, seed=2))
        assert x.var() == pytest.approx(1.0, rel=0.10)

    def test_mask_count(self):
        _, obs = generate_synthetic(SyntheticSpec(20, 20, 2, 0.15, seed=3))
        assert obs.n_observed == int(0.15 * 400)

    def test_observed_values_match_truth(self):
        x, obs = generate_synthetic(SyntheticSpec(15, 12, 2, 0.3, seed=4))
        np.testing.assert_array_equal(obs.values, x[obs.rows, obs.cols])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 6, 0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 2, 0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(5, 5, 2, 1.5)

    def test_mask_entries_direct(self):
        x = np.arange(24.0).reshape(4, 6)
        obs = mask_entries(x, 0.5, np.random.default_rng(11), value_range=(0.0, 24.0))
        assert obs.n_observed == 12
        np.testing.assert_array_equal(obs.values, x[obs.rows, obs.cols])
        assert obs.value_range == (0.0, 24.0)
        with pytest.raises(ValueError):
            mask_entries(x, 0.0, np.random.default_rng(0))


MOVIELENS_FIXTURE = "196\t242\t3\t881250949\n186\t302\t3\t891717742\n"


class TestParseMovielens:
    def test_two_line_fixture(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(MOVIELENS_FIXTURE)
        obs = parse_movielens(path)
        assert obs.n_observed == 2
        assert obs.m == 196 and obs.n == 302
        assert (195, 241, 3.0) in obs.entries
        assert obs.value_range == (1.0, 5.0)

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t0\n1\t2\n")
        with pytest.raises(RatingsParseError) as err:
            parse_movielens(path)
        assert err.value.line_number == 2

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\tx\t5\t0\n")
        with pytest.raises(RatingsParseError):
            parse_movielens(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("")
        with pytest.raises(RatingsParseError):
            parse_movielens(path)

    def test_duplicates_last_write_wins(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t2\t0\n1\t1\t4\t1\n2\t2\t5\t2\n")
        report = ParseReport()
        obs = parse_movielens(path, report)
        assert report.duplicates == 1
        assert obs.n_observed == 2
        assert (0, 0, 4.0) in obs.entries

    def test_out_of_range_rating_kept(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t7\t0\n2\t2\t1\t0\n")
        report = ParseReport()
        obs = parse_movielens(path, report)
        assert report.out_of_range == 1
        assert (0, 0, 7.0) in obs.entries

    CANONICAL = os.environ.get("HUBERDP_MOVIELENS", "data/ml-100k/u.data")

    @pytest.mark.skipif(
        not Path(CANONICAL).is_file(), reason="canonical MovieLens100k not present"
    )
    def test_canonical_file_counts(self):
        obs = parse_movielens(self.CANONICAL)
        assert obs.n_observed == 100_000
        assert obs.m == 943 and obs.n == 1682
        # the 943 x 1682 grid gives ~6.3% visibility at 100k ratings
        assert 0.05 < obs.observed_fraction < 0.07


class TestParseSweetrs:
    def test_three_record_fixture(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,5\n2,3,4\n4,2,1\n")
        obs = parse_sweetrs(path)
        assert obs.n_observed == 3
        assert obs.m == 4 and obs.n == 3

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("user,item,rating\n1,1,5\n")
        obs = parse_sweetrs(path)
        assert obs.n_observed == 1

    def test_duplicate_policy_matches_movielens(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,2\n1,1,3\n")
        report = ParseReport()
        obs = parse_sweetrs(path, report)
        assert report.duplicates == 1
        assert obs.entries == [(0, 0, 3.0)]

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "sweetrs.csv"
        path.write_text("1,1,5\n2,3\n")
        with pytest.raises(RatingsParseError) as err:
            parse_sweetrs(path)
        assert err.value.line_number == 2


class TestRatingsFile:
    """A ratings file is named KIND:PATH; the kind picks the parser."""

    def test_unknown_kind(self):
        from huberdp.bench_cli import ExperimentPlan

        with pytest.raises(ValueError, match="KIND one of"):
            ExperimentPlan(dataset="netflix:x.csv")


def _dict_oracle(triples):
    """Reference ingest: last write wins in a dict, which keeps each
    coordinate at its first appearance."""
    seen = {}
    duplicates = out_of_range = 0
    for user, item, rating in triples:
        duplicates += (user - 1, item - 1) in seen
        out_of_range += not 1.0 <= rating <= 5.0
        seen[(user - 1, item - 1)] = rating
    m = max(t[0] for t in triples)
    n = max(t[1] for t in triples)
    rows = [k[0] for k in seen]
    cols = [k[1] for k in seen]
    return m, n, rows, cols, list(seen.values()), duplicates, out_of_range


_RATING = st.integers(0, 7) | st.floats(0.0, 7.0)
_TRIPLE = st.tuples(st.integers(1, 6), st.integers(1, 5), _RATING)


class TestRatingsParser:
    @pytest.mark.parametrize("parse", [parse_movielens, parse_sweetrs], ids=lambda f: f.__name__)
    def test_missing_file(self, parse, tmp_path):
        with pytest.raises(RatingsParseError, match="no such file"):
            parse(tmp_path / "nope")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("fmt", ["movielens", "sweetrs"])
    def test_non_finite_rating_names_its_line(self, fmt, value, tmp_path):
        path = tmp_path / "ratings"
        if fmt == "movielens":
            path.write_text(f"1\t1\t3\t0\n2\t2\t{value}\t1\n")
            parse = parse_movielens
        else:
            path.write_text(f"user,item,rating\n1,1,3\n2,2,{value}\n")
            parse = parse_sweetrs
        line = 2 if fmt == "movielens" else 3
        with pytest.raises(RatingsParseError) as err:
            parse(path)
        assert str(err.value).startswith(f"{path}:{line}: rating must be finite")
        assert err.value.line_number == line

    @pytest.mark.parametrize("fmt", ["movielens", "sweetrs"])
    def test_id_below_one_names_its_line(self, fmt, tmp_path):
        path = tmp_path / "ratings"
        if fmt == "movielens":
            path.write_text("1\t1\t3\t0\n0\t2\t4\t1\n")
        else:
            path.write_text("1,1,3\n2,0,4\n")
        parse = parse_movielens if fmt == "movielens" else parse_sweetrs
        with pytest.raises(RatingsParseError, match=f"^{path}:2: ids must be >= 1"):
            parse(path)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        triples=st.lists(_TRIPLE, min_size=1, max_size=40),
        blanks=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["", "  ", " \t"]))),
        fmt=st.sampled_from(["movielens", "sweetrs", "sweetrs-header"]),
    )
    def test_matches_dict_oracle(self, triples, blanks, fmt):
        if fmt == "movielens":
            lines = [f"{u}\t{i}\t{r}\t{k}" for k, (u, i, r) in enumerate(triples)]
        else:
            lines = [f"{u}, {i},{r} " for u, i, r in triples]
        for pos, blank in blanks:
            lines.insert(pos, blank)
        if fmt == "sweetrs-header":
            lines.insert(0, "user,item,rating")
        parse = parse_movielens if fmt == "movielens" else parse_sweetrs
        report = ParseReport()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ratings"
            path.write_text("\n".join(lines) + "\n")
            obs = parse(path, report)
        m, n, rows, cols, values, duplicates, out_of_range = _dict_oracle(triples)
        assert (obs.m, obs.n) == (m, n)
        np.testing.assert_array_equal(obs.rows, rows)
        np.testing.assert_array_equal(obs.cols, cols)
        np.testing.assert_array_equal(obs.values, np.asarray(values, dtype=float))
        assert (report.duplicates, report.out_of_range) == (duplicates, out_of_range)


class TestSubsample:
    def setup_method(self):
        self.x, self.obs = generate_synthetic(SyntheticSpec(20, 20, 2, 0.4, seed=6))

    def test_identity_at_current_fraction(self):
        out = subsample(self.obs, self.obs.observed_fraction, np.random.default_rng(0))
        assert out is self.obs

    def test_target_count(self):
        out = subsample(self.obs, 0.1, np.random.default_rng(1))
        assert out.n_observed == int(0.1 * 400)

    def test_deterministic(self):
        a = subsample(self.obs, 0.1, np.random.default_rng(2))
        b = subsample(self.obs, 0.1, np.random.default_rng(2))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_subset_of_original(self):
        out = subsample(self.obs, 0.1, np.random.default_rng(3))
        original = set(zip(self.obs.rows.tolist(), self.obs.cols.tolist()))
        assert set(zip(out.rows.tolist(), out.cols.tolist())) <= original
        assert out.value_range == self.obs.value_range
        assert (out.m, out.n) == (self.obs.m, self.obs.n)

    def test_infeasible_target(self):
        with pytest.raises(ValueError):
            subsample(self.obs, 0.9, np.random.default_rng(4))


class TestHoldoutSplit:
    def test_partition(self):
        _, obs = generate_synthetic(SyntheticSpec(10, 10, 2, 1.0, seed=7))
        train, test = holdout_split(obs, 0.1, np.random.default_rng(5))
        assert test.n_observed == 10
        assert train.n_observed == 90
        train_set = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_set = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_set & test_set
        full = set(zip(obs.rows.tolist(), obs.cols.tolist()))
        assert train_set | test_set == full

    def test_deterministic(self):
        _, obs = generate_synthetic(SyntheticSpec(10, 10, 2, 0.5, seed=8))
        a_train, a_test = holdout_split(obs, 0.2, np.random.default_rng(6))
        b_train, b_test = holdout_split(obs, 0.2, np.random.default_rng(6))
        np.testing.assert_array_equal(a_test.rows, b_test.rows)
        np.testing.assert_array_equal(a_train.values, b_train.values)

    def test_degenerate_sizes_rejected(self):
        obs_small = generate_synthetic(SyntheticSpec(3, 3, 1, 1.0, seed=9))[1]
        with pytest.raises(ValueError):
            holdout_split(obs_small, 0.01, np.random.default_rng(7))
        with pytest.raises(ValueError):
            holdout_split(obs_small, 1.0, np.random.default_rng(7))


def make_record(**overrides):
    base = dict(
        dataset="synthetic-m20-n20-rank2",
        solver="als",
        mechanism="huber",
        variance=2.0,
        fraction=0.1,
        rank=2,
        epsilon=5.38,
        delta=0.0,
        seed=13,
        config={"lam": 0.5},
        draw_counts={"u_sweep": 0, "v_sweep": 120},
        rmse_scope="all_entries",
        wall_clock_sec=0.25,
        extras={"note": 1},
    )
    base.update(overrides)
    return RunRecord.from_trials([0.5, 0.7, 0.6], **base)


class TestRunPersistence:
    def test_round_trip_identity(self, tmp_path):
        record = make_record()
        path = tmp_path / "run.json"
        persist_run(record, path)
        loaded = load_run(path)
        assert loaded == record

    def test_round_trip_infinite_epsilon(self, tmp_path):
        record = make_record(mechanism="none", variance=None, epsilon=math.inf)
        path = tmp_path / "none.json"
        persist_run(record, path)
        loaded = load_run(path)
        assert math.isinf(loaded.epsilon)
        assert loaded.variance is None

    def test_future_schema_version_rejected(self, tmp_path):
        record = make_record()
        path = tmp_path / "run.json"
        persist_run(record, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionError):
            load_run(path)

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RunRecord(
                dataset="d", solver="als", mechanism="none", variance=None,
                fraction=0.1, rank=2, rmse_trials=[0.5, 0.7], rmse_mean=0.9,
                rmse_std=0.1, epsilon=1.0, delta=0.0, seed=0,
            )

    CELL = dict(dataset="d", solver="als", mechanism="none", variance=None,
                fraction=0.1, rank=2, epsilon=1.0, delta=0.0, seed=0)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="rmse_trials must not be empty"):
            RunRecord(rmse_trials=[], rmse_mean=0.0, rmse_std=0.0, **self.CELL)

    def test_from_trials_without_trials_rejected(self):
        # the named error, not numpy's "Mean of empty slice" warning, which
        # the suite's filterwarnings turns into an error first
        with pytest.raises(ValueError, match="rmse_trials must not be empty"):
            RunRecord.from_trials([], **self.CELL)

    def test_large_trial_mean_accepted(self):
        # np.mean and sum/len differ by more than 1e-12 at this scale; the
        # record checks the mean it stores against the same computation
        trials = [123456.789 + 0.1 * i for i in range(8)]
        assert RunRecord.from_trials(trials, **self.CELL).rmse_mean == np.mean(trials)

    def test_mean_and_std_recomputable(self):
        record = make_record()
        trials = np.asarray(record.rmse_trials)
        assert record.rmse_mean == pytest.approx(trials.mean(), abs=1e-12)
        assert record.rmse_std == pytest.approx(trials.std(), abs=1e-12)

    def test_csv_summary(self, tmp_path):
        records = [make_record(), make_record(mechanism="laplace", epsilon=5.0)]
        path = tmp_path / "summary.csv"
        write_summary_csv(records, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "synthetic-m20-n20-rank2"
        assert float(first[8]) == pytest.approx(records[0].rmse_mean)
