"""Tests for the benchmark command line."""

import dataclasses
import json
import logging
import traceback
import warnings

import numpy as np
import pytest

from huberdp import bench_cli, data_io, lrmc, mechanisms
from huberdp.bench_cli import ExperimentPlan, _stream, _trial_data, main, run_plan
from huberdp.data_io import generate_synthetic, load_run
from huberdp.mechanisms import MechanismConfig


def run_cli(args):
    return main(args)


def _written(directory):
    """The files of a run --out directory: each record without its
    wall_clock_sec, and summary.csv's bytes."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            files[path.name] = {k: v for k, v in json.loads(path.read_text()).items()
                                if k != "wall_clock_sec"}
        else:
            files[path.name] = path.read_bytes()
    return files


#: a 20x20 plan that runs in well under a second, for rows that override one flag
SMALL = ["run", "--m", "20", "--n", "20", "--data-rank", "2", "--rank", "2",
         "--fraction", "0.5", "--trials", "1", "--outer-t", "2", "--irls-k", "2"]


class TestBudgetCommand:
    def test_reference_table_base10(self, capsys):
        code = run_cli(
            ["budget", "--variances", "1,2,3,4", "--delta-f", "5",
             "--delta", "1e-5", "--log-base", "base10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for token in ("15.964", "7.071", "15.000", "11.288", "5.000", "5.380",
                      "9.217", "4.082", "7.982", "3.536"):
            assert token in out

    def test_natural_mode_documents_discrepancy(self, capsys):
        code = run_cli(["budget", "--variances", "1", "--delta-f", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "24.22" in out
        assert "base10" in out and "sqrt(ln 10)" in out

    def test_small_sensitivity(self, capsys):
        run_cli(["budget", "--variances", "2", "--delta-f", "1"])
        out = capsys.readouterr().out
        assert "1.000" in out  # laplace epsilon at beta = 1

    def test_empty_variances(self, capsys):
        # a table of no rows is an input error, as in verify-privacy
        code = run_cli(["budget", "--variances", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "huberdp-bench: error: budget needs at least one variance"

    def test_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "budget.csv"
        run_cli(["budget", "--variances", "1,2", "--csv", str(csv_path)])
        capsys.readouterr()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("variance,gaussian_epsilon")
        assert len(lines) == 3


class TestCalibrateCommand:
    def test_reference_targets(self, capsys):
        code = run_cli(["calibrate", "--targets", "2,3,4", "--delta-f", "5"])
        out = capsys.readouterr().out
        assert code == 0
        for token in ("5.380", "4.216", "3.601"):
            assert token in out

    def test_empty_targets(self, capsys):
        code = run_cli(["calibrate", "--targets", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "huberdp-bench: error: calibrate needs at least one target"

    def test_unit_variance_warning(self, capsys):
        code = run_cli(["calibrate", "--targets", "1", "--delta-f", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert "15.000" in captured.out
        assert "warning" in captured.err

    def test_huge_target(self, capsys):
        code = run_cli(["calibrate", "--targets", "1e6"])
        assert code == 0
        assert "0.0014" in capsys.readouterr().out


class TestVerifyPrivacyCommand:
    def test_grid_passes(self, capsys):
        code = run_cli(
            ["verify-privacy", "--alphas", "0.5,1,2,4", "--delta-fs", "0.1,1,5,10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "16 cells checked" in out

    def test_single_point_reports_value(self, capsys):
        code = run_cli(["verify-privacy", "--alphas", "2", "--delta-fs", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "6.000000" in out

    @pytest.mark.parametrize("flag", ["--alphas", "--delta-fs"])
    def test_empty_grid_is_an_error(self, flag, capsys):
        # a grid of no cells checks nothing, so it cannot pass
        code = run_cli(["verify-privacy", flag, ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("huberdp-bench: error: verify-privacy needs at least one")

    def test_wrong_loss_fails(self, monkeypatch, capsys):
        # a loss off by one part in a million must fail the 1e-9 check
        exact = mechanisms.huber_loss
        monkeypatch.setattr(mechanisms, "huber_loss", lambda t, a: exact(t, a) * (1 + 1e-6))
        code = run_cli(["verify-privacy", "--alphas", "2", "--delta-fs", "3"])
        captured = capsys.readouterr()
        assert code == 1
        [row] = [line for line in captured.out.splitlines() if line.endswith("FAIL")]
        assert row.split()[:3] == ["2", "3", "6.000006"]  # the measured sup, not the bound
        assert "exceeded" in captured.err

    def test_nan_grid_fails(self, capsys):
        # huber_loss overflows at alpha = delta_f = 1e200, so the grid maximum
        # is NaN; a NaN must fail the check, not pass it
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(["verify-privacy", "--alphas", "1e200", "--delta-fs", "1e200"])
        out = capsys.readouterr().out
        assert code == 1
        [row] = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert row.split()[2:4] == ["nan", "nan"]
        assert "max |sup g - alpha*delta_f| = nan" in out

    def test_nan_grid_fails_without_numpy_warnings(self, capsys):
        # the same grid outside any np.errstate: the check reports the NaN
        # itself, so the overflow may not warn (the suite turns warnings into
        # errors) and stderr holds the one failure line
        code = run_cli(["verify-privacy", "--alphas", "1e200", "--delta-fs", "1e200"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["tolerance 1e-09 exceeded"]


class TestGenCommand:
    # np.savez given a path without the suffix would write data.npz instead
    @pytest.mark.parametrize("name", ["data.npz", "data"])
    def test_writes_loadable_dataset(self, name, tmp_path, capsys):
        out = tmp_path / name
        code = run_cli(
            ["gen", "--m", "40", "--n", "30", "--rank", "2",
             "--fraction", "0.3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        with np.load(out) as npz:
            assert npz["x"].shape == (40, 30)
            assert npz["rows"].size == int(0.3 * 40 * 30)
            assert "value_range" not in npz.files
        assert run_cli(["run", "--dataset", f"file:{out}", "--rank", "2", "--solver", "als",
                        "--mechanism", "none", "--fraction", "1", "--trials", "1",
                        "--outer-t", "2"]) == 0

    def test_writes_the_instance_its_seed_draws(self, tmp_path, capsys):
        out = tmp_path / "g.npz"
        assert run_cli(["gen", "--m", "30", "--n", "25", "--rank", "3", "--fraction", "0.4",
                        "--seed", "3", "--out", str(out)]) == 0
        x, obs = generate_synthetic(30, 25, 3, 0.4, 3)
        with np.load(out) as npz:
            assert np.array_equal(npz["x"], x)
            for name in ("rows", "cols", "values"):
                assert np.array_equal(npz[name], getattr(obs, name))
            assert (npz["m"], npz["n"], npz["rank"], npz["seed"]) == (30, 25, 3, 3)


class TestRunCommand:
    BASE = [
        "run", "--m", "50", "--n", "40", "--data-rank", "2", "--rank", "2",
        "--fraction", "0.25", "--variance", "2", "--trials", "2",
        "--outer-t", "6", "--irls-k", "4", "--seed", "9",
    ]

    def test_sweep_writes_records_and_summary(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(self.BASE + ["--out", str(out)])
        assert code == 0
        summary = (out / "summary.csv").read_text().strip().split("\n")
        # 2 solvers x (none + 3 noisy) = 8 rows + header
        assert len(summary) == 9
        record = load_run(out / "run-als-huber-v2-f0.25.json")
        assert record.mechanism == "huber"
        assert record.draw_counts["u_sweep"] == 0
        assert record.draw_counts["v_sweep"] > 0
        assert len(record.rmse_trials) == 2

    def test_every_record_loads_back_as_run(self, tmp_path, monkeypatch, capsys):
        returned = []

        def recording_run_plan(plan):
            returned.append(run_plan(plan))
            return returned[-1]

        monkeypatch.setattr(bench_cli, "run_plan", recording_run_plan)
        out = tmp_path / "results"
        assert run_cli(self.BASE + ["--out", str(out)]) == 0
        [(records, failures)] = returned
        assert failures == [] and len(records) == 8
        loaded = {path.name: load_run(path) for path in out.glob("run-*.json")}
        assert loaded == {
            f"run-{bench_cli._cell_name(r.solver, r.mechanism, r.variance, r.fraction)}.json": r
            for r in records
        }

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(self.BASE + ["--out", str(out1)])
        run_cli(self.BASE + ["--out", str(out2)])
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_budget_attached_to_each_row(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(self.BASE + ["--out", str(out)])
        lines = (out / "summary.csv").read_text().strip().split("\n")[1:]
        eps_column = [line.split(",")[6] for line in lines]
        assert all(eps for eps in eps_column)
        assert any(eps == "inf" for eps in eps_column)  # the vanilla rows

    def test_plan_file_with_override(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "m": 50, "n": 40, "data_rank": 2, "rank": 2,
            "solvers": ["als"], "mechanisms": ["none"],
            "fractions": [0.25], "trials": 1,
            "outer_iterations": 4, "seed": 2,
        }))
        out = tmp_path / "results"
        code = run_cli(["run", "--plan", str(plan_path), "--trials", "2", "--out", str(out)])
        assert code == 0
        record = load_run(out / "run-als-none-f0.25.json")
        assert len(record.rmse_trials) == 2  # override took effect

    def test_unknown_plan_field_rejected(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"bogus": 1}))
        assert run_cli(["run", "--plan", str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"huberdp-bench: error: {plan_path}: plan has unknown key(s) bogus\n"

    @pytest.mark.parametrize(
        "argv,plan,message",
        [
            (["run", "--mechanism", "huber,huber"], None, "mechanisms has duplicate entries"),
            (["run", "--dataset", "bogus"], None, "dataset 'bogus'"),
            (["run", "--dataset", "movielens:{tmp}/missing"], None, "no such file"),
            (["run", "--plan", "{tmp}/missing.json"], None, "No such file"),
            (["calibrate", "--targets", "3e24"], None, "no bracket found"),
            (["run", "--plan", "{tmp}/plan.json"], {"dataset": 5},
             "plan field dataset must be str, got 5"),
            (["run", "--plan", "{tmp}/plan.json"], {"trials": "3"},
             "plan field trials must be int, got '3'"),
            (["run", "--plan", "{tmp}/plan.json"], {"rank": 2.5},
             "plan field rank must be int | None, got 2.5"),
            (["run", "--variance", "-1"], None, "variance must be a positive real, got -1.0"),
            (["run", "--variance", "2,nan"], None, "variance must be a positive real, got nan"),
            (["run", "--fraction", "0"], None, "fraction 0.0 must lie in (0, 1]"),
            (["run", "--fraction", "0.1,1.5"], None, "fraction 1.5 must lie in (0, 1]"),
            (["run", "--fraction", ""], None, "at least one fraction is required"),
            (["run", "--variance", ""], None, "at least one variance is required"),
            (SMALL + ["--fraction", "0.001"], None,
             "fraction 0.001 observes no entry of a 20x20 matrix"),
            (SMALL + ["--rank", "0"], None, "rank must be >= 1"),
            (SMALL + ["--rank", "21"], None, "rank 21 exceeds min(m, n) = 20"),
            (SMALL + ["--lambda", "-1"], None, "lam must be a positive real, got -1.0"),
            (SMALL + ["--outer-t", "0"], None, "outer_iterations must be >= 1, got 0"),
            (SMALL + ["--irls-k", "0"], None, "inner_iterations must be >= 1, got 0"),
            (SMALL + ["--huber-loss-alpha", "-1"], None,
             "huber_loss_alpha must be a positive real"),
            (SMALL + ["--m", "0"], None, "m must be >= 1, got 0"),
            (SMALL + ["--data-rank", "0"], None, "synthetic rank must be >= 1, got 0"),
            (SMALL + ["--data-rank", "-1"], None, "synthetic rank must be >= 1, got -1"),
            (SMALL + ["--data-rank", "40"], None, "synthetic rank 40 must lie in [1, 20]"),
            (SMALL + ["--data-rank", "40", "--trial-mode", "fresh_matrix"], None,
             "synthetic rank 40 must lie in [1, 20]"),
            (SMALL + ["--delta", "0"], None, "delta 0.0 must lie in (0, 1)"),
            (SMALL + ["--holdout", "1.5"], None, "holdout_fraction 1.5 must lie in (0, 1)"),
            (SMALL + ["--seed", "-1"], None, "seed must be >= 0, got -1"),
            (SMALL + ["--seed", "-1", "--trial-mode", "fresh_matrix"], None,
             "seed must be >= 0, got -1"),
            (["run", "--solver", ""], None, "at least one solver is required"),
            (["run", "--mechanism", ""], None, "at least one mechanism is required"),
            (["run", "--plan", "{tmp}/plan.json"], {"trial_mode": "fresh"},
             "trial_mode must be 'fresh_mask' or 'fresh_matrix'"),
            (["run", "--dataset", "movielens:{tmp}/u.data", "--rank", "1", "--fraction", "0.01"],
             None, "fraction 0.01 observes no entry of a 3x3 matrix"),
            (["run", "--dataset", "movielens:{tmp}/u.data", "--rank", "1", "--fraction", "1"],
             None, "holdout_fraction 0.1 of the 6 entries at fraction 1.0 leaves the test side empty"),
            (["run", "--dataset", "movielens:{tmp}/u.data", "--rank", "1", "--fraction", "0.8"],
             None, "fraction 0.8 needs 7 entries of a 3x3 matrix but only 6 are observed"),
            (["run", "--dataset", "movielens:{tmp}/u.data", "--rank", "1", "--holdout", "0.5",
              "--mechanism", "huber,laplace", "--variance", "2", "--delta-f", "0"],
             None, "delta_f must be a positive real, got 0.0"),
            # rejected before the (missing) file is read
            (["run", "--dataset", "movielens:{tmp}/missing", "--delta-f", "nan"], None,
             "delta_f must be a positive real, got nan"),
            (["run", "--dataset", "movielens:{tmp}/u.data", "--rank", "1",
              "--trial-mode", "fresh_matrix"],
             None, "trial_mode 'fresh_matrix' applies to synthetic data only"),
            (SMALL + ["--solver", "als", "--huber-loss-alpha", "2"], None,
             "huber_loss_alpha applies to the irls solver only"),
            (["run", "--plan", "{tmp}/plan.json"], [], "must hold a JSON object, got list"),
            (["run", "--plan", "{tmp}/plan.json"], 5, "must hold a JSON object, got int"),
            (["run", "--plan", "{tmp}/plan.json"], None, "must hold a JSON object, got NoneType"),
            # rows [0.5, 1, 2.9, 0] would truncate to [0, 1, 2, 0]
            (["run", "--dataset", "file:{tmp}/float_rows.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None,
             "rows must be integer coordinates, got 0.5"),
            # int() would truncate m = 3.7 to 3, and fail on nan without naming n
            (["run", "--dataset", "file:{tmp}/fractional_m.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "m must be an integer, got 3.7"),
            (["run", "--dataset", "file:{tmp}/nan_n.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "n must be an integer, got nan"),
            # numpy's .item() would refuse m = [3, 4] without naming it
            (["run", "--dataset", "file:{tmp}/array_m.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "m must be an integer, got array([3, 4])"),
            (["run", "--dataset", "file:{tmp}/wide_x.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "x has shape (5, 6), not (m, n) = (3, 4)"),
            (["run", "--dataset", "file:{tmp}/no_rows.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "no_rows.npz lacks npz key(s) rows"),
            # fraction 1 runs a file as it is, so its own count must not be 0
            (["run", "--dataset", "file:{tmp}/empty.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "empty.npz holds no observed entry"),
            (["run", "--dataset", "file:{tmp}/values.npy", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "values.npy is not an npz archive"),
            (["run", "--dataset", "file:{tmp}/u.data", "--rank", "1", "--fraction", "1",
              "--trials", "1"], None, "u.data is not an npz archive"),
            # a truth that is not finite would score every trial as RMSE nan
            (["run", "--dataset", "file:{tmp}/nan_x.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1", "--out", "{tmp}/fresh/results"], None, "x must be finite"),
            # a bool array would run as the rows 1 and 0
            (["run", "--dataset", "file:{tmp}/bool_rows.npz", "--rank", "1", "--fraction", "1",
              "--trials", "1", "--out", "{tmp}/fresh/results"], None,
             "rows must be integer coordinates, got True"),
            # complex values would run on their real part
            (["run", "--dataset", "file:{tmp}/complex_values.npz", "--rank", "1", "--fraction",
              "1", "--trials", "1", "--out", "{tmp}/fresh/results"], None,
             "values must be a real array, got dtype complex128"),
            # complex rows would run on their real parts
            (["run", "--dataset", "file:{tmp}/complex_rows.npz", "--rank", "1", "--fraction",
              "1", "--trials", "1", "--out", "{tmp}/fresh/results"], None,
             "rows must be a real array, got dtype complex128"),
            (["gen", "--seed", "-1", "--out", "{tmp}/g.npz"], None,
             "seed must be >= 0, got -1"),
            (["gen", "--rank", "-1", "--out", "{tmp}/g.npz"], None,
             "synthetic rank must be >= 1, got -1"),
            (["gen", "--m", "20", "--n", "20", "--fraction", "0.001", "--out", "{tmp}/g.npz"],
             None, "fraction 0.001 observes no entry of a 20x20 matrix"),
            # a sensitivity of 0 would print epsilon 0, a claim of perfect privacy
            (["budget", "--variances", "2", "--delta-f", "0"], None,
             "delta_f must be a positive real, got 0.0"),
            (["budget", "--variances", "2", "--delta-f", "-1"], None,
             "delta_f must be a positive real, got -1.0"),
            (["calibrate", "--targets", "2", "--delta-f", "0"], None,
             "delta_f must be a positive real, got 0.0"),
            (["calibrate", "--targets", "2", "--delta-f", "nan"], None,
             "delta_f must be a positive real, got nan"),
            # int64 keys of (0, 0) and (4294967296, 0) in this shape would collide
            (["run", "--dataset", "movielens:{tmp}/wrap.data"], None,
             "wrap.data: a 4294967297x4294967296 matrix has 2**63 or more entries"),
            (["run", "--trials", "0"], None, "trials must be >= 1, got 0"),
            (["gen", "--m", "0", "--out", "{tmp}/fresh/g.npz"], None, "m must be >= 1, got 0"),
            # distinct floats that print alike under %g would share one record file
            (["run", "--variance", "2.0000001,2.0000002"], None,
             "variances has duplicate entries: [2.0000001, 2.0000002]"),
            # an unusable --out is found before any cell runs
            (SMALL + ["--out", "{tmp}/plan.json"], None, "File exists: "),
            (["run", "--dataset", "movielens:{tmp}/latin1.data", "--rank", "1"], None,
             "latin1.data:2: not UTF-8 text"),
            # numpy's reader strips U+001C around a number and float() does not
            (["run", "--dataset", "movielens:{tmp}/pad.data", "--rank", "1"], None,
             "pad.data:2: could not convert string to float: '4\\x1c'"),
        ],
        ids=["duplicate-mechanism", "unknown-dataset", "missing-ratings",
             "missing-plan", "uncalibratable-variance", "dataset-not-str",
             "trials-not-int", "rank-not-int", "negative-variance",
             "nan-variance", "zero-fraction", "fraction-above-one",
             "empty-fractions", "empty-variances", "fraction-observes-nothing",
             "zero-rank", "rank-above-shape", "negative-lambda", "zero-outer-t",
             "zero-irls-k", "negative-loss-alpha", "zero-m", "zero-data-rank",
             "negative-data-rank",
             "data-rank-above-shape", "data-rank-above-shape-fresh-matrix",
             "zero-delta", "holdout-above-one", "negative-seed",
             "negative-seed-fresh-matrix", "empty-solvers", "empty-mechanisms",
             "unknown-trial-mode", "file-fraction-observes-nothing",
             "file-holdout-leaves-test-empty", "file-fraction-above-observed",
             "delta-f-zero", "delta-f-nan", "file-fresh-matrix", "als-loss-alpha",
             "plan-list", "plan-int", "plan-null", "file-float-rows", "file-fractional-m",
             "file-nan-n", "file-array-m", "file-x-shape", "file-missing-rows", "file-empty",
             "file-npy", "file-text", "file-nan-x", "file-bool-rows", "file-complex-values",
             "file-complex-rows",
             "gen-negative-seed", "gen-negative-rank",
             "gen-fraction-observes-nothing",
             "budget-delta-f-zero", "budget-delta-f-negative", "calibrate-delta-f-zero",
             "calibrate-delta-f-nan", "ratings-keys-wrap", "zero-trials", "gen-zero-m",
             "duplicate-printed-variances", "out-is-a-file", "ratings-not-utf8",
             "ratings-fs-padding"],
    )
    def test_bad_input_is_one_error_line(self, argv, plan, message, tmp_path, capsys):
        (tmp_path / "plan.json").write_text(json.dumps(plan))  # None writes null
        # six ratings of a 3x3 matrix, for the dataset-file rows
        (tmp_path / "u.data").write_text(
            "1\t1\t5\t0\n1\t2\t4\t0\n2\t2\t3\t0\n2\t3\t4\t0\n3\t1\t2\t0\n3\t3\t5\t0\n"
        )
        (tmp_path / "wrap.data").write_text("1\t1\t3\t0\n4294967297\t1\t4\t0\n1\t4294967296\t5\t0\n")
        (tmp_path / "latin1.data").write_bytes(b"1\t1\t5\t0\n1\t2\t4\t0 \xff\n2\t2\t3\t0\n")
        (tmp_path / "pad.data").write_text("1\t1\t5\t0\n1\t2\t4\x1c\t0\n2\t2\t3\t0\n")
        np.savez(tmp_path / "float_rows.npz", x=np.ones((3, 3)), m=3, n=3,
                 rows=[0.5, 1.0, 2.9, 0.0], cols=[0, 1, 2, 2], values=[1.0, 2.0, 3.0, 4.0],
                 value_range=[1.0, 5.0])
        # all 12 entries of a 3x4 matrix, enough for the default holdout
        valid = dict(x=np.ones((3, 4)), m=3, n=4, rows=np.repeat(np.arange(3), 4),
                     cols=np.tile(np.arange(4), 3), values=np.ones(12), value_range=[1.0, 5.0])
        np.savez(tmp_path / "fractional_m.npz", **{**valid, "m": 3.7})
        np.savez(tmp_path / "nan_n.npz", **{**valid, "n": np.nan})
        np.savez(tmp_path / "array_m.npz", **{**valid, "m": [3, 4]})
        np.savez(tmp_path / "wide_x.npz", **{**valid, "x": np.ones((5, 6))})
        np.savez(tmp_path / "no_rows.npz", **{k: v for k, v in valid.items() if k != "rows"})
        np.savez(tmp_path / "empty.npz", **{**valid, "rows": [], "cols": [], "values": []})
        nan_x = np.ones((3, 4))
        nan_x[0, 0] = np.nan
        np.savez(tmp_path / "nan_x.npz", **{**valid, "x": nan_x})
        np.savez(tmp_path / "bool_rows.npz", **{**valid, "rows": np.repeat([True, False, True], 4)})
        np.savez(tmp_path / "complex_values.npz", **{**valid, "values": valid["values"] + 1j})
        np.savez(tmp_path / "complex_rows.npz", **{**valid, "rows": valid["rows"] + 0j})
        np.save(tmp_path / "values.npy", valid["values"])
        code = run_cli([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        [line] = captured.err.splitlines()
        assert line.startswith("huberdp-bench: error: ") and message in line
        if argv[0] == "run":
            assert captured.out == ""  # no cell ran, so no table was printed
        assert not (tmp_path / "fresh").exists()  # nor was --out made

    def test_rank_above_file_shape_is_one_error_line(self, tmp_path, capsys):
        # a ratings file's shape is known once it is loaded, before any cell
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t0\n2\t2\t4\t0\n3\t3\t3\t0\n")
        assert run_cli(["run", "--dataset", f"movielens:{path}", "--rank", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "huberdp-bench: error: rank 4 exceeds min(m, n) = 3 of the data"

    def test_unusable_out_found_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # --out naming an existing file is one error line, and no solve runs
        solves = []
        for name in ("noisy_als", "irls_huber"):
            monkeypatch.setattr(lrmc, name, lambda *args, **kwargs: solves.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli(["run", "--m", "20", "--n", "20", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("huberdp-bench: error: ")
        assert solves == []

    def test_uncalibratable_variance_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # the plan calibrates every cell when it is built: no cell runs and
        # --out is not made
        solves = []
        for name in ("noisy_als", "irls_huber"):
            monkeypatch.setattr(lrmc, name, lambda *args, **kwargs: solves.append(args))
        out = tmp_path / "fresh" / "results"
        argv = ["run", "--m", "20", "--n", "20", "--solver", "als,irls",
                "--mechanism", "huber,laplace", "--variance", "3e24", "--out", str(out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "huberdp-bench: error: no bracket found for target variance 3e+24\n"
        assert solves == []
        assert not (tmp_path / "fresh").exists()

    def test_dataset_error_leaves_no_out_directory(self, tmp_path, capsys):
        # run_plan makes --out only once the dataset has loaded and passed
        # its checks, so a dataset that fails creates no directory, and
        # leaves one that was already there
        np.savez(tmp_path / "no_rows.npz", m=3, n=4, cols=np.arange(4), values=np.ones(4))
        argv = ["run", "--dataset", f"file:{tmp_path}/no_rows.npz", "--rank", "1",
                "--fraction", "1", "--trials", "1", "--out"]
        assert run_cli(argv + [str(tmp_path / "new" / "results")]) == 2
        assert not (tmp_path / "new").exists()
        (tmp_path / "kept").mkdir()
        assert run_cli(argv + [str(tmp_path / "kept")]) == 2
        assert (tmp_path / "kept").is_dir()
        assert capsys.readouterr().out == ""

    def test_non_finite_rating_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t3\t0\n2\t2\tnan\t1\n")
        assert run_cli(["run", "--dataset", f"movielens:{path}"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"huberdp-bench: error: {path}:2: ")

    def test_id_beyond_int64_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t3\t0\n99999999999999999999\t2\t4\t0\n")
        assert run_cli(["run", "--dataset", f"movielens:{path}"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"huberdp-bench: error: {path}:2: ids must be < 2**63, got 99999999999999999999"

    @pytest.mark.parametrize(
        "field,value",
        [("trials", True), ("seed", 1.0), ("variances", [1.0, "2"]), ("solvers", "als"),
         ("huber_loss_alpha", "1"), ("out", 3)],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        # a bool is not a count, and a list field takes a list of its type
        with pytest.raises(ValueError, match=f"plan field {field} must be"):
            ExperimentPlan(**{field: value})

    def test_int_passes_as_float(self):
        plan = ExperimentPlan(variances=[1, 2.5], lam=1, huber_loss_alpha=2, delta_f=5)
        assert plan.variances == [1, 2.5]

    def test_failed_cell_reported_nonzero_exit(self, tmp_path, capsys):
        # ratings scaled by 1e200 pass every plan check, then diverge in a cell
        plan = _divergent_plan(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                ["run", "--dataset", plan.dataset, "--rank", "2", "--fraction", "1.0",
                 "--mechanism", "none", "--solver", "als", "--trials", "1",
                 "--outer-t", "3", "--seed", "8"]
            )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_fresh_matrix_mode(self, capsys):
        code = run_cli(
            ["run", "--m", "30", "--n", "30", "--data-rank", "2", "--rank", "2",
             "--fraction", "0.3", "--mechanism", "none", "--solver", "als",
             "--trials", "2", "--outer-t", "3", "--seed", "1",
             "--trial-mode", "fresh_matrix"]
        )
        assert code == 0


def _divergent_plan(tmp_path):
    """An ALS plan whose ratings, scaled by 1e200, overflow U^T U in the first
    column half-sweep."""
    rng = np.random.default_rng(5)
    x = 1e200 * (rng.standard_normal((30, 2)) @ rng.standard_normal((2, 25)))
    rows, cols = np.divmod(rng.choice(30 * 25, 375, replace=False), 25)
    path = tmp_path / "huge.npz"
    np.savez(path, x=x, m=30, n=25, rows=rows, cols=cols,
             values=x[rows, cols], value_range=np.array([1.0, 5.0]))
    return ExperimentPlan(
        dataset=f"file:{path}", rank=2, solvers=["als"], mechanisms=["none"],
        fractions=[1.0], trials=1, outer_iterations=3, seed=8,
    )


class TestRunPlanApi:
    def test_twenty_four_cell_layout(self, tmp_path, capsys):
        # 2 solvers x (none + 3 noisy) x 3 fractions at one variance
        out = tmp_path / "results"
        code = run_cli(
            ["run", "--m", "60", "--n", "60", "--data-rank", "5", "--rank", "5",
             "--solver", "als,irls",
             "--mechanism", "none,gaussian,laplace,huber",
             "--variance", "1", "--fraction", "0.05,0.10,0.15",
             "--trials", "1", "--outer-t", "4", "--irls-k", "3",
             "--seed", "21", "--out", str(out)]
        )
        table = capsys.readouterr().out
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 25  # header + 24 cells
        header = table.splitlines()[0].split()
        assert header == ["variance", "fraction", "solver",
                          "none", "gaussian", "laplace", "huber"]
        # every (fraction, solver) pair appears for the variance block and
        # the baseline block
        body = [l.split() for l in table.splitlines()[1:] if l.strip()]
        variance_rows = [r for r in body if r[0] == "1"]
        baseline_rows = [r for r in body if r[0] == "-"]
        assert len(variance_rows) == 6 and len(baseline_rows) == 6

    def test_cells_enumeration_collapses_none_variance(self):
        plan = ExperimentPlan(
            solvers=["als"], mechanisms=["none", "huber"],
            variances=[1.0, 2.0], fractions=[0.1],
        )
        cells = plan.cells()
        assert ("als", "none", None, 0.1) in cells
        assert ("als", "huber", 1.0, 0.1) in cells
        assert ("als", "huber", 2.0, 0.1) in cells
        assert len(cells) == 3

    def test_no_variance_needed_without_noise(self):
        plan = ExperimentPlan(solvers=["als"], mechanisms=["none"], variances=[])
        assert plan.cells() == [("als", "none", None, 0.05)]

    def test_irls_cells_at_one_variance_share_one_loss_alpha(self):
        # the loss alpha comes from the plan's variance: the laplace scale
        # gives 3 back as 2.9999999999999996, which calibrates a few ulps off
        assert MechanismConfig.from_variance("laplace", 3.0).variance() != 3.0
        plan = ExperimentPlan(
            m=12, n=10, data_rank=2, rank=2, solvers=["irls"],
            mechanisms=["gaussian", "laplace", "huber"], variances=[3.0], fractions=[0.5],
            trials=1, outer_iterations=1, irls_iterations=2,
        )
        records, failures = run_plan(plan)
        assert not failures and len(records) == 3
        alphas = {rec.config["huber_loss_alpha"] for rec in records}
        assert alphas == {mechanisms.calibrate_alpha(3.0)}

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(solvers=["bogus"])
        with pytest.raises(ValueError):
            ExperimentPlan(mechanisms=["bogus"])
        with pytest.raises(ValueError):
            ExperimentPlan(trials=0)
        # dataset specs are checked when the plan is built, not when it runs
        for dataset in ("netflix:x.csv", "movielens:", "bogus", "synthetic:x"):
            with pytest.raises(ValueError, match="dataset"):
                ExperimentPlan(dataset=dataset)

    @pytest.mark.parametrize(
        "name,entries",
        [
            ("solvers", ["als", "irls", "als"]),
            ("mechanisms", ["huber", "huber"]),
            ("variances", [2.0, 1.0, 2]),
            ("fractions", [0.05, 0.05]),
            # distinct floats that print alike would write one record file
            ("variances", [2.0000001, 2.0000002]),
        ],
    )
    def test_duplicate_grid_entries_rejected(self, name, entries):
        # a repeated entry would run its cells twice into one record file
        with pytest.raises(ValueError, match=f"{name} has duplicate entries"):
            ExperimentPlan(**{name: entries})

    def test_run_plan_returns_records(self):
        plan = ExperimentPlan(
            m=40, n=30, data_rank=2, rank=2, solvers=["als"],
            mechanisms=["none"], fractions=[0.3], trials=1,
            outer_iterations=3, seed=4,
        )
        records, failures = run_plan(plan)
        assert not failures
        assert len(records) == 1
        assert records[0].rmse_scope == "all_entries"

    def test_run_plan_writes_out_as_the_cli_does(self, tmp_path, capsys):
        # a library call with out set writes the files `run --out` writes
        argv = ["run", "--m", "30", "--n", "25", "--data-rank", "2", "--rank", "2",
                "--mechanism", "none,huber", "--variance", "2", "--fraction", "0.4",
                "--trials", "2", "--outer-t", "3", "--irls-k", "2", "--seed", "3"]
        assert run_cli(argv + ["--out", str(tmp_path / "cli")]) == 0
        plan = ExperimentPlan(m=30, n=25, data_rank=2, rank=2, mechanisms=["none", "huber"],
                              variances=[2.0], fractions=[0.4], trials=2, outer_iterations=3,
                              irls_iterations=2, seed=3, out=str(tmp_path / "api"))
        records, failures = run_plan(plan)
        assert not failures
        api = _written(tmp_path / "api")
        assert len(api) == len(records) + 1 and "summary.csv" in api
        assert api == _written(tmp_path / "cli")

    def test_fresh_matrix_trial_matches_generate_synthetic(self):
        # fresh_matrix draws truth and mask from one (seed, 1, fraction, trial)
        # stream, exactly as generate_synthetic does
        plan = ExperimentPlan(m=40, n=30, data_rank=2, rank=2, fractions=[0.2, 0.4],
                              seed=7, trial_mode="fresh_matrix")
        for frac_idx, fraction in enumerate(plan.fractions):
            for trial in range(2):
                x, train, test = _trial_data(plan, None, None, frac_idx, fraction, trial)
                x_ref, obs_ref = generate_synthetic(
                    40, 30, 2, fraction, _stream(plan.seed, 1, frac_idx, trial))
                assert test is None
                assert np.array_equal(x, x_ref)
                for name in ("rows", "cols", "values"):
                    assert np.array_equal(getattr(train, name), getattr(obs_ref, name))
                assert (train.m, train.n) == (obs_ref.m, obs_ref.n)

    @pytest.mark.parametrize("mode", ["fresh_mask", "fresh_matrix", "ratings"])
    def test_records_replay_from_trial_streams(self, mode, tmp_path):
        # a record names everything a trial ran on: _trial_data rebuilds its
        # data and trial_streams its solver stream, to the same RMSE
        grid = dict(solvers=["als", "irls"], mechanisms=["none", "huber"], variances=[2.0],
                    trials=2, outer_iterations=3, irls_iterations=2, seed=11)
        truth = base_obs = None
        if mode == "ratings":
            rng = np.random.default_rng(23)
            z = np.clip(np.rint(3 + rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))),
                        1, 5)
            path = tmp_path / "u.data"
            path.write_text("".join(
                f"{u + 1}\t{i + 1}\t{int(z[u, i])}\t0\n"
                for u in range(40) for i in rng.choice(30, size=15, replace=False)
            ))
            plan = ExperimentPlan(dataset=f"movielens:{path}", rank=2, fractions=[0.3, 1.0],
                                  holdout_fraction=0.2, **grid)
            base_obs = data_io.parse_movielens(path)
        else:
            plan = ExperimentPlan(m=30, n=25, data_rank=2, rank=2, fractions=[0.3, 0.5],
                                  trial_mode=mode, **grid)
            if mode == "fresh_mask":
                truth = data_io.synthetic_truth(30, 25, 2, _stream(plan.seed, 1))
        records, failures = run_plan(plan)
        assert not failures
        assert len(records) == 8
        for record in records:
            config = plan._cell_config(record.solver, record.mechanism, record.variance)
            solve = lrmc.noisy_als if record.solver == "als" else lrmc.irls_huber
            frac_idx = plan.fractions.index(record.fraction)
            for t, entropy in enumerate(record.config["trial_streams"]):
                x, train, test = _trial_data(plan, truth, base_obs, frac_idx, record.fraction, t)
                factors = solve(train, config, _stream(*entropy))
                assert lrmc.rmse(x if test is None else test, factors) == record.rmse_trials[t]
                assert record.rmse_scope == ("all_entries" if test is None else "holdout")
                assert record.config["holdout_fraction"] == (None if test is None else 0.2)
            assert ("actual_fraction" in record.extras) == (mode == "ratings")

    def test_file_dataset_round_trip(self, tmp_path, capsys):
        # a generated file carries its ground truth, so scoring uses all
        # entries exactly like the in-memory synthetic protocol
        out = tmp_path / "ds.npz"
        run_cli(["gen", "--m", "40", "--n", "30", "--rank", "2",
                 "--fraction", "0.4", "--seed", "6", "--out", str(out)])
        capsys.readouterr()
        plan = ExperimentPlan(
            dataset=f"file:{out}", rank=2, solvers=["als"], mechanisms=["none"],
            fractions=[0.2], trials=1, outer_iterations=3, seed=4,
        )
        records, failures = run_plan(plan)
        assert not failures
        assert records[0].rmse_scope == "all_entries"
        assert records[0].extras["actual_fraction"] == pytest.approx(0.2)

    def test_movielens_format_dataset(self, tmp_path):
        # ratings file in the u.data layout, from a rounded low-rank model
        rng = np.random.default_rng(17)
        u = rng.standard_normal((60, 2))
        v = rng.standard_normal((40, 2))
        z = np.clip(np.rint(3 + u @ v.T), 1, 5)
        lines = []
        for user in range(60):
            for item in rng.choice(40, size=12, replace=False):
                lines.append(f"{user + 1}\t{item + 1}\t{int(z[user, item])}\t0")
        path = tmp_path / "u.data"
        path.write_text("\n".join(lines) + "\n")
        plan = ExperimentPlan(
            dataset=f"movielens:{path}", rank=2, solvers=["als", "irls"],
            mechanisms=["none", "huber"], variances=[1.0], fractions=[1.0],
            trials=2, outer_iterations=4, irls_iterations=3, seed=8,
        )
        records, failures = run_plan(plan)
        assert not failures
        assert len(records) == 4
        for record in records:
            assert record.rmse_scope == "holdout"
            assert record.extras["actual_fraction"] == pytest.approx(720 / 2400)
            assert record.extras["rmse_train_mean"] > 0

    def test_sweetrs_format_dataset(self, tmp_path):
        # a SweetRS-style dump with its header row, from a rounded low-rank model
        rng = np.random.default_rng(19)
        z = np.clip(np.rint(3 + rng.standard_normal((50, 2)) @ rng.standard_normal((2, 30))), 1, 5)
        lines = ["user,item,rating"] + [
            f"{user + 1},{item + 1},{int(z[user, item])}"
            for user in range(50)
            for item in rng.choice(30, size=10, replace=False)
        ]
        path = tmp_path / "sweetrs.csv"
        path.write_text("\n".join(lines) + "\n")
        plan = ExperimentPlan(
            dataset=f"sweetrs:{path}", rank=2, solvers=["als"], mechanisms=["none"],
            fractions=[1.0], trials=1, outer_iterations=3, seed=8,
        )
        records, failures = run_plan(plan)
        assert not failures
        [record] = records
        assert record.dataset == "sweetrs-sweetrs"
        assert record.rmse_scope == "holdout"
        assert record.extras["actual_fraction"] == pytest.approx(500 / 1500)

    def test_unit_variance_convention_flagged_in_record(self):
        plan = ExperimentPlan(
            m=20, n=20, data_rank=2, rank=2, solvers=["als"], mechanisms=["huber"],
            variances=[1.0, 2.0], fractions=[0.5], trials=1, outer_iterations=2,
        )
        records, failures = run_plan(plan)
        assert not failures
        v1, v2 = records
        assert v1.variance == 1.0 and v1.extras["huber_unit_variance_convention"] is True
        assert v1.config["mechanism_scale"] == 3.0
        assert v2.variance == 2.0 and "huber_unit_variance_convention" not in v2.extras

    @pytest.mark.parametrize("solver,mechanism", [("als", "huber"), ("irls", "laplace")])
    def test_uncalibratable_variance_is_a_plan_error(self, solver, mechanism):
        # no finite alpha reaches 3e24, for the Huber noise or for the loss
        # alpha that irls matches to the noise variance (Laplace's 2 beta**2
        # gives it back as 3.0000000000000005e+24); the plan is refused
        # instead of running the unit-variance convention's alpha
        with pytest.raises(mechanisms.CalibrationError,
                           match=r"^no bracket found for target variance 3(\.0*5)?e\+24$"):
            ExperimentPlan(
                m=20, n=20, data_rank=2, rank=2, solvers=[solver], mechanisms=[mechanism],
                variances=[3e24], fractions=[0.5], trials=1, outer_iterations=2,
            )

    @pytest.mark.parametrize("kind,given,rank,sweeps", [
        ("movielens", {}, 32, 20),
        ("sweetrs", {}, 32, 100),
        ("synthetic", {}, 5, 50),
        ("file", {}, 5, 50),
        ("movielens", {"rank": 3}, 3, 20),
        ("sweetrs", {"outer_iterations": 2}, 32, 2),
    ], ids=["movielens", "sweetrs", "synthetic", "file", "movielens-rank-given",
            "sweetrs-sweeps-given"])
    def test_protocol_defaults_for_real_datasets(self, kind, given, rank, sweeps, tmp_path,
                                                 capsys):
        # an unset rank or outer_iterations takes the dataset kind's protocol
        # value, in `run` as in an ExperimentPlan built in Python; a given one wins
        rng = np.random.default_rng(3)
        ratings = [(u + 1, i + 1, int(r)) for u in range(40)
                   for i, r in zip(rng.choice(40, 38, replace=False), rng.integers(1, 6, 38))]
        path = tmp_path / "data"
        if kind == "movielens":
            path.write_text("".join(f"{u}\t{i}\t{r}\t0\n" for u, i, r in ratings))
        elif kind == "sweetrs":
            path.write_text("".join(f"{u},{i},{r}\n" for u, i, r in ratings))
        elif kind == "file":
            assert run_cli(["gen", "--m", "40", "--n", "30", "--rank", "2", "--fraction", "0.5",
                            "--out", str(path)]) == 0
        shape = {"m": 20, "n": 20} if kind == "synthetic" else {}
        dataset = "synthetic" if kind == "synthetic" else f"{kind}:{path}"
        fields = dict(dataset=dataset, solvers=["als"], mechanisms=["none"], fractions=[1.0],
                      trials=1, seed=1, **shape, **given)
        flags = {"m": "--m", "n": "--n", "rank": "--rank", "outer_iterations": "--outer-t"}
        argv = ["run", "--dataset", dataset, "--solver", "als", "--mechanism", "none",
                "--fraction", "1.0", "--trials", "1", "--seed", "1"]
        for name, value in {**shape, **given}.items():
            argv += [flags[name], str(value)]
        assert run_cli(argv + ["--out", str(tmp_path / "cli")]) == 0
        plan = ExperimentPlan(**fields, out=str(tmp_path / "api"))
        assert plan._rank_and_sweeps() == (rank, sweeps)
        records, failures = run_plan(plan)
        assert not failures
        record = load_run(tmp_path / "cli" / "run-als-none-f1.json")
        assert (record.rank, record.config["outer_iterations"]) == (rank, sweeps)
        assert _written(tmp_path / "api") == _written(tmp_path / "cli")

    def test_json_null_takes_the_protocol_value(self, tmp_path, monkeypatch, capsys):
        # null in a plan file leaves the field unset, as an omitted one is
        plans = []
        monkeypatch.setattr(bench_cli, "run_plan", lambda plan: plans.append(plan) or ([], []))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"dataset": f"movielens:{tmp_path}/u.data",
                                         "rank": None, "outer_iterations": None}))
        assert run_cli(["run", "--plan", str(plan_path)]) == 0
        [plan] = plans
        assert plan._rank_and_sweeps() == (32, 20)

    @pytest.mark.parametrize("given,dataset,rank,sweeps", [
        ({}, "movielens:u.data", 32, 20),
        ({}, "sweetrs:r.csv", 32, 100),
        ({"rank": 7}, "movielens:u.data", 7, 20),
        ({"rank": 5, "outer_iterations": 50}, "sweetrs:r.csv", 5, 50),
        ({}, "synthetic", 5, 50),
    ], ids=["movielens", "sweetrs", "rank-given", "synthetic-values-given", "back-to-synthetic"])
    def test_replace_takes_the_new_kinds_protocol_values(self, given, dataset, rank, sweeps):
        # an unset rank or outer_iterations stays None, so a plan moved to
        # another dataset kind runs that kind's values; a given one stays,
        # even one equal to the old kind's protocol value
        start = ExperimentPlan(dataset="movielens:x" if dataset == "synthetic" else "synthetic",
                               **given)
        config = dataclasses.replace(start, dataset=dataset)._cell_config("als", "none", None)
        assert (config.rank, config.outer_iterations) == (rank, sweeps)

    def test_replaced_plan_writes_the_records_run_writes(self, tmp_path, capsys):
        path = tmp_path / "u.data"
        rng = np.random.default_rng(5)
        path.write_text("".join(f"{u + 1}\t{i + 1}\t{r}\t0\n" for u in range(40)
                                for i, r in zip(rng.choice(40, 38, replace=False),
                                                rng.integers(1, 6, 38))))
        dataset = f"movielens:{path}"
        assert run_cli(["run", "--dataset", dataset, "--solver", "als", "--mechanism", "none",
                        "--fraction", "1.0", "--trials", "1", "--seed", "1", "--outer-t", "2",
                        "--out", str(tmp_path / "cli")]) == 0
        start = ExperimentPlan(m=20, n=20, solvers=["als"], mechanisms=["none"],
                               fractions=[1.0], trials=1, seed=1, outer_iterations=2)
        plan = dataclasses.replace(start, dataset=dataset, out=str(tmp_path / "api"))
        _, failures = run_plan(plan)
        assert not failures
        assert load_run(tmp_path / "api" / "run-als-none-f1.json").rank == 32
        assert _written(tmp_path / "api") == _written(tmp_path / "cli")

    def test_infeasible_subsample_fails_cell(self, tmp_path):
        # the file's size is known once it is loaded, so run_plan rejects the
        # plan before any cell runs
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t0\n2\t2\t4\t0\n3\t3\t3\t0\n4\t4\t2\t0\n")
        plan = ExperimentPlan(
            dataset=f"movielens:{path}", rank=1, solvers=["als"],
            mechanisms=["none"], fractions=[0.9], trials=1,
            outer_iterations=2, seed=8,
        )
        with pytest.raises(ValueError, match="needs 14 entries of a 4x4 matrix but only 4"):
            run_plan(plan)

    def test_divergent_solve_fails_cell(self, tmp_path):
        plan = _divergent_plan(tmp_path)
        records, failures = run_plan(plan)
        assert not records
        assert failures == [
            "als-none-f1: SolverDivergence: noisy_als diverged: "
            "non-finite factors after the v half of sweep 0"
        ]

    def test_divergent_solves_raise_no_warning(self, tmp_path):
        # every solver with and without noise reports only SolverDivergence:
        # a numpy warning, raised here, would fail its cell as a RuntimeWarning
        plan = dataclasses.replace(_divergent_plan(tmp_path), solvers=["als", "irls"],
                                   mechanisms=["none", "huber"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, failures = run_plan(plan)
        assert not records
        assert [failure.split(": ")[1] for failure in failures] == ["SolverDivergence"] * 4

    def test_failed_cell_logs_its_traceback(self, tmp_path, caplog):
        plan = _divergent_plan(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            with caplog.at_level(logging.ERROR, logger="huberdp.bench_cli"):
                run_plan(plan)
        [record] = caplog.records
        assert "als-none-f1" in record.getMessage()
        assert record.exc_info is not None
        frames = traceback.extract_tb(record.exc_info[2])
        assert "_alternate" in [frame.name for frame in frames]
