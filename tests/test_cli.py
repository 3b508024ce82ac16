"""Tests for the benchmark command line."""

import json
import logging
import traceback

import numpy as np
import pytest

from huberdp import mechanisms
from huberdp.bench_cli import ExperimentPlan, _stream, _trial_data, main, run_plan
from huberdp.data_io import SyntheticSpec, generate_synthetic, load_run


def run_cli(args):
    return main(args)


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
        code = run_cli(["budget", "--variances", ""])
        assert code == 0

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
        assert row.split()[:3] == ["2", "3", "6.000000"]
        assert "exceeded" in captured.err


class TestGenCommand:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.npz"
        code = run_cli(
            ["gen", "--m", "40", "--n", "30", "--rank", "2",
             "--fraction", "0.3", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        with np.load(out) as npz:
            assert npz["x"].shape == (40, 30)
            assert npz["rows"].size == int(0.3 * 40 * 30)


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
        assert err.startswith("huberdp-bench: error: unknown plan fields")
        assert "bogus" in err

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
             "plan field rank must be int, got 2.5"),
            (["run", "--variance", "-1"], None, "variance -1.0 must be a positive real"),
            (["run", "--variance", "2,nan"], None, "variance nan must be a positive real"),
            (["run", "--fraction", "0"], None, "fraction 0.0 must lie in (0, 1]"),
            (["run", "--fraction", "0.1,1.5"], None, "fraction 1.5 must lie in (0, 1]"),
            (["run", "--fraction", ""], None, "at least one fraction is required"),
            (["run", "--variance", ""], None, "at least one variance is required"),
            (SMALL + ["--fraction", "0.001"], None,
             "fraction 0.001 observes no entry of a 20x20 matrix"),
            (SMALL + ["--rank", "0"], None, "rank must be >= 1"),
            (SMALL + ["--rank", "21"], None, "rank 21 exceeds min(m, n) = 20"),
            (SMALL + ["--lambda", "-1"], None, "lam must be > 0"),
            (SMALL + ["--outer-t", "0"], None, "iteration counts must be >= 1"),
            (SMALL + ["--irls-k", "0"], None, "iteration counts must be >= 1"),
            (SMALL + ["--huber-loss-alpha", "-1"], None,
             "huber_loss_alpha must be a positive real"),
            (SMALL + ["--m", "0"], None, "synthetic dimensions 0x20 must be >= 1"),
            (SMALL + ["--data-rank", "0"], None, "synthetic rank 0 must lie in [1, 20]"),
            (SMALL + ["--data-rank", "40"], None, "synthetic rank 40 must lie in [1, 20]"),
            (SMALL + ["--data-rank", "40", "--trial-mode", "fresh_matrix"], None,
             "synthetic rank 40 must lie in [1, 20]"),
            (SMALL + ["--delta", "0"], None, "delta 0.0 must lie in (0, 1)"),
            (SMALL + ["--holdout", "1.5"], None, "holdout_fraction 1.5 must lie in (0, 1)"),
            (SMALL + ["--seed", "-1"], None, "seed -1 must be >= 0"),
            (SMALL + ["--seed", "-1", "--trial-mode", "fresh_matrix"], None,
             "seed -1 must be >= 0"),
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
        ],
        ids=["duplicate-mechanism", "unknown-dataset", "missing-ratings",
             "missing-plan", "uncalibratable-variance", "dataset-not-str",
             "trials-not-int", "rank-not-int", "negative-variance",
             "nan-variance", "zero-fraction", "fraction-above-one",
             "empty-fractions", "empty-variances", "fraction-observes-nothing",
             "zero-rank", "rank-above-shape", "negative-lambda", "zero-outer-t",
             "zero-irls-k", "negative-loss-alpha", "zero-m", "zero-data-rank",
             "data-rank-above-shape", "data-rank-above-shape-fresh-matrix",
             "zero-delta", "holdout-above-one", "negative-seed",
             "negative-seed-fresh-matrix", "empty-solvers", "empty-mechanisms",
             "unknown-trial-mode", "file-fraction-observes-nothing",
             "file-holdout-leaves-test-empty", "file-fraction-above-observed"],
    )
    def test_bad_input_is_one_error_line(self, argv, plan, message, tmp_path, capsys):
        if plan is not None:
            (tmp_path / "plan.json").write_text(json.dumps(plan))
        # six ratings of a 3x3 matrix, for the dataset-file rows
        (tmp_path / "u.data").write_text(
            "1\t1\t5\t0\n1\t2\t4\t0\n2\t2\t3\t0\n2\t3\t4\t0\n3\t1\t2\t0\n3\t3\t5\t0\n"
        )
        code = run_cli([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        [line] = captured.err.splitlines()
        assert line.startswith("huberdp-bench: error: ") and message in line
        if argv[0] == "run":
            assert captured.out == ""  # no cell ran, so no table was printed

    def test_rank_above_file_shape_is_one_error_line(self, tmp_path, capsys):
        # a ratings file's shape is known once it is loaded, before any cell
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t0\n2\t2\t4\t0\n3\t3\t3\t0\n")
        assert run_cli(["run", "--dataset", f"movielens:{path}", "--rank", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "huberdp-bench: error: rank 4 exceeds min(m, n) = 3 of the data"

    def test_non_finite_rating_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t3\t0\n2\t2\tnan\t1\n")
        assert run_cli(["run", "--dataset", f"movielens:{path}"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"huberdp-bench: error: {path}:2: ")

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

    def test_fresh_matrix_trial_matches_generate_synthetic(self):
        # fresh_matrix draws truth and mask from one (seed, 1, fraction, trial)
        # stream, exactly as generate_synthetic does
        plan = ExperimentPlan(m=40, n=30, data_rank=2, rank=2, fractions=[0.2, 0.4],
                              seed=7, trial_mode="fresh_matrix")
        for frac_idx, fraction in enumerate(plan.fractions):
            for trial in range(2):
                x, train, test = _trial_data(plan, None, None, frac_idx, fraction, trial)
                x_ref, obs_ref = generate_synthetic(
                    SyntheticSpec(40, 30, 2, fraction, plan.seed),
                    _stream(plan.seed, 1, frac_idx, trial),
                )
                assert test is None
                assert np.array_equal(x, x_ref)
                for name in ("rows", "cols", "values"):
                    assert np.array_equal(getattr(train, name), getattr(obs_ref, name))
                assert (train.m, train.n) == (obs_ref.m, obs_ref.n)
                assert train.value_range == obs_ref.value_range

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

    def test_uncalibratable_variance_fails_cell(self):
        # no finite alpha reaches 3e24; the cell fails instead of running the
        # unit-variance convention's alpha
        plan = ExperimentPlan(
            m=20, n=20, data_rank=2, rank=2, solvers=["als"], mechanisms=["huber"],
            variances=[3e24], fractions=[0.5], trials=1, outer_iterations=2,
        )
        records, failures = run_plan(plan)
        assert not records
        assert failures == [
            "als-huber-v3e+24-f0.5: CalibrationError: "
            "no bracket found for target variance 3e+24"
        ]

    def test_protocol_defaults_for_real_datasets(self, tmp_path, capsys):
        # MovieLens-format runs default to rank 32 / 20 sweeps unless overridden
        rng = np.random.default_rng(3)
        lines = [
            f"{u + 1}\t{i + 1}\t{int(r)}\t0"
            for u in range(40)
            for i, r in zip(rng.choice(40, 38, replace=False), rng.integers(1, 6, 38))
        ]
        path = tmp_path / "u.data"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "results"
        code = run_cli(
            ["run", "--dataset", f"movielens:{path}", "--mechanism", "none",
             "--solver", "als", "--fraction", "1.0", "--trials", "1",
             "--outer-t", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        record = load_run(out / "run-als-none-f1.json")
        assert record.rank == 32  # protocol default survived
        assert record.config["outer_iterations"] == 2  # explicit flag won

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
        with np.errstate(over="ignore", invalid="ignore"):
            records, failures = run_plan(plan)
        assert not records
        assert failures == [
            "als-none-f1: SolverDivergence: noisy_als diverged: "
            "non-finite factors after the v half of sweep 0"
        ]

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
