"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Criterion 11 (MovieLens100k) needs the real u.data file and is skipped unless
HUBERDP_MOVIELENS points at it (or it sits in data/ml-100k/u.data).
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import huberdp as h
from huberdp.bench_cli import ExperimentPlan, main as cli_main, run_plan

MASTER_SEED = 20260810


def check(criterion: str, condition: bool, detail: str = ""):
    # write past pytest's capture so the line shows up even without -s
    line = f"ACCEPTANCE {criterion}: {'PASS' if condition else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__ if sys.stdout is not sys.__stdout__ else sys.stdout)
    assert condition, f"criterion {criterion} failed: {detail}"


def test_criterion_1_laplace_budget_column():
    started = time.perf_counter()
    rows = h.budget_table([1.0, 2.0, 3.0, 4.0], h.Sensitivity.scalar(5.0), 1e-5)
    got = [round(r.laplace.epsilon, 3) for r in rows]
    elapsed = time.perf_counter() - started
    expected = [7.071, 5.000, 4.082, 3.536]
    check(
        "1 laplace column",
        got == expected and elapsed < 1.0,
        f"epsilons={got} expected={expected} in {elapsed:.2f}s",
    )


def test_criterion_2_huber_budget_column():
    started = time.perf_counter()
    rows = h.budget_table([1.0, 2.0, 3.0, 4.0], h.Sensitivity.scalar(5.0), 1e-5)
    got = [r.huber.epsilon for r in rows]
    elapsed = time.perf_counter() - started
    expected = [15.000, 5.382, 4.235, 3.602]
    within = all(abs(g - e) <= 0.02 for g, e in zip(got, expected))
    check(
        "2 huber column",
        within and rows[0].huber_unit_variance_convention and elapsed < 5.0,
        f"epsilons={[f'{g:.4f}' for g in got]} vs {expected} (+-0.02) in {elapsed:.2f}s",
    )


def test_criterion_3_gaussian_budget_column(capsys):
    sens = h.Sensitivity.scalar(5.0)
    rows10 = h.budget_table([1.0, 2.0, 3.0, 4.0], sens, 1e-5, "base10")
    got10 = [r.gaussian.epsilon for r in rows10]
    expected10 = [15.964, 11.288, 9.217, 7.982]
    rows_nat = h.budget_table([1.0, 2.0, 3.0, 4.0], sens, 1e-5, "natural")
    got_nat = [r.gaussian.epsilon for r in rows_nat]
    expected_nat = [24.22, 17.13, 13.98, 12.11]
    cli_main(["budget", "--variances", "1", "--delta-f", "5"])
    out = capsys.readouterr().out
    ok = (
        all(abs(g - e) <= 0.005 for g, e in zip(got10, expected10))
        and all(abs(g - e) <= 0.01 for g, e in zip(got_nat, expected_nat))
        and "base10" in out
        and "sqrt(ln 10)" in out
    )
    check(
        "3 gaussian column",
        ok,
        f"base10={[f'{g:.3f}' for g in got10]} natural={[f'{g:.2f}' for g in got_nat]}, "
        "discrepancy note printed by CLI",
    )


def test_criterion_4_privacy_bound_grid():
    started = time.perf_counter()
    worst = 0.0
    cases = {"small_shift": 0, "large_shift": 0}
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        for delta_f in (0.01, 0.5, 1.0, 3.0, 10.0, 50.0):
            gap = h.privacy_gap(alpha, delta_f)
            worst = max(worst, abs(gap - alpha * delta_f))
            cases["small_shift" if delta_f <= 2 * alpha else "large_shift"] += 1
    elapsed = time.perf_counter() - started
    check(
        "4 privacy bound",
        worst <= 1e-9 and min(cases.values()) > 0 and elapsed < 10.0,
        f"36 cells, both piecewise cases covered {tuple(cases.values())}, "
        f"max deviation {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_5_sampler_fidelity():
    started = time.perf_counter()
    n = 1_000_000
    details = []
    ok = True
    for alpha in (0.5, 1.0764, 3.0):
        vals = h.sample(
            h.MechanismConfig.huber(alpha), n, np.random.default_rng(MASTER_SEED)
        ).values
        target = h.huber_variance(alpha)
        var_ok = abs(vals.var() - target) <= 0.01 * target
        ks = stats.kstest(vals, lambda t: h.huber_cdf(t, alpha)).statistic
        ks_ok = ks < 1.63 / math.sqrt(n)
        ok = ok and var_ok and ks_ok
        details.append(f"alpha={alpha}: var {vals.var():.4f}/{target:.4f} ks {ks:.2e}")
    elapsed = time.perf_counter() - started
    check("5 sampler fidelity", ok and elapsed < 30.0, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_6_gradient_suite():
    rng = np.random.default_rng(MASTER_SEED)
    step = 1e-6
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(-10, 10))
        alpha = float(rng.uniform(0.05, 6.0))
        fd = (h.huber_loss(t + step, alpha) - h.huber_loss(t - step, alpha)) / (2 * step)
        worst = max(worst, abs(fd - h.huber_influence(t, alpha)))
    check(
        "6 gradient suite",
        worst <= 1e-5,
        f"1000 random (t, alpha) pairs, max |influence - central diff| = {worst:.2e}",
    )


def test_criterion_7_noiseless_solver_correctness():
    started = time.perf_counter()
    x, obs = h.generate_synthetic(500, 500, 5, 0.15, MASTER_SEED)
    als = h.noisy_als(obs, h.SolverConfig(rank=5, lam=0.5, outer_iterations=50), 99)
    als_rmse = h.rmse(x, als)
    irls = h.irls_huber(
        obs, h.SolverConfig(rank=5, lam=0.5, outer_iterations=50, inner_iterations=20), 99
    )
    irls_rmse = h.rmse(x, irls)
    elapsed = time.perf_counter() - started
    check(
        "7 solver correctness",
        als_rmse < 0.10 and abs(als_rmse - irls_rmse) < 0.005 and elapsed < 120.0,
        f"ALS rmse={als_rmse:.4f} (< 0.10), |ALS - IRLS|={abs(als_rmse - irls_rmse):.2e} "
        f"(< 0.005) in {elapsed:.0f}s",
    )


def test_criterion_8_noisy_trend():
    plan = ExperimentPlan(
        m=200, n=200, data_rank=5, rank=5,
        solvers=["irls"], mechanisms=["none", "gaussian", "laplace", "huber"],
        variances=[2.0], fractions=[0.05], trials=10,
        outer_iterations=50, irls_iterations=20, seed=MASTER_SEED,
    )
    records, failures = run_plan(plan)
    assert not failures, failures
    means = {r.mechanism: r.rmse_mean for r in records}
    noisy_above = all(
        means[k] > means["none"] for k in ("gaussian", "laplace", "huber")
    )
    huber_vs_laplace = means["huber"] <= means["laplace"] + 0.05
    check(
        "8 noisy trend",
        noisy_above and huber_vs_laplace,
        f"vanilla={means['none']:.4f} gaussian={means['gaussian']:.4f} "
        f"laplace={means['laplace']:.4f} huber={means['huber']:.4f} "
        f"(huber - laplace = {means['huber'] - means['laplace']:+.4f})",
    )


def test_criterion_9_rirls_descent():
    rng = np.random.default_rng(MASTER_SEED)
    worst_rise = -math.inf
    for trial in range(100):
        p, q = 50, 8
        a = rng.standard_normal((p, q))
        theta_true = rng.standard_normal(q)
        y = a @ theta_true + 0.1 * rng.standard_normal(p)
        if trial % 3 == 0:
            idx = rng.choice(p, size=4, replace=False)
            y[idx] += rng.choice([-1.0, 1.0], size=4) * rng.uniform(10, 30, size=4)
        alpha = float(rng.uniform(0.3, 3.0))
        lam = float(rng.uniform(0.1, 1.5))
        theta = np.random.default_rng(1000 + trial).standard_normal(q)
        prev = h.huber_objective(y, a, theta, alpha, lam)
        for _ in range(20):
            w = h.irls_weights(y - a @ theta, alpha)
            gram = a.T @ (a * w[:, None]) + lam * np.eye(q)
            theta = np.linalg.solve(gram, a.T @ (w * y))
            now = h.huber_objective(y, a, theta, alpha, lam)
            worst_rise = max(worst_rise, now - prev)
            prev = now
    check(
        "9 r-irls descent",
        worst_rise <= 1e-10,
        f"100 instances x 20 iterations, worst objective increase = {worst_rise:.2e}",
    )


def test_criterion_10_run_determinism(tmp_path, capsys):
    args = [
        "run", "--m", "60", "--n", "50", "--data-rank", "2", "--rank", "2",
        "--fraction", "0.2", "--variance", "1,2", "--trials", "2",
        "--outer-t", "5", "--irls-k", "4", "--seed", "7",
    ]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()
    first = (out1 / "summary.csv").read_bytes()
    second = (out2 / "summary.csv").read_bytes()
    check(
        "10 determinism",
        code1 == 0 and code2 == 0 and first == second,
        f"two identical runs, summary.csv identical ({len(first)} bytes)",
    )


def _movielens_path() -> Path | None:
    candidates = [os.environ.get("HUBERDP_MOVIELENS"), "data/ml-100k/u.data"]
    for candidate in candidates:
        if candidate and Path(candidate).is_file():
            return Path(candidate)
    return None


@pytest.mark.skipif(
    _movielens_path() is None,
    reason="MovieLens100k u.data not present (set HUBERDP_MOVIELENS to enable)",
)
def test_criterion_11_movielens_vanilla_als():
    obs = h.parse_movielens(_movielens_path())
    train, test = h.holdout_split(obs, 0.1, np.random.default_rng(MASTER_SEED))
    cfg = h.SolverConfig(rank=32, lam=0.5, outer_iterations=20)
    factors = h.noisy_als(train, cfg, MASTER_SEED)
    holdout_rmse = h.rmse(test, factors)
    check(
        "11 movielens",
        1.10 <= holdout_rmse <= 1.40,
        f"vanilla ALS r=32 T=20 holdout rmse={holdout_rmse:.4f} (target 1.25 +- 0.15)",
    )
