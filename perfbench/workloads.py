"""The four benchmark workloads: inputs, one timed pass, and its checks.

Sweep workloads drive `huberdp-bench run` in process through
`bench_cli.main`; the library workload calls the public functions no CLI
path reaches. Every pass runs the same inputs, so passes of one run must
agree exactly. Inputs derive from the workload seed only.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import integrate

from huberdp import bench_cli, data_io, mechanisms, robust_solvers
from huberdp.mechanisms import MechanismConfig, Sensitivity

import ratings

DELTA_F = 5.0
DELTA = 1e-5


@dataclass
class PassResult:
    """What one pass produced, and the outcome of every check on it."""

    rmse: float
    draws: int = 0
    cells: int = 0
    cells_failed: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)
    fingerprint: tuple = ()

    def check(self, name: str, ok: bool):
        self.checks.append((name, bool(ok)))

    @property
    def attempted(self) -> int:
        return self.cells + len(self.checks)

    @property
    def failed(self) -> int:
        return self.cells_failed + sum(not ok for _, ok in self.checks)


@functools.lru_cache(maxsize=None)
def huber_variance_by_quadrature(alpha: float) -> float:
    """Huber variance from its unnormalized density exp(-rho_alpha(t)),
    independent of the package's closed form."""
    rho = lambda t: 0.5 * t * t if t <= alpha else alpha * (t - 0.5 * alpha)

    def half_moment(p):
        f = lambda t: t**p * math.exp(-rho(t))
        return integrate.quad(f, 0.0, alpha)[0] + integrate.quad(f, alpha, np.inf)[0]

    return half_moment(2) / half_moment(0)


def expected_epsilon(mechanism: str, scale: float | None) -> float:
    """Per-release epsilon from first principles: alpha*df, df/beta, or the
    natural-log Gaussian bound."""
    if mechanism == "none":
        return math.inf
    if mechanism == "huber":
        return scale * DELTA_F
    if mechanism == "laplace":
        return DELTA_F / scale
    return math.sqrt(2.0 * math.log(1.25 / DELTA)) * DELTA_F / scale


def expected_variance(mechanism: str, scale: float) -> float:
    if mechanism == "gaussian":
        return scale**2
    if mechanism == "laplace":
        return 2.0 * scale**2
    return huber_variance_by_quadrature(scale)


# ---------------------------------------------------------------------------
# Sweeps through the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A `huberdp-bench run` sweep with one trial per cell.

    ratings=None runs the synthetic protocol (m x n, data rank = rank);
    otherwise it is the shape handed to ratings.generate_ratings and the run
    uses --dataset movielens:PATH with a holdout split and --out.
    """

    solver: str
    mechanisms: tuple[str, ...]
    variance: float = 2.0
    fraction: float = 0.05
    outer_t: int = 50
    irls_k: int = 20
    rank: int = 5
    m: int = 500
    n: int = 500
    ratings: dict | None = None
    holdout: float = 0.1
    rmse_ceiling: float = 1.5


class SweepRun:
    """Inputs of one sweep workload and the timed call into the CLI."""

    def __init__(self, sweep: Sweep, seed: int, work: Path):
        self.sweep = sweep
        self.prep_checks: list[tuple[str, bool]] = []
        argv = [
            "run", "--solver", sweep.solver,
            "--mechanism", ",".join(sweep.mechanisms),
            "--variance", repr(sweep.variance), "--fraction", repr(sweep.fraction),
            "--trials", "1", "--outer-t", str(sweep.outer_t), "--irls-k", str(sweep.irls_k),
            "--rank", str(sweep.rank), "--seed", str(seed),
            "--delta-f", repr(DELTA_F), "--delta", repr(DELTA),
        ]
        if sweep.ratings is None:
            argv += ["--dataset", "synthetic", "--m", str(sweep.m), "--n", str(sweep.n),
                     "--data-rank", str(sweep.rank)]
            self.columns = sweep.n
            self.out = None
        else:
            path = work / "u.data"
            rows = ratings.write_ratings(path, seed, **sweep.ratings)
            report = data_io.ParseReport()
            obs = data_io.parse_movielens(path, report)
            self.prep_checks.append(
                ("ratings file parses without warnings",
                 report.duplicates == 0 and report.out_of_range == 0
                 and obs.n_observed == len(rows))
            )
            self.columns = obs.n
            self.out = work / "out"
            argv += ["--dataset", f"movielens:{path}", "--holdout", repr(sweep.holdout),
                     "--out", str(self.out)]
        self.argv = argv

    def probe_spec(self) -> dict:
        return {"argv": self.argv}

    def run(self):
        """The timed part: one `huberdp-bench run`. Returns (exit code,
        records, failures) with the records caught at run_plan's return."""
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
        caught = []

        def capture(run_plan):
            def wrapper(plan):
                result = run_plan(plan)
                caught.append(result)
                return result
            return wrapper

        original = bench_cli.run_plan
        bench_cli.run_plan = capture(original)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = bench_cli.main(self.argv)
        finally:
            bench_cli.run_plan = original
        records, failures = caught[0]
        return code, records, failures

    def check(self, outcome) -> PassResult:
        code, records, failures = outcome
        sweep = self.sweep
        res = PassResult(
            rmse=float(np.mean([r.rmse_mean for r in records])) if records else math.nan,
            cells=len(sweep.mechanisms),
            cells_failed=len(failures),
            draws=sum(r.draw_counts["v_sweep"] for r in records),
        )
        res.check("exit code 0", code == 0)
        res.check("one record per cell", len(records) == len(sweep.mechanisms))
        noisy_draws = sweep.outer_t * sweep.rank * self.columns
        if sweep.solver == "irls":
            noisy_draws *= sweep.irls_k
        by_mech = {}
        for rec in records:
            by_mech[rec.mechanism] = rec.rmse_mean
            scale = rec.config["mechanism_scale"]
            res.check(f"{rec.mechanism}: epsilon",
                      math.isclose(rec.epsilon, expected_epsilon(rec.mechanism, scale), rel_tol=1e-12))
            if rec.mechanism != "none":
                res.check(f"{rec.mechanism}: noise variance",
                          math.isclose(expected_variance(rec.mechanism, scale), sweep.variance, rel_tol=1e-7))
            want = 0 if rec.mechanism == "none" else noisy_draws
            res.check(f"{rec.mechanism}: v_sweep draws", rec.draw_counts["v_sweep"] == want)
            res.check(f"{rec.mechanism}: u_sweep draws", rec.draw_counts["u_sweep"] == 0)
            res.check(f"{rec.mechanism}: rmse finite and below ceiling",
                      math.isfinite(rec.rmse_mean) and rec.rmse_mean < sweep.rmse_ceiling)
        if "none" in by_mech:
            for mech, value in by_mech.items():
                if mech != "none":
                    res.check(f"{mech}: noisy rmse above noiseless", value > by_mech["none"])
        if self.out is not None:
            with (self.out / "summary.csv").open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            res.check("summary.csv has one row per cell", len(rows) == len(sweep.mechanisms))
            saved = sorted(self.out.glob("run-*.json"))
            reloaded = {r.mechanism: r.rmse_mean for r in map(data_io.load_run, saved)}
            res.check("persisted records match the run", reloaded == by_mech)
        res.fingerprint = tuple(sorted(by_mech.items()))
        return res


# ---------------------------------------------------------------------------
# Library calls no CLI path reaches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Library:
    """Private Huber regressions, bulk draws and the accounting helpers."""

    problems: int = 48
    rows: int = 2000
    dims: int = 10
    outlier_share: float = 0.05
    loss_alpha: float = 1.08
    noise_alpha: float = 1.08
    lam: float = 1.0
    iterations: int = 20
    sample_alphas: tuple[float, ...] = (0.5, 1.08, 3.0)
    draws_per_alpha: int = 200_000
    variances: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 8.0)
    gap_points: tuple[tuple[float, float], ...] = ((0.5, 1.0), (1.08, 5.0), (3.0, 0.5))
    rmse_ceiling: float = 1.0


class LibraryRun:
    def __init__(self, lib: Library, seed: int, work: Path):
        self.lib = lib
        self.prep_checks: list[tuple[str, bool]] = []
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x11B)))
        self.problems = []
        for _ in range(lib.problems):
            a = rng.standard_normal((lib.rows, lib.dims))
            theta = rng.standard_normal(lib.dims)
            y = a @ theta + 0.5 * rng.standard_normal(lib.rows)
            bad = rng.random(lib.rows) < lib.outlier_share
            y[bad] += 20.0 * rng.standard_normal(int(bad.sum()))
            self.problems.append((a, y, theta))
        self.seed = int(seed)
        self.config = robust_solvers.IrlsConfig(
            alpha=lib.loss_alpha, lam=lib.lam, iterations=lib.iterations,
            noise=MechanismConfig.huber(lib.noise_alpha),
        )

    def probe_spec(self) -> dict:
        lib = self.lib
        return {"library": {"loss_alpha": lib.loss_alpha, "lam": lib.lam,
                            "iterations": lib.iterations, "noise_alpha": lib.noise_alpha,
                            "sample_alphas": list(lib.sample_alphas)}}

    def run(self):
        lib = self.lib
        irls, ridge = [], []
        for i, (a, y, _) in enumerate(self.problems):
            stream = np.random.default_rng(np.random.SeedSequence((self.seed, 0x11B, i)))
            irls.append(robust_solvers.r_irls(y, a, self.config, stream))
            ridge.append(robust_solvers.ridge_solve(robust_solvers.RidgeProblem(a, y, lib.lam)))
        stream = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5A)))
        draws = {
            alpha: mechanisms.sample(MechanismConfig.huber(alpha), lib.draws_per_alpha, stream).values
            for alpha in lib.sample_alphas
        }
        alphas = {v: mechanisms.calibrate_alpha(v) for v in lib.variances}
        table = mechanisms.budget_table(lib.variances, Sensitivity.scalar(DELTA_F), DELTA)
        gaps = {(a, df): mechanisms.privacy_gap(a, df) for a, df in lib.gap_points}
        return irls, ridge, draws, alphas, table, gaps

    def check(self, outcome) -> PassResult:
        irls, ridge, draws, alphas, table, gaps = outcome
        truth = [theta for _, _, theta in self.problems]
        err = lambda est: [float(np.sqrt(np.mean((e - t) ** 2))) for e, t in zip(est, truth)]
        irls_err, ridge_err = err(irls), err(ridge)
        res = PassResult(rmse=float(np.mean(irls_err)))
        res.check("r_irls parameter rmse finite and below ceiling",
                  all(math.isfinite(e) and e < self.lib.rmse_ceiling for e in irls_err))
        res.check("r_irls beats ridge under outliers", np.mean(irls_err) < np.mean(ridge_err))
        for alpha, values in draws.items():
            centered = values - values.mean()
            var = float(np.mean(centered**2))
            stderr = math.sqrt((np.mean(centered**4) - var * var) / values.size)
            res.check(f"sample variance at alpha={alpha}",
                      abs(var - huber_variance_by_quadrature(alpha)) < 5 * stderr)
        for v, alpha in alphas.items():
            res.check(f"calibrate_alpha({v}) round-trips",
                      math.isclose(huber_variance_by_quadrature(alpha), v, rel_tol=1e-7))
        for row in table:
            res.check(f"budget_table row {row.variance}",
                      math.isclose(row.huber.epsilon, expected_epsilon("huber", row.huber_alpha), rel_tol=1e-12)
                      and math.isclose(row.laplace.epsilon, expected_epsilon("laplace", row.laplace_beta), rel_tol=1e-12)
                      and math.isclose(row.gaussian.epsilon, expected_epsilon("gaussian", row.gaussian_sigma), rel_tol=1e-12))
        for (alpha, df), gap in gaps.items():
            res.check(f"privacy_gap({alpha}, {df})", abs(gap - alpha * df) <= 1e-9)
        res.fingerprint = (tuple(irls_err), tuple(sorted(alphas.items())))
        return res


WORKLOADS = {
    "synth-als-noise": Sweep(solver="als", mechanisms=("gaussian", "laplace", "huber")),
    "synth-irls": Sweep(solver="irls", mechanisms=("none", "huber")),
    "ratings-als-r32": Sweep(
        solver="als", mechanisms=("none", "huber"), rank=32, outer_t=20,
        ratings={"users": ratings.USERS, "items": ratings.ITEMS, "ratings": ratings.RATINGS},
        rmse_ceiling=4.0,
    ),
    "library": Library(),
}


def prepare(spec, seed: int, work: Path):
    """Generate a workload's inputs (not timed, not part of setup_s)."""
    work.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, Library):
        return LibraryRun(spec, seed, work)
    return SweepRun(spec, seed, work)
