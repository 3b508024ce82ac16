"""Benchmark command line: budgets, calibration, verification, and sweeps.

Subcommands:
  budget          privacy budgets of the three mechanisms at matched variance
  calibrate       Huber alpha (and epsilon) for target noise variances
  verify-privacy  numeric check that sup log-likelihood-ratio = alpha * df
  gen             write a synthetic low-rank dataset to an .npz file
  run             execute a (solver x mechanism x variance x fraction) sweep

All randomness derives from one master seed through a counter-based split:
ground truth uses stream (seed, 1), the trial mask (seed, 2, fraction_index,
trial), the holdout split (seed, 3, fraction_index, trial), and each solver
run (seed, 4, cell_index, trial); a record's trial_streams lists the last.
In fresh_matrix mode each trial's truth and mask come together from
(seed, 1, fraction_index, trial), as data_io.generate_synthetic draws them.
Re-running a plan with the same seed therefore reproduces the summary byte
for byte, regardless of execution order.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data_io, lrmc, mechanisms
from .data_io import RunRecord
from .lrmc import ObservedMatrix, SolverConfig
from .mechanisms import MechanismConfig, Sensitivity, _count, _positive_real

__all__ = ["ExperimentPlan", "main", "run_plan"]

logger = logging.getLogger(__name__)

_DOMAIN_TRUTH = 1
_DOMAIN_MASK = 2
_DOMAIN_SPLIT = 3
_DOMAIN_SOLVER = 4


def _stream(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(e) for e in entropy)))


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _sensitivity(delta_f: float) -> Sensitivity:
    """The query sensitivity a --delta-f gives. Only a positive real is taken:
    a sensitivity of 0 would budget epsilon 0, a claim of perfect privacy."""
    return Sensitivity.scalar(_positive_real(delta_f, "delta_f"))


def _cell_name(solver: str, mech: str, variance: float | None, fraction: float) -> str:
    """A cell's name in the log and in its record file's name; numbers print
    with %g, so a plan whose entries print alike is rejected."""
    shown = "" if variance is None else f"-v{variance:g}"
    return f"{solver}-{mech}{shown}-f{fraction:g}"


# ---------------------------------------------------------------------------
# Experiment plans
# ---------------------------------------------------------------------------

_SOLVERS = ("als", "irls")
_MECHANISMS = ("none", "gaussian", "laplace", "huber")

#: dataset kinds besides "synthetic", given as KIND:PATH: the data_io parser
#: (looked up by name at load time; None reads a ``gen`` npz), and the rank
#: and sweep count of its protocol, which synthetic data shares with "file"
_FILE_KINDS = {
    "movielens": ("parse_movielens", 32, 20),
    "sweetrs": ("parse_sweetrs", 32, 100),
    "file": (None, 5, 50),
}


@dataclass
class ExperimentPlan:
    """A full sweep: dataset, solver/mechanism/variance/fraction grid, seeds.

    trial_mode "fresh_mask" fixes the synthetic ground truth for the whole
    plan and redraws the observation mask (and noise) per trial;
    "fresh_matrix" regenerates the ground truth each trial as well, so it
    applies to synthetic data only. rank and outer_iterations left None take
    the dataset kind's protocol values (see _FILE_KINDS) where they are read,
    so a plan that dataclasses.replace moves to another kind takes that
    kind's. Fields are checked when the plan is built, a dataset file's shape
    once it loads.
    """

    dataset: str = "synthetic"
    m: int = 500
    n: int = 500
    data_rank: int = 5
    solvers: list[str] = field(default_factory=lambda: ["als", "irls"])
    mechanisms: list[str] = field(default_factory=lambda: list(_MECHANISMS))
    variances: list[float] = field(default_factory=lambda: [1.0])
    fractions: list[float] = field(default_factory=lambda: [0.05])
    trials: int = 10
    seed: int = 0
    rank: int | None = None
    lam: float = 0.5
    outer_iterations: int | None = None
    irls_iterations: int = 20
    huber_loss_alpha: float | None = None
    delta: float = 1e-5
    delta_f: float = 5.0
    trial_mode: str = "fresh_mask"
    holdout_fraction: float = 0.1
    out: str | None = None

    def __post_init__(self):
        data_io._check_fields(self, "plan")
        kind, _, path = self.dataset.partition(":")
        if self.dataset != "synthetic" and (kind not in _FILE_KINDS or not path):
            raise ValueError(
                f"dataset {self.dataset!r} must be synthetic or KIND:PATH with "
                f"KIND one of {sorted(_FILE_KINDS)}"
            )
        for s in self.solvers:
            if s not in _SOLVERS:
                raise ValueError(f"unknown solver {s!r}")
        for mech in self.mechanisms:
            if mech not in _MECHANISMS:
                raise ValueError(f"unknown mechanism {mech!r}")
        _count(self.trials, "trials", 1)
        _count(self.seed, "seed", 0)
        if self.trial_mode not in ("fresh_mask", "fresh_matrix"):
            raise ValueError("trial_mode must be 'fresh_mask' or 'fresh_matrix'")
        if self.trial_mode == "fresh_matrix" and self.dataset != "synthetic":
            raise ValueError("trial_mode 'fresh_matrix' applies to synthetic data only")
        if self.huber_loss_alpha is not None and "irls" not in self.solvers:
            raise ValueError("huber_loss_alpha applies to the irls solver only")
        for v in self.variances:
            _positive_real(v, "variance")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ValueError(f"fraction {f!r} must lie in (0, 1]")
        if not self.mechanisms:
            raise ValueError("at least one mechanism is required")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if not self.fractions:
            raise ValueError("at least one fraction is required")
        if not self.variances and set(self.mechanisms) != {"none"}:
            raise ValueError("at least one variance is required for a noisy mechanism")
        # a repeated entry would run its cells twice, and the second run's
        # record file would overwrite the first; numbers compare as
        # _cell_name prints them
        for name in ("solvers", "mechanisms", "variances", "fractions"):
            entries = getattr(self, name)
            if len({e if isinstance(e, str) else f"{e:g}" for e in entries}) != len(entries):
                raise ValueError(f"{name} has duplicate entries: {entries}")
        for name in ("delta", "holdout_fraction"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)!r} must lie in (0, 1)")
        _sensitivity(self.delta_f)
        for solver, mech_kind, variance, _ in self.cells():
            self._cell_config(solver, mech_kind, variance)
        if self.dataset == "synthetic":
            data_io._synthetic_shape(self.m, self.n, self.data_rank)
            self._check_data(self.m, self.n)

    def _cell_config(self, solver: str, mech_kind: str, variance: float | None):
        """A cell's solver config. Its huber_loss_alpha (None for als) is the
        plan's, else the alpha of the variance as the plan states it (0 for
        kind none), which mech.variance() gives back a few ulps off, so every
        irls cell at one variance shares one alpha. A variance that no Huber
        alpha reaches raises CalibrationError."""
        alpha = self.huber_loss_alpha if solver == "irls" else None
        if solver == "irls" and alpha is None:
            alpha = mechanisms.huber_alpha_for_variance(variance or 0.0)
        rank, sweeps = self._rank_and_sweeps()
        config = SolverConfig(
            rank=rank, lam=self.lam, outer_iterations=sweeps,
            inner_iterations=self.irls_iterations, huber_loss_alpha=alpha,
            mechanism=MechanismConfig.from_variance(mech_kind, variance),
        )
        return config

    def _rank_and_sweeps(self) -> tuple[int, int]:
        """rank and outer_iterations as the cells run them: the given values,
        else the dataset kind's protocol values."""
        _, rank, sweeps = _FILE_KINDS.get(self.dataset.partition(":")[0], _FILE_KINDS["file"])
        return (rank if self.rank is None else self.rank,
                sweeps if self.outer_iterations is None else self.outer_iterations)

    def _check_data(self, m: int, n: int, observed: int | None = None, split=False) -> None:
        """Reject a rank or fraction that no trial on m x n data can run. A file
        of `observed` entries runs fraction 1.0 as is and subsamples
        int(fraction * m * n) of them otherwise, so a lower fraction must not
        need more; with split, each trial holds holdout_fraction of them out."""
        rank = self._rank_and_sweeps()[0]
        if rank > min(m, n):
            raise ValueError(f"rank {rank} exceeds min(m, n) = {min(m, n)} of the data")
        for f in self.fractions:
            k = observed if f == 1.0 and observed is not None else data_io._observed_count(f, m, n)
            if observed is not None and k > observed:
                raise ValueError(f"fraction {f!r} needs {k} entries of a {m}x{n} matrix "
                                 f"but only {observed} are observed")
            if split and int(self.holdout_fraction * k) == 0:
                raise ValueError(f"holdout_fraction {self.holdout_fraction!r} of the {k} entries "
                                 f"at fraction {f!r} leaves the test side empty")

    def cells(self) -> list[tuple[str, str, float | None, float]]:
        """Deterministic cell enumeration; mechanism 'none' collapses the
        variance axis."""
        out = []
        for solver in self.solvers:
            for mech in self.mechanisms:
                variances = [None] if mech == "none" else self.variances
                for variance in variances:
                    for fraction in self.fractions:
                        out.append((solver, mech, variance, fraction))
        return out


def _load_file_dataset(kind: str, path: str) -> tuple[np.ndarray | None, ObservedMatrix]:
    parser = _FILE_KINDS[kind][0]
    if parser is not None:
        return None, getattr(data_io, parser)(path)
    # np.load reads a .npy as one array and any other file as a pickle
    if Path(path).is_file() and not zipfile.is_zipfile(path):
        raise ValueError(f"{path} is not an npz archive")
    with np.load(path, allow_pickle=False) as npz:
        missing = [k for k in ("m", "n", "rows", "cols", "values") if k not in npz.files]
        if missing:
            raise ValueError(f"{path} lacks npz key(s) {', '.join(missing)}")
        # an m or n that is not one number goes to ObservedMatrix as an array, which names it
        m, n = (dim.item() if dim.size == 1 else dim for dim in (npz["m"], npz["n"]))
        obs = ObservedMatrix(m, n, npz["rows"], npz["cols"], npz["values"])
        truth = mechanisms._finite_array(npz["x"], "x") if "x" in npz.files else None
    if not obs.n_observed:
        raise ValueError(f"{path} holds no observed entry")
    if truth is not None and truth.shape != (obs.m, obs.n):
        raise ValueError(f"x has shape {truth.shape}, not (m, n) = {(obs.m, obs.n)}")
    return truth, obs


def _trial_data(
    plan: ExperimentPlan, truth, base_obs, frac_idx: int, fraction: float, trial: int
) -> tuple[np.ndarray | None, ObservedMatrix, ObservedMatrix | None]:
    """One trial's (x, train, test); test None scores against the dense x."""
    if plan.dataset == "synthetic":
        if plan.trial_mode == "fresh_matrix":
            rng = _stream(plan.seed, _DOMAIN_TRUTH, frac_idx, trial)
            x, obs = data_io.generate_synthetic(plan.m, plan.n, plan.data_rank, fraction, rng)
            return x, obs, None
        rng = _stream(plan.seed, _DOMAIN_MASK, frac_idx, trial)
        return truth, data_io.mask_entries(truth, fraction, rng), None
    obs = base_obs
    # fraction 1.0 means "use the dataset as is"; anything lower subsamples
    # (_check_data made sure the file has enough entries)
    if fraction < 1.0:
        obs = data_io.subsample(obs, fraction, _stream(plan.seed, _DOMAIN_MASK, frac_idx, trial))
    if truth is not None:
        # the file carries its ground truth (a generated dataset): score
        # against all entries, no holdout
        return truth, obs, None
    train, test = data_io.holdout_split(
        obs, plan.holdout_fraction, _stream(plan.seed, _DOMAIN_SPLIT, frac_idx, trial)
    )
    return None, train, test


def run_plan(plan: ExperimentPlan) -> tuple[list[RunRecord], list[str]]:
    """Execute every cell of the plan; returns (records, failure messages).
    With plan.out set, the directory is made once the dataset has loaded and
    passed its checks, before any cell runs; it receives one run-*.json per
    record and summary.csv."""
    truth = None
    base_obs = None
    if plan.dataset == "synthetic":
        label = f"synthetic-m{plan.m}-n{plan.n}-rank{plan.data_rank}"
        if plan.trial_mode == "fresh_mask":
            truth = data_io.synthetic_truth(
                plan.m, plan.n, plan.data_rank, _stream(plan.seed, _DOMAIN_TRUTH)
            )
    else:
        kind, _, path = plan.dataset.partition(":")
        label = f"{kind}-{Path(path).stem}"
        truth, base_obs = _load_file_dataset(kind, path)
        plan._check_data(base_obs.m, base_obs.n, base_obs.n_observed, split=truth is None)
    if plan.out:
        Path(plan.out).mkdir(parents=True, exist_ok=True)

    sens = _sensitivity(plan.delta_f)
    records: list[RunRecord] = []
    failures: list[str] = []

    for cell_idx, (solver, mech_kind, variance, fraction) in enumerate(plan.cells()):
        cell_name = _cell_name(solver, mech_kind, variance, fraction)
        started = time.perf_counter()
        try:
            config = plan._cell_config(solver, mech_kind, variance)
            mech = config.mechanism
            budget = mechanisms.mechanism_budget(mech, sens, delta=plan.delta)
            solve = lrmc.noisy_als if solver == "als" else lrmc.irls_huber
            noise_draws = 0
            trial_rmse = []
            train_rmse = []
            frac_idx = plan.fractions.index(fraction)
            trial_streams = [[plan.seed, _DOMAIN_SOLVER, cell_idx, t] for t in range(plan.trials)]
            for trial, entropy in enumerate(trial_streams):
                x, train, test = _trial_data(plan, truth, base_obs, frac_idx, fraction, trial)
                factors = solve(train, config, _stream(*entropy))
                noise_draws += factors.noise_draws
                trial_rmse.append(lrmc.rmse(x if test is None else test, factors))
                if test is not None:
                    train_rmse.append(lrmc.rmse(train, factors))
            extras = {}
            if train_rmse:
                extras["rmse_train_mean"] = float(np.mean(train_rmse))
            if base_obs is not None:
                n_observed = train.n_observed + (0 if test is None else test.n_observed)
                extras["actual_fraction"] = n_observed / (train.m * train.n)
            if mech_kind == "huber" and mechanisms._unit_variance_convention(variance):
                extras["huber_unit_variance_convention"] = True
            record = RunRecord(
                dataset=label,
                solver=solver,
                mechanism=mech_kind,
                variance=variance,
                fraction=fraction,
                rank=config.rank,
                rmse_trials=trial_rmse,
                epsilon=budget.epsilon,
                delta=budget.delta,
                seed=plan.seed,
                config={
                    "lam": plan.lam,
                    "outer_iterations": config.outer_iterations,
                    "irls_iterations": plan.irls_iterations,
                    "mechanism_scale": mech.scale,
                    "huber_loss_alpha": config.huber_loss_alpha,
                    "delta_f": plan.delta_f,
                    "trial_mode": plan.trial_mode,
                    "holdout_fraction": None if test is None else plan.holdout_fraction,
                    "trial_streams": trial_streams,
                },
                # a U half draws nothing: tests/test_lrmc.py::test_u_half_draws_nothing
                draw_counts={"u_sweep": 0, "v_sweep": noise_draws},
                rmse_scope="all_entries" if test is None else "holdout",
                wall_clock_sec=time.perf_counter() - started,
                extras=extras,
            )
            records.append(record)
        except Exception as exc:  # cell isolation: a bad cell must not kill the sweep
            logger.exception("cell %s failed", cell_name)
            failures.append(f"{cell_name}: {type(exc).__name__}: {exc}")
    if plan.out:
        for rec in records:
            name = _cell_name(rec.solver, rec.mechanism, rec.variance, rec.fraction)
            data_io.persist_run(rec, Path(plan.out) / f"run-{name}.json")
        data_io.write_summary_csv(records, Path(plan.out) / "summary.csv")
    return records, failures


def _rmse_table(records: list[RunRecord], failures: list[str]) -> str:
    """Rows variance x fraction x solver, one mean-RMSE column per mechanism.

    The no-noise baseline has no variance and shows up under '-'.
    """
    mechanisms_seen = [m for m in _MECHANISMS if any(r.mechanism == m for r in records)]
    by_key: dict[tuple, dict[str, str]] = {}
    for rec in records:
        key = (
            rec.variance if rec.variance is not None else -math.inf,
            rec.fraction,
            rec.solver,
        )
        by_key.setdefault(key, {})[rec.mechanism] = f"{rec.rmse_mean:.4f}"
    header = ["variance", "fraction", "solver"] + mechanisms_seen
    widths = [max(8, len(h)) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for (variance, fraction, solver), cells in sorted(by_key.items()):
        row = [
            "-" if math.isinf(variance) else f"{variance:g}",
            f"{fraction:g}",
            solver,
        ]
        row += [cells.get(m, "") for m in mechanisms_seen]
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    out = "\n".join(lines)
    if failures:
        out += "\n\nFAILED cells:\n" + "\n".join(f"  {f}" for f in failures)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_budget(args) -> int:
    if not args.variances:
        raise ValueError("budget needs at least one variance")
    sens = _sensitivity(args.delta_f)
    rows = mechanisms.budget_table(args.variances, sens, args.delta, args.log_base)
    header = f"{'variance':>8}  {'gaussian (eps, delta)':>26}  {'laplace (eps, delta)':>24}  {'huber (eps, delta)':>22}  {'alpha':>8}"
    print(header)
    for row in rows:
        note = " *" if row.huber_unit_variance_convention else ""
        print(
            f"{row.variance:>8g}  "
            f"({row.gaussian.epsilon:>12.3f}, {row.gaussian.delta:g})  "
            f"({row.laplace.epsilon:>10.3f}, {row.laplace.delta:g})  "
            f"({row.huber.epsilon:>9.3f}, {row.huber.delta:g})  "
            f"{row.huber_alpha:>8.4f}{note}"
        )
    if any(r.huber_unit_variance_convention for r in rows):
        print(
            f"  * variance <= 1 is unreachable by Huber noise; "
            f"alpha={mechanisms.UNIT_VARIANCE_ALPHA} convention applied"
        )
    print(
        "note: gaussian epsilon uses the natural-log bound sqrt(2 ln(1.25/delta))/sigma * df;"
        " --log-base base10 evaluates it with log10 instead, dividing epsilon by"
        " sqrt(ln 10) ~= 1.5174 (compatibility mode for base-10 budget tables)."
    )
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(
                "variance,gaussian_epsilon,gaussian_delta,laplace_epsilon,"
                "laplace_delta,huber_epsilon,huber_delta,huber_alpha\n"
            )
            for row in rows:
                fh.write(
                    f"{row.variance!r},{row.gaussian.epsilon!r},{row.gaussian.delta!r},"
                    f"{row.laplace.epsilon!r},{row.laplace.delta!r},"
                    f"{row.huber.epsilon!r},{row.huber.delta!r},{row.huber_alpha!r}\n"
                )
    return 0


def cmd_calibrate(args) -> int:
    if not args.targets:
        raise ValueError("calibrate needs at least one target")
    sens = _sensitivity(args.delta_f)
    print(f"{'variance':>10}  {'alpha':>10}  {'epsilon':>10}  {'residual':>10}")
    for target in args.targets:
        mech = MechanismConfig.from_variance("huber", target)
        eps = mechanisms.mechanism_budget(mech, sens).epsilon
        resid = abs(mech.variance() - target)
        note = ""
        if mechanisms._unit_variance_convention(target):
            note = f"  (unreachable target; alpha={mech.scale:g} unit-variance convention)"
            print(
                f"warning: variance {target:g} <= 1 cannot be calibrated; "
                f"using alpha={mech.scale:g}",
                file=sys.stderr,
            )
        print(f"{target:>10g}  {mech.scale:>10.4f}  {eps:>10.3f}  {resid:>10.2e}{note}")
    return 0


def cmd_verify_privacy(args) -> int:
    if not (args.alphas and args.delta_fs):
        raise ValueError("verify-privacy needs at least one alpha and one delta_f")
    deviations = []
    failed = False
    print(f"{'alpha':>8}  {'delta_f':>8}  {'sup g':>12}  {'deviation':>12}")
    for alpha in args.alphas:
        for delta_f in args.delta_fs:
            sup, deviation, passed = mechanisms._gap_check(alpha, delta_f)
            deviations.append(deviation)
            failed |= not passed
            status = "" if passed else "  FAIL"
            print(f"{alpha:>8g}  {delta_f:>8g}  {sup:>12.6f}  {deviation:>12.3e}{status}")
    # np.max, unlike max, keeps a NaN deviation
    worst = np.max(deviations)
    print(f"{len(deviations)} cells checked; max |sup g - alpha*delta_f| = {worst:.3e}")
    if failed:
        print(f"tolerance {mechanisms._GAP_TOL:g} exceeded", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args) -> int:
    x, obs = data_io.generate_synthetic(args.m, args.n, args.rank, args.fraction,
                                        _count(args.seed, "seed"))
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    # through a file handle: given a path, np.savez would append .npz to it
    with path.open("wb") as fh:
        np.savez(fh, x=x, m=obs.m, n=obs.n, rows=obs.rows, cols=obs.cols, values=obs.values,
                 rank=args.rank, seed=args.seed)
    print(
        f"wrote {path}: {obs.m}x{obs.n} rank-{args.rank} matrix, "
        f"{obs.n_observed} observed entries ({obs.observed_fraction:.1%})"
    )
    return 0


def cmd_run(args) -> int:
    given = {
        name: getattr(args, name)
        for name in ExperimentPlan.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    payload = data_io._read_fields(args.plan, ExperimentPlan, "plan") if args.plan else {}
    payload.update(given)
    plan = ExperimentPlan(**payload)
    records, failures = run_plan(plan)
    print(_rmse_table(records, failures))
    if plan.out:
        print(f"\nwrote {len(records)} records + summary.csv to {Path(plan.out)}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huberdp-bench",
        description="Benchmarks for Huber-mechanism differential privacy and private matrix completion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_budget = sub.add_parser("budget", help="privacy budgets at matched noise variance")
    p_budget.add_argument("--variances", type=_float_list, default=[1.0, 2.0, 3.0, 4.0])
    p_budget.add_argument("--delta-f", type=float, default=5.0, dest="delta_f")
    p_budget.add_argument("--delta", type=float, default=1e-5)
    p_budget.add_argument("--log-base", choices=["natural", "base10"], default="natural", dest="log_base")
    p_budget.add_argument("--csv", default=None, help="also write the table to this CSV file")
    p_budget.set_defaults(func=cmd_budget)

    p_cal = sub.add_parser("calibrate", help="alpha achieving target Huber noise variances")
    p_cal.add_argument("--targets", type=_float_list, default=[2.0, 3.0, 4.0])
    p_cal.add_argument("--delta-f", type=float, default=5.0, dest="delta_f")
    p_cal.set_defaults(func=cmd_calibrate)

    p_ver = sub.add_parser("verify-privacy", help="check sup g(t) = alpha * delta_f on a grid")
    p_ver.add_argument("--alphas", type=_float_list, default=[0.5, 1.0, 2.0, 4.0])
    p_ver.add_argument("--delta-fs", type=_float_list, default=[0.1, 1.0, 5.0, 10.0], dest="delta_fs")
    p_ver.set_defaults(func=cmd_verify_privacy)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset to an .npz file")
    p_gen.add_argument("--m", type=int, default=500)
    p_gen.add_argument("--n", type=int, default=500)
    p_gen.add_argument("--rank", type=int, default=5)
    p_gen.add_argument("--fraction", type=float, default=0.15)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run an experiment sweep")
    p_run.add_argument("--plan", default=None, help="JSON plan file; flags override its fields")
    p_run.add_argument("--dataset", default=None, help="synthetic | movielens:PATH | sweetrs:PATH | file:PATH.npz")
    p_run.add_argument("--m", type=int, default=None)
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--data-rank", type=int, default=None, dest="data_rank", help="rank of the synthetic ground truth")
    p_run.add_argument("--solver", type=_str_list, default=None, dest="solvers", help="comma list from {als,irls}")
    p_run.add_argument("--mechanism", type=_str_list, default=None, dest="mechanisms", help="comma list from {none,gaussian,laplace,huber}")
    p_run.add_argument("--variance", type=_float_list, default=None, dest="variances")
    p_run.add_argument("--fraction", type=_float_list, default=None, dest="fractions")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--rank", type=int, default=None, help="rank used by the solvers")
    p_run.add_argument("--lambda", type=float, default=None, dest="lam")
    p_run.add_argument("--outer-t", type=int, default=None, dest="outer_iterations")
    p_run.add_argument("--irls-k", type=int, default=None, dest="irls_iterations")
    p_run.add_argument("--huber-loss-alpha", type=float, default=None, dest="huber_loss_alpha")
    p_run.add_argument("--delta", type=float, default=None)
    p_run.add_argument("--delta-f", type=float, default=None, dest="delta_f")
    p_run.add_argument("--trial-mode", choices=["fresh_mask", "fresh_matrix"], default=None, dest="trial_mode")
    p_run.add_argument("--holdout", type=float, default=None, dest="holdout_fraction")
    p_run.add_argument("--out", default=None, help="directory for run records and summary.csv")
    p_run.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad plan or input file prints one error line to
    stderr and returns 2, as argparse does for a bad flag."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"huberdp-bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
