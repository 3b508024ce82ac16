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
run (seed, 4, cell_index, trial). Re-running a plan with the same seed
therefore reproduces the summary byte for byte, regardless of execution
order.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data_io, lrmc, mechanisms
from .data_io import RunRecord, SyntheticSpec
from .lrmc import DrawCounters, ObservedMatrix, SolverConfig
from .mechanisms import MechanismConfig, Sensitivity

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
#: (looked up by name at load time; None reads a ``gen`` npz) and the protocol
#: defaults applied to fields that no flag or plan file set
_FILE_KINDS = {
    "movielens": ("parse_movielens", {"rank": 32, "outer_iterations": 20}),
    "sweetrs": ("parse_sweetrs", {"rank": 32, "outer_iterations": 100}),
    "file": (None, {}),
}


@dataclass
class ExperimentPlan:
    """A full sweep: dataset, solver/mechanism/variance/fraction grid, seeds.

    trial_mode "fresh_mask" fixes the synthetic ground truth for the whole
    plan and redraws the observation mask (and noise) per trial;
    "fresh_matrix" regenerates the ground truth each trial as well. Fields
    are checked when the plan is built, a dataset file's shape once it loads.
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
    rank: int = 5
    lam: float = 0.5
    outer_iterations: int = 50
    irls_iterations: int = 20
    huber_loss_alpha: float | None = None
    delta: float = 1e-5
    delta_f: float = 5.0
    trial_mode: str = "fresh_mask"
    holdout_fraction: float = 0.1
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, _FIELD_TYPES[f.name]):
                raise ValueError(f"plan field {f.name} must be {f.type}, got {value!r}")
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if self.trial_mode not in ("fresh_mask", "fresh_matrix"):
            raise ValueError("trial_mode must be 'fresh_mask' or 'fresh_matrix'")
        for v in self.variances:
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"variance {v!r} must be a positive real")
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
        self.solver_config()
        if self.dataset == "synthetic":
            SyntheticSpec(self.m, self.n, self.data_rank, 1.0)  # fractions checked above
            self._check_data(self.m, self.n)

    def solver_config(self) -> SolverConfig:
        """The noiseless solver config; each cell replaces its mechanism and
        run_plan passes each trial's stream."""
        return SolverConfig(
            rank=self.rank, lam=self.lam, outer_iterations=self.outer_iterations,
            inner_iterations=self.irls_iterations, huber_loss_alpha=self.huber_loss_alpha,
        )

    def _check_data(self, m: int, n: int, observed: int | None = None, split=False) -> None:
        """Reject a rank or fraction that no trial on m x n data can run. A file
        of `observed` entries runs fraction 1.0 as is and subsamples
        int(fraction * m * n) of them otherwise, so a lower fraction must not
        need more; with split, each trial holds holdout_fraction of them out."""
        if self.rank > min(m, n):
            raise ValueError(f"rank {self.rank} exceeds min(m, n) = {min(m, n)} of the data")
        for f in self.fractions:
            k = observed if f == 1.0 and observed is not None else int(f * m * n)
            if k == 0:
                raise ValueError(f"fraction {f!r} observes no entry of a {m}x{n} matrix")
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


_FIELD_TYPES = typing.get_type_hints(ExperimentPlan)


def _has_type(value, hint) -> bool:
    """isinstance against a plan field's annotation. A bool is not an int
    (JSON true is not a count), and an int is a float."""
    if hint is int or hint is float:
        allowed = (int,) if hint is int else (int, float)
        return isinstance(value, allowed) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union such as float | None
        return any(_has_type(value, arg) for arg in args)
    return isinstance(value, hint)


def _load_file_dataset(kind: str, path: str) -> tuple[np.ndarray | None, ObservedMatrix]:
    parser = _FILE_KINDS[kind][0]
    if parser is not None:
        return None, getattr(data_io, parser)(path)
    with np.load(path, allow_pickle=False) as npz:
        obs = ObservedMatrix(
            int(npz["m"]),
            int(npz["n"]),
            npz["rows"],
            npz["cols"],
            npz["values"],
            tuple(npz["value_range"]),
        )
        truth = npz["x"] if "x" in npz.files else None
    return truth, obs


def _trial_data(
    plan: ExperimentPlan, truth, base_obs, frac_idx: int, fraction: float, trial: int
) -> tuple[np.ndarray | None, ObservedMatrix, ObservedMatrix | None]:
    """One trial's (x, train, test); test None scores against the dense x."""
    if plan.dataset == "synthetic":
        if plan.trial_mode == "fresh_matrix":
            rng = _stream(plan.seed, _DOMAIN_TRUTH, frac_idx, trial)
            truth = data_io.synthetic_truth(plan.m, plan.n, plan.data_rank, rng)
        else:
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
    """Execute every cell of the plan; returns (records, failure messages)."""
    synthetic = plan.dataset == "synthetic"
    truth = None
    base_obs = None
    if synthetic:
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
    scope = "holdout" if not synthetic and truth is None else "all_entries"

    sens = Sensitivity.scalar(plan.delta_f)
    noiseless = plan.solver_config()
    records: list[RunRecord] = []
    failures: list[str] = []

    for cell_idx, (solver, mech_kind, variance, fraction) in enumerate(plan.cells()):
        cell_name = _cell_name(solver, mech_kind, variance, fraction)
        started = time.perf_counter()
        try:
            mech = MechanismConfig.from_variance(mech_kind, variance)
            budget = mechanisms.mechanism_budget(mech, sens, delta=plan.delta)
            config = replace(noiseless, mechanism=mech)
            solve = lrmc.noisy_als if solver == "als" else lrmc.irls_huber
            counters = DrawCounters()
            trial_rmse = []
            train_rmse = []
            frac_idx = plan.fractions.index(fraction)
            for trial in range(plan.trials):
                x, train, test = _trial_data(plan, truth, base_obs, frac_idx, fraction, trial)
                factors = solve(
                    train,
                    config,
                    _stream(plan.seed, _DOMAIN_SOLVER, cell_idx, trial),
                    counters=counters,
                )
                trial_rmse.append(lrmc.rmse(x if test is None else test, factors))
                if test is not None:
                    train_rmse.append(lrmc.rmse(train, factors))
            extras = {}
            if train_rmse:
                extras["rmse_train_mean"] = float(np.mean(train_rmse))
            if not synthetic:
                n_observed = train.n_observed + (0 if test is None else test.n_observed)
                extras["actual_fraction"] = n_observed / (train.m * train.n)
            if mech_kind == "huber" and mechanisms._unit_variance_convention(variance):
                extras["huber_unit_variance_convention"] = True
            record = RunRecord.from_trials(
                trial_rmse,
                dataset=label,
                solver=solver,
                mechanism=mech_kind,
                variance=variance,
                fraction=fraction,
                rank=plan.rank,
                epsilon=budget.epsilon,
                delta=budget.delta,
                seed=plan.seed,
                config={
                    "lam": plan.lam,
                    "outer_iterations": plan.outer_iterations,
                    "irls_iterations": plan.irls_iterations,
                    "mechanism_scale": mech.scale,
                    "huber_loss_alpha": (
                        lrmc.resolve_loss_alpha(config) if solver == "irls" else None
                    ),
                    "delta_f": plan.delta_f,
                    "trial_mode": plan.trial_mode,
                    "holdout_fraction": plan.holdout_fraction if scope == "holdout" else None,
                    "trial_streams": [
                        [plan.seed, _DOMAIN_SOLVER, cell_idx, t]
                        for t in range(plan.trials)
                    ],
                },
                draw_counts={"u_sweep": counters.u_sweep, "v_sweep": counters.v_sweep},
                rmse_scope=scope,
                wall_clock_sec=time.perf_counter() - started,
                extras=extras,
            )
            records.append(record)
        except Exception as exc:  # cell isolation: a bad cell must not kill the sweep
            logger.exception("cell %s failed", cell_name)
            failures.append(f"{cell_name}: {type(exc).__name__}: {exc}")
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
    sens = Sensitivity.scalar(args.delta_f)
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
    sens = Sensitivity.scalar(args.delta_f)
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
    worst = 0.0
    cells = 0
    failed = False
    print(f"{'alpha':>8}  {'delta_f':>8}  {'sup g':>12}  {'deviation':>12}")
    for alpha in args.alphas:
        for delta_f in args.delta_fs:
            bound = alpha * delta_f
            deviation = abs(mechanisms._gap_grid_max(alpha, delta_f) - bound)
            worst = max(worst, deviation)
            cells += 1
            status = ""
            if deviation > mechanisms._GAP_TOL:
                failed = True
                status = "  FAIL"
            print(f"{alpha:>8g}  {delta_f:>8g}  {bound:>12.6f}  {deviation:>12.3e}{status}")
    print(f"{cells} cells checked; max |sup g - alpha*delta_f| = {worst:.3e}")
    if failed:
        print(f"tolerance {mechanisms._GAP_TOL:g} exceeded", file=sys.stderr)
        return 1
    return 0


def cmd_gen(args) -> int:
    spec = SyntheticSpec(args.m, args.n, args.rank, args.fraction, args.seed)
    x, obs = data_io.generate_synthetic(spec)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        x=x,
        m=obs.m,
        n=obs.n,
        rows=obs.rows,
        cols=obs.cols,
        values=obs.values,
        value_range=np.array(obs.value_range),
        rank=spec.rank,
        seed=spec.seed,
    )
    print(
        f"wrote {path}: {obs.m}x{obs.n} rank-{spec.rank} matrix, "
        f"{obs.n_observed} observed entries ({obs.observed_fraction:.1%})"
    )
    return 0


def cmd_run(args) -> int:
    given = {
        name: getattr(args, name)
        for name in ExperimentPlan.__dataclass_fields__
        if getattr(args, name, None) is not None
    }
    payload = {}
    if args.plan:
        with Path(args.plan).open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
        unknown = set(payload) - set(ExperimentPlan.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    payload.update(given)
    kind = str(payload.get("dataset", "synthetic")).partition(":")[0]
    for key, value in _FILE_KINDS.get(kind, (None, {}))[1].items():
        payload.setdefault(key, value)
    plan = ExperimentPlan(**payload)
    records, failures = run_plan(plan)
    out_dir = Path(plan.out) if plan.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            name = _cell_name(rec.solver, rec.mechanism, rec.variance, rec.fraction)
            data_io.persist_run(rec, out_dir / f"run-{name}.json")
        data_io.write_summary_csv(records, out_dir / "summary.csv")
    print(_rmse_table(records, failures))
    if out_dir:
        print(f"\nwrote {len(records)} records + summary.csv to {out_dir}")
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
