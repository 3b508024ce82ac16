"""Layer entry points wrapped for the traced run, and the per-layer metrics.

Each entry is wrapped where its caller looks it up: a module attribute of
the calling module (`lrmc.sample` is the sampler as the solvers see it,
`bench_cli` reaches the solvers and data functions through `lrmc.` and
`data_io.`). Which end-to-end metric each layer metric should move, on which
workload, is tabled in perfbench/README.md.
"""

from __future__ import annotations

from pathlib import Path

from huberdp import bench_cli, data_io, lrmc, mechanisms, robust_solvers

from spans import Tracer, median_ms


def patches(tracer: Tracer):
    """(module, attribute, factory) triples for Tracer.patch."""

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    def drawn(result, args, kwargs, end):
        tracer.count("mechanisms.sample.values", result.values.size)

    def drawn_by_lrmc(result, args, kwargs, end):
        drawn(result, args, kwargs, end)
        tracer.count("lrmc.sample.values", result.values.size)
        if tracer.timeline is not None:
            tracer.timeline.on_draw(end, result.values.size)

    def parsed(result, args, kwargs, end):
        tracer.count("data_io.parse.lines", result.n_observed)

    def persisted(result, args, kwargs, end):
        tracer.count("data_io.persist.bytes", Path(args[1]).stat().st_size)

    def solver(inner_gram_solves):
        def describe(obs, config, *args, **kwargs):
            per_half = 2 * obs.n_observed * config.rank**2
            halves = 1 + (config.inner_iterations if inner_gram_solves else 1)
            return {
                "kind": config.mechanism.kind,
                "gram_flops": config.outer_iterations * halves * per_half,
            }

        return lambda fn: tracer.wrap_solver(fn, describe)

    calibrate = span("mechanisms.calibrate")
    return [
        (bench_cli, "main", span("bench_cli.main")),
        (lrmc, "noisy_als", solver(False)),
        (lrmc, "irls_huber", solver(True)),
        (lrmc, "completion_objective", tracer.wrap_objective),
        (lrmc, "rmse", span("lrmc.rmse")),
        (lrmc, "sample", span("mechanisms.sample", drawn_by_lrmc)),
        (robust_solvers, "sample", span("mechanisms.sample", drawn)),
        (mechanisms, "sample", span("mechanisms.sample", drawn)),
        (mechanisms, "huber_alpha_for_variance", calibrate),
        (mechanisms, "calibrate_alpha", calibrate),
        (lrmc, "huber_alpha_for_variance", calibrate),
        (data_io, "synthetic_truth", span("data_io.truth")),
        (data_io, "mask_entries", span("data_io.mask")),
        (data_io, "subsample", span("data_io.mask")),
        (data_io, "parse_movielens", span("data_io.parse", parsed)),
        (data_io, "holdout_split", span("data_io.split")),
        (data_io, "persist_run", span("data_io.persist", persisted)),
        (data_io, "write_summary_csv", span("data_io.persist", persisted)),
        (robust_solvers, "r_irls", span("robust_solvers.r_irls")),
        (robust_solvers, "ridge_solve", span("robust_solvers.ridge_solve")),
    ]


def layer_metrics(tracer: Tracer, traced_passes: int, v_sweep_draws: int):
    """Per-layer metrics, per traced pass, plus the audit checks.

    v_sweep_draws is the sum of the records' v_sweep counts over the traced
    passes; the values the solvers drew must equal it exactly.
    """
    totals = tracer.totals()
    per = 1.0 / traced_passes

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] * per

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * per

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * per

    counts = tracer.counts
    values = counts.get("mechanisms.sample.values", 0)
    halves = [h for tl in tracer.timelines for h in tl.halves()]
    huber = [tl for tl in tracer.timelines if tl.info["kind"] == "huber"]
    huber_noise = sum(h[1] for tl in huber for h in tl.halves())
    huber_solve = sum(tl.end - tl.start for tl in huber)
    u_half_audit = sum(tl.u_half_values for tl in tracer.timelines)
    lrmc_values = counts.get("lrmc.sample.values", 0)
    sample_self = self_s("mechanisms.sample")
    parse_s = seconds("data_io.parse")

    metrics = {
        "mechanisms.sample.calls": calls("mechanisms.sample"),
        "mechanisms.sample.values": values * per,
        "mechanisms.sample.self_s": sample_self,
        "mechanisms.sample.values_per_call": values * per / calls("mechanisms.sample")
        if calls("mechanisms.sample") else 0.0,
        "mechanisms.sample.values_per_s": values * per / sample_self if sample_self else 0.0,
        "mechanisms.calibrate.calls": calls("mechanisms.calibrate"),
        "mechanisms.calibrate.s": seconds("mechanisms.calibrate"),
        "lrmc.noise.ms": median_ms(h[1] for h in halves if h[3]),
        "lrmc.u_half.ms": median_ms(h[0] for h in halves),
        "lrmc.v_half.ms": median_ms(h[2] for h in halves),
        "lrmc.noise_share_huber": huber_noise / huber_solve if huber_solve else 0.0,
        "lrmc.gram_flops_computed": per * sum(tl.info["gram_flops"] for tl in tracer.timelines),
        "lrmc.solve.calls": calls("lrmc.solve"),
        "lrmc.solve.s": seconds("lrmc.solve"),
        "lrmc.self_s": self_s("lrmc.solve"),
        "lrmc.objective.s": seconds("lrmc.objective"),
        "lrmc.rmse.s": seconds("lrmc.rmse"),
        "lrmc.draws.v_sweep": v_sweep_draws * per,
        "lrmc.draws.u_half_audit": u_half_audit * per,
        "data_io.truth.s": seconds("data_io.truth"),
        "data_io.mask.s": seconds("data_io.mask"),
        "data_io.parse.s": parse_s,
        "data_io.parse.lines_per_s": counts.get("data_io.parse.lines", 0) * per / parse_s
        if parse_s else 0.0,
        "data_io.split.s": seconds("data_io.split"),
        "data_io.persist.s": seconds("data_io.persist"),
        "data_io.persist.bytes": counts.get("data_io.persist.bytes", 0) * per,
        "robust_solvers.r_irls.calls": calls("robust_solvers.r_irls"),
        "robust_solvers.r_irls.self_s": self_s("robust_solvers.r_irls"),
        "robust_solvers.ridge_solve.s": seconds("robust_solvers.ridge_solve"),
        "bench_cli.self_s": self_s("bench_cli.main"),
    }
    checks = [
        ("no mechanism values drawn in a U half-sweep", u_half_audit == 0),
        ("values drawn by the solvers equal the records' v_sweep totals",
         lrmc_values == v_sweep_draws),
    ]
    return metrics, checks
