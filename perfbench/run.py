"""huberdp benchmark: one workload, one process, one solve at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with a single caller: passes of the workload run back to back
until S seconds have passed, and at least once. BLAS runs on one thread,
pinned before numpy loads: the solvers' systems are r x r, so more threads
only add contention with other processes on the machine. The workload's
inputs derive from --seed alone and are made before set-up and timing
start.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
setup_s (median of several fresh interpreters importing huberdp and
building the plan), run_s (median wall clock of a pass), peak_rss_mb, rmse
and ok_frac (share of cells and checks that passed). --trace 1 alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead. The last stdout line is the result object; the line
before it records the environment. Spans, results and generated inputs go
to .bench_work/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
BLAS_THREADS = 1


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup_seconds(spec: dict) -> list[float]:
    """Interpreter start until huberdp is imported and the plan is built."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(probe), json.dumps(spec)],
            check=True, capture_output=True, text=True, cwd=ROOT,
        ).stdout
        samples.append(float(out.split()[-1]) - started)
    return samples


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def measure(job, seconds: float, traced: bool):
    """Run passes until `seconds` have passed; with traced, alternate
    untraced and traced passes, at least one of each."""
    from spans import Tracer
    import layers

    tracer = Tracer() if traced else None
    times = {False: [], True: []}
    results = {False: [], True: []}
    started = time.perf_counter()
    while True:
        use_trace = traced and len(times[True]) < len(times[False])
        with tracer.patch(layers.patches(tracer)) if use_trace else contextlib.nullcontext():
            t0 = time.perf_counter()
            outcome = job.run()
            elapsed = time.perf_counter() - t0
        times[use_trace].append(elapsed)
        results[use_trace].append(job.check(outcome))
        if (time.perf_counter() - started >= seconds and times[False]
                and (times[True] or not traced)):
            return tracer, times, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / "huberdp" / "__init__.py").is_file() or not manifest.is_file():
        print(f"error: {SRC / 'huberdp'} or {manifest} is missing; "
              "run from the root of a huberdp checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    bench = json.loads(manifest.read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-seed{args.seed}"
    job = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, work)
    setup = setup_seconds(job.probe_spec())

    tracer, times, results = measure(job, args.seconds, bool(args.trace))
    passes = results[False] + results[True]
    run_checks = list(job.prep_checks)
    run_checks.append(("every pass gives the same results",
                       len({r.fingerprint for r in passes}) == 1))
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)

    if args.trace:
        import layers

        traced = results[True]
        values, audit = layers.layer_metrics(
            tracer, len(traced), sum(r.draws for r in traced))
        run_checks += audit
        untraced_s = statistics.median(times[False])
        traced_s = statistics.median(times[True])
        values.update({
            "bench_cli.cells": statistics.mean(r.cells for r in traced),
            "bench_cli.cells_failed": statistics.mean(r.cells_failed for r in traced),
            "trace.run_s": traced_s,
            "trace.untraced_run_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
        tracer.write(work / "spans.npz")
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rmse": passes[0].rmse,
        }
        wanted = bench["end_to_end"]

    attempted += len(run_checks)
    failed += sum(not ok for _, ok in run_checks)
    values["ok_frac"] = 1.0 - failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failures = [name for r in passes for name, ok in r.checks if not ok]
    failures += [name for name, ok in run_checks if not ok]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "setup_samples_s": setup,
              "pass_times_s": times[False], "traced_pass_times_s": times[True],
              "failed_checks": failures, "environment": env, "result": result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name in failures:
        print(f"FAILED check: {name}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
