"""Set-up probe: import huberdp, build one workload's plan, print the clock.

Usage: python3 perfbench/setup_probe.py '<json spec>'

The spec is {"argv": [...]} for a `huberdp-bench run` plan or
{"library": {...}} for the library workload's configurations. The last
stdout line is time.monotonic() once the plan is built; the caller takes it
minus its own clock reading before starting this interpreter.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from huberdp import bench_cli, mechanisms, robust_solvers  # noqa: E402


def build(spec: dict):
    if "argv" in spec:
        args = bench_cli.build_parser().parse_args(spec["argv"])
        fields = bench_cli.ExperimentPlan.__dataclass_fields__
        plan = bench_cli.ExperimentPlan(
            **{k: getattr(args, k) for k in fields if getattr(args, k, None) is not None}
        )
        return plan.cells()
    lib = spec["library"]
    return [
        robust_solvers.IrlsConfig(
            alpha=lib["loss_alpha"],
            lam=lib["lam"],
            iterations=lib["iterations"],
            noise=mechanisms.MechanismConfig.huber(lib["noise_alpha"]),
        )
    ] + [mechanisms.MechanismConfig.huber(a) for a in lib["sample_alphas"]]


if __name__ == "__main__":
    build(json.loads(sys.argv[1]))
    print(repr(time.monotonic()))
