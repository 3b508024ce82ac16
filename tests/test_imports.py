"""The runtime paths load no scipy module beyond scipy.special's own.

scipy.optimize and scipy.linalg together cost more start-up time than a
short sweep runs, so every runtime call is checked in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_LOADED = "json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"

_BASELINE = f"""
import json, sys
import scipy.special
print({_LOADED})
"""

_RUNTIME = f"""
import contextlib, io, json, sys
sys.path.insert(0, {SRC!r})
import numpy as np
import huberdp
from huberdp import bench_cli
from huberdp.mechanisms import MechanismConfig, calibrate_alpha
from huberdp.robust_solvers import IrlsConfig, RidgeProblem, r_irls, ridge_solve

with contextlib.redirect_stdout(io.StringIO()):
    assert bench_cli.main(["budget"]) == 0
calibrate_alpha(2.0)
rng = np.random.default_rng(0)
a, y = rng.standard_normal((8, 3)), rng.standard_normal(8)
ridge_solve(RidgeProblem(a, y, 0.5))
r_irls(y, a, IrlsConfig(1.0, 0.5, 3, MechanismConfig.huber(1.0)), rng)
print({_LOADED})
"""


def _loaded(code: str) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_runtime_scipy_modules_are_those_of_scipy_special():
    extra = _loaded(_RUNTIME) - _loaded(_BASELINE)
    packages = sorted({".".join(m.split(".")[:2]) for m in extra})
    assert not extra, f"runtime paths import scipy beyond scipy.special: {packages}"
