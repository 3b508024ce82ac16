"""What importing huberdp provides and what it loads.

The runtime paths load no scipy module at all: scipy.special alone used to
take more start-up time than a short sweep runs, so the package needs numpy
only, and every runtime call is checked in a fresh interpreter. scipy stays a
test and benchmark dependency. The package namespace is the union of its
modules' __all__ lists.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_RUNTIME = f"""
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {SRC!r})
import numpy as np
import huberdp
from huberdp import bench_cli
from huberdp.mechanisms import MechanismConfig, calibrate_alpha, huber_cdf
from huberdp.robust_solvers import IrlsConfig, RidgeProblem, r_irls, ridge_solve

FILE_RUN = ["--rank", "1", "--fraction", "1", "--holdout", "0.5", "--trials", "1",
            "--outer-t", "2", "--solver", "als", "--mechanism", "huber", "--variance", "2"]
with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
    assert bench_cli.main(["budget"]) == 0
    assert bench_cli.main(["calibrate", "--targets", "2,3"]) == 0
    assert bench_cli.main(["verify-privacy"]) == 0
    assert bench_cli.main([
        "run", "--m", "12", "--n", "10", "--data-rank", "2", "--rank", "2",
        "--fraction", "0.5", "--solver", "als,irls",
        "--mechanism", "gaussian,laplace,huber", "--variance", "2",
        "--trials", "1", "--outer-t", "1", "--irls-k", "1", "--seed", "0",
    ]) == 0
    # each dataset reader: both ratings formats with a CRLF line and a
    # whitespace-only line, SweetRS with its header, and a gen npz
    ratings = Path(tmp, "u.data")
    ratings.write_bytes(b"1\\t1\\t5\\t0\\r\\n1\\t2\\t4\\t0\\n \\t \\n2\\t2\\t3\\t0\\n"
                        b"2\\t3\\t4\\t0\\n3\\t1\\t2\\t0\\n3\\t3\\t5\\t0\\n")
    assert bench_cli.main(["run", "--dataset", f"movielens:{{ratings}}", *FILE_RUN]) == 0
    sweetrs = Path(tmp, "r.csv")
    sweetrs.write_bytes(b"user,item,rating\\n1,1,5\\r\\n1,2,4\\n \\t \\n2,2,3\\n2,3,4\\n3,1,2\\n3,3,5\\n")
    assert bench_cli.main(["run", "--dataset", f"sweetrs:{{sweetrs}}", *FILE_RUN]) == 0
    npz = Path(tmp, "g.npz")
    assert bench_cli.main(["gen", "--m", "20", "--n", "20", "--rank", "2", "--fraction", "0.5",
                           "--out", str(npz)]) == 0
    assert bench_cli.main(["run", "--dataset", f"file:{{npz}}", *FILE_RUN]) == 0
calibrate_alpha(2.0)
huber_cdf(np.linspace(-3.0, 3.0, 7), 1.0)
rng = np.random.default_rng(0)
a, y = rng.standard_normal((8, 3)), rng.standard_normal(8)
ridge_solve(RidgeProblem(a, y, 0.5))
r_irls(y, a, IrlsConfig(1.0, 0.5, 3, MechanismConfig.huber(1.0)), rng)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_runtime_paths_load_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", _RUNTIME], check=True, capture_output=True, text=True
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert not loaded, f"runtime paths import scipy: {loaded}"


def test_package_exports_each_module_all():
    """Each module's __all__ is the one list of its public names: the package
    re-exports every one of them as the same object."""
    import huberdp
    from huberdp import data_io, lrmc, mechanisms, robust_solvers

    for module in (mechanisms, robust_solvers, lrmc, data_io):
        for name in module.__all__:
            assert getattr(huberdp, name, None) is getattr(module, name), (
                f"huberdp.{name} is not {module.__name__}.{name}"
            )
