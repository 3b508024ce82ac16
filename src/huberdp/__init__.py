"""Huber-noise differential privacy and private low-rank matrix completion.

The mechanisms module provides the Huber noise distribution (Gaussian
center, exponential tails), exact sampling, variance calibration, and
(epsilon, delta) accounting next to the Laplace and Gaussian mechanisms.
The solver modules complete partially observed low-rank matrices with
noise-injected alternating least squares or IRLS under the Huber loss, and
the bench_cli module wraps everything in a reproducible benchmark harness.
"""

from .mechanisms import *
from .robust_solvers import *
from .lrmc import *
from .data_io import *

__version__ = "0.1.0"
