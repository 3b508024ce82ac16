"""Dataset generation, ratings-file parsers, and run persistence.

Synthetic ground truth is X = U V^T with standard-normal factors scaled by
1/sqrt(rank), so entries have unit variance at any rank. One parser reads
both ratings formats, the MovieLens100k ``u.data`` layout (tab-separated
``user  item  rating  timestamp``, 1-indexed ids) and SweetRS-style
``user,item,rating`` records; parse_movielens and parse_sweetrs select it.
Run results persist as versioned JSON records plus a flat CSV summary.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .lrmc import ObservedMatrix

__all__ = [
    "SyntheticSpec",
    "ParseReport",
    "RunRecord",
    "RatingsParseError",
    "SchemaVersionError",
    "SCHEMA_VERSION",
    "SUMMARY_FIELDS",
    "generate_synthetic",
    "synthetic_truth",
    "mask_entries",
    "parse_movielens",
    "parse_sweetrs",
    "subsample",
    "holdout_split",
    "persist_run",
    "load_run",
    "write_summary_csv",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

SUMMARY_FIELDS = [
    "dataset",
    "mechanism",
    "solver",
    "variance",
    "fraction",
    "rank",
    "epsilon",
    "delta",
    "rmse_mean",
    "rmse_std",
    "seed",
]


class RatingsParseError(ValueError):
    """A ratings file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class SchemaVersionError(ValueError):
    """A persisted record uses a schema version this code does not know."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, rank, observation density, and seed of a synthetic instance."""

    m: int
    n: int
    rank: int
    observed_fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"synthetic dimensions {self.m}x{self.n} must be >= 1")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise ValueError(f"synthetic rank {self.rank} must lie in [1, {min(self.m, self.n)}]")
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ValueError("observed_fraction must lie in (0, 1]")


@dataclass
class ParseReport:
    """Ingest warnings: duplicate coordinates and out-of-range ratings."""

    duplicates: int = 0
    out_of_range: int = 0


def synthetic_truth(m: int, n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-`rank` matrix with unit-variance entries.

    Each entry is a sum of rank standard-normal products carrying an overall
    1/sqrt(rank) scale (each factor is scaled by rank^-1/4), so the entry
    variance is 1 at every rank. Values are real and unclipped.
    """
    scale = rank**0.25
    u = rng.standard_normal((m, rank)) / scale
    v = rng.standard_normal((n, rank)) / scale
    return u @ v.T


def generate_synthetic(
    spec: SyntheticSpec, rng: np.random.Generator | int | None = None
) -> tuple[np.ndarray, ObservedMatrix]:
    """Ground-truth matrix plus a uniformly masked observation of it.

    Returns (X, observed): X from synthetic_truth, and observed holding a
    uniform random sample of floor(observed_fraction * m * n) distinct cells
    drawn from the same generator, on the default (1, 5) value range.
    """
    rng = np.random.default_rng(spec.seed if rng is None else rng)
    x = synthetic_truth(spec.m, spec.n, spec.rank, rng)
    return x, mask_entries(x, spec.observed_fraction, rng)


def mask_entries(
    x: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    value_range: tuple[float, float] = (1.0, 5.0),
) -> ObservedMatrix:
    """Observe a uniform random subset of floor(fraction * m * n) cells."""
    x = np.asarray(x, dtype=float)
    m, n = x.shape
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    k = int(fraction * m * n)
    flat = rng.choice(m * n, size=k, replace=False)
    flat.sort()
    rows, cols = np.divmod(flat, n)
    return ObservedMatrix(m, n, rows, cols, x[rows, cols], value_range)


#: per ratings format: field separator, field count, and whether line 1 may
#: be a header (a first field that is not an integer id)
_RATINGS_FORMATS = {
    "movielens": ("\t", 4, False),
    "sweetrs": (",", 3, True),
}


def _parse_ratings(path, kind: str, report: ParseReport | None) -> ObservedMatrix:
    """One loop for every `_RATINGS_FORMATS` kind; whitespace-only lines are
    skipped. Each coordinate keeps its first position and its last value."""
    sep, n_fields, header = _RATINGS_FORMATS[kind]
    path = Path(path)
    if not path.is_file():
        raise RatingsParseError(f"{path}: no such file")
    users, items, ratings = [], [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            parts = line.rstrip("\r\n").split(sep)
            if header and lineno == 1 and not parts[0].strip().lstrip("-").isdigit():
                continue
            try:
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
                user, item, rating = int(parts[0]), int(parts[1]), float(parts[2])
                if user < 1 or item < 1:
                    raise ValueError("ids must be >= 1")
                if not math.isfinite(rating):
                    raise ValueError(f"rating must be finite, got {parts[2].strip()!r}")
            except ValueError as exc:
                raise RatingsParseError(f"{path}:{lineno}: {exc}", lineno) from exc
            users.append(user)
            items.append(item)
            ratings.append(rating)
    if not users:
        raise RatingsParseError(f"{path}: no ratings found")
    rows = np.array(users, dtype=np.int64) - 1
    cols = np.array(items, dtype=np.int64) - 1
    values = np.array(ratings, dtype=float)
    m, n = int(rows.max()) + 1, int(cols.max()) + 1
    flat = rows * n + cols
    # np.unique returns each key's first index; on the reversed array, its
    # last write. Sorting the first indices restores first-appearance order.
    _, first = np.unique(flat, return_index=True)
    _, last = np.unique(flat[::-1], return_index=True)
    order = np.argsort(first)
    first, last = first[order], flat.size - 1 - last[order]
    lo, hi = 1.0, 5.0
    duplicates = flat.size - first.size
    out_of_range = int(np.count_nonzero(~((lo <= values) & (values <= hi))))
    if duplicates:
        logger.warning("%s: %d duplicate ratings, last write wins", path, duplicates)
    if out_of_range:
        logger.warning("%s: %d ratings outside [%g, %g] (kept)", path, out_of_range, lo, hi)
    if report is not None:
        report.duplicates = duplicates
        report.out_of_range = out_of_range
    return ObservedMatrix(m, n, rows[first], cols[first], values[last], (lo, hi))


def parse_movielens(path, report: ParseReport | None = None) -> ObservedMatrix:
    """Parse a MovieLens100k ``u.data`` file.

    Each line is ``user_id<TAB>item_id<TAB>rating<TAB>timestamp`` with
    1-indexed ids; the timestamp is not read. Dimensions are the maximum ids
    seen; the ratings scale is (1, 5). Duplicate (user, item) pairs resolve
    last-write-wins and out-of-range ratings are kept, both logged and
    counted in the optional report. A missing file or a malformed line
    (reported with its number), including a nan or infinite rating, raises
    RatingsParseError.
    """
    return _parse_ratings(path, "movielens", report)


def parse_sweetrs(path, report: ParseReport | None = None) -> ObservedMatrix:
    """Parse a SweetRS-style ratings dump.

    Pinned schema: comma-separated ``user,item,rating`` records with
    1-indexed integer ids and numeric ratings on the (1, 5) scale; an
    optional header on the first line is skipped. Duplicate, out-of-range
    and error handling match parse_movielens.
    """
    return _parse_ratings(path, "sweetrs", report)


def subsample(
    obs: ObservedMatrix, target_fraction: float, rng: np.random.Generator
) -> ObservedMatrix:
    """Uniform random subset of entries hitting floor(target_fraction * m * n).

    The target must not exceed the current observed fraction.
    """
    k = int(target_fraction * obs.m * obs.n)
    if k > obs.n_observed:
        raise ValueError(
            f"target fraction {target_fraction} needs {k} entries but only "
            f"{obs.n_observed} are observed"
        )
    if k == obs.n_observed:
        return obs
    keep = rng.choice(obs.n_observed, size=k, replace=False)
    keep.sort()
    return ObservedMatrix(
        obs.m, obs.n, obs.rows[keep], obs.cols[keep], obs.values[keep], obs.value_range
    )


def holdout_split(
    obs: ObservedMatrix, test_fraction: float, rng: np.random.Generator
) -> tuple[ObservedMatrix, ObservedMatrix]:
    """Disjoint (train, test) partition of the observed entries.

    The test part holds floor(test_fraction * |observed|) entries; both sides
    must end up non-empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = int(test_fraction * obs.n_observed)
    if n_test == 0 or n_test == obs.n_observed:
        raise ValueError(
            f"split of {obs.n_observed} entries at fraction {test_fraction} "
            "leaves one side empty"
        )
    perm = rng.permutation(obs.n_observed)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    make = lambda idx: ObservedMatrix(
        obs.m, obs.n, obs.rows[idx], obs.cols[idx], obs.values[idx], obs.value_range
    )
    return make(train_idx), make(test_idx)


# ---------------------------------------------------------------------------
# Run persistence
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One benchmark cell: config, data descriptor, per-trial RMSEs, budget.

    rmse_mean must equal the arithmetic mean of rmse_trials (checked); the
    std is the population standard deviation. epsilon may be infinite for the
    no-noise baseline.
    """

    dataset: str
    solver: str
    mechanism: str
    variance: float | None
    fraction: float
    rank: int
    rmse_trials: list[float]
    rmse_mean: float
    rmse_std: float
    epsilon: float
    delta: float
    seed: int
    config: dict = field(default_factory=dict)
    draw_counts: dict = field(default_factory=dict)
    rmse_scope: str = "all_entries"
    wall_clock_sec: float = 0.0
    extras: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.rmse_trials:
            raise ValueError("rmse_trials must not be empty")
        mean = float(np.mean(self.rmse_trials))  # as from_trials computes it
        if not math.isclose(mean, self.rmse_mean, rel_tol=0, abs_tol=1e-12):
            raise ValueError(
                f"rmse_mean {self.rmse_mean!r} does not match trials mean {mean!r}"
            )

    @classmethod
    def from_trials(cls, rmse_trials, **kwargs) -> "RunRecord":
        trials = [float(r) for r in rmse_trials]
        if not trials:  # before np.mean, which warns on an empty list
            raise ValueError("rmse_trials must not be empty")
        return cls(
            rmse_trials=trials,
            rmse_mean=float(np.mean(trials)),
            rmse_std=float(np.std(trials)),
            **kwargs,
        )


def _encode_float(x):
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _decode_float(x):
    if x is None:
        return None
    if isinstance(x, str):
        return float(x)
    return x


def persist_run(record: RunRecord, path) -> None:
    """Write a RunRecord as pretty-printed JSON (schema-versioned)."""
    payload = asdict(record)
    payload["epsilon"] = _encode_float(record.epsilon)
    payload["variance"] = _encode_float(record.variance)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(path) -> RunRecord:
    """Read a RunRecord back; unknown schema versions raise, never misparse."""
    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record schema version {version!r} is not supported "
            f"(this code reads version {SCHEMA_VERSION})"
        )
    payload["epsilon"] = _decode_float(payload["epsilon"])
    payload["variance"] = _decode_float(payload["variance"])
    return RunRecord(**payload)


def _format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_summary_csv(records: list[RunRecord], path) -> None:
    """Flat CSV summary, one row per record, with the pinned header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, f)) for f in SUMMARY_FIELDS])
