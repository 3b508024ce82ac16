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
import functools
import json
import logging
import math
import typing
import warnings
from dataclasses import MISSING, dataclass, field, fields, asdict
from itertools import chain, filterfalse
from operator import methodcaller
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .lrmc import ObservedMatrix, _flat_keys
from .mechanisms import _count, _finite_array, _real

__all__ = [
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
_DERIVED = ("rmse_mean", "rmse_std")  # stored by persist_run beside the fields

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


def _synthetic_shape(m: int, n: int, rank: int) -> tuple[int, int, int]:
    """m, n and the synthetic rank as Python ints, or a ValueError naming the
    one that is not a count in range: m and n of at least 1, the rank in
    [1, min(m, n)]."""
    m, n, rank = _count(m, "m", 1), _count(n, "n", 1), _count(rank, "synthetic rank", 1)
    if rank > min(m, n):
        raise ValueError(f"synthetic rank {rank} must lie in [1, {min(m, n)}]")
    return m, n, rank


def _observed_count(fraction: float, m: int, n: int) -> int:
    """int(fraction * m * n), the entries that a fraction of an m x n matrix
    observes, or a ValueError naming a fraction outside (0, 1] or one that
    observes no entry."""
    fraction = _real(fraction, "fraction")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} must lie in (0, 1]")
    k = int(fraction * m * n)
    if k == 0:
        raise ValueError(f"fraction {fraction!r} observes no entry of a {m}x{n} matrix")
    return k


@dataclass
class ParseReport:
    """Ingest warnings: duplicate coordinates and out-of-range ratings."""

    duplicates: int = 0
    out_of_range: int = 0


def synthetic_truth(m: int, n: int, rank: int, rng: np.random.Generator | int) -> np.ndarray:
    """Random rank-`rank` matrix with unit-variance entries, drawn from rng, a
    seed or Generator.

    Each entry is a sum of rank standard-normal products carrying an overall
    1/sqrt(rank) scale (each factor is scaled by rank^-1/4), so the entry
    variance is 1 at every rank. Values are real and unclipped.
    """
    m, n, rank = _synthetic_shape(m, n, rank)
    rng = np.random.default_rng(rng)
    scale = rank**0.25
    u = rng.standard_normal((m, rank)) / scale
    v = rng.standard_normal((n, rank)) / scale
    return u @ v.T


def generate_synthetic(
    m: int, n: int, rank: int, fraction: float, rng: np.random.Generator | int
) -> tuple[np.ndarray, ObservedMatrix]:
    """Ground-truth matrix plus a uniformly masked observation of it.

    Returns (X, observed): X from synthetic_truth, and observed holding a
    uniform random sample of floor(fraction * m * n) distinct cells drawn
    from the same generator. The shape and the fraction are checked before
    anything is drawn.
    """
    m, n, rank = _synthetic_shape(m, n, rank)
    _observed_count(fraction, m, n)
    rng = np.random.default_rng(rng)
    x = synthetic_truth(m, n, rank, rng)
    return x, mask_entries(x, fraction, rng)


def mask_entries(
    x: np.ndarray, fraction: float, rng: np.random.Generator | int
) -> ObservedMatrix:
    """Observe a uniform random subset of floor(fraction * m * n) cells, drawn
    from rng, a seed or Generator; the fraction must lie in (0, 1] and
    observe at least one."""
    x = _finite_array(x, "x")
    if x.ndim != 2:
        raise ValueError(f"x must be a 2-D matrix, got shape {x.shape}")
    m, n = x.shape
    k = _observed_count(fraction, m, n)
    flat = np.random.default_rng(rng).choice(m * n, size=k, replace=False)
    flat.sort()
    rows, cols = np.divmod(flat, n)
    return ObservedMatrix(m, n, rows, cols, x[rows, cols])


#: per ratings format: field separator, row dtype for numpy's reader, and
#: whether line 1 may be a header (a first field that is not an integer id).
#: MovieLens's timestamp is not read: as text of no characters its
#: conversion cannot fail and takes no bytes, and the reader still counts it
#: as a field.
_RATINGS_FORMATS = {
    "movielens": ("\t", np.dtype([("user", "i8"), ("item", "i8"), ("rating", "f8"),
                                  ("timestamp", "U0")]), False),
    "sweetrs": (",", np.dtype([("user", "i8"), ("item", "i8"), ("rating", "f8")]), True),
}

#: int() and float() strip every whitespace character but these four
#: separators, which numpy's reader strips too. As "?" they make the reader
#: refuse a number they pad, as int() and float() do.
_PADDING_NUMPY_ONLY = dict.fromkeys(range(0x1C, 0x20), "?")


def _is_header(first_field: str) -> bool:
    return not first_field.strip().lstrip("-").isdigit()


#: characters of text read per block; a block's lines go to numpy's reader
#: before the next block is read
_BLOCK_CHARS = 1 << 16


def _kept_lines(block: str) -> Iterator[str]:
    """The lines of a text block that numpy's reader is given: whitespace-only
    lines are dropped (the reader skips empty lines itself, but not these),
    then _PADDING_NUMPY_ONLY is mapped."""
    lines = filterfalse(str.isspace, block.split("\n"))
    if any(chr(c) in block for c in _PADDING_NUMPY_ONLY):
        return map(methodcaller("translate", _PADDING_NUMPY_ONLY), lines)
    return lines


def _data_lines(fh, sep: str, header: bool) -> Iterator[str]:
    """The kept lines of a text handle, without line 1 if it is a header. The
    handle is read in blocks that end at a line's end, so only one block's
    lines exist at a time, never a list of the file's."""
    first = fh.readline()
    blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
    if not (header and _is_header(first.split(sep, 1)[0])):
        blocks = chain([first], blocks)
    return chain.from_iterable(map(_kept_lines, blocks))


def _parse_ratings(path, kind: str, report: ParseReport | None) -> ObservedMatrix:
    """One streaming read of _data_lines by numpy's reader for every
    `_RATINGS_FORMATS` kind. Each coordinate keeps its first position and
    its last value. Ratings off the 1-5 scale are kept, and only counted. A
    file that is not UTF-8, or that the reader or the id and rating checks
    refuse, goes to _raise_first_bad_line, which names its first bad line."""
    sep, row, header = _RATINGS_FORMATS[kind]
    path = Path(path)
    if not path.is_file():
        raise RatingsParseError(f"{path}: no such file")
    try:
        with path.open(encoding="utf-8") as fh, warnings.catch_warnings():
            # numpy < 2 reads an integer field such as "1.5" through float,
            # with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(_data_lines(fh, sep, header), dtype=row, delimiter=sep,
                               comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        # a UnicodeDecodeError is a ValueError
        _raise_first_bad_line(path, kind)
    if not table.size:
        raise RatingsParseError(f"{path}: no ratings found")
    users, items = table["user"], table["item"]
    if (users < 1).any() or (items < 1).any() or not np.isfinite(table["rating"]).all():
        _raise_first_bad_line(path, kind)
    rows, cols, values = users - 1, items - 1, table["rating"].copy()
    # the table and then the sorted keys are freed once read, so ingest's
    # peak is the table plus the returned arrays
    del table, users, items
    m, n = int(rows.max()) + 1, int(cols.max()) + 1
    lo, hi = 1.0, 5.0
    out_of_range = int(np.count_nonzero(~((lo <= values) & (values <= hi))))
    try:
        keys = _flat_keys(rows, cols, m, n)
    except ValueError as exc:
        raise RatingsParseError(f"{path}: {exc}") from exc
    keys.sort()
    new_key = np.concatenate(([True], keys[1:] != keys[:-1]))
    del keys
    duplicates = rows.size - int(np.count_nonzero(new_key))
    if duplicates:
        # a stable sort keeps each key's entries in file order: the first of
        # a run is the key's first position, the last of it its last write
        order = np.argsort(_flat_keys(rows, cols, m, n), kind="stable")
        starts = np.flatnonzero(new_key)
        last = np.empty_like(order)
        last[order[starts]] = order[np.append(starts[1:], rows.size) - 1]
        first = np.sort(order[starts])
        rows, cols, values = rows[first], cols[first], values[last[first]]
        logger.warning("%s: %d duplicate ratings, last write wins", path, duplicates)
    if out_of_range:
        logger.warning("%s: %d ratings outside [%g, %g] (kept)", path, out_of_range, lo, hi)
    if report is not None:
        report.duplicates = duplicates
        report.out_of_range = out_of_range
    return ObservedMatrix(m, n, rows, cols, values)


def _raise_first_bad_line(path: Path, kind: str) -> NoReturn:
    """The per-line rules, run once the bulk read has refused a file: raises
    RatingsParseError for the first line that breaks one. Besides int() and
    float(), a line must be UTF-8 text and its numbers what numpy's reader
    takes: ASCII without '_' separators, ids below 2**63."""
    sep, row, header = _RATINGS_FORMATS[kind]
    n_fields = len(row.names)
    # an undecodable byte reads as a lone surrogate, U+DC80 to U+DCFF
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            parts = line.rstrip("\r\n").split(sep)
            try:
                if any("\udc80" <= char <= "\udcff" for char in line):
                    raise ValueError("not UTF-8 text")
                if header and lineno == 1 and _is_header(parts[0]):
                    continue
                if len(parts) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(parts)}")
                user, item, rating = int(parts[0]), int(parts[1]), float(parts[2])
                if user < 1 or item < 1:
                    raise ValueError("ids must be >= 1")
                if not math.isfinite(rating):
                    raise ValueError(f"rating must be finite, got {parts[2].strip()!r}")
                texts = [part.strip() for part in parts[:3]]
                unread = [text for text in texts if not text.isascii() or "_" in text]
                if unread:
                    raise ValueError(
                        f"numbers must be ASCII without '_' separators, got {unread[0]!r}")
                if max(user, item) >= 2**63:
                    raise ValueError(f"ids must be < 2**63, got {max(user, item)}")
            except ValueError as exc:
                raise RatingsParseError(f"{path}:{lineno}: {exc}", lineno) from exc
    raise AssertionError(f"{path}: numpy's reader refused a file that passes every line rule")


def parse_movielens(path, report: ParseReport | None = None) -> ObservedMatrix:
    """Parse a MovieLens100k ``u.data`` file.

    Each line is ``user_id<TAB>item_id<TAB>rating<TAB>timestamp`` with
    1-indexed ids; the timestamp is not read. Ids are ASCII decimal
    integers below 2**63, and ratings ASCII numbers in Python's float syntax
    without '_' separators. Dimensions are the maximum ids seen. Duplicate
    (user, item) pairs resolve last-write-wins and out-of-range ratings are
    kept, both logged and counted in the optional report. A missing file or
    a malformed line (reported with its number), including a nan or infinite
    rating and a line that is not UTF-8 text, raises RatingsParseError, as
    do ids whose matrix would have 2**63 or more entries.
    """
    return _parse_ratings(path, "movielens", report)


def parse_sweetrs(path, report: ParseReport | None = None) -> ObservedMatrix:
    """Parse a SweetRS-style ratings dump.

    Pinned schema: comma-separated ``user,item,rating`` records with
    1-indexed integer ids and numeric ratings; an optional header on the
    first line is skipped. Duplicate, out-of-range and error handling match
    parse_movielens.
    """
    return _parse_ratings(path, "sweetrs", report)


def subsample(
    obs: ObservedMatrix, target_fraction: float, rng: np.random.Generator | int
) -> ObservedMatrix:
    """Uniform random subset of entries hitting floor(target_fraction * m * n),
    drawn from rng, a seed or Generator.

    The target must lie in (0, 1], observe at least one entry, and not exceed
    the current observed fraction.
    """
    k = _observed_count(target_fraction, obs.m, obs.n)
    if k > obs.n_observed:
        raise ValueError(
            f"target fraction {target_fraction} needs {k} entries but only "
            f"{obs.n_observed} are observed"
        )
    if k == obs.n_observed:
        return obs
    keep = np.random.default_rng(rng).choice(obs.n_observed, size=k, replace=False)
    keep.sort()
    return ObservedMatrix(obs.m, obs.n, obs.rows[keep], obs.cols[keep], obs.values[keep])


def holdout_split(
    obs: ObservedMatrix, test_fraction: float, rng: np.random.Generator | int
) -> tuple[ObservedMatrix, ObservedMatrix]:
    """Disjoint (train, test) partition of the observed entries, drawn from
    rng, a seed or Generator.

    The test part holds floor(test_fraction * |observed|) entries; both sides
    must end up non-empty.
    """
    test_fraction = _real(test_fraction, "test_fraction")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    n_test = int(test_fraction * obs.n_observed)
    if n_test == 0 or n_test == obs.n_observed:
        raise ValueError(
            f"split of {obs.n_observed} entries at fraction {test_fraction} "
            "leaves one side empty"
        )
    perm = np.random.default_rng(rng).permutation(obs.n_observed)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    make = lambda idx: ObservedMatrix(obs.m, obs.n, obs.rows[idx], obs.cols[idx], obs.values[idx])
    return make(train_idx), make(test_idx)


# ---------------------------------------------------------------------------
# Run persistence
# ---------------------------------------------------------------------------


def _has_type(value, hint) -> bool:
    """isinstance against a field's annotation. A bool is not an int (JSON
    true is not a count), and an int is a float."""
    if hint is int or hint is float:
        allowed = (int,) if hint is int else (int, float)
        return isinstance(value, allowed) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:  # a union such as float | None
        return any(_has_type(value, arg) for arg in args)
    return isinstance(value, hint)


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per class


def _check_fields(obj, what: str) -> None:
    """ValueError naming the first field of dataclass obj that _has_type refuses."""
    hints = _type_hints(type(obj))
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if type(value) is not hint and not _has_type(value, hint):
            raise ValueError(f"{what} field {f.name} must be {f.type}, got {value!r}")


def _read_fields(path, cls, what: str, extra=()) -> dict:
    """The JSON object in a file, keyed by dataclass cls's fields and extra; a
    ValueError naming the path refuses a non-object, a missing or unknown key."""
    with Path(path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object, got {type(payload).__name__}")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING
                for f in fields(cls)} | dict.fromkeys(extra, True)
    missing = [key for key, needed in required.items() if needed and key not in payload]
    if missing:
        raise ValueError(f"{path}: {what} lacks key(s) {', '.join(missing)}")
    unknown = sorted(set(payload) - set(required))
    if unknown:
        raise ValueError(f"{path}: {what} has unknown key(s) {', '.join(unknown)}")
    return payload


@dataclass
class RunRecord:
    """One benchmark cell: config, data descriptor, per-trial RMSEs, budget.

    rmse_mean and rmse_std are derived from rmse_trials: the arithmetic mean
    and the population standard deviation. epsilon may be infinite for the
    no-noise baseline.
    """

    dataset: str
    solver: str
    mechanism: str
    variance: float | None
    fraction: float
    rank: int
    rmse_trials: list[float]
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
        _check_fields(self, "record")
        _count(self.rank, "record field rank", 1)
        _count(self.seed, "record field seed", 0)
        if not self.rmse_trials:  # np.mean would warn and return nan
            raise ValueError("record field rmse_trials must not be empty")
        if not all(map(math.isfinite, self.rmse_trials)):
            raise ValueError(f"record field rmse_trials must be finite, got {self.rmse_trials!r}")
        # epsilon = inf is the budget of the no-noise baseline, whose variance is None
        for name in ("variance", "fraction", "epsilon", "delta", "wall_clock_sec"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value) and (name, value) != ("epsilon", math.inf):
                raise ValueError(f"record field {name} must be finite, got {value!r}")

    @property
    def rmse_mean(self) -> float:
        return float(np.mean(self.rmse_trials))

    @property
    def rmse_std(self) -> float:
        return float(np.std(self.rmse_trials))


def persist_run(record: RunRecord, path) -> None:
    """Write a RunRecord, its derived statistics too, as pretty-printed JSON."""
    payload = asdict(record)
    payload.update({key: getattr(record, key) for key in _DERIVED})
    if record.epsilon == math.inf:  # the one non-finite float a record holds
        payload["epsilon"] = "inf"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(path) -> RunRecord:
    """Read a RunRecord back; unknown schema versions raise, never misparse. A
    file _read_fields refuses (keys are read before the version), a field
    RunRecord refuses, and a stored rmse_mean or rmse_std its trials do not
    give raise ValueError naming the path."""
    payload = _read_fields(path, RunRecord, "record", _DERIVED)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record schema version {version!r} is not supported "
            f"(this code reads version {SCHEMA_VERSION})"
        )
    if payload["epsilon"] == "inf":
        payload["epsilon"] = math.inf
    stored = {key: payload.pop(key) for key in _DERIVED}
    try:
        record = RunRecord(**payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for key, value in stored.items():
        if not (_has_type(value, float)
                and math.isclose(value, getattr(record, key), rel_tol=0, abs_tol=1e-12)):
            raise ValueError(f"{path}: {key} {value!r} does not match its rmse_trials")
    return record


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
