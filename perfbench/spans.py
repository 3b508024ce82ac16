"""In-memory spans around the calls the benchmark makes into each layer.

Tracing lives in the benchmark only: `Tracer.patch` swaps a module attribute
for a wrapper that records a span (name, start, end, parent) and restores the
original on exit, so the program under test is unchanged. Solver runs also
get a `SolveTimeline` as their public ``history=`` list; it timestamps each
append, which splits every sweep into the U half, the noise window and the V
half.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

clock = time.perf_counter


class SolveTimeline(list):
    """History list for one solver run.

    The solver appends after every half-sweep, U half first. Objective
    starts (which end each half) and mechanism draws are reported by the
    tracer's wrappers while this timeline is active.
    """

    def __init__(self, start: float):
        super().__init__()
        self.start = start
        self.marks: list[float] = []
        self.objective_starts: list[float] = []
        self.noise_ends: list[float | None] = []
        self.u_half_values = 0
        self.end = math.nan
        self.info: dict = {}

    @property
    def in_u_half(self) -> bool:
        return len(self.marks) % 2 == 0

    def append(self, value):
        self.marks.append(clock())
        if not self.in_u_half:
            self.noise_ends.append(None)
        super().append(value)

    def on_draw(self, end: float, values: int):
        if self.in_u_half:
            self.u_half_values += values
        else:
            self.noise_ends[-1] = end

    def halves(self) -> list[tuple[float, float, float, bool]]:
        """(u_half, noise_window, v_half, drew_noise) seconds per sweep.

        The noise window runs from the end of the U half's objective to the
        end of the sweep's last mechanism draw, so it includes per-column
        stream construction; objective spans are left out of both halves.
        """
        out = []
        for s in range(len(self.marks) // 2):
            sweep_start = self.start if s == 0 else self.marks[2 * s - 1]
            u_end = self.objective_starts[2 * s]
            v_start = self.marks[2 * s]
            v_end = self.objective_starts[2 * s + 1]
            noise_end = self.noise_ends[s]
            drew = noise_end is not None
            if not drew:
                noise_end = v_start
            out.append((u_end - sweep_start, noise_end - v_start, v_end - noise_end, drew))
        return out


class Tracer:
    """Spans kept in flat arrays; `parent` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.timelines: list[SolveTimeline] = []
        self.timeline: SolveTimeline | None = None

    def count(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> float:
        t = clock()
        self.end[idx] = t
        self._stack.pop()
        return t

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(result, args, kwargs, end) runs on
        return. A call made inside a span of the same name gets no span of
        its own, so layers that call themselves are not counted twice."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self.names[self.name_id[self._stack[-1]]] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._close(idx)
            if after is not None:
                after(result, args, kwargs, end)
            return result

        return traced

    def wrap_solver(self, fn, describe):
        """A solver run in an `lrmc.solve` span with a SolveTimeline as its
        history; describe(*args, **kwargs) fills the timeline's info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self.timeline
            idx = self._open("lrmc.solve")
            timeline = self.timeline = SolveTimeline(self.start[idx])
            timeline.info = describe(*args, **kwargs)
            try:
                return fn(*args, history=timeline, **kwargs)
            finally:
                timeline.end = self._close(idx)
                self.timeline = outer
                self.timelines.append(timeline)

        return traced

    def wrap_objective(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.timeline is not None:
                self.timeline.objective_starts.append(clock())
            with self.span("lrmc.objective"):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(self, replacements):
        """Temporarily set module attributes: replacements is a list of
        (module, attribute, wrapper_factory); the factory gets the original."""
        saved = []
        try:
            for module, attr, factory in replacements:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, factory(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=float),
            np.frombuffer(self.end, dtype=float),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        name_id, start, end, parent = self.arrays()
        calls, total, own = self_times(name_id, start, end, parent, len(self.names))
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """Spans as .npz: name index, start, end, parent, plus the names."""
        name_id, start, end, parent = self.arrays()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), name_id=name_id,
                 start=start, end=end, parent=parent)


def self_times(name_id, start, end, parent, num_names):
    """Per-name call count, total time and self time.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child_time
    calls = np.bincount(name_id, minlength=num_names)
    total = np.bincount(name_id, weights=dur, minlength=num_names)
    self_total = np.bincount(name_id, weights=own, minlength=num_names)
    return calls, total, self_total


def median_ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0
