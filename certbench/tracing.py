"""In-memory span tracer for wrapping a program's functions from outside it.

Each wrapped call records one span: its name, start, end and the span that
was open when it started (its parent).  Spans stay in compact arrays until
``summary`` turns them into per-name call counts and self times, so the
traced run does no formatting or output while it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array


class Tracer:
    """Collects spans and counters; undoes its patches on ``restore``."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self.warnings: list[str] = []

    # -- spans and counters --------------------------------------------------

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        clock = self._clock
        name_ids, parents, starts, ends = self._name_ids, self._parents, self._starts, self._ends
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"certbench: warning: {message}", file=sys.stderr)

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """setattr(owner, attr, replacement), remembered for ``restore``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds.

        A span's self time is its duration minus the durations of the spans
        it directly caused; those children are disjoint sub-intervals because
        the program is single-threaded, so self times add up to traced time.
        """
        starts, ends, parents, name_ids = self._starts, self._ends, self._parents, self._name_ids
        child_time = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self._names}
        for i, nid in enumerate(name_ids):
            rec = out[self._names[nid]]
            rec["calls"] += 1
            rec["self_s"] += ends[i] - starts[i] - child_time[i]
        return out
