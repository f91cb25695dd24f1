"""In-memory spans around calls into the library, and their self time.

A span is (name, start, end, parent, estimate): the name of the wrapped
call, its start and end in nanoseconds of ``time.perf_counter_ns``, the
index of the span that was open when it started (-1 for none), and the id
of the request it belongs to. Spans are appended to flat arrays while the
traced phase runs and written to a file once, when the benchmark ends.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

Hook = Callable[[tuple, dict, Any], None]


@dataclass(frozen=True)
class Patch:
    """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper.

    ``hook(args, kwargs, result)`` runs inside the span after a successful
    call, to record counts where the work happens.
    """

    owner: Any
    attr: str
    span: str
    hook: Hook | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.estimate = array("i")
        self.counts: Counter[str] = Counter()
        self.current_estimate = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn: Callable, hook: Hook | None = None) -> Callable:
        nid = self.name_id(span)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.estimate.append(self.current_estimate)
            self.end.append(0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def patched(self, patches: list[Patch]) -> Iterator[None]:
        """Install the traced wrappers for the duration of the block, then restore."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for p in patches:
                original = getattr(p.owner, p.attr)
                saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self.wrap(p.span, original, p.hook))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            estimate=np.frombuffer(self.estimate, dtype=np.int32),
        )


def self_times(start: list[int], end: list[int], parent: list[int]) -> list[int]:
    """Each span's duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        run_start = run_end = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


@dataclass
class SpanTotals:
    """Per span name: number of calls, summed self time and summed duration (ns)."""

    calls: Counter[str]
    self_ns: Counter[str]
    total_ns: Counter[str]


def totals_by_name(tracer: Tracer) -> SpanTotals:
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals = SpanTotals(Counter(), Counter(), Counter())
    for nid, s, e, own in zip(tracer.name, tracer.start, tracer.end, selfs):
        name = tracer.names[nid]
        totals.calls[name] += 1
        totals.self_ns[name] += own
        totals.total_ns[name] += e - s
    return totals
