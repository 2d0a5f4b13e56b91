"""In-memory span recorder that wraps the program's public functions.

The benchmark never edits the program. It replaces a function at the name
its callers resolve (``wppsc.analysis.solve_equilibrium``, a method on
``SystemModel``, ...) with a wrapper that records one span per call: name,
start, end, parent span and scope. A scope groups the spans of one scenario;
wrappers marked ``new_scope`` open a fresh scope, every other span inherits
its parent's. Spans stay in memory until ``write_csv`` at the end of the run.
"""

from __future__ import annotations

import csv
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    scope: int
    value: Optional[float] = None  # per-call figure read off the result

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[list] = []  # span fields, filled in as calls return
        self._stack: list[int] = []
        self._next_scope = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, new_scope: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_scope or parent < 0:
            scope = self._next_scope
            self._next_scope += 1
        else:
            scope = self._open[parent][4]
        idx = len(self._open)
        self._open.append([name, perf_counter(), 0.0, parent, scope, None])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, value: Optional[float]) -> None:
        rec = self._open[idx]
        rec[2] = perf_counter()
        rec[5] = value
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_scope: bool = False) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        idx = self._enter(name, new_scope)
        try:
            yield
        finally:
            self._exit(idx, None)

    def wrap(
        self,
        fn: Callable,
        name: str,
        new_scope: bool = False,
        value: Optional[Callable[[object], float]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name, new_scope)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, value(result) if value is not None and result is not None else None)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, new_scope: bool = False,
              value: Optional[Callable[[object], float]] = None) -> None:
        """Replace owner.attr by a traced wrapper until ``unpatch_all``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, new_scope, value))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def finish(self) -> list[Span]:
        """Freeze the recorded spans; every span must have closed."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        self.spans = [Span(*rec) for rec in self._open]
        return self.spans

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("id", "name", "start", "end", "parent", "scope", "value"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s.name, repr(s.start), repr(s.end), s.parent, s.scope,
                              "" if s.value is None else repr(s.value)))


# -- span-tree arithmetic ----------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - _covered(kids, s.start, s.end) if kids else s.duration
        for s, kids in zip(spans, children)
    ]


def nearest_ancestor(spans: Sequence[Span], names: frozenset[str]) -> list[int]:
    """For each span, the index of its closest ancestor whose name is in
    ``names`` (-1 if none). Parents always precede their children."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            out[i] = p if spans[p].name in names else out[p]
    return out
