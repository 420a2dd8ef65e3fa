"""Spans around the library's layers, recorded from the benchmark's side.

The recorder wraps public callables at the names their callers look up
(a module attribute or a class attribute), so the library itself is not
edited. Only calls made a few times per tick get a span. Calls made once
per frame or record (``SessionWriter.append_record``, iterating
``session.replay``) only add their busy time to a total, which is also
charged to the innermost open span as child time. Spans stay in memory
until ``Recorder.dump`` writes them out.

A span's self time is its duration minus the part of it covered by its
child spans, minus the busy time charged to it by per-record calls.
"""
from __future__ import annotations

import functools
import importlib
import json
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    child_busy: int = 0  # ns of per-record calls made directly inside this span


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    busy: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    broken: set[str] = field(default_factory=set)  # spans whose counters failed

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def add_busy(self, name: str, ns: int) -> None:
        self.busy[name] = self.busy.get(name, 0) + ns
        if self.stack:
            self.spans[self.stack[-1]].child_busy += ns

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_result(recorder, args, result)`` runs after the span closes,
        so counting the result costs no span time.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(Span(name, perf_counter_ns(), parent=parent))
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = perf_counter_ns()
                self.stack.pop()
            if on_result is not None:
                try:
                    on_result(self, args, result)
                except (TypeError, ValueError, AttributeError, IndexError):
                    self.broken.add(name)  # the result changed shape
            return result

        return wrapped

    def busy_timer(self, name: str, fn):
        """Wrap a per-record call: add its time to ``busy[name]``. An
        iterator result is timed item by item as the caller pulls it."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            self.add_busy(name, perf_counter_ns() - t0)
            if hasattr(result, "__next__"):
                return self._timed_iter(name, result)
            return result

        return wrapped

    def _timed_iter(self, name, it):
        while True:
            t0 = perf_counter_ns()
            try:
                item = next(it)
            except StopIteration:
                self.add_busy(name, perf_counter_ns() - t0)
                return
            self.add_busy(name, perf_counter_ns() - t0)
            yield item

    def dump(self, path) -> None:
        """Write the spans out as JSON: [name, start ns, end ns, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in self.spans], fh)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, summed duration and summed self time (ns)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out: dict[str, dict[str, int]] = {}
        for idx, span in enumerate(self.spans):
            agg = out.setdefault(span.name, {"calls": 0, "ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["ns"] += span.end - span.start
            agg["self_ns"] += self_time(span, children.get(idx, ()))
        return out


def union_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, child_intervals) -> int:
    """Span duration minus the union of its children minus per-record
    busy time charged to it."""
    covered = union_length(child_intervals, span.start, span.end)
    return span.end - span.start - covered - span.child_busy


def resolve(path: str):
    """Return (owner, attribute name) for 'pkg.module:Attr.sub', or None
    when any part of the path no longer exists."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Patches:
    """Installs wrappers and restores the originals on ``undo``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, path: str, make_wrapper) -> bool:
        """Replace the callable at ``path``; False when it does not exist."""
        target = resolve(path)
        if target is None:
            return False
        owner, leaf = target
        self._saved.append((owner, leaf, vars(owner).get(leaf, _INHERITED)))
        setattr(owner, leaf, make_wrapper(getattr(owner, leaf)))
        return True

    def undo(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._saved.clear()


_INHERITED = object()
