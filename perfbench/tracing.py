"""Span tracing of the program's layers, done entirely from the benchmark.

The program's source is never edited: :class:`Tracer` replaces public
methods and module-level functions with timing wrappers while a traced
iteration runs and restores the originals afterwards.  Each wrapped call
records one span ``(name, start, end, parent)`` in memory; the parent is
the innermost span open when the call started (the program is
single-threaded, so one stack suffices).  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

# Per-call percentiles are reported only when a layer makes at least this
# many calls in one iteration (so the 99th percentile has ten calls beyond
# it); below that the value is 0.
MIN_CALLS_FOR_PERCENTILES = 1000


class Tracer:
    """Wraps callables with span recorders and derives per-layer figures."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[List[float]] = []  # [name_id, start, end, parent]
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        # (owner, attribute, original, wrapper)
        self._wrapped: List[Tuple[object, str, object, Callable]] = []
        self._gc_start = 0.0
        self.gc_collections = 0
        self.gc_seconds = 0.0

    # -- installation ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _register(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._wrapped.append((owner, attr, owner.__dict__[attr], wrapper))

    def time_calls(
        self,
        owner: object,
        attr: str,
        name: str,
        collapse: bool = False,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr`` while active.

        ``collapse`` records no new span when the innermost open span has
        the same name, so a decorator stack (a caching backend over a
        simulator backend) counts as one call into the layer.
        ``on_result`` sees each return value, for counts the layer returns.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if collapse and stack and spans[stack[-1]][0] == name_id:
                return original(*args, **kwargs)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        self._register(owner, attr, traced)

    def count_calls(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (while active) without timing them."""
        original = owner.__dict__[attr]
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        self._register(owner, attr, counted)

    def add(self, name: str, amount: int) -> None:
        """Add to a named count (used by ``on_result`` hooks)."""
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_seconds += time.perf_counter() - self._gc_start

    def activate(self) -> None:
        """Put every registered wrapper in place and time garbage collection."""
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def deactivate(self) -> None:
        """Restore the original callables and detach the GC callback."""
        for owner, attr, original, _ in reversed(self._wrapped):
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- per-iteration bookkeeping ---------------------------------------------
    def reset(self) -> None:
        """Forget the spans and counts of the previous iteration."""
        self.spans.clear()
        self._stack.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.gc_collections = 0
        self.gc_seconds = 0.0

    def layer_figures(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds, and
        per-call p50/p99 in microseconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            parent = int(span[3])
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        durations: Dict[int, List[float]] = {}
        self_time: Dict[int, float] = {}
        for index, span in enumerate(self.spans):
            name_id = int(span[0])
            duration = span[2] - span[1]
            durations.setdefault(name_id, []).append(duration)
            self_time[name_id] = self_time.get(name_id, 0.0) + duration - child_time[index]
        figures: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            values = durations.get(name_id, [])
            p50 = p99 = 0.0
            if len(values) >= MIN_CALLS_FOR_PERCENTILES:
                cuts = statistics.quantiles(values, n=100, method="inclusive")
                p50, p99 = cuts[49] * 1e6, cuts[98] * 1e6
            figures[name] = {
                "calls": len(values),
                "busy_s": sum(values),
                "self_s": self_time.get(name_id, 0.0),
                "p50_us": p50,
                "p99_us": p99,
            }
        return figures

    def write_spans(self, path: str) -> None:
        """Write the current spans as JSON lines (id, name, start, end, parent)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": self.names[int(name_id)],
                            "start": start - origin,
                            "end": end - origin,
                            "parent": int(parent),
                        }
                    )
                    + "\n"
                )
