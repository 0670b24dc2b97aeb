"""Discrete-event loop and the request streams every serving engine consumes.

The serving layer (:mod:`repro.execution.serving`) drives request streams
through the :class:`EventLoop`, replaying each dispatched request as a
:class:`Launch`; each :class:`RequestArrival` carries the arrival time,
input scale and input class the input-aware engine (paper §IV-D, Fig. 8)
dispatches on.  An :class:`ArrivalBatch` is the same stream as columns,
which the batched engine serves without a record per request.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workflow.dag import WorkflowPlan

__all__ = ["ArrivalBatch", "EventLoop", "Launch", "RequestArrival"]

_INF = float("inf")


class EventLoop:
    """A minimal discrete-event queue (timestamp-ordered callbacks)."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule(self, timestamp: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at ``timestamp``."""
        if timestamp < self._now - 1e-9:
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._queue, (float(timestamp), next(self._counter), callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        self.schedule(self._now + delay, callback)

    def run(self, until: Optional[float] = None) -> int:
        """Process events in timestamp order; returns the number processed."""
        processed = 0
        while self._queue:
            timestamp, _, callback = self._queue[0]
            if until is not None and timestamp > until:
                break
            heapq.heappop(self._queue)
            self._now = timestamp
            callback()
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed

    def __len__(self) -> int:
        return len(self._queue)


class Launch:
    """One incarnation of one request walking its workflow on an event loop.

    :meth:`begin` schedules the plan's roots at the dispatch time as
    ``partial(launch.start, k, time)``; a subclass's :meth:`start` replays
    function ``k`` and reports its end through :meth:`_finish`, which starts
    each successor once its last predecessor is done and calls
    :meth:`_complete` after the last function.

    Every event is a ``functools.partial`` of a bound method, and a launch
    never stores one, so nothing a launch allocates refers back to it:
    reference counting frees it as its last event fires, leaving the cyclic
    garbage collector nothing to do per request.  A subclass must keep it
    that way, which ``tests/execution/test_launch_garbage.py`` checks.
    """

    __slots__ = ("loop", "plan", "dispatch_time", "ready", "waiting", "remaining", "completion")

    def __init__(self, loop: EventLoop, plan: WorkflowPlan, dispatch_time: float) -> None:
        self.loop = loop
        self.plan = plan
        self.dispatch_time = dispatch_time
        # A function starts at the latest of the dispatch and its
        # predecessors' ends; ``waiting`` counts its unfinished predecessors.
        self.ready = [dispatch_time] * len(plan.names)
        self.waiting = list(map(len, plan.preds))
        self.remaining = len(plan.names)
        self.completion = dispatch_time

    def begin(self) -> None:
        """Schedule the plan's roots at the dispatch time."""
        for k in self.plan.roots:
            self.loop.schedule(self.dispatch_time, partial(self.start, k, self.dispatch_time))

    def start(self, k: int, start: float) -> None:
        raise NotImplementedError

    def _complete(self) -> None:
        raise NotImplementedError

    def _finish(self, k: int, end: float) -> None:
        self.completion = max(self.completion, end)
        self.remaining -= 1
        if self.remaining == 0:
            self._complete()
            return
        ready, waiting = self.ready, self.waiting
        for successor in self.plan.succs[k]:
            if end > ready[successor]:
                ready[successor] = end
            waiting[successor] -= 1
            if waiting[successor] == 0:
                start = ready[successor]
                self.loop.schedule(start, partial(self.start, successor, start))


class RequestArrival:
    """One request in a stream (immutable, ``__slots__``-backed).

    The event loop's streams hold one of these per arrival, so the class
    is a hand-written frozen record rather than a dataclass: ``__slots__``
    drops the per-instance ``__dict__`` (about 1.5x smaller) and a
    dataclass cannot combine slots with field defaults before Python 3.10.

    Attributes
    ----------
    arrival_time:
        Simulated time at which the request arrives.
    input_scale:
        Relative input size of the request.
    input_class:
        Label such as ``"light"`` / ``"middle"`` / ``"heavy"`` used by the
        input-aware engine and by reporting.
    """

    __slots__ = ("arrival_time", "input_scale", "input_class")

    def __init__(
        self,
        arrival_time: float,
        input_scale: float = 1.0,
        input_class: str = "default",
    ) -> None:
        # One chained comparison per field (NaN fails both): million-request
        # streams build one record per arrival.
        if not 0.0 <= arrival_time < _INF:
            raise ValueError("arrival_time must be finite and non-negative")
        if not 0.0 < input_scale < _INF:
            raise ValueError("input_scale must be positive and finite")
        object.__setattr__(self, "arrival_time", arrival_time)
        object.__setattr__(self, "input_scale", input_scale)
        object.__setattr__(self, "input_class", input_class)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RequestArrival is immutable")

    def __repr__(self) -> str:
        return (
            f"RequestArrival(arrival_time={self.arrival_time!r}, "
            f"input_scale={self.input_scale!r}, input_class={self.input_class!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestArrival):
            return NotImplemented
        return (
            self.arrival_time == other.arrival_time
            and self.input_scale == other.input_scale
            and self.input_class == other.input_class
        )

    def __hash__(self) -> int:
        return hash((self.arrival_time, self.input_scale, self.input_class))

    def __getstate__(self):
        return (self.arrival_time, self.input_scale, self.input_class)

    def __setstate__(self, state) -> None:
        arrival_time, input_scale, input_class = state
        object.__setattr__(self, "arrival_time", arrival_time)
        object.__setattr__(self, "input_scale", input_scale)
        object.__setattr__(self, "input_class", input_class)


@dataclass
class ArrivalBatch:
    """Columnar request stream: the array twin of a ``RequestArrival`` list.

    ``times``/``scales`` are float64 arrays, ``class_ids`` indexes into
    ``class_names`` per arrival.  ``to_requests`` materializes the exact
    ``RequestArrival`` objects the scalar generator would produce and
    ``from_requests`` reads records back into columns, so the two
    representations are interchangeable anywhere determinism matters.
    """

    times: np.ndarray
    scales: np.ndarray
    class_ids: np.ndarray
    class_names: List[str]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.scales = np.asarray(self.scales, dtype=np.float64)
        self.class_ids = np.asarray(self.class_ids, dtype=np.intp)
        self.class_names = list(self.class_names)

    @classmethod
    def from_requests(cls, requests: Sequence[RequestArrival]) -> "ArrivalBatch":
        """The columns of a list of records, class codes in first-arrival order."""
        count = len(requests)
        codes: Dict[str, int] = {}
        return cls(
            np.fromiter((r.arrival_time for r in requests), np.float64, count),
            np.fromiter((r.input_scale for r in requests), np.float64, count),
            np.fromiter(
                (codes.setdefault(r.input_class, len(codes)) for r in requests),
                np.intp,
                count,
            ),
            list(codes),
        )

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def take(self, rows: np.ndarray) -> "ArrivalBatch":
        """The requests ``rows`` selects, as a batch."""
        return ArrivalBatch(
            self.times[rows], self.scales[rows], self.class_ids[rows], self.class_names
        )

    def to_requests(
        self, rows: Union[slice, np.ndarray] = slice(None)
    ) -> List[RequestArrival]:
        """Materialize the scalar-equivalent records of ``rows`` (all by default)."""
        names = self.class_names
        return [
            RequestArrival(
                arrival_time=time, input_scale=scale, input_class=names[class_id]
            )
            for time, scale, class_id in zip(
                self.times[rows].tolist(),
                self.scales[rows].tolist(),
                self.class_ids[rows].tolist(),
            )
        ]

    def class_counts(self) -> Dict[str, int]:
        """Requests per class name, in first-arrival order."""
        codes, first, counts = np.unique(
            self.class_ids, return_index=True, return_counts=True
        )
        totals: Dict[str, int] = {}
        for k in np.argsort(first).tolist():
            name = self.class_names[int(codes[k])]
            totals[name] = totals.get(name, 0) + int(counts[k])
        return totals
