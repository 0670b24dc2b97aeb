"""Discrete-event loop and the request record every serving engine consumes.

The serving layer (:mod:`repro.execution.serving`) drives request streams
through the :class:`EventLoop`; each :class:`RequestArrival` carries the
arrival time, input scale and input class the input-aware engine (paper
§IV-D, Fig. 8) dispatches on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

__all__ = ["EventLoop", "RequestArrival"]


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


class RequestArrival:
    """One request in a stream (immutable, ``__slots__``-backed).

    Million-request streams allocate one of these per arrival, so the class
    is a hand-written frozen record rather than a dataclass: ``__slots__``
    drops the per-instance ``__dict__`` (about 1.5x smaller, measured in
    ``benchmarks/results/BENCH_serving.json`` notes) and a dataclass cannot
    combine slots with field defaults before Python 3.10.

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
        if arrival_time < 0:
            raise ValueError("arrival_time cannot be negative")
        if input_scale <= 0:
            raise ValueError("input_scale must be positive")
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
