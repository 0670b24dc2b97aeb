"""Sliding-window estimators over the live request stream.

The closed control loop needs to know what the traffic *currently* looks
like — arrival rate, input-class mix, latency tail, SLO attainment, cost per
request — without replaying the whole run.  The
:class:`SlidingWindowMonitor` keeps deterministic sliding windows on the
event-loop clock: arrivals and completions are recorded as they happen,
entries older than the window are evicted by timestamp comparison alone, and
every statistic in a :class:`WindowSnapshot` is computed over records sorted
by a unique key (the request index for completions, ``(time, class, scale)``
for arrivals).  Sorting before aggregating makes the snapshot independent of
the order in which same-timestamp events were processed — the event loop's
insertion-order tie-break never leaks into the statistics the drift
detectors observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.execution.events import RequestArrival
from repro.execution.serving import ServedRequest
from repro.utils.stats import percentile
from repro.workflow.slo import SLO

__all__ = ["CompletionRecord", "WindowSnapshot", "SlidingWindowMonitor"]


@dataclass(frozen=True)
class CompletionRecord:
    """One completed request as the monitor sees it."""

    index: int
    completion_time: float
    latency_seconds: float
    queueing_seconds: float
    cost: float
    input_class: str
    input_scale: float
    succeeded: bool
    config_version: int

    @classmethod
    def from_outcome(cls, outcome: ServedRequest) -> "CompletionRecord":
        """Flatten a serving outcome into a monitor record."""
        return cls(
            index=outcome.index,
            completion_time=outcome.completion_time,
            latency_seconds=outcome.latency_seconds,
            queueing_seconds=outcome.queueing_delay,
            cost=outcome.cost,
            input_class=outcome.request.input_class,
            input_scale=outcome.request.input_scale,
            succeeded=outcome.succeeded,
            config_version=outcome.config_version,
        )


@dataclass(frozen=True)
class WindowSnapshot:
    """Deterministic summary of the monitor's current window.

    All mappings are stored as name-sorted tuples so snapshots are hashable,
    comparable and (for the cache-context signature) canonical.
    """

    time: float
    window_seconds: float
    arrival_count: int
    arrival_rate_rps: float
    completion_count: int
    latency_mean_seconds: float
    latency_p95_seconds: float
    latency_p99_seconds: float
    queueing_mean_seconds: float
    mean_cost: float
    slo_attainment: Optional[float]
    mean_input_scale: float
    #: Arrival-side input-class mix (name → weight), name-sorted.
    class_mix: Tuple[Tuple[str, float], ...]
    #: Mean observed input scale per class (name-sorted).
    class_scales: Tuple[Tuple[str, float], ...]
    #: Completions per configuration version (version-sorted).
    version_counts: Tuple[Tuple[int, int], ...]

    def mixture(self) -> List[Tuple[float, float]]:
        """The observed ``(input_scale, weight)`` mixture, scale-sorted.

        This is the traffic profile a re-tune optimises against: each
        arrival-side class weight paired with the class's mean observed
        scale.  Falls back to a single unit-scale component when the window
        holds no arrivals yet.
        """
        scales = dict(self.class_scales)
        components = [
            (scales.get(name, 1.0), weight)
            for name, weight in self.class_mix
            if weight > 0.0
        ]
        if not components:
            return [(self.mean_input_scale if self.mean_input_scale > 0 else 1.0, 1.0)]
        merged: Dict[float, float] = {}
        for scale, weight in components:
            merged[scale] = merged.get(scale, 0.0) + weight
        return sorted(merged.items())

    def signature(self, precision: int = 6) -> Tuple:
        """Canonical hashable tag of the observed traffic phase.

        Used as the :class:`~repro.execution.backend.CachingBackend` context
        during re-tunes, so evaluations aggregated under one phase's mix are
        never replayed for a phase with a different mix.
        """
        return (
            "phase",
            tuple(
                (name, round(weight, precision)) for name, weight in self.class_mix
            ),
            tuple(
                (name, round(scale, precision)) for name, scale in self.class_scales
            ),
        )


class SlidingWindowMonitor:
    """Deterministic sliding-window statistics on the event-loop clock.

    Parameters
    ----------
    window_seconds:
        Length of the trailing window both arrivals and completions are
        aggregated over.
    slo:
        Optional latency objective; when given, snapshots carry the window's
        SLO attainment.
    """

    def __init__(self, window_seconds: float = 60.0, slo: Optional[SLO] = None) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self.slo = slo
        self._arrivals: Deque[Tuple[float, str, float]] = deque()
        self._completions: Deque[CompletionRecord] = deque()
        # Most recent non-empty arrival-side mix, remembered so a snapshot
        # taken during an arrival lull (backlog still completing) reports
        # the last *observed* traffic mix instead of fabricating a default.
        self._last_mix: Optional[
            Tuple[Tuple[Tuple[str, float], ...], Tuple[Tuple[str, float], ...], float]
        ] = None

    # -- observation -------------------------------------------------------------
    def observe_arrival(self, now: float, request: RequestArrival) -> None:
        """Record one arrival at event-loop time ``now``."""
        self._arrivals.append((now, request.input_class, request.input_scale))

    def observe_completion(self, now: float, record: CompletionRecord) -> None:
        """Record one completion at event-loop time ``now``."""
        self._completions.append(record)
        self._evict(now)

    def _evict(self, now: float) -> None:
        """Drop entries that fell out of the window (timestamp-only test)."""
        horizon = now - self.window_seconds
        while self._arrivals and self._arrivals[0][0] < horizon:
            self._arrivals.popleft()
        while self._completions and self._completions[0].completion_time < horizon:
            self._completions.popleft()

    # -- snapshots ---------------------------------------------------------------
    @property
    def completion_count(self) -> int:
        """Completions currently inside the window."""
        return len(self._completions)

    def snapshot(self, now: float) -> WindowSnapshot:
        """Summarise the window ending at ``now``.

        Records are sorted by a unique key before any aggregation, so the
        result does not depend on the processing order of same-timestamp
        events (floating-point sums are evaluated in one canonical order).
        When the window currently holds no arrivals, the class mix and mean
        input scale of the last arrival-carrying snapshot are reported (the
        arrival *rate* is genuinely zero); only a monitor that never saw an
        arrival falls back to the unit-scale default.
        """
        self._evict(now)
        arrivals = sorted(self._arrivals)
        completions = sorted(self._completions, key=lambda r: r.index)

        arrival_count = len(arrivals)
        # Early in a run the window is not full yet; dividing by the nominal
        # window length would underestimate the rate and manufacture a
        # spurious upward "drift" as the window fills.
        effective_window = (
            min(self.window_seconds, now) if now > 0 else self.window_seconds
        )
        rate = arrival_count / effective_window
        mix: Dict[str, int] = {}
        scale_sums: Dict[str, float] = {}
        total_scale = 0.0
        for _, name, scale in arrivals:
            mix[name] = mix.get(name, 0) + 1
            scale_sums[name] = scale_sums.get(name, 0.0) + scale
            total_scale += scale
        if arrival_count:
            class_mix = tuple(
                (name, mix[name] / arrival_count) for name in sorted(mix)
            )
            class_scales = tuple(
                (name, scale_sums[name] / mix[name]) for name in sorted(mix)
            )
            mean_scale = total_scale / arrival_count
            self._last_mix = (class_mix, class_scales, mean_scale)
        elif self._last_mix is not None:
            # Arrival lull (e.g. an overload backlog draining): keep the
            # last observed mix rather than inventing a unit-scale default
            # the detectors would mistake for input drift.
            class_mix, class_scales, mean_scale = self._last_mix
        else:
            class_mix = ()
            class_scales = ()
            mean_scale = 1.0

        latencies = [record.latency_seconds for record in completions]
        completed = len(completions)
        attainment: Optional[float] = None
        if self.slo is not None and completed:
            attainment = (
                sum(
                    1
                    for record in completions
                    if record.succeeded and self.slo.is_met(record.latency_seconds)
                )
                / completed
            )
        version_counts: Dict[int, int] = {}
        for record in completions:
            version_counts[record.config_version] = (
                version_counts.get(record.config_version, 0) + 1
            )

        return WindowSnapshot(
            time=now,
            window_seconds=self.window_seconds,
            arrival_count=arrival_count,
            arrival_rate_rps=rate,
            completion_count=completed,
            latency_mean_seconds=(
                sum(latencies) / completed if completed else float("nan")
            ),
            latency_p95_seconds=percentile(latencies, 95),
            latency_p99_seconds=percentile(latencies, 99),
            queueing_mean_seconds=(
                sum(record.queueing_seconds for record in completions) / completed
                if completed
                else 0.0
            ),
            mean_cost=(
                sum(record.cost for record in completions) / completed
                if completed
                else float("nan")
            ),
            slo_attainment=attainment,
            mean_input_scale=mean_scale,
            class_mix=class_mix,
            class_scales=class_scales,
            version_counts=tuple(sorted(version_counts.items())),
        )
