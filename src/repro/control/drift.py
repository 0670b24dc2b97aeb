"""Pluggable drift detectors that decide *when* to re-tune.

A detector observes the monitor's :class:`~repro.control.monitor.WindowSnapshot`
stream and fires a re-tune signal when the traffic no longer resembles the
one the active configuration was tuned for.  Three families are built in:

* ``threshold`` — compares one or more window metrics against the baseline
  captured at the last re-tune; fires on a relative deviation beyond a
  threshold (SLO attainment is compared absolutely).
* ``page-hinkley`` — a two-sided Page–Hinkley / CUSUM-style cumulative test
  on one metric: small persistent shifts accumulate until the cumulative
  deviation from the running mean exceeds a threshold, catching slow drifts
  a static threshold misses.
* ``scheduled`` — fires at a fixed cadence regardless of the traffic
  (periodic re-tuning).

``null`` never fires — an adaptive run with a ``NullDriftDetector`` is
byte-identical to a static one (golden-tested).

Detectors are purely deterministic state machines over the snapshots they
observe; they carry no randomness of their own.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.control.monitor import WindowSnapshot
from repro.utils.ranges import AT_LEAST_1, NON_NEGATIVE, POSITIVE

__all__ = [
    "DRIFT_DETECTOR_NAMES",
    "DriftDetector",
    "NullDriftDetector",
    "ThresholdDriftDetector",
    "PageHinkleyDetector",
    "ScheduledDriftDetector",
    "build_drift_detector",
]

#: Detector names understood by :func:`build_drift_detector` (and the CLI).
DRIFT_DETECTOR_NAMES: Tuple[str, ...] = (
    "null",
    "threshold",
    "page-hinkley",
    "scheduled",
)

#: Snapshot attributes a metric-driven detector may watch.
_METRIC_NAMES: Tuple[str, ...] = (
    "arrival_rate_rps",
    "mean_input_scale",
    "latency_mean_seconds",
    "latency_p99_seconds",
    "queueing_mean_seconds",
    "mean_cost",
    "slo_attainment",
)


def _metric_value(snapshot: WindowSnapshot, metric: str) -> Optional[float]:
    if metric not in _METRIC_NAMES:
        raise KeyError(
            f"unknown drift metric {metric!r}; expected one of {', '.join(_METRIC_NAMES)}"
        )
    value = getattr(snapshot, metric)
    if value is None:
        return None
    value = float(value)
    if value != value:  # NaN: window empty on that side
        return None
    return value


class DriftDetector(abc.ABC):
    """Observes window snapshots and signals when a re-tune is warranted."""

    #: Short name used in reports and factory lookups.
    name: str = "detector"

    #: Whether :meth:`observe` reads the snapshot at all.  The controller
    #: skips building the (sorted, fully aggregated) window snapshot for
    #: detectors that declare ``False`` — a ``NullDriftDetector`` then adds
    #: zero per-completion cost to the serving hot path.
    requires_snapshot: bool = True

    @abc.abstractmethod
    def observe(self, snapshot: WindowSnapshot) -> Optional[str]:
        """Inspect one snapshot; a non-``None`` reason string signals drift."""

    def rebaseline(self, snapshot: WindowSnapshot) -> None:
        """Adopt ``snapshot`` as the new post-re-tune reference state."""

    def describe(self) -> str:
        """Human-readable one-liner."""
        return self.name


class NullDriftDetector(DriftDetector):
    """Never fires: the adaptive machinery idles and serving stays static."""

    name = "null"
    requires_snapshot = False

    def observe(self, snapshot: WindowSnapshot) -> Optional[str]:
        return None


class ThresholdDriftDetector(DriftDetector):
    """Relative deviation of watched metrics against the last baseline.

    Parameters
    ----------
    metrics:
        Snapshot attributes to watch.  The default watches the two traffic
        descriptors a re-tune can actually act on (arrival rate and input
        mix); add ``"slo_attainment"`` to also fire on attainment collapses
        whose traffic looks unchanged (compared absolutely, via
        ``attainment_drop``).
    relative_threshold:
        Fractional deviation from the baseline that counts as drift for
        ratio-scaled metrics (rate, scale, latency, cost).
    attainment_drop:
        Absolute drop in SLO attainment that counts as drift.
    """

    name = "threshold"

    def __init__(
        self,
        metrics: Tuple[str, ...] = ("arrival_rate_rps", "mean_input_scale"),
        relative_threshold: float = 0.3,
        attainment_drop: float = 0.1,
    ) -> None:
        if not metrics:
            raise ValueError("the threshold detector needs at least one metric")
        for metric in metrics:
            if metric not in _METRIC_NAMES:
                raise KeyError(
                    f"unknown drift metric {metric!r}; "
                    f"expected one of {', '.join(_METRIC_NAMES)}"
                )
        self.metrics = tuple(metrics)
        self.relative_threshold = float(POSITIVE.check(relative_threshold, "relative_threshold"))
        self.attainment_drop = float(POSITIVE.check(attainment_drop, "attainment_drop"))
        self._baseline: Dict[str, float] = {}

    def rebaseline(self, snapshot: WindowSnapshot) -> None:
        self._baseline = {}
        for metric in self.metrics:
            value = _metric_value(snapshot, metric)
            if value is not None:
                self._baseline[metric] = value

    def observe(self, snapshot: WindowSnapshot) -> Optional[str]:
        if not self._baseline:
            # First observation doubles as the baseline: drift is a change
            # *relative to what the active configuration was tuned under*.
            self.rebaseline(snapshot)
            return None
        for metric in self.metrics:
            value = _metric_value(snapshot, metric)
            reference = self._baseline.get(metric)
            if value is None or reference is None:
                continue
            if metric == "slo_attainment":
                if reference - value > self.attainment_drop:
                    return (
                        f"slo_attainment dropped {reference:.3f} -> {value:.3f}"
                    )
                continue
            scale = max(abs(reference), 1e-12)
            deviation = abs(value - reference) / scale
            if deviation > self.relative_threshold:
                return (
                    f"{metric} moved {reference:.4g} -> {value:.4g} "
                    f"({deviation * 100:.0f}% > {self.relative_threshold * 100:.0f}%)"
                )
        return None

    def describe(self) -> str:
        return (
            f"threshold({', '.join(self.metrics)} "
            f"@ ±{self.relative_threshold * 100:.0f}%)"
        )


class PageHinkleyDetector(DriftDetector):
    """Two-sided Page–Hinkley cumulative test on one window metric.

    Maintains the running mean of the observed metric and the cumulative sum
    of deviations from it (minus a drift-insensitivity margin ``delta``).  A
    persistent shift makes the cumulative sum run away from its historical
    extremum; when the gap exceeds ``threshold × baseline`` the detector
    fires.  The threshold scales with the baseline metric magnitude so one
    parametrisation works across metrics of very different units.
    """

    name = "page-hinkley"

    def __init__(
        self,
        metric: str = "arrival_rate_rps",
        delta: float = 0.02,
        threshold: float = 1.0,
        min_observations: int = 5,
    ) -> None:
        if metric not in _METRIC_NAMES:
            raise KeyError(
                f"unknown drift metric {metric!r}; "
                f"expected one of {', '.join(_METRIC_NAMES)}"
            )
        self.metric = metric
        self.delta = float(NON_NEGATIVE.check(delta, "delta"))
        self.threshold = float(POSITIVE.check(threshold, "threshold"))
        self.min_observations = int(AT_LEAST_1.check(min_observations, "min_observations"))
        self._reset()

    def _reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        # Two one-sided statistics: the margin is *subtracted* on the upward
        # accumulator and *added* on the downward one, so pure noise decays
        # both toward their extrema instead of drifting one of them.
        self._cum_up = 0.0
        self._min_cum_up = 0.0
        self._cum_down = 0.0
        self._max_cum_down = 0.0

    def rebaseline(self, snapshot: WindowSnapshot) -> None:
        self._reset()

    def observe(self, snapshot: WindowSnapshot) -> Optional[str]:
        value = _metric_value(snapshot, self.metric)
        if value is None:
            return None
        self._count += 1
        self._mean += (value - self._mean) / self._count
        margin = self.delta * max(abs(self._mean), 1e-12)
        deviation = value - self._mean
        self._cum_up += deviation - margin
        self._min_cum_up = min(self._min_cum_up, self._cum_up)
        self._cum_down += deviation + margin
        self._max_cum_down = max(self._max_cum_down, self._cum_down)
        if self._count < self.min_observations:
            return None
        limit = self.threshold * max(abs(self._mean), 1e-12)
        upward = self._cum_up - self._min_cum_up
        downward = self._max_cum_down - self._cum_down
        if upward > limit:
            return f"{self.metric} drifting upward (PH {upward:.4g} > {limit:.4g})"
        if downward > limit:
            return f"{self.metric} drifting downward (PH {downward:.4g} > {limit:.4g})"
        return None

    def describe(self) -> str:
        return f"page-hinkley({self.metric}, λ={self.threshold:g})"


class ScheduledDriftDetector(DriftDetector):
    """Fires at a fixed cadence of the event-loop clock (periodic re-tune)."""

    name = "scheduled"

    def __init__(self, interval_seconds: float = 120.0) -> None:
        self.interval_seconds = float(POSITIVE.check(interval_seconds, "interval_seconds"))
        self._next_fire = self.interval_seconds

    def rebaseline(self, snapshot: WindowSnapshot) -> None:
        self._next_fire = snapshot.time + self.interval_seconds

    def observe(self, snapshot: WindowSnapshot) -> Optional[str]:
        if snapshot.time >= self._next_fire:
            return f"scheduled re-tune (every {self.interval_seconds:g}s)"
        return None

    def describe(self) -> str:
        return f"scheduled(every {self.interval_seconds:g}s)"


def build_drift_detector(name: str, **options) -> DriftDetector:
    """Instantiate a drift detector by name (CLI / settings entry point)."""
    key = name.strip().lower()
    if key == "null":
        return NullDriftDetector()
    if key == "threshold":
        return ThresholdDriftDetector(**options)
    if key == "page-hinkley":
        return PageHinkleyDetector(**options)
    if key == "scheduled":
        return ScheduledDriftDetector(**options)
    raise KeyError(
        f"unknown drift detector {name!r}; "
        f"expected one of {', '.join(DRIFT_DETECTOR_NAMES)}"
    )
