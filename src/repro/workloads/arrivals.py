"""Pluggable arrival processes and traffic models for the serving layer.

A serving experiment needs two things a search experiment does not: *when*
requests arrive and *what* each request carries.  An :class:`ArrivalProcess`
generates arrival timestamps over a duration; a :class:`TrafficModel` pairs
one with a mix of input classes and emits the
:class:`~repro.execution.events.RequestArrival` stream the
:class:`~repro.execution.serving.ServingSimulator` consumes.  All randomness
flows through :class:`~repro.utils.rng.RngStream` children, so a traffic
model is bit-reproducible under a fixed seed.

Five processes are built in:

* ``constant`` — evenly spaced arrivals at a fixed rate.
* ``poisson`` — memoryless arrivals (exponential gaps).
* ``bursty`` — a two-state on/off modulated Poisson process: calm traffic at
  the base rate, bursts at a multiple of it, exponential state holding times.
* ``diurnal`` — a non-homogeneous Poisson process whose rate follows a
  sinusoidal day/night cycle (generated by thinning).
* ``trace`` — replay of explicit arrival timestamps (e.g. from a production
  log).
* ``replay`` — Azure-Functions-style replay of per-bin invocation *counts*
  (e.g. the per-minute columns of the Azure Functions trace): timestamps are
  reconstructed deterministically by spreading each bin's count evenly
  across the bin, so replaying and re-binning round-trips the counts
  exactly.
"""

from __future__ import annotations

import abc
import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.execution.events import ArrivalBatch, RequestArrival
from repro.utils.ranges import (
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    Range,
    check_fields,
)
from repro.utils.rng import RngStream
from repro.workloads.inputs import InputClass

__all__ = [
    "ARRIVAL_NAMES",
    "ArrivalBatch",
    "ArrivalProcess",
    "ConstantRateArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "ReplayArrivals",
    "TrafficProfile",
    "TrafficModel",
    "TrafficPhase",
    "DriftingTrafficModel",
    "build_arrival_process",
    "load_trace_times",
    "load_invocation_counts",
    "merge_request_streams",
]

#: Process names understood by :func:`build_arrival_process` (and the CLI).
ARRIVAL_NAMES = ("constant", "poisson", "bursty", "diurnal", "trace", "replay")

#: Catch-all class used when a workload defines no input classes.
DEFAULT_INPUT_CLASS = InputClass(
    name="default", scale=1.0, max_scale=float("inf"), description="standard input"
)

#: Diurnal swing around the mean rate; below 1, so the rate stays positive.
_AMPLITUDE = Range(0.0, 1.0, hi_open=True)


def _exponential_run(
    generator: np.random.Generator,
    scale: float,
    start: float,
    limit: float,
    chunk: int = 4096,
) -> np.ndarray:
    """Cumulative exponential arrivals from ``start``, strictly below ``limit``.

    Vectorized twin of the scalar loop ``t += gen.exponential(scale)``:
    gaps are drawn in chunks and accumulated with ``np.cumsum`` (both are
    bit-identical to per-draw arithmetic), and once a chunk crosses
    ``limit`` the generator state is rewound and exactly the consumed
    number of gaps is redrawn.  That leaves ``generator`` in precisely the
    state the scalar loop would — the crossing draw consumed, nothing
    after it — which matters when the same stream supplies later draws
    (e.g. the bursty process's state-holding times).
    """
    parts: List[np.ndarray] = []
    t = float(start)
    size = max(16, int(chunk))
    while True:
        state = generator.bit_generator.state
        gaps = generator.exponential(scale, size=size)
        cumulative = np.cumsum(np.concatenate(([t], gaps)))[1:]
        if cumulative[-1] < limit:
            # Whole chunk is below the horizon: keep it and keep going.
            parts.append(cumulative)
            t = float(cumulative[-1])
            size *= 2
            continue
        # First index at or past the horizon ends the run; rewind and
        # replay exactly the draws the scalar loop would have consumed.
        crossing = int(np.searchsorted(cumulative, limit, side="left"))
        generator.bit_generator.state = state
        gaps = generator.exponential(scale, size=crossing + 1)
        cumulative = np.cumsum(np.concatenate(([t], gaps)))[1:]
        parts.append(cumulative[:crossing])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


class ArrivalProcess(abc.ABC):
    """Generates request arrival timestamps over a time horizon."""

    #: Short name used in reports and factory lookups.
    name: str = "arrival"

    @abc.abstractmethod
    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        """Strictly increasing-or-equal timestamps in ``[0, duration)``."""

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        """Vectorized :meth:`arrival_times`: same values, same rng draws.

        Subclasses override this with an array fast path; the contract —
        element-wise identical timestamps *and* identical generator state
        afterwards — is enforced by the arrival property tests.  The base
        implementation simply wraps the scalar loop.
        """
        return np.asarray(
            self.arrival_times(duration_seconds, rng), dtype=np.float64
        )

    @staticmethod
    def _check_duration(duration_seconds: float) -> float:
        return float(POSITIVE.check(duration_seconds, "duration_seconds"))

    @staticmethod
    def _require_rng(rng: Optional[RngStream], name: str) -> RngStream:
        if rng is None:
            raise ValueError(f"the {name!r} arrival process requires an rng")
        return rng

    def describe(self) -> str:
        """Human-readable one-liner."""
        return self.name


class ConstantRateArrivals(ArrivalProcess):
    """Evenly spaced arrivals: one request every ``1/rate`` seconds."""

    name = "constant"

    def __init__(self, rate_rps: float) -> None:
        self.rate_rps = float(POSITIVE.check(rate_rps, "rate_rps"))

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        gap = 1.0 / self.rate_rps
        times: List[float] = []
        index = 0
        while index * gap < duration:
            times.append(index * gap)
            index += 1
        return times

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        gap = 1.0 / self.rate_rps
        # index * gap per element is the exact arithmetic of the scalar
        # loop; the candidate count only needs to over-cover the horizon
        # because the predicate below decides membership.
        count = int(duration * self.rate_rps) + 2
        while (count - 1) * gap < duration:
            count *= 2
        times = np.arange(count, dtype=np.float64) * gap
        return times[times < duration]

    def describe(self) -> str:
        return f"constant @ {self.rate_rps:g} rps"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with exponential inter-arrival gaps."""

    name = "poisson"

    def __init__(self, rate_rps: float) -> None:
        self.rate_rps = float(POSITIVE.check(rate_rps, "rate_rps"))

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        times: List[float] = []
        t = stream.exponential(1.0 / self.rate_rps)
        while t < duration:
            times.append(t)
            t += stream.exponential(1.0 / self.rate_rps)
        return times

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        expected = int(duration * self.rate_rps) + 16
        return _exponential_run(
            stream.generator, 1.0 / self.rate_rps, 0.0, duration, chunk=expected
        )

    def describe(self) -> str:
        return f"poisson @ {self.rate_rps:g} rps"


class BurstyArrivals(ArrivalProcess):
    """Two-state on/off modulated Poisson process.

    Traffic alternates between a *calm* state at ``base_rate_rps`` and a
    *burst* state at ``base_rate_rps × burst_multiplier``; state holding
    times are exponential with the given means.  The process starts calm.
    """

    name = "bursty"

    def __init__(
        self,
        base_rate_rps: float,
        burst_multiplier: float = 4.0,
        mean_calm_seconds: float = 120.0,
        mean_burst_seconds: float = 30.0,
    ) -> None:
        self.base_rate_rps = float(POSITIVE.check(base_rate_rps, "base_rate_rps"))
        self.burst_multiplier = float(AT_LEAST_1.check(burst_multiplier, "burst_multiplier"))
        self.mean_calm_seconds = float(POSITIVE.check(mean_calm_seconds, "mean_calm_seconds"))
        self.mean_burst_seconds = float(POSITIVE.check(mean_burst_seconds, "mean_burst_seconds"))

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        times: List[float] = []
        t = 0.0
        burst = False
        while t < duration:
            rate = self.base_rate_rps * (self.burst_multiplier if burst else 1.0)
            hold = stream.exponential(
                self.mean_burst_seconds if burst else self.mean_calm_seconds
            )
            state_end = min(t + hold, duration)
            arrival = t + stream.exponential(1.0 / rate)
            while arrival < state_end:
                times.append(arrival)
                arrival += stream.exponential(1.0 / rate)
            t = state_end
            burst = not burst
        return times

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        generator = stream.generator
        parts: List[np.ndarray] = []
        t = 0.0
        burst = False
        # The hold draw and the gap draws interleave on one stream, so each
        # state's gap run must consume *exactly* the scalar draw count —
        # which _exponential_run guarantees by rewind-and-replay.
        while t < duration:
            rate = self.base_rate_rps * (self.burst_multiplier if burst else 1.0)
            hold = float(
                generator.exponential(
                    self.mean_burst_seconds if burst else self.mean_calm_seconds
                )
            )
            state_end = min(t + hold, duration)
            expected = int((state_end - t) * rate) + 16
            parts.append(
                _exponential_run(generator, 1.0 / rate, t, state_end, chunk=expected)
            )
            t = state_end
            burst = not burst
        return (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )

    def describe(self) -> str:
        return (
            f"bursty @ {self.base_rate_rps:g}–"
            f"{self.base_rate_rps * self.burst_multiplier:g} rps"
        )


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night cycle: rate(t) = mean × (1 + amplitude·sin).

    Generated by thinning a homogeneous Poisson process at the peak rate, the
    standard exact method for non-homogeneous Poisson processes.
    """

    name = "diurnal"

    def __init__(
        self,
        mean_rate_rps: float,
        amplitude: float = 0.6,
        period_seconds: float = 86400.0,
        phase_seconds: float = 0.0,
    ) -> None:
        self.mean_rate_rps = float(POSITIVE.check(mean_rate_rps, "mean_rate_rps"))
        self.amplitude = float(_AMPLITUDE.check(amplitude, "amplitude"))
        self.period_seconds = float(POSITIVE.check(period_seconds, "period_seconds"))
        self.phase_seconds = float(FINITE.check(phase_seconds, "phase_seconds"))

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        angle = 2.0 * math.pi * (t + self.phase_seconds) / self.period_seconds
        return self.mean_rate_rps * (1.0 + self.amplitude * math.sin(angle))

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        peak = self.mean_rate_rps * (1.0 + self.amplitude)
        times: List[float] = []
        t = stream.exponential(1.0 / peak)
        while t < duration:
            if stream.uniform() * peak <= self.rate_at(t):
                times.append(t)
            t += stream.exponential(1.0 / peak)
        return times

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        stream = self._require_rng(rng, self.name)
        # Thinning strictly alternates uniform and exponential draws on one
        # stream, and the exponential's ziggurat consumes a variable number
        # of raw words per draw — so there is no block-batched draw order
        # that reproduces the scalar stream.  Keep the scalar draw order on
        # the raw generator (skipping the per-draw wrapper overhead) so the
        # array path stays bit-identical.
        generator = stream.generator
        exponential = generator.exponential
        uniform = generator.uniform
        rate_at = self.rate_at
        peak = self.mean_rate_rps * (1.0 + self.amplitude)
        scale = 1.0 / peak
        times: List[float] = []
        append = times.append
        t = float(exponential(scale))
        while t < duration:
            if float(uniform(0.0, 1.0)) * peak <= rate_at(t):
                append(t)
            t += float(exponential(scale))
        return np.asarray(times, dtype=np.float64)

    def describe(self) -> str:
        return (
            f"diurnal @ {self.mean_rate_rps:g} rps ±{self.amplitude * 100:.0f}% "
            f"(period {self.period_seconds:g}s)"
        )


class TraceArrivals(ArrivalProcess):
    """Replay explicit arrival timestamps (clipped to the duration)."""

    name = "trace"

    def __init__(self, times: Sequence[float]) -> None:
        times = [float(t) for t in times]
        if not times:
            raise ValueError("a trace needs at least one arrival")
        # Check finiteness first: NaN fails every ``<`` comparison, so the
        # negativity and monotonicity validators below would silently wave a
        # corrupt trace through.
        if any(not math.isfinite(t) for t in times):
            raise ValueError("trace timestamps must be finite (no NaN/Infinity)")
        if any(t < 0 for t in times):
            raise ValueError("trace timestamps cannot be negative")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace timestamps must be non-decreasing")
        self.times = times

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        return [t for t in self.times if t < duration]

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        times = np.asarray(self.times, dtype=np.float64)
        return times[times < duration]

    def describe(self) -> str:
        return f"trace replay ({len(self.times)} arrivals)"


def load_trace_times(path: str) -> List[float]:
    """Load arrival timestamps from a JSON file (a flat array of seconds).

    Python's ``json.load`` happily parses the non-standard ``NaN`` /
    ``Infinity`` literals, and NaN then slips past every ``<`` comparison in
    the downstream validators — so non-finite values are rejected here, at
    the trust boundary.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError(f"trace file {path!r} must contain a JSON array of seconds")
    times = [float(t) for t in data]
    if any(not math.isfinite(t) for t in times):
        raise ValueError(
            f"trace file {path!r} contains non-finite timestamps (NaN/Infinity)"
        )
    return times


class ReplayArrivals(ArrivalProcess):
    """Replay per-bin invocation counts (Azure-Functions-trace style).

    The public Azure Functions trace records, per function, *how many*
    invocations landed in each minute — not when.  This process reconstructs
    timestamps deterministically: a bin holding ``k`` invocations emits them
    evenly spaced at ``bin_start + j * bin_seconds / k`` for ``j in 0..k-1``,
    so re-binning the replayed stream recovers the counts exactly and the
    replay is bit-reproducible with no rng at all.  Composition with
    :class:`TrafficModel` / :class:`DriftingTrafficModel` works like any
    other arrival process (the class mix still draws from the model's rng).
    """

    name = "replay"

    def __init__(self, counts: Sequence[float], bin_seconds: float = 60.0) -> None:
        POSITIVE.check(bin_seconds, "bin_seconds")
        cleaned: List[int] = []
        for index, raw in enumerate(counts):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(
                    f"invocation counts must be finite; bin {index} is {raw!r}"
                )
            if value < 0:
                raise ValueError(
                    f"invocation counts cannot be negative; bin {index} is {raw!r}"
                )
            rounded = int(round(value))
            if abs(value - rounded) > 1e-9:
                raise ValueError(
                    f"invocation counts must be whole numbers; bin {index} is {raw!r}"
                )
            cleaned.append(rounded)
        if not cleaned:
            raise ValueError("a replay needs at least one bin")
        if not any(cleaned):
            raise ValueError("a replay needs at least one invocation")
        self.counts = cleaned
        self.bin_seconds = float(bin_seconds)

    @property
    def total_invocations(self) -> int:
        """Total invocations across every bin."""
        return sum(self.counts)

    def arrival_times(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[float]:
        duration = self._check_duration(duration_seconds)
        times: List[float] = []
        for index, count in enumerate(self.counts):
            if count <= 0:
                continue
            start = index * self.bin_seconds
            gap = self.bin_seconds / count
            for j in range(count):
                t = start + j * gap
                if t >= duration:
                    return times
                times.append(t)
        return times

    def arrival_times_array(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> np.ndarray:
        duration = self._check_duration(duration_seconds)
        parts: List[np.ndarray] = []
        # Same arithmetic per element as the scalar loop (start + j * gap),
        # just built a bin at a time.
        for index, count in enumerate(self.counts):
            if count <= 0:
                continue
            start = index * self.bin_seconds
            if start >= duration:
                break
            gap = self.bin_seconds / count
            parts.append(start + np.arange(count, dtype=np.float64) * gap)
        if not parts:
            return np.empty(0, dtype=np.float64)
        times = np.concatenate(parts)
        return times[times < duration]

    def describe(self) -> str:
        return (
            f"replay ({self.total_invocations} invocations over "
            f"{len(self.counts)}×{self.bin_seconds:g}s bins)"
        )


def load_invocation_counts(path: str) -> List[float]:
    """Load per-bin invocation counts from a JSON or CSV trace file.

    Two layouts are understood:

    * **JSON** — a flat array of per-bin counts, or an object with a
      ``"counts"`` array (extra keys are ignored so exported metadata can
      ride along).
    * **CSV** (Azure-Functions style) — each data row describes one function
      and its numeric cells, in column order, are that function's per-bin
      invocation counts; non-numeric cells (hash ids, trigger names) are
      skipped.  Rows are summed element-wise into the platform-wide per-bin
      totals.  A first row that mixes labels with the consecutive minute
      numbers ``1..k`` (the Azure header layout, e.g.
      ``HashFunction,Trigger,1,2,3``) is recognised as a header and skipped
      rather than summed in.

    Counts are validated (finite, non-negative) here at the trust boundary;
    :class:`ReplayArrivals` re-validates and rejects fractional counts.
    """
    if path.lower().endswith(".csv"):
        totals: List[float] = []
        first_row = True
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for row in csv.reader(handle):
                values: List[float] = []
                skipped_cells = 0
                for cell in row:
                    try:
                        values.append(float(cell))
                    except ValueError:
                        skipped_cells += 1
                        continue
                if first_row:
                    first_row = False
                    if (
                        skipped_cells
                        and values
                        and values == [float(i) for i in range(1, len(values) + 1)]
                    ):
                        continue  # Azure-style header: labels + minute numbers
                if not values:
                    continue  # header or id-only row
                if len(values) > len(totals):
                    totals.extend([0.0] * (len(values) - len(totals)))
                for index, value in enumerate(values):
                    totals[index] += value
        counts = totals
    else:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = data.get("counts")
        if not isinstance(data, list):
            raise ValueError(
                f"trace file {path!r} must contain a JSON array of per-bin "
                "counts (or an object with a 'counts' array)"
            )
        counts = [float(v) for v in data]
    if not counts:
        raise ValueError(f"trace file {path!r} contains no invocation counts")
    bad = [v for v in counts if not math.isfinite(v) or v < 0]
    if bad:
        raise ValueError(
            f"trace file {path!r} contains non-finite or negative counts: "
            f"{bad[:5]!r}"
        )
    return counts


@dataclass(frozen=True)
class TrafficProfile:
    """Plain-knob description of a workload's traffic (CLI / defaults).

    Attributes
    ----------
    arrival:
        Arrival process name (see :data:`ARRIVAL_NAMES`).
    rate_rps:
        Mean arrival rate; the base rate for ``bursty``.
    class_weights:
        Optional input-class name → relative weight; classes missing from
        the mapping get weight 0, and ``None`` weighs all classes equally.
    class_priorities:
        Optional input-class name → shedding priority (higher = more
        important; missing classes default to 0).  Under sustained
        overload the protection layer sheds the lowest priorities first.
    burst_multiplier / mean_calm_seconds / mean_burst_seconds:
        ``bursty`` knobs.
    amplitude / period_seconds:
        ``diurnal`` knobs.
    trace_times:
        Explicit timestamps for ``trace``.
    trace_counts / trace_bin_seconds:
        Per-bin invocation counts (and the bin width) for ``replay``.
    """

    arrival: str = "poisson"
    rate_rps: float = POSITIVE.field(1.0)
    class_weights: Optional[Mapping[str, float]] = None
    class_priorities: Optional[Mapping[str, int]] = None
    burst_multiplier: float = AT_LEAST_1.field(4.0)
    mean_calm_seconds: float = POSITIVE.field(120.0)
    mean_burst_seconds: float = POSITIVE.field(30.0)
    amplitude: float = _AMPLITUDE.field(0.6)
    period_seconds: float = POSITIVE.field(86400.0)
    trace_times: Optional[Sequence[float]] = None
    trace_counts: Optional[Sequence[float]] = None
    trace_bin_seconds: float = POSITIVE.field(60.0)

    def __post_init__(self) -> None:
        check_fields(self)

    def override(
        self, arrival: Optional[str] = None, rate_rps: Optional[float] = None
    ) -> "TrafficProfile":
        """Copy with the CLI-style overrides applied (None keeps defaults)."""
        changes: Dict[str, object] = {}
        if arrival is not None:
            changes["arrival"] = arrival
        if rate_rps is not None:
            changes["rate_rps"] = rate_rps
        return dataclasses.replace(self, **changes) if changes else self


def build_arrival_process(profile: TrafficProfile) -> ArrivalProcess:
    """Instantiate the arrival process a profile describes."""
    key = profile.arrival.strip().lower()
    if key == "constant":
        return ConstantRateArrivals(profile.rate_rps)
    if key == "poisson":
        return PoissonArrivals(profile.rate_rps)
    if key == "bursty":
        return BurstyArrivals(
            profile.rate_rps,
            burst_multiplier=profile.burst_multiplier,
            mean_calm_seconds=profile.mean_calm_seconds,
            mean_burst_seconds=profile.mean_burst_seconds,
        )
    if key == "diurnal":
        return DiurnalArrivals(
            profile.rate_rps,
            amplitude=profile.amplitude,
            period_seconds=profile.period_seconds,
        )
    if key == "trace":
        if profile.trace_times is None:
            raise ValueError("the 'trace' arrival process needs trace_times")
        return TraceArrivals(profile.trace_times)
    if key == "replay":
        if profile.trace_counts is None:
            raise ValueError("the 'replay' arrival process needs trace_counts")
        return ReplayArrivals(
            profile.trace_counts, bin_seconds=profile.trace_bin_seconds
        )
    raise KeyError(
        f"unknown arrival process {profile.arrival!r}; "
        f"expected one of {', '.join(ARRIVAL_NAMES)}"
    )


class TrafficModel:
    """An arrival process plus an input-class mix → request stream."""

    def __init__(
        self,
        process: ArrivalProcess,
        classes: Optional[Sequence[InputClass]] = None,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.process = process
        self.classes = list(classes) if classes else [DEFAULT_INPUT_CLASS]
        if weights is not None:
            known = {c.name for c in self.classes}
            unknown = sorted(set(weights) - known)
            if unknown:
                raise ValueError(
                    f"class_weights name unknown input classes: {unknown}; "
                    f"known classes: {sorted(known)}"
                )
            bad = sorted(
                name
                for name, value in weights.items()
                if not math.isfinite(float(value)) or float(value) < 0
            )
            if bad:
                raise ValueError(
                    f"class_weights must be finite and non-negative; bad: {bad}"
                )
        raw = [
            1.0 if weights is None else float(weights.get(c.name, 0.0))
            for c in self.classes
        ]
        total = sum(raw)
        if total <= 0:
            raise ValueError("class weights must sum to a positive value")
        self.weights = [w / total for w in raw]
        # Index of the last class that can actually be emitted: the sampling
        # fall-back (float cumulative sums landing just below 1.0) must never
        # surface a zero-weight class.
        self._last_positive = max(
            i for i, w in enumerate(self.weights) if w > 0
        )

    @classmethod
    def from_profile(
        cls, profile: TrafficProfile, classes: Optional[Sequence[InputClass]] = None
    ) -> "TrafficModel":
        """Build the model a :class:`TrafficProfile` describes."""
        return cls(
            build_arrival_process(profile), classes=classes, weights=profile.class_weights
        )

    def _pick_class(self, u: float) -> InputClass:
        cumulative = 0.0
        for input_class, weight in zip(self.classes, self.weights):
            cumulative += weight
            if u < cumulative:
                return input_class
        # Float cumulative sums can total just under 1.0 and let ``u`` fall
        # through; land on the last *positive-weight* class so a zero-weight
        # class is never emitted.
        return self.classes[self._last_positive]

    def generate(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[RequestArrival]:
        """Generate the request stream for one serving run."""
        arrival_rng = rng.child("arrivals") if rng is not None else None
        class_rng = rng.child("classes") if rng is not None else None
        times = self.process.arrival_times(duration_seconds, arrival_rng)
        requests: List[RequestArrival] = []
        for time in times:
            if len(self.classes) == 1:
                input_class = self.classes[0]
            else:
                if class_rng is None:
                    raise ValueError("mixing several input classes requires an rng")
                input_class = self._pick_class(class_rng.uniform())
            requests.append(
                RequestArrival(
                    arrival_time=time,
                    input_scale=input_class.scale,
                    input_class=input_class.name,
                )
            )
        return requests

    def generate_batch(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> ArrivalBatch:
        """Array-path :meth:`generate`: identical stream, columnar layout.

        Uses the same ``rng`` children ("arrivals" for timestamps,
        "classes" for the mix) with the same draw counts, so the batch is
        element-wise identical to the scalar request list under a fixed
        seed.
        """
        arrival_rng = rng.child("arrivals") if rng is not None else None
        class_rng = rng.child("classes") if rng is not None else None
        times = self.process.arrival_times_array(duration_seconds, arrival_rng)
        count = int(times.shape[0])
        if len(self.classes) == 1:
            class_ids = np.zeros(count, dtype=np.intp)
            scales = np.full(count, self.classes[0].scale, dtype=np.float64)
        else:
            if class_rng is None:
                raise ValueError("mixing several input classes requires an rng")
            draws = class_rng.generator.uniform(0.0, 1.0, size=count)
            # np.cumsum matches _pick_class's running sum bit for bit, and
            # side="right" is exactly its ``u < cumulative`` rule; the clip
            # reproduces the fall-back to the last positive-weight class.
            cumulative = np.cumsum(np.asarray(self.weights, dtype=np.float64))
            class_ids = np.minimum(
                np.searchsorted(cumulative, draws, side="right"),
                self._last_positive,
            )
            scales = np.asarray(
                [c.scale for c in self.classes], dtype=np.float64
            )[class_ids]
        return ArrivalBatch(
            times=times,
            scales=scales,
            class_ids=class_ids,
            class_names=[c.name for c in self.classes],
        )

    def describe(self) -> str:
        """Human-readable one-liner (process + class mix)."""
        mix = ", ".join(
            f"{c.name}:{w * 100:.0f}%" for c, w in zip(self.classes, self.weights)
        )
        return f"{self.process.describe()} [{mix}]"


@dataclass(frozen=True)
class TrafficPhase:
    """One phase of a drifting traffic pattern.

    A phase owns the full :class:`TrafficProfile` (arrival process, rate and
    class mix) that is in force from ``start_seconds`` until the next phase
    begins — so composed phases can shift the arrival rate, the arrival
    process *and* the input mix at once (e.g. a light-video morning turning
    into a heavy-video evening).
    """

    name: str
    start_seconds: float = NON_NEGATIVE.field()
    profile: TrafficProfile

    def __post_init__(self) -> None:
        check_fields(self)


class DriftingTrafficModel:
    """Piecewise-stationary traffic: a sequence of phases, each its own model.

    The adaptive-serving scenarios need request streams whose statistics
    *change mid-run* — diurnal rate drift, input-mix shifts, flash crowds —
    while staying bit-reproducible under a fixed seed.  This model composes
    :class:`TrafficPhase` entries: each phase's segment is generated by a
    plain :class:`TrafficModel` built from the phase's profile (driven by an
    rng child keyed on the phase index, so editing one phase never perturbs
    another) and offset to the phase's start time.  Arrivals are therefore in
    non-decreasing time order overall and each request carries the input
    class drawn from *its* phase's mix.
    """

    def __init__(
        self,
        phases: Sequence[TrafficPhase],
        classes: Optional[Sequence[InputClass]] = None,
    ) -> None:
        if not phases:
            raise ValueError("a drifting traffic model needs at least one phase")
        ordered = list(phases)
        starts = [phase.start_seconds for phase in ordered]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("phase start times must be strictly increasing")
        if starts[0] != 0.0:
            raise ValueError("the first phase must start at t=0")
        self.phases = ordered
        self.classes = list(classes) if classes else [DEFAULT_INPUT_CLASS]

    def phase_at(self, t: float) -> TrafficPhase:
        """The phase in force at simulated time ``t``."""
        current = self.phases[0]
        for phase in self.phases:
            if phase.start_seconds <= t:
                current = phase
            else:
                break
        return current

    def phase_bounds(
        self, duration_seconds: float
    ) -> List[Tuple[TrafficPhase, float, float]]:
        """Each phase with its effective ``[start, end)`` within the horizon."""
        bounds: List[Tuple[TrafficPhase, float, float]] = []
        for index, phase in enumerate(self.phases):
            start = phase.start_seconds
            if start >= duration_seconds:
                break
            end = (
                min(self.phases[index + 1].start_seconds, duration_seconds)
                if index + 1 < len(self.phases)
                else duration_seconds
            )
            bounds.append((phase, start, end))
        return bounds

    def generate(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> List[RequestArrival]:
        """Generate the full request stream across every phase segment."""
        POSITIVE.check(duration_seconds, "duration_seconds")
        requests: List[RequestArrival] = []
        for index, (phase, start, end) in enumerate(
            self.phase_bounds(duration_seconds)
        ):
            segment = end - start
            if segment <= 0:
                continue
            model = TrafficModel.from_profile(phase.profile, classes=self.classes)
            phase_rng = rng.child("phase", index, phase.name) if rng is not None else None
            for request in model.generate(segment, phase_rng):
                requests.append(
                    RequestArrival(
                        arrival_time=start + request.arrival_time,
                        input_scale=request.input_scale,
                        input_class=request.input_class,
                    )
                )
        return requests

    def generate_batch(
        self, duration_seconds: float, rng: Optional[RngStream] = None
    ) -> ArrivalBatch:
        """Array-path :meth:`generate`: phase segments batched then offset.

        Each phase uses the same ``rng.child("phase", index, name)`` stream
        as the scalar generator, and the offset ``start + t`` is the same
        per-element addition — so the concatenated batch is element-wise
        identical to the scalar stream, including across phase boundaries.
        """
        POSITIVE.check(duration_seconds, "duration_seconds")
        times_parts: List[np.ndarray] = []
        scales_parts: List[np.ndarray] = []
        ids_parts: List[np.ndarray] = []
        for index, (phase, start, end) in enumerate(
            self.phase_bounds(duration_seconds)
        ):
            segment = end - start
            if segment <= 0:
                continue
            model = TrafficModel.from_profile(phase.profile, classes=self.classes)
            phase_rng = rng.child("phase", index, phase.name) if rng is not None else None
            batch = model.generate_batch(segment, phase_rng)
            times_parts.append(start + batch.times)
            scales_parts.append(batch.scales)
            ids_parts.append(batch.class_ids)
        if not times_parts:
            empty = np.empty(0, dtype=np.float64)
            return ArrivalBatch(
                times=empty,
                scales=empty.copy(),
                class_ids=np.empty(0, dtype=np.intp),
                class_names=[c.name for c in self.classes],
            )
        return ArrivalBatch(
            times=np.concatenate(times_parts),
            scales=np.concatenate(scales_parts),
            class_ids=np.concatenate(ids_parts),
            class_names=[c.name for c in self.classes],
        )

    def describe(self) -> str:
        """Human-readable one-liner (phase names, starts and processes)."""
        parts = ", ".join(
            f"{phase.name}@{phase.start_seconds:g}s "
            f"({build_arrival_process(phase.profile).describe()})"
            for phase in self.phases
        )
        return f"drifting [{parts}]"


def merge_request_streams(
    streams: Mapping[str, Sequence[RequestArrival]],
) -> List[Tuple[str, RequestArrival]]:
    """Merge per-tenant request streams into one time-ordered fleet stream.

    Each entry of the result is ``(tenant_name, request)``.  Ties at
    identical arrival times break by the order in which the streams are
    given (the mapping's insertion order), then by position within the
    stream, so the merged fleet stream is fully deterministic regardless of
    how the per-tenant streams were generated.
    """
    tagged: List[Tuple[float, int, int, str, RequestArrival]] = []
    for order, (tenant, requests) in enumerate(streams.items()):
        for position, request in enumerate(requests):
            tagged.append((request.arrival_time, order, position, tenant, request))
    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [(tenant, request) for _, _, _, tenant, request in tagged]
