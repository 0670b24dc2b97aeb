"""Pluggable rollout policies: how a re-tuned configuration reaches traffic.

A re-tune produces a *candidate* configuration; the rollout policy decides
how requests migrate onto it and whether it sticks:

* ``immediate`` — every subsequent arrival is served by the new
  configuration; the switch is promoted on the spot.
* ``canary`` — a deterministic fraction of arrivals is routed to the new
  configuration while the rest stay on the old one; after a fixed number of
  canary completions their latency/SLO statistics are compared against the
  concurrent stable traffic (or, with too few stable completions, against
  the pre-rollout baseline snapshot) and the candidate is either promoted or
  rolled back.  A rollback restores the *exact* prior configuration object.
* ``drain`` — requests in flight when the rollout starts finish on the old
  configuration (arrivals keep joining it during the drain); once that
  pre-rollout work has drained, the switch is promoted atomically.

Policies are deterministic state machines: canary routing uses a
credit-counter (never randomness), so two runs of the same seed make the
same assignments.
"""

from __future__ import annotations

import abc
import enum
from typing import FrozenSet, Optional, Set, Tuple

from repro.control.monitor import CompletionRecord, WindowSnapshot
from repro.utils.ranges import AT_LEAST_1, NON_NEGATIVE, Range
from repro.workflow.slo import SLO

__all__ = [
    "ROLLOUT_POLICY_NAMES",
    "RolloutDecision",
    "RolloutPolicy",
    "ImmediateRollout",
    "CanaryRollout",
    "DrainAndSwitchRollout",
    "build_rollout_policy",
]

#: Policy names understood by :func:`build_rollout_policy` (and the CLI).
ROLLOUT_POLICY_NAMES: Tuple[str, ...] = ("immediate", "canary", "drain")


class RolloutDecision(enum.Enum):
    """What the policy wants the controller to do next."""

    CONTINUE = "continue"
    PROMOTE = "promote"
    ROLLBACK = "rollback"


class _VersionStats:
    """Running statistics of one version's cohort during a transition.

    Completions and rejections are tracked separately: latency/attainment
    guards read completion statistics only (a rejection has no latency and
    must not dilute the mean), while the failure-rate guard folds rejections
    in on both cohorts so config-independent overload cancels out.
    """

    def __init__(self) -> None:
        self.count = 0
        self.latency_sum = 0.0
        self.cost_sum = 0.0
        self.slo_met = 0
        self.failed = 0
        self.rejected = 0

    def observe(self, record: CompletionRecord, slo: Optional[SLO]) -> None:
        self.count += 1
        self.latency_sum += record.latency_seconds
        self.cost_sum += record.cost
        if not record.succeeded:
            self.failed += 1
        elif slo is None or slo.is_met(record.latency_seconds):
            self.slo_met += 1

    def observe_rejection(self) -> None:
        self.rejected += 1

    @property
    def observations(self) -> int:
        """Completions plus rejections — everything the cohort absorbed."""
        return self.count + self.rejected

    @property
    def failure_rate(self) -> float:
        """Share of the cohort that failed terminally or was rejected."""
        if not self.observations:
            return 0.0
        return (self.failed + self.rejected) / self.observations

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.count if self.count else float("nan")

    @property
    def attainment(self) -> float:
        return self.slo_met / self.count if self.count else float("nan")


class RolloutPolicy(abc.ABC):
    """Drives one old-version → new-version transition at a time."""

    #: Short name used in reports and factory lookups.
    name: str = "rollout"

    def __init__(self) -> None:
        self.slo: Optional[SLO] = None
        self._old_version = 0
        self._new_version = 0

    def bind(self, slo: Optional[SLO]) -> None:
        """Give the policy the latency objective its guards compare against."""
        self.slo = slo

    def begin(
        self,
        now: float,
        old_version: int,
        new_version: int,
        baseline: WindowSnapshot,
        inflight: FrozenSet[int],
    ) -> RolloutDecision:
        """Start a transition; may decide instantly (e.g. ``immediate``).

        Parameters
        ----------
        now:
            Event-loop time the rollout starts at.
        old_version / new_version:
            Configuration versions being transitioned between.
        baseline:
            Monitor snapshot captured just before the rollout (fallback
            reference when concurrent stable traffic is too thin).
        inflight:
            Indices of requests admitted before the rollout that have not
            completed yet (the ``drain`` policy waits for them).
        """
        self._old_version = old_version
        self._new_version = new_version
        return RolloutDecision.CONTINUE

    @abc.abstractmethod
    def assign_version(self, index: int) -> int:
        """Which configuration version the arriving request ``index`` gets."""

    @abc.abstractmethod
    def on_completion(self, now: float, record: CompletionRecord) -> RolloutDecision:
        """Feed one completion observed *during* the transition."""

    def on_rejection(self, now: float, index: int, version: int) -> RolloutDecision:
        """A request assigned during (or before) the transition was rejected.

        Rejected requests never complete, so policies waiting on specific
        requests (``drain``) or counting a cohort's completions (``canary``)
        must hear about them or they could wait forever.  ``version`` is the
        configuration version the request had been assigned.
        """
        return RolloutDecision.CONTINUE

    def describe(self) -> str:
        """Human-readable one-liner."""
        return self.name


class ImmediateRollout(RolloutPolicy):
    """Switch every subsequent arrival to the new configuration at once."""

    name = "immediate"

    def begin(self, now, old_version, new_version, baseline, inflight):
        super().begin(now, old_version, new_version, baseline, inflight)
        return RolloutDecision.PROMOTE

    def assign_version(self, index: int) -> int:  # pragma: no cover - no transition
        return self._new_version

    def on_completion(self, now, record):  # pragma: no cover - no transition
        return RolloutDecision.CONTINUE


class CanaryRollout(RolloutPolicy):
    """Route a deterministic fraction of arrivals to the candidate config.

    Parameters
    ----------
    fraction:
        Target share of arrivals routed to the canary during the transition.
        Routing uses a credit counter — the canary gets request ``n`` exactly
        when doing so keeps its share at or below ``fraction`` — so the split
        is deterministic and within one request of the target at all times.
    evaluation_requests:
        Canary completions to collect before deciding.
    latency_tolerance:
        Optional *additional* guard: allowed relative mean-latency
        regression of the canary over the reference before rollback.
        Disabled by default — a re-tuned configuration is usually cheaper
        *because* it is slower while still inside the SLO, which is exactly
        what the attainment guard permits and a mean-latency guard would
        veto.  Enable it for latency-sensitive rollouts.
    attainment_tolerance:
        Allowed absolute SLO-attainment drop before rollback.
    min_stable:
        Minimum concurrent stable completions required to use them as the
        reference; below it the pre-rollout baseline snapshot is used.
    """

    name = "canary"

    def __init__(
        self,
        fraction: float = 0.25,
        evaluation_requests: int = 12,
        latency_tolerance: Optional[float] = None,
        attainment_tolerance: float = 0.05,
        min_stable: int = 4,
    ) -> None:
        super().__init__()
        self.fraction = float(Range(0.0, 1.0, lo_open=True).check(fraction, "fraction"))
        self.evaluation_requests = int(AT_LEAST_1.check(evaluation_requests, "evaluation_requests"))
        self.latency_tolerance = (
            float(NON_NEGATIVE.check(latency_tolerance, "latency_tolerance"))
            if latency_tolerance is not None
            else None
        )
        self.attainment_tolerance = float(
            NON_NEGATIVE.check(attainment_tolerance, "attainment_tolerance")
        )
        self.min_stable = int(AT_LEAST_1.check(min_stable, "min_stable"))
        self._reset()

    def _reset(self) -> None:
        self._assigned_total = 0
        self._assigned_canary = 0
        self._canary = _VersionStats()
        self._stable = _VersionStats()
        self._baseline: Optional[WindowSnapshot] = None

    def begin(self, now, old_version, new_version, baseline, inflight):
        super().begin(now, old_version, new_version, baseline, inflight)
        self._reset()
        self._baseline = baseline
        return RolloutDecision.CONTINUE

    # -- routing -----------------------------------------------------------------
    def assign_version(self, index: int) -> int:
        self._assigned_total += 1
        if self._assigned_canary + 1 <= self.fraction * self._assigned_total:
            self._assigned_canary += 1
            return self._new_version
        return self._old_version

    @property
    def assigned_counts(self) -> Tuple[int, int]:
        """``(canary, stable)`` arrivals routed so far in this transition."""
        return self._assigned_canary, self._assigned_total - self._assigned_canary

    # -- evaluation --------------------------------------------------------------
    def on_completion(self, now: float, record: CompletionRecord) -> RolloutDecision:
        if record.config_version == self._new_version:
            self._canary.observe(record, self.slo)
        else:
            self._stable.observe(record, self.slo)
        if self._canary.observations < self.evaluation_requests:
            return RolloutDecision.CONTINUE
        return self._decide()

    def on_rejection(self, now: float, index: int, version: int) -> RolloutDecision:
        # Rejections are tracked on *both* cohorts: a rejected canary is
        # regression evidence (an unservable candidate resolves — in a
        # rollback — even though its cohort never completes anything), but
        # stable rejections must weigh in too, or config-independent
        # overload rejections would veto every candidate.
        if version == self._new_version:
            self._canary.observe_rejection()
            if self._canary.observations >= self.evaluation_requests:
                return self._decide()
        else:
            self._stable.observe_rejection()
        return RolloutDecision.CONTINUE

    def _decide(self) -> RolloutDecision:
        if self._canary.count == 0:
            # Every canary observation was a rejection: no evidence the
            # candidate can serve at all — keep the incumbent.
            return RolloutDecision.ROLLBACK
        # Failures veto the candidate only when the canary cohort fails or
        # is rejected *more* than the stable one: config-independent faults
        # and overload hit both cohorts alike and must not block every
        # promotion, while a genuinely unservable candidate (stable clean,
        # canary failing) still rolls back on its first evaluation.
        reference_failure_rate = (
            self._stable.failure_rate
            if self._stable.observations >= self.min_stable
            else 0.0
        )
        if (
            self._canary.failure_rate
            > reference_failure_rate + self.attainment_tolerance
        ):
            return RolloutDecision.ROLLBACK
        if self._stable.count >= self.min_stable:
            ref_latency = self._stable.mean_latency
            ref_attainment: Optional[float] = self._stable.attainment
        elif self._baseline is not None and self._baseline.completion_count:
            ref_latency = self._baseline.latency_mean_seconds
            ref_attainment = self._baseline.slo_attainment
        else:
            # Nothing to compare against: accept the candidate.
            return RolloutDecision.PROMOTE
        if (
            self.latency_tolerance is not None
            and ref_latency == ref_latency  # not NaN
            and self._canary.mean_latency
            > ref_latency * (1.0 + self.latency_tolerance)
        ):
            return RolloutDecision.ROLLBACK
        if (
            ref_attainment is not None
            and ref_attainment == ref_attainment
            and self._canary.attainment < ref_attainment - self.attainment_tolerance
        ):
            return RolloutDecision.ROLLBACK
        return RolloutDecision.PROMOTE

    def describe(self) -> str:
        return (
            f"canary({self.fraction * 100:.0f}% for "
            f"{self.evaluation_requests} requests)"
        )


class DrainAndSwitchRollout(RolloutPolicy):
    """Let pre-rollout work finish on the old config, then cut over."""

    name = "drain"

    def __init__(self) -> None:
        super().__init__()
        self._draining: Set[int] = set()

    def begin(self, now, old_version, new_version, baseline, inflight):
        super().begin(now, old_version, new_version, baseline, inflight)
        self._draining = set(inflight)
        if not self._draining:
            return RolloutDecision.PROMOTE
        return RolloutDecision.CONTINUE

    def assign_version(self, index: int) -> int:
        # Arrivals during the drain join the old configuration; the switch
        # is atomic once the pre-rollout work has finished.
        return self._old_version

    def on_completion(self, now: float, record: CompletionRecord) -> RolloutDecision:
        self._draining.discard(record.index)
        if not self._draining:
            return RolloutDecision.PROMOTE
        return RolloutDecision.CONTINUE

    def on_rejection(self, now: float, index: int, version: int) -> RolloutDecision:
        # A rejected request will never complete; without this the drain
        # would wait on it forever.
        self._draining.discard(index)
        if not self._draining:
            return RolloutDecision.PROMOTE
        return RolloutDecision.CONTINUE

    def describe(self) -> str:
        return "drain-and-switch"


def build_rollout_policy(name: str, **options) -> RolloutPolicy:
    """Instantiate a rollout policy by name (CLI / settings entry point)."""
    key = name.strip().lower()
    if key == "immediate":
        return ImmediateRollout(**options)
    if key == "canary":
        return CanaryRollout(**options)
    if key in {"drain", "drain-and-switch"}:
        return DrainAndSwitchRollout(**options)
    raise KeyError(
        f"unknown rollout policy {name!r}; "
        f"expected one of {', '.join(ROLLOUT_POLICY_NAMES)}"
    )
