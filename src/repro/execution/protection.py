"""Graceful degradation for the serving layer: admit, break, shed, hedge, bound.

PR 4 gave the serving layer its *offense* — seed-deterministic fault
injection with retries — but no *defense*: under overload or sustained
faults the only relief valves are queue-capacity drops and blind retries,
so goodput collapses instead of degrading.  This module adds the
protection mechanisms real FaaS fleets run in front of their dispatchers:

* **Admission control** — reject at arrival when an in-flight token budget
  is exhausted or the estimated queueing delay would blow the request's
  end-to-end deadline (better a fast rejection than a guaranteed SLO miss).
* **Per-function circuit breakers** — a closed → open → half-open state
  machine keyed on a rolling, time-windowed failure rate fed by the fault
  path; an open breaker fails requests fast, and recovery is probed with a
  deterministic counter-based budget (no randomized probe scheduling).
* **Priority-aware load shedding** — under sustained queue pressure the
  lowest-priority input classes are shed first and restored hysteretically
  (two watermarks plus dwell times) so the system never flaps.
* **Request hedging** — when an invocation's planned duration exceeds the
  function's rolling straggler percentile, a deterministic backup attempt
  races it; first completion wins and the loser is billed as wasted work.
* **Deadline propagation** — an end-to-end SLO is split into per-stage
  timeout budgets along the DAG's critical path, replacing the fault
  plan's flat per-function timeout.

Everything is declarative data (:class:`ProtectionPolicy`) plus a runtime
(:class:`ProtectionGuard`) owned by one serving run.  Every decision is a
pure function of observed event times and the policy's seed — no wall
clock, no shared RNG — so protected runs are bit-reproducible.  An *empty*
policy (:meth:`ProtectionPolicy.is_empty`) guards nothing: the serving
layer builds no guard for it, so such a run is byte-identical to a run
with no policy at all, as a run with an empty fault plan is to one with
none.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.execution.faults import FaultKind, InvocationOutcome
from repro.utils.ranges import (
    AT_LEAST_0,
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    Range,
    check_fields,
)
from repro.utils.stats import nearest_rank
from repro.workflow.dag import WorkflowPlan

__all__ = [
    "REJECTION_CAUSES",
    "AdmissionControlConfig",
    "CircuitBreakerConfig",
    "LoadSheddingConfig",
    "HedgingConfig",
    "DeadlineConfig",
    "ProtectionPolicy",
    "ProtectionGuard",
    "split_deadline",
    "PROTECTION_PROFILE_NAMES",
    "get_protection_profile",
]


#: Rejection causes the serving layer distinguishes, in reporting order.
#: ``queue-full`` covers the pre-existing drops (queue overflow and
#: never-hostable requests); the other four are protection verdicts.
REJECTION_CAUSES: Tuple[str, ...] = (
    "queue-full",
    "admission",
    "shed",
    "breaker",
    "deadline",
)


# -- mechanism configs -------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionControlConfig:
    """Reject at arrival when serving the request is already hopeless.

    Attributes
    ----------
    max_inflight_requests:
        Token budget: an arrival is rejected (cause ``admission``) when the
        requests already dispatched plus queued reach this bound.
    max_estimated_wait_seconds:
        Static bound on the estimated queueing delay (cause ``admission``).
    deadline_headroom:
        An arrival whose estimated wait plus one mean service time exceeds
        ``deadline_headroom ×`` the end-to-end deadline is rejected with
        cause ``deadline`` — admitting it could only produce an SLO miss.
        The estimate is ``queue_len × mean_service / max(1, active)``, i.e.
        the queue drained at the currently observed parallel service rate.
        Before any completion lands, the mean service floor is the age of
        the oldest still-running request, so slow-to-complete overloads
        (service times longer than the arrival horizon) are still caught.
    """

    max_inflight_requests: Optional[int] = AT_LEAST_1.field(None)
    max_estimated_wait_seconds: Optional[float] = NON_NEGATIVE.field(None)
    deadline_headroom: Optional[float] = POSITIVE.field(None)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-function closed / open / half-open breaker on the rolling kill rate.

    The window is *time*-based (``window_seconds``), not count-based, so the
    breaker's verdict is a function of attempt timestamps alone.  Attempts
    that land at the same instant are evaluated as one batch, which makes
    the state machine invariant under permutations of same-time records.
    Recovery probing is deterministic: after ``open_seconds`` the breaker
    goes half-open and admits exactly ``half_open_probes`` probe requests
    (a counter, not a coin flip); all probes succeeding closes it, any
    probe failing re-opens it.
    """

    window_seconds: float = POSITIVE.field(30.0)
    failure_threshold: float = Range(0.0, 1.0, lo_open=True).field(0.5)
    min_attempts: int = AT_LEAST_1.field(5)
    open_seconds: float = POSITIVE.field(30.0)
    half_open_probes: int = AT_LEAST_1.field(2)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class LoadSheddingConfig:
    """Shed low-priority input classes under sustained queue pressure.

    The shed level rises one priority step each time the queue has sat at
    or above ``queue_high`` for ``sustain_seconds``, and falls one step
    each time it has sat at or below ``queue_low`` for ``restore_seconds``
    — a two-watermark hysteresis with dwell, so a momentary spike sheds
    nothing and a momentary lull restores nothing.  A request whose class
    priority (``priorities``; default 0, higher = more important) is below
    the current level is rejected with cause ``shed``.
    """

    queue_high: int = AT_LEAST_1.field(8)
    queue_low: int = AT_LEAST_0.field(2)
    sustain_seconds: float = NON_NEGATIVE.field(5.0)
    restore_seconds: float = NON_NEGATIVE.field(15.0)
    priorities: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.queue_low >= self.queue_high:
            raise ValueError("need 0 <= queue_low < queue_high")


@dataclass(frozen=True)
class HedgingConfig:
    """Race a deterministic backup attempt against planned stragglers.

    An attempt whose planned duration exceeds the function's rolling
    ``straggler_percentile`` (over the last ``history`` completed-attempt
    durations, once ``min_observations`` have been seen) gets a hedge
    launched at the percentile mark; first completion wins, the loser is
    cancelled and billed as wasted work.
    """

    straggler_percentile: float = Range(0.0, 100.0, True, True).field(95.0)
    min_observations: int = AT_LEAST_1.field(20)
    max_hedges_per_request: int = AT_LEAST_1.field(1)
    history: int = AT_LEAST_1.field(256)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.history < self.min_observations:
            raise ValueError("history must be at least min_observations")


@dataclass(frozen=True)
class DeadlineConfig:
    """Split an end-to-end deadline into per-stage budgets (critical path).

    The total budget is ``total_budget_seconds`` if given, else
    ``slo_fraction ×`` the run's SLO latency limit.  Each function's budget
    is its cold-start latency plus its runtime share of the critical path
    scaled to the total (see :func:`split_deadline`); an attempt exceeding
    its stage budget is killed exactly like a fault-plan timeout — and
    retried under the plan's retry policy.
    """

    total_budget_seconds: Optional[float] = POSITIVE.field(None)
    slo_fraction: float = POSITIVE.field(1.0)
    stage_slack: float = POSITIVE.field(1.0)

    def __post_init__(self) -> None:
        check_fields(self)


# -- the policy --------------------------------------------------------------------


@dataclass(frozen=True)
class ProtectionPolicy:
    """Declarative description of one serving run's protection mechanisms.

    Each mechanism is independently optional; :meth:`is_empty` is true when
    none is configured, and the serving layer builds no guard for such a
    policy.  ``seed`` roots the injector of a protected but fault-free run,
    whose plan is the empty plan at this seed.
    """

    admission: Optional[AdmissionControlConfig] = None
    breaker: Optional[CircuitBreakerConfig] = None
    shedding: Optional[LoadSheddingConfig] = None
    hedging: Optional[HedgingConfig] = None
    deadline: Optional[DeadlineConfig] = None
    seed: int = FINITE.field(2025)

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def none(cls, seed: int = 2025) -> "ProtectionPolicy":
        """The empty policy: protects nothing, perturbs nothing."""
        return cls(seed=seed)

    @classmethod
    def for_tenants(
        cls,
        priorities: Mapping[str, int],
        queue_high: int = 8,
        queue_low: int = 2,
        seed: int = 2025,
    ) -> "ProtectionPolicy":
        """A shedding-only policy keyed by *tenant* name.

        Fleet serving passes the tenant name as the guard's input class, so
        the hysteretic shedder drops the lowest-priority tenants first when
        the shared queue backs up — per-tenant shed priorities without any
        per-function machinery.
        """
        return cls(
            shedding=LoadSheddingConfig(
                queue_high=queue_high,
                queue_low=queue_low,
                priorities=dict(priorities),
            ),
            seed=seed,
        )

    @property
    def is_empty(self) -> bool:
        """Whether this policy can never influence a run."""
        return (
            self.admission is None
            and self.breaker is None
            and self.shedding is None
            and self.hedging is None
            and self.deadline is None
        )

    def with_seed(self, seed: int) -> "ProtectionPolicy":
        """Copy of this policy rooted at a different seed."""
        return dataclasses.replace(self, seed=int(seed))

    def with_priorities(
        self, priorities: Optional[Mapping[str, int]]
    ) -> "ProtectionPolicy":
        """Copy whose shedding config adopts ``priorities`` if it has none."""
        if (
            priorities is None
            or self.shedding is None
            or self.shedding.priorities is not None
        ):
            return self
        return dataclasses.replace(
            self,
            shedding=dataclasses.replace(self.shedding, priorities=dict(priorities)),
        )

    def describe(self) -> str:
        """Human-readable one-liner of the active mechanisms."""
        if self.is_empty:
            return "no protection"
        parts: List[str] = []
        if self.admission is not None:
            knobs = []
            if self.admission.max_inflight_requests is not None:
                knobs.append(f"inflight≤{self.admission.max_inflight_requests}")
            if self.admission.max_estimated_wait_seconds is not None:
                knobs.append(f"wait≤{self.admission.max_estimated_wait_seconds:g}s")
            if self.admission.deadline_headroom is not None:
                knobs.append(f"deadline×{self.admission.deadline_headroom:g}")
            parts.append("admission(" + ", ".join(knobs or ["noop"]) + ")")
        if self.breaker is not None:
            parts.append(
                f"breakers({self.breaker.failure_threshold * 100:g}% over "
                f"{self.breaker.window_seconds:g}s, open {self.breaker.open_seconds:g}s)"
            )
        if self.shedding is not None:
            parts.append(
                f"shedding(queue {self.shedding.queue_low}–{self.shedding.queue_high})"
            )
        if self.hedging is not None:
            parts.append(f"hedging(p{self.hedging.straggler_percentile:g})")
        if self.deadline is not None:
            budget = (
                f"{self.deadline.total_budget_seconds:g}s"
                if self.deadline.total_budget_seconds is not None
                else f"{self.deadline.slo_fraction:g}×SLO"
            )
            parts.append(f"deadlines({budget})")
        return ", ".join(parts)


# -- deadline propagation ----------------------------------------------------------


def split_deadline(
    total_budget_seconds: float,
    runtimes: Mapping[str, float],
    plan: WorkflowPlan,
    cold_latency: Optional[Sequence[float]] = None,
    stage_slack: float = 1.0,
) -> Dict[str, float]:
    """Split an end-to-end budget into per-stage budgets along the critical path.

    Each function's share is its runtime scaled by
    ``total_budget / critical_path_length`` (so the budgets of any path
    through the DAG sum to at most the total, and the critical path sums to
    exactly it), plus its cold-start latency — a cold start must never eat
    a stage's whole budget — times ``stage_slack``.  ``cold_latency`` is
    aligned with ``plan.names``.  Functions absent from ``runtimes``
    (skipped stages) get no budget.
    """
    POSITIVE.check(total_budget_seconds, "total_budget_seconds")
    names = plan.names
    cold = cold_latency if cold_latency is not None else (0.0,) * len(names)
    longest: Dict[int, float] = {}
    for k, name in enumerate(names):
        if name not in runtimes:
            continue
        upstream = max(
            (longest[p] for p in plan.preds[k] if p in longest),
            default=0.0,
        )
        longest[k] = upstream + max(0.0, float(runtimes[name]))
    critical = max(longest.values(), default=0.0)
    scale = total_budget_seconds / critical if critical > 0 else 1.0
    return {
        names[k]: (cold[k] + max(0.0, float(runtimes[names[k]])) * scale) * stage_slack
        for k in longest
    }


# -- breaker state machine ---------------------------------------------------------


class _Breaker:
    """One function's circuit breaker.

    Same-time attempt records are buffered and applied as one batch when
    time advances (or the breaker is queried at a later instant), so the
    verdict never depends on the order in which simultaneous completions
    happened to be recorded — the property the permutation-determinism
    tests pin down.  The window keeps a running count of its kills, so a
    flush costs O(1) per attempt entering or leaving the window.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = (
        "config",
        "state",
        "window",
        "failures",
        "opened_at",
        "probes_issued",
        "probe_successes",
        "opens",
        "_batch_time",
        "_batch",
        "transitions",
    )

    def __init__(self, config: CircuitBreakerConfig) -> None:
        self.config = config
        self.state = self.CLOSED
        self.window: Deque[Tuple[float, bool]] = deque()
        #: Kills among ``window``'s entries.
        self.failures = 0
        self.opened_at = 0.0
        self.probes_issued = 0
        self.probe_successes = 0
        self.opens = 0
        self._batch_time: Optional[float] = None
        self._batch: List[bool] = []
        #: (time, new_state) transition log, drained by the guard's events.
        self.transitions: List[Tuple[float, str]] = []

    # -- recording ---------------------------------------------------------------
    def record(self, now: float, killed: bool) -> None:
        """Feed one finished attempt (killed or completed) at time ``now``."""
        if self._batch_time is not None and now != self._batch_time:
            self._flush()
        self._batch_time = now
        self._batch.append(killed)

    def _flush(self) -> None:
        if self._batch_time is None:
            return
        now, batch = self._batch_time, self._batch
        self._batch_time, self._batch = None, []
        if self.state == self.OPEN:
            # Attempts that were already in flight when the breaker opened;
            # they carry no new information about the protected path.
            return
        if self.state == self.HALF_OPEN:
            if any(batch):
                self._open(now)
            else:
                self.probe_successes += len(batch)
                if self.probe_successes >= self.config.half_open_probes:
                    self.state = self.CLOSED
                    self.window.clear()
                    self.failures = 0
                    self.transitions.append((now, self.CLOSED))
            return
        for killed in batch:
            self.window.append((now, killed))
            if killed:
                self.failures += 1
        self._evict(now)
        total = len(self.window)
        if total >= self.config.min_attempts:
            if self.failures / total >= self.config.failure_threshold:
                self._open(now)

    def _open(self, now: float) -> None:
        self.state = self.OPEN
        self.opened_at = now
        self.opens += 1
        self.window.clear()
        self.failures = 0
        self.transitions.append((now, self.OPEN))

    def _evict(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self.window and self.window[0][0] < horizon:
            if self.window.popleft()[1]:
                self.failures -= 1

    # -- gating ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether an arrival at ``now`` may pass this breaker."""
        if self._batch_time is not None and self._batch_time <= now:
            self._flush()
        if self.state == self.OPEN:
            if now < self.opened_at + self.config.open_seconds:
                return False
            self.state = self.HALF_OPEN
            self.probes_issued = 0
            self.probe_successes = 0
            self.transitions.append((now, self.HALF_OPEN))
        if self.state == self.HALF_OPEN:
            if self.probes_issued >= self.config.half_open_probes:
                return False
            self.probes_issued += 1
        return True


# -- the guard ---------------------------------------------------------------------


class ProtectionGuard:
    """Runtime state of one protected serving run.

    Owned by a single :meth:`ServingSimulator.run` call; the simulator asks
    it to vet arrivals (:meth:`admit`), cap attempts against stage budgets
    (:meth:`cap_stage`), decide hedges (:meth:`hedge_delay`), and feeds it
    every finished attempt and completed request.  All state is derived
    from event times — the guard draws no randomness of its own.

    ``plan`` is the served workflow's topology; breakers and stage budgets
    need it, so a guard built with ``None`` (the fleet's) only vets
    arrivals.  ``cold_latency`` is aligned with ``plan.names``.
    """

    def __init__(
        self,
        policy: ProtectionPolicy,
        plan: Optional[WorkflowPlan],
        slo_limit_seconds: Optional[float] = None,
        cold_latency: Optional[Sequence[float]] = None,
    ) -> None:
        self.policy = policy
        self.slo_limit_seconds = slo_limit_seconds
        self._plan = plan
        self._cold_latency = cold_latency
        # In topological order, so admission probes the breakers in that order.
        self._breakers: Dict[str, _Breaker] = (
            {name: _Breaker(policy.breaker) for name in plan.names}
            if policy.breaker is not None and plan is not None
            else {}
        )
        shed = policy.shedding
        self._priorities: Dict[str, int] = (
            dict(shed.priorities) if shed is not None and shed.priorities else {}
        )
        self._max_shed_level = (
            max(self._priorities.values(), default=0) + 1 if shed is not None else 0
        )
        self.shed_level = 0
        self._above_since: Optional[float] = None
        self._below_since: Optional[float] = None
        # Per function: the last ``hedging.history`` completed-attempt
        # durations in arrival order, and the same values kept sorted.
        self._hedge_history: Dict[str, Deque[float]] = {}
        self._hedge_sorted: Dict[str, List[float]] = {}
        self._service_sum = 0.0
        self._service_count = 0
        self._dispatch_times: List[float] = []
        self.deadline_kills = 0
        self.events: List[Tuple[float, str, str]] = []

    # -- counters ----------------------------------------------------------------
    @property
    def breaker_opens(self) -> int:
        """Total closed/half-open → open transitions across all functions."""
        return sum(b.opens for b in self._breakers.values())

    @property
    def max_hedges_per_request(self) -> int:
        return (
            self.policy.hedging.max_hedges_per_request
            if self.policy.hedging is not None
            else 0
        )

    def drain_events(self) -> List[Tuple[float, str, str]]:
        """Flush and return the (time, kind, detail) protection event log."""
        for name in sorted(self._breakers):
            for when, new_state in self._breakers[name].transitions:
                self.events.append((when, f"breaker-{new_state}", name))
            self._breakers[name].transitions = []
        self.events.sort(key=lambda e: e[0])
        events, self.events = self.events, []
        return events

    # -- observation feeds -------------------------------------------------------
    def observe_dispatch(self, now: float) -> None:
        """Note one request leaving the queue (admission estimator floor)."""
        self._dispatch_times.append(now)

    def observe_completion(self, service_seconds: float) -> None:
        """Feed one completed request's service time (admission estimator)."""
        self._service_sum += service_seconds
        self._service_count += 1
        if self._dispatch_times:
            self._dispatch_times.pop(0)

    def _estimated_service(self, now: float) -> float:
        """Mean observed service time, floored by the oldest in-flight age.

        The floor matters under severe overload: when every request takes
        longer than the arrival horizon, no completion ever lands while
        arrivals are still being vetted, and a completions-only mean would
        stay at zero — admitting everything into a hopeless queue.
        """
        mean = self._service_sum / self._service_count if self._service_count else 0.0
        oldest = now - self._dispatch_times[0] if self._dispatch_times else 0.0
        return max(mean, oldest)

    def observe_attempt(
        self, function_name: str, now: float, killed: bool, elapsed: Optional[float]
    ) -> None:
        """Feed one finished invocation attempt (breakers + hedge history)."""
        breaker = self._breakers.get(function_name)
        if breaker is not None:
            breaker.record(now, killed)
        if not killed and elapsed is not None and self.policy.hedging is not None:
            history = self._hedge_history.get(function_name)
            if history is None:
                history = deque(maxlen=self.policy.hedging.history)
                self._hedge_history[function_name] = history
                self._hedge_sorted[function_name] = []
            ordered = self._hedge_sorted[function_name]
            if len(history) == history.maxlen:
                del ordered[bisect_left(ordered, history[0])]
            history.append(elapsed)
            insort(ordered, elapsed)

    # -- admission ---------------------------------------------------------------
    def admit(
        self, now: float, input_class: str, queue_len: int, active: int
    ) -> Optional[str]:
        """Vet one arrival; returns the rejection cause, or ``None`` to admit."""
        self._observe_queue(now, queue_len)
        for breaker in self._breakers.values():
            if not breaker.allow(now):
                return "breaker"
        if self.shed_level > 0 and (
            self._priorities.get(input_class, 0) < self.shed_level
        ):
            return "shed"
        admission = self.policy.admission
        if admission is not None:
            if (
                admission.max_inflight_requests is not None
                and active + queue_len >= admission.max_inflight_requests
            ):
                return "admission"
            mean_service = self._estimated_service(now)
            if mean_service > 0:
                est_wait = queue_len * mean_service / max(1, active)
                if (
                    admission.max_estimated_wait_seconds is not None
                    and est_wait > admission.max_estimated_wait_seconds
                ):
                    return "admission"
                deadline = self._deadline_seconds()
                if (
                    admission.deadline_headroom is not None
                    and deadline is not None
                    and est_wait + mean_service > admission.deadline_headroom * deadline
                ):
                    return "deadline"
        return None

    def _deadline_seconds(self) -> Optional[float]:
        if (
            self.policy.deadline is not None
            and self.policy.deadline.total_budget_seconds is not None
        ):
            return self.policy.deadline.total_budget_seconds
        return self.slo_limit_seconds

    def _observe_queue(self, now: float, queue_len: int) -> None:
        shed = self.policy.shedding
        if shed is None:
            return
        if queue_len >= shed.queue_high:
            self._below_since = None
            if self.shed_level >= self._max_shed_level:
                return
            if self._above_since is None:
                self._above_since = now
            elif now - self._above_since >= shed.sustain_seconds:
                self.shed_level += 1
                self._above_since = now
                self.events.append((now, "shed-raise", f"level {self.shed_level}"))
        elif queue_len <= shed.queue_low:
            self._above_since = None
            if self.shed_level == 0:
                return
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= shed.restore_seconds:
                self.shed_level -= 1
                self._below_since = now
                self.events.append((now, "shed-restore", f"level {self.shed_level}"))
        else:
            self._above_since = None
            self._below_since = None

    # -- deadlines ---------------------------------------------------------------
    def stage_budgets(
        self, runtimes: Mapping[str, float]
    ) -> Optional[Dict[str, float]]:
        """Per-stage budgets for one trace, or ``None`` when deadlines are off."""
        deadline = self.policy.deadline
        if deadline is None:
            return None
        total = deadline.total_budget_seconds
        if total is None:
            if self.slo_limit_seconds is None:
                return None
            total = deadline.slo_fraction * self.slo_limit_seconds
        return split_deadline(
            total,
            runtimes,
            self._plan,
            cold_latency=self._cold_latency,
            stage_slack=deadline.stage_slack,
        )

    def cap_stage(
        self,
        function_name: str,
        outcome: InvocationOutcome,
        budgets: Optional[Mapping[str, float]],
    ) -> InvocationOutcome:
        """Kill an attempt at its stage budget, like a fault-plan timeout."""
        if budgets is None:
            return outcome
        budget = budgets.get(function_name)
        if budget is None or outcome.elapsed_seconds <= budget:
            return outcome
        self.deadline_kills += 1
        return InvocationOutcome(
            fault=FaultKind.TIMEOUT, elapsed_seconds=budget, completed=False
        )

    # -- hedging -----------------------------------------------------------------
    def hedge_delay(
        self, function_name: str, planned_elapsed_seconds: float
    ) -> Optional[float]:
        """Seconds after attempt start to launch a hedge, or ``None``.

        A hedge fires only when the attempt's *planned* duration exceeds
        the function's rolling straggler percentile — the simulator knows
        every attempt's fate at start time, so "has been running longer
        than p-th percentile" collapses to this deterministic test.
        """
        hedging = self.policy.hedging
        if hedging is None:
            return None
        ordered = self._hedge_sorted.get(function_name)
        if ordered is None or len(ordered) < hedging.min_observations:
            return None
        threshold = nearest_rank(ordered, hedging.straggler_percentile)
        if planned_elapsed_seconds > threshold:
            return threshold
        return None


# -- named profiles ----------------------------------------------------------------


def _profiles(seed: int) -> Dict[str, ProtectionPolicy]:
    return {
        "none": ProtectionPolicy.none(seed=seed),
        "admission": ProtectionPolicy(
            admission=AdmissionControlConfig(
                max_estimated_wait_seconds=60.0, deadline_headroom=1.0
            ),
            seed=seed,
        ),
        "breakers": ProtectionPolicy(
            breaker=CircuitBreakerConfig(
                window_seconds=30.0,
                failure_threshold=0.5,
                min_attempts=5,
                open_seconds=30.0,
                half_open_probes=2,
            ),
            seed=seed,
        ),
        "shedding": ProtectionPolicy(
            shedding=LoadSheddingConfig(queue_high=8, queue_low=2),
            seed=seed,
        ),
        "hedging": ProtectionPolicy(
            hedging=HedgingConfig(straggler_percentile=75.0, min_observations=10),
            seed=seed,
        ),
        "deadlines": ProtectionPolicy(
            deadline=DeadlineConfig(slo_fraction=1.0, stage_slack=2.0),
            seed=seed,
        ),
        "full": ProtectionPolicy(
            # Tight enough that admitted requests still have SLO headroom
            # left after queueing (the chatbot acceptance scenarios sit at
            # ~78s uncontended service against a 120s SLO).
            admission=AdmissionControlConfig(max_estimated_wait_seconds=45.0),
            breaker=CircuitBreakerConfig(
                window_seconds=30.0,
                failure_threshold=0.65,
                min_attempts=8,
                open_seconds=20.0,
                half_open_probes=2,
            ),
            shedding=LoadSheddingConfig(
                queue_high=12, queue_low=3, sustain_seconds=10.0
            ),
            hedging=HedgingConfig(straggler_percentile=75.0, min_observations=10),
            seed=seed,
        ),
    }


#: Profile names accepted by :func:`get_protection_profile` (and
#: ``serve --protection``).
PROTECTION_PROFILE_NAMES: Tuple[str, ...] = tuple(sorted(_profiles(0)))


def get_protection_profile(name: str, seed: int = 2025) -> ProtectionPolicy:
    """Look up a named protection profile, rooted at ``seed``."""
    key = name.strip().lower()
    profiles = _profiles(int(seed))
    if key not in profiles:
        known = ", ".join(sorted(profiles))
        raise KeyError(f"unknown protection profile {name!r}; expected one of {known}")
    return profiles[key]
