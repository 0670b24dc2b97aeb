"""Event-driven serving layer: contended request streams over finite capacity.

The paper's input-aware engine (§IV-D, Fig. 8) is evaluated on request
*streams*, and the ROADMAP's north star is heavy traffic — so this module
models how serverless platforms are actually exercised: concurrent requests
contending for finite cluster capacity and a time-aware warm-container pool.

The :class:`ServingSimulator` drives a request stream through a discrete
:class:`~repro.execution.events.EventLoop`:

* Each arrival asks the cluster for capacity (one container per function of
  its configuration).  If the cluster cannot host the request it joins a FIFO
  queue; the wait is recorded as *queueing delay*.
* Dispatched requests obtain their pure service trace from the PR-1
  :class:`~repro.execution.backend.EvaluationBackend` layer at trigger time 0
  — deterministic traces are memoized; noisy runs bypass the cache — and the
  serving layer replays that trace at the dispatch time, overlaying per
  function cold starts from a shared, time-aware
  :class:`~repro.execution.container.ContainerPool`.
* On completion the capacity is released and queued requests are admitted in
  order.
* An optional autoscaler observes the arrival rate and resizes the warm pool
  (Little's-law target), trading cold starts against idle containers.

Everything is deterministic under a fixed seed: arrivals are generated from
:class:`~repro.utils.rng.RngStream` children, events at equal timestamps run
in insertion order, and per-request noise streams are derived from the
request index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.execution.backend import EvaluationBackend, SimulatorBackend
from repro.execution.cluster import Cluster, ClusterLedger
from repro.execution.container import ContainerPool
from repro.execution.events import EventLoop, Launch, RequestArrival, RequestCarry
from repro.execution.executor import WorkflowExecutor
from repro.execution.faults import (
    HEDGE_ATTEMPT_OFFSET,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InvocationOutcome,
)
from repro.execution.outcomes import ServedRequest, ServingMetrics, summarize_outcomes
from repro.execution.protection import ProtectionGuard, ProtectionPolicy
from repro.execution.trace import ExecutionStatus
from repro.utils.ranges import AT_LEAST_0, AT_LEAST_1, POSITIVE, check_fields
from repro.utils.rng import RngStream
from repro.utils.stats import percentile
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = [
    "AutoscalerOptions",
    "ServingOptions",
    "ServedRequest",
    "ServingMetrics",
    "ServingResult",
    "ServingSimulator",
    "percentile",
    "summarize_outcomes",
]


@dataclass(frozen=True)
class AutoscalerOptions:
    """Reactive warm-pool sizing policy.

    Every ``interval_seconds`` the autoscaler estimates the arrival rate over
    the trailing ``window_seconds`` and retargets the per-function warm-pool
    cap at ``ceil(rate × mean_service_time × headroom)`` (Little's law),
    clamped to ``[min_containers, max_containers]``.  Until the first request
    completes there is no service-time observation and the cap is left alone.
    """

    interval_seconds: float = POSITIVE.field(30.0)
    window_seconds: float = POSITIVE.field(60.0)
    headroom: float = POSITIVE.field(1.25)
    min_containers: int = AT_LEAST_1.field(1)
    max_containers: int = AT_LEAST_1.field(256)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.min_containers > self.max_containers:
            raise ValueError("need 1 <= min_containers <= max_containers")


@dataclass(frozen=True)
class ServingOptions:
    """Tunable behaviour of the serving simulator.

    Attributes
    ----------
    simulate_cold_starts:
        Overlay per-function cold starts from the shared warm pool.
    queue_capacity:
        Maximum *waiting* requests; an arrival that cannot dispatch once the
        queue is full is rejected (``0`` models a serve-or-reject loss
        system).  ``None`` queues without bound.
    autoscale:
        Enable the reactive warm-pool autoscaler.
    autoscaler:
        Policy knobs used when ``autoscale`` is on.
    """

    simulate_cold_starts: bool = True
    queue_capacity: Optional[int] = AT_LEAST_0.field(None)
    autoscale: bool = False
    autoscaler: AutoscalerOptions = field(default_factory=AutoscalerOptions)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class ServingResult:
    """Everything one serving run produced.

    ``outcomes`` holds the completed requests in index order: a list from
    the event loop, an :class:`~repro.execution.outcomes.OutcomeTable`
    (read-only, built on read) from the batched engine.
    """

    outcomes: Sequence[ServedRequest]
    rejected: List[RequestArrival]
    metrics: ServingMetrics
    autoscaler_decisions: List[Tuple[float, int]] = field(default_factory=list)
    #: Why the batched engine delegated this run to the event loop ("" = it
    #: did not): the first of ``"faults"``, ``"protection"``, ``"noise"``,
    #: ``"adaptive"``, ``"autoscale"`` and ``"cluster"`` that applies, or
    #: ``"unsorted-arrivals"``.  Stamped by the batched engine only.
    fallback_reason: str = ""
    #: Timestamped (time, kind, detail) protection decisions (breaker
    #: transitions, shed level changes); empty for unprotected runs.
    protection_events: List[Tuple[float, str, str]] = field(default_factory=list)

    def latencies(self) -> List[float]:
        """Per-request end-to-end latencies in arrival order."""
        return [o.latency_seconds for o in self.outcomes]

    def mean_latency_by_class(self) -> Dict[str, float]:
        """Average client-observed latency per input class."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            name = outcome.request.input_class
            sums[name] = sums.get(name, 0.0) + outcome.latency_seconds
            counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}

    def mean_cost_by_class(self) -> Dict[str, float]:
        """Average request cost per input class."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            name = outcome.request.input_class
            sums[name] = sums.get(name, 0.0) + outcome.cost
            counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}


class _Autoscaler:
    """Reactive warm-pool sizing from the observed arrival rate."""

    def __init__(self, pool: ContainerPool, options: AutoscalerOptions) -> None:
        self.pool = pool
        self.options = options
        self.decisions: List[Tuple[float, int]] = []
        self._arrivals: Deque[float] = deque()
        self._services: Deque[Tuple[float, float]] = deque()

    def observe_arrival(self, now: float) -> None:
        self._arrivals.append(now)

    def observe_service(self, now: float, seconds: float) -> None:
        self._services.append((now, seconds))

    def tick(self, now: float) -> None:
        cutoff = now - self.options.window_seconds
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        # Service observations share the arrivals' sliding window, so the
        # Little's-law target tracks *recent* service times rather than the
        # lifetime mean (which lags badly after a drift phase).
        while self._services and self._services[0][0] < cutoff:
            self._services.popleft()
        if not self._services:
            return
        # Warm-up correction (mirrors SlidingWindowMonitor): before a full
        # window has elapsed, divide by the time actually observed instead of
        # the nominal window, or early ticks underestimate the arrival rate.
        effective_window = (
            min(self.options.window_seconds, now) if now > 0 else self.options.window_seconds
        )
        rate = len(self._arrivals) / effective_window
        mean_service = sum(seconds for _, seconds in self._services) / len(self._services)
        target = math.ceil(rate * mean_service * self.options.headroom)
        target = max(self.options.min_containers, min(self.options.max_containers, target))
        if target != self.pool.max_containers_per_function:
            self.pool.resize(target)
            self.decisions.append((now, target))


class _HedgeToken:
    """Shared by a hedged primary's settle event and its hedge: a winning
    hedge sets ``cancelled`` to suppress the primary's settle."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False


class _FaultyLaunch(Launch):
    """Replay one request's service trace, attempt by attempt, with faults.

    The serving layer's one request lifecycle.  The trace comes from the
    backend at trigger 0 (memoizable); each function is then re-enacted as
    events at its absolute start and end times, acquiring a warm container
    at the true start and releasing it at the true end, so overlapping
    requests never share a container, exactly as on a real platform.

    Every invocation attempt asks the run's injector for its fate (clean
    completion, straggler slowdown, or a crash/OOM/timeout kill), killed
    attempts are retried under the plan's
    :class:`~repro.execution.faults.RetryPolicy` (a retry that exhausts its
    budget fails the function terminally and skips its dependents), and the
    whole launch can be *aborted* by a node failure — partial work is
    billed and counted as waste, and the run re-queues the request with its
    accumulated ``carry``.  An aborted launch is ``dead``: its pending
    events still fire and return at once.  A clean run's injector holds the
    empty plan, under which every attempt completes in its trace's runtime
    plus any cold start.

    A :class:`~repro.execution.protection.ProtectionGuard` adds two
    per-attempt mechanisms on top (both are skipped when the run has no
    guard):

    * **deadline budgets** — each attempt is capped at its stage's share of
      the end-to-end budget; exceeding it is a timeout kill, retried like any
      other.
    * **hedging** — an attempt planned to outlast the function's rolling
      straggler percentile gets a deterministic backup attempt launched at
      the percentile mark.  The race is resolved analytically at
      hedge-launch time (both fates are already known), but every
      consequence — loser cancellation, waste billing, breaker feeds, the
      retry of a doubly-killed stage — is still applied as events at its
      true simulated time.

    Attempts in flight are keyed ``k`` in ``running`` and a hedge of
    function ``k`` is keyed ``~k``.
    """

    __slots__ = ("run", "index", "request", "configuration", "trace", "carry",
                 "incarnation", "budgets", "dead", "running", "done_work", "failed", "skipped")

    def __init__(self, run: "_ServingRun", index: int, request: RequestArrival,
                 configuration: WorkflowConfiguration, trace, carry: RequestCarry) -> None:
        super().__init__(run.loop, run.plan, run.loop.now)
        self.run = run
        self.index = index
        self.request = request
        self.configuration = configuration
        self.trace = trace
        self.carry = carry
        self.incarnation = carry.restarts
        self.budgets = (
            run.guard.stage_budgets(
                {
                    name: record.runtime_seconds
                    for name, record in trace.records.items()
                    if record.status is not ExecutionStatus.SKIPPED
                }
            )
            if run.guard is not None
            else None
        )
        self.dead = False
        # Attempts in flight, as (container, start, config), and the work of
        # attempts already completed, as (elapsed, base_cost, config) — both
        # needed to account an abort.  Billing happens at settle/abort time
        # only, so the same attempt can never be charged twice.
        self.running: Dict[int, Tuple[Optional[object], float, object]] = {}
        self.done_work: List[Tuple[float, float, object]] = []
        # Positions of terminally failed functions, and the count of
        # functions the trace itself skips.
        self.failed: set = set()
        self.skipped = 0

    def _waste(self, elapsed: float, config) -> None:
        """Bill ``elapsed`` seconds of lost work on ``config``."""
        carry = self.carry
        carry.extra_cost += self.run.pricing.invocation_cost(elapsed, config)
        carry.wasted_seconds += elapsed
        carry.wasted_gb_seconds += config.memory_mb / 1024.0 * elapsed

    def _acquire(self, k: int, name: str, config, start: float):
        """Take a container for an attempt; returns it (or ``None``) and its
        cold-start penalty."""
        pool = self.run.pool
        if pool is None:
            return None, 0.0
        container, cold = pool.acquire(name, config, start)
        if not cold:
            return container, 0.0
        penalty = self.run.cold_latency[k]
        self.carry.cold_count += 1
        self.carry.cold_seconds += penalty
        return container, penalty

    def start(self, k: int, start: float, attempt: int = 1) -> None:
        if self.dead:
            return
        run = self.run
        name = self.plan.names[k]
        record = self.trace.records[name]
        if record.status is ExecutionStatus.SKIPPED:
            self.skipped += 1
            self._finish(k, start)
            return
        failed = self.failed
        if failed and not failed.isdisjoint(self.plan.preds[k]):
            # Upstream terminal (injected) failure: skip this work too.
            failed.add(k)
            self._finish(k, start)
            return
        carry = self.carry
        container, penalty = self._acquire(k, name, record.config, start)
        carry.attempts += 1
        # Track the attempt even without a container: an abort must account
        # its partial work whether or not cold starts are simulated.
        self.running[k] = (container, start, record.config)
        loop = self.loop
        if record.status is ExecutionStatus.OOM:
            # Configuration-caused OOM: deterministic, so retrying is
            # pointless.  The container dies and is never released; the
            # trace already bills the function and skips its dependents.
            outcome = InvocationOutcome(
                fault=None, elapsed_seconds=penalty + record.runtime_seconds, completed=True
            )
            end = start + outcome.elapsed_seconds
            loop.schedule(end, partial(self.settle_completed, k, k, end, outcome, record, False))
            return
        outcome = run.injector.plan_invocation(
            self.index, name, attempt, record.runtime_seconds, penalty, self.incarnation,
            carry.row,
        )
        guard = run.guard
        if guard is not None:
            outcome = guard.cap_stage(name, outcome, self.budgets)
        end = start + outcome.elapsed_seconds
        token = None
        if guard is not None and carry.hedges < guard.max_hedges_per_request:
            hedge_after = guard.hedge_delay(name, outcome.elapsed_seconds)
            if hedge_after is not None and start + hedge_after < end:
                # The settle below gets a token so a winning hedge can
                # suppress it; the race itself is resolved when the hedge
                # launches.
                token = _HedgeToken()
                loop.schedule(
                    start + hedge_after,
                    partial(self.launch_hedge, k, attempt, start + hedge_after, outcome,
                            end, record, token),
                )
        if outcome.completed:
            settle = partial(self.settle_completed, k, k, end, outcome, record, True, token)
        else:
            settle = partial(self.settle_killed, k, k, end, attempt, outcome, record, token)
        loop.schedule(end, settle)

    def settle_completed(self, k: int, key: int, end: float, outcome: InvocationOutcome,
                         record, release: bool, token: Optional[_HedgeToken] = None) -> None:
        """Attempt ``key`` (``k``, or ``~k`` for a winning hedge) completes."""
        if self.dead or (token is not None and token.cancelled):
            return
        run = self.run
        entry = self.running.pop(key, None)
        if entry is not None and entry[0] is not None and release:
            run.pool.release(entry[0], end)
        # else: a configuration OOM killed its own container; it is never
        # returned.
        carry = self.carry
        if outcome.fault is FaultKind.STRAGGLER:
            carry.count_fault(FaultKind.STRAGGLER)
        elapsed = outcome.elapsed_seconds
        if elapsed != record.runtime_seconds:
            # Bill the cold start and any straggler stretch on top of the
            # trace's own (base-runtime) cost; an attempt that took exactly
            # its runtime would add 0.0.
            pricing = run.pricing
            carry.extra_cost += pricing.invocation_cost(
                elapsed, record.config
            ) - pricing.invocation_cost(record.runtime_seconds, record.config)
        self.done_work.append((elapsed, record.cost, record.config))
        if key != k:
            carry.hedge_wins += 1
        if run.guard is not None:
            run.guard.observe_attempt(self.plan.names[k], end, False, elapsed)
        self._finish(k, end)

    def settle_killed(self, k: int, key: int, end: float, attempt: int,
                      outcome: InvocationOutcome, record,
                      token: Optional[_HedgeToken] = None) -> None:
        """Attempt ``key`` is killed and decides the stage's retry: the
        primary ``k``, or the hedge ``~k`` when both died and it died last."""
        if self.dead or (token is not None and token.cancelled):
            return
        run = self.run
        entry = self.running.pop(key, None)
        if entry is not None and entry[0] is not None:
            run.pool.kill(entry[0])
        # The killed attempt is billed in full and is pure waste; the trace's
        # base cost is only charged by the attempt that eventually completes.
        self.carry.count_fault(outcome.fault)
        self._waste(outcome.elapsed_seconds, record.config)
        name = self.plan.names[k]
        if run.guard is not None:
            run.guard.observe_attempt(name, end, True, None)
        delay = run.injector.backoff_seconds(
            self.index, name, attempt, self.incarnation, self.carry.row
        )
        if delay is None:
            # Retry budget exhausted: terminal failure.  Dependents are
            # skipped, sibling branches run to completion.
            self.failed.add(k)
            self._finish(k, end)
            return
        self.carry.retries += 1
        retry_at = end + delay
        self.loop.schedule(retry_at, partial(self.start, k, retry_at, attempt + 1))

    def leave_race(self, k: int, key: int, at: float, fault: Optional[FaultKind]) -> None:
        """Attempt ``key`` leaves a hedge race at ``at``, its work wasted:
        killed by its own ``fault``, or cancelled (``fault`` is ``None``)
        because the other attempt won."""
        if self.dead:
            return
        entry = self.running.pop(key, None)
        if entry is None:
            return
        container, started, config = entry
        elapsed = at - started
        if elapsed > 0:
            self._waste(elapsed, config)
        if fault is not None:
            self.carry.count_fault(fault)
            self.run.guard.observe_attempt(self.plan.names[k], at, True, None)
        if container is not None:
            self.run.pool.kill(container)

    def launch_hedge(self, k: int, attempt: int, h_start: float,
                     p_outcome: InvocationOutcome, p_end: float, record,
                     token: _HedgeToken) -> None:
        """Launch the backup attempt and resolve the race.

        Both fates are fully determined here (the injector is a pure
        function of the attempt's identity), so the winner is picked
        analytically — but every consequence is scheduled as an event at its
        true time, so containers, billing and breaker feeds all happen
        exactly when they would on a real platform.
        """
        run, carry = self.run, self.carry
        guard = run.guard
        if self.dead or k not in self.running or carry.hedges >= guard.max_hedges_per_request:
            return
        name = self.plan.names[k]
        h_container, penalty = self._acquire(k, name, record.config, h_start)
        carry.attempts += 1
        carry.hedges += 1
        h_outcome = run.injector.plan_invocation(
            self.index, name, HEDGE_ATTEMPT_OFFSET + attempt, record.runtime_seconds, penalty,
            self.incarnation, carry.row,
        )
        h_outcome = guard.cap_stage(name, h_outcome, self.budgets)
        h_end = h_start + h_outcome.elapsed_seconds
        self.running[~k] = (h_container, h_start, record.config)
        loop = self.loop
        p_ok = p_outcome.completed
        h_ok = h_outcome.completed
        if p_ok and (not h_ok or p_end <= h_end):
            # Primary wins (ties favour it); the hedge dies on its own fault
            # if that comes first, else is cancelled at p_end.
            if not h_ok and h_end <= p_end:
                loop.schedule(h_end, partial(self.leave_race, k, ~k, h_end, h_outcome.fault))
            else:
                loop.schedule(p_end, partial(self.leave_race, k, ~k, p_end, None))
        elif h_ok and (not p_ok or h_end < p_end):
            # Hedge wins: suppress the primary's scheduled settle and re-enact
            # its exit at the right moment — its own kill at p_end, or its
            # cancellation the moment the hedge completes.
            token.cancelled = True
            if not p_ok and p_end < h_end:
                loop.schedule(p_end, partial(self.leave_race, k, k, p_end, p_outcome.fault))
            else:
                loop.schedule(h_end, partial(self.leave_race, k, k, h_end, None))
            loop.schedule(h_end, partial(self.settle_completed, k, ~k, h_end, h_outcome,
                                         record, True))
        elif p_end <= h_end:
            # Both die and the hedge dies last: it owns the stage's retry
            # decision (the primary's settle is suppressed so the stage
            # cannot retry twice).
            token.cancelled = True
            loop.schedule(p_end, partial(self.leave_race, k, k, p_end, p_outcome.fault))
            loop.schedule(h_end, partial(self.settle_killed, k, ~k, h_end, attempt,
                                         h_outcome, record))
        else:
            # Both die and the primary dies last: its own settle still fires
            # at p_end and retries as usual.
            loop.schedule(h_end, partial(self.leave_race, k, ~k, h_end, h_outcome.fault))

    def _complete(self) -> None:
        # A terminally failed request is billed only for the work that
        # actually ran (completed attempts' base costs live in ``done_work``,
        # killed attempts in ``carry.extra_cost``); the functions its failure
        # skipped never execute, so the trace's full base cost would
        # overcharge it.
        trace, carry = self.trace, self.carry
        if self.failed:
            base_cost = sum(cost for _, cost, _ in self.done_work)
        else:
            base_cost = trace.total_cost
        outcome = ServedRequest(
            index=self.index,
            request=self.request,
            configuration=self.configuration,
            dispatch_time=self.dispatch_time,
            completion_time=self.completion,
            cost=base_cost + carry.extra_cost,
            cold_start_count=carry.cold_count,
            cold_start_seconds=carry.cold_seconds,
            succeeded=trace.succeeded and not self.failed,
            service_trace=trace,
            attempts=carry.attempts,
            retries=carry.retries,
            restarts=carry.restarts,
            base_invocations=len(self.plan.names) - self.skipped,
            wasted_seconds=carry.wasted_seconds,
            wasted_gb_seconds=carry.wasted_gb_seconds,
            # The carry ends with the request, so its counts are handed over.
            fault_counts=carry.fault_counts,
            hedges=carry.hedges,
            hedge_wins=carry.hedge_wins,
        )
        self.loop.schedule(self.completion, partial(self.deliver, outcome))

    def deliver(self, outcome: ServedRequest) -> None:
        """The completion event; an aborted launch delivers nothing."""
        if not self.dead:
            self.run.finish_request(outcome)

    def abort(self, now: float) -> None:
        """Node failure took this request's placement: lose all work."""
        self.dead = True
        carry = self.carry
        for container, started_at, config in self.running.values():
            elapsed = now - started_at
            if elapsed > 0:
                self._waste(elapsed, config)
            if container is not None:
                self.run.pool.kill(container)
        self.running.clear()
        for elapsed, base_cost, config in self.done_work:
            # Completed work must be redone from scratch by the next
            # incarnation, whose trace cost bills it again — so charge (and
            # count as waste) the aborted incarnation's share here.
            carry.extra_cost += base_cost
            carry.wasted_seconds += elapsed
            carry.wasted_gb_seconds += config.memory_mb / 1024.0 * elapsed
        carry.count_fault(FaultKind.NODE_FAILURE)
        carry.restarts += 1


class _ServingRun:
    """One serving run: what its launches share, and its event handlers.

    Each handler is a method, scheduled as a ``functools.partial`` of a
    bound method, and neither the run nor a launch stores a bound method of
    the run, so once the loop has drained nothing refers back to the run and
    reference counting frees it when :meth:`ServingSimulator.run` returns.
    A launch holds the run and calls :meth:`finish_request` at completion.
    """

    __slots__ = ("simulator", "configuration_for", "rng", "controller", "loop", "plan",
                 "pool", "pricing", "cold_latency", "ledger", "queue", "outcomes", "rejected",
                 "rejection_causes", "autoscaler", "pending_arrivals", "guard", "injector",
                 "inflight", "carries", "node_failures")

    def __init__(self, simulator: "ServingSimulator",
                 configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
                 rng: Optional[RngStream], fault_rng: Optional[RngStream], controller,
                 pending_arrivals: int) -> None:
        self.simulator = simulator
        self.configuration_for = configuration_for
        self.rng = rng
        self.controller = controller
        self.loop = EventLoop()
        self.plan = simulator.workflow.plan
        #: ``None`` when cold starts are not simulated.
        self.pool = (
            simulator.container_pool if simulator.options.simulate_cold_starts else None
        )
        self.pricing = simulator.executor.pricing
        self.cold_latency = simulator._cold_latency
        self.ledger = ClusterLedger(simulator.cluster)
        self.queue: Deque[Tuple[int, RequestArrival, WorkflowConfiguration]] = deque()
        self.outcomes: List[ServedRequest] = []
        self.rejected: List[RequestArrival] = []
        self.rejection_causes: Dict[str, int] = {}
        self.autoscaler = (
            _Autoscaler(simulator.container_pool, simulator.options.autoscaler)
            if simulator.options.autoscale
            else None
        )
        self.pending_arrivals = pending_arrivals
        policy = simulator.protection
        self.guard = guard = (
            ProtectionGuard(
                policy,
                self.plan,
                slo_limit_seconds=(
                    simulator.slo.latency_limit if simulator.slo is not None else None
                ),
                cold_latency=self.cold_latency,
            )
            if policy is not None and not policy.is_empty
            else None
        )
        faults = simulator.faults
        if faults is None or faults.is_empty:
            # Nothing to inject: under the empty plan every attempt takes its
            # trace's runtime plus any cold start, unless a protected run's
            # deadline kills it first (and then it is not retried).
            faults = FaultPlan.none(seed=policy.seed) if guard is not None else FaultPlan.none()
        self.injector = FaultInjector(
            faults,
            fault_rng,
            function_names=self.plan.names,
            hedging=guard is not None and policy.hedging is not None,
        )
        # The launches in flight (a node failure aborts them), counters
        # carried across node-failure incarnations, and the failure count.
        self.inflight: Dict[int, _FaultyLaunch] = {}
        self.carries: Dict[int, RequestCarry] = {}
        self.node_failures = 0
        if controller is not None:
            controller.bind(pool=simulator.container_pool)

    def reject(self, index: int, request: RequestArrival, cause: str) -> None:
        self.rejected.append(request)
        causes = self.rejection_causes
        causes[cause] = causes.get(cause, 0) + 1
        if self.controller is not None:
            self.controller.observe_rejection(self.loop.now, index)

    def arrive(self, index: int, request: RequestArrival) -> None:
        self.pending_arrivals -= 1
        now = self.loop.now
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(now)
        controller = self.controller
        if controller is not None:
            # The controller assigns the configuration (active version, or
            # the canary during a rollout) at arrival time; a later
            # node-failure re-queue keeps it.
            controller.observe_arrival(now, request)
            configuration = controller.assign(index, request)
        else:
            configuration = self.configuration_for(request)
        queue = self.queue
        if self.guard is not None:
            # Protection vets the arrival before it can queue: an open
            # breaker, an active shed level, or an admission verdict rejects
            # it outright with its cause.
            cause = self.guard.admit(now, request.input_class, len(queue), self.ledger.active)
            if cause is not None:
                self.reject(index, request, cause)
                return
        queue.append((index, request, configuration))
        self.try_dispatch()
        # The capacity bounds *waiting* requests: an arrival that dispatched
        # immediately never counts against it (so queue_capacity=0 models a
        # serve-or-reject loss system).
        capacity = self.simulator.options.queue_capacity
        if capacity is not None and len(queue) > capacity:
            dropped_index, dropped, _ = queue.pop()
            self.reject(dropped_index, dropped, "queue-full")

    def try_dispatch(self) -> None:
        # Strict FIFO admission: stop at the first request that does not fit
        # so later (possibly smaller) requests cannot starve it.
        queue, ledger, loop = self.queue, self.ledger, self.loop
        guard, injector, rng = self.guard, self.injector, self.rng
        simulator = self.simulator
        while queue:
            index, request, configuration = queue[0]
            if ledger.try_reserve(index, configuration, loop.now) is None:
                if ledger.active == 0 and not ledger.has_down_nodes:
                    # Fits on no node even with the cluster empty: it can
                    # never be served, so drop it instead of deadlocking the
                    # queue.  (With a node down, wait for recovery instead —
                    # the capacity may come back.)
                    queue.popleft()
                    self.reject(index, request, "queue-full")
                    continue
                break
            queue.popleft()
            if guard is not None:
                guard.observe_dispatch(loop.now)
            trace = simulator.backend.evaluate(
                simulator.workflow,
                configuration,
                input_scale=request.input_scale,
                rng=rng.child("request", index) if rng is not None else None,
            )
            carry = self.carries.get(index)
            if carry is None:
                carry = self.carries[index] = RequestCarry(injector.draw_row(index))
            launch = self.inflight[index] = _FaultyLaunch(
                self, index, request, configuration, trace, carry
            )
            launch.begin()

    def finish_request(self, outcome: ServedRequest) -> None:
        index = outcome.index
        now = self.loop.now
        self.ledger.release(index, now)
        controller = self.controller
        if controller is not None:
            outcome.config_version = controller.version_of(index)
        self.outcomes.append(outcome)
        del self.inflight[index], self.carries[index]
        if self.guard is not None:
            self.guard.observe_completion(outcome.service_seconds)
        if self.autoscaler is not None:
            self.autoscaler.observe_service(now, outcome.service_seconds)
        if controller is not None:
            # May fire drift detection, an inline re-tune and a rollout step
            # — all in simulated-zero time within this event.
            controller.observe_completion(now, outcome)
        self.try_dispatch()

    def node_failure(self, node_name: str) -> None:
        simulator = self.simulator
        if not simulator.cluster.node(node_name).healthy:
            return  # struck while already down
        loop = self.loop
        affected = self.ledger.fail_node(node_name, loop.now)
        self.node_failures += 1
        loop.schedule_after(
            self.injector.plan.node_recovery_seconds, partial(self.recover, node_name)
        )
        # Abort every in-flight request that lost its placement and re-queue
        # it at the front (it was admitted first); reversed() keeps the
        # original index order at the head.
        for request_id in reversed(affected):
            launch = self.inflight.pop(request_id, None)
            if launch is None:
                continue
            launch.abort(loop.now)
            self.queue.appendleft((request_id, launch.request, launch.configuration))
        self.try_dispatch()

    def recover(self, node_name: str) -> None:
        self.ledger.restore_node(node_name, self.loop.now)
        self.try_dispatch()

    def autoscale_tick(self) -> None:
        self.autoscaler.tick(self.loop.now)
        # Keep ticking only while there is (or will be) work; the loop must
        # drain once the last request completes.
        if self.pending_arrivals > 0 or self.queue or self.ledger.active > 0:
            self.loop.schedule_after(
                self.simulator.options.autoscaler.interval_seconds, self.autoscale_tick
            )


class ServingSimulator:
    """Serve a request stream against finite cluster and warm-pool capacity.

    Parameters
    ----------
    workflow:
        The DAG each request executes.
    executor:
        Supplies the performance model, pricing, and (by default) the shared
        warm pool.  Must not simulate cold starts itself — the serving layer
        overlays them so service traces stay memoizable.
    backend:
        Evaluation substrate for service traces; defaults to a plain
        :class:`SimulatorBackend` over ``executor``.  Pass a
        :class:`~repro.execution.backend.CachingBackend` stack to memoize.
        It must be ``deterministic``: one over an executor that simulates
        cold starts is rejected, as such an executor is.
    cluster:
        Finite capacity the requests contend for; ``None`` serves every
        request immediately (no queueing).
    container_pool:
        Warm pool for the cold-start overlay; defaults to the executor's own
        pool so backend statistics report the serving pool's counters.  Each
        run starts from an empty pool at the cap it had when the simulator
        was built; the counters accumulate across runs.
    slo:
        End-to-end latency objective used for SLO-attainment reporting.
    options:
        Queueing / cold-start / autoscaling knobs.
    faults:
        Optional :class:`~repro.execution.faults.FaultPlan` perturbing the
        run (crashes, OOM/timeout kills, stragglers, node failures,
        retries).  ``None`` and an *empty* plan both mean the empty plan:
        every request takes the same attempt-by-attempt path, and none is
        perturbed.
    protection:
        Optional :class:`~repro.execution.protection.ProtectionPolicy`
        defending the run (admission control, circuit breakers, load
        shedding, hedging, deadline budgets).  ``None`` and an *empty*
        policy both run unguarded, with identical results.
    """

    def __init__(
        self,
        workflow: Workflow,
        executor: WorkflowExecutor,
        backend: Optional[EvaluationBackend] = None,
        cluster: Optional[Cluster] = None,
        container_pool: Optional[ContainerPool] = None,
        slo: Optional[SLO] = None,
        options: Optional[ServingOptions] = None,
        faults: Optional[FaultPlan] = None,
        protection: Optional[ProtectionPolicy] = None,
    ) -> None:
        if executor.options.simulate_cold_starts:
            raise ValueError(
                "the serving layer overlays cold starts itself; build the "
                "executor with simulate_cold_starts=False"
            )
        self.workflow = workflow
        self.executor = executor
        self.backend = backend if backend is not None else SimulatorBackend(executor)
        if not self.backend.deterministic:
            raise ValueError(
                "the serving layer overlays cold starts itself, so its backend "
                "must be deterministic (its executor must not simulate cold starts)"
            )
        self.cluster = cluster
        self.container_pool = (
            container_pool if container_pool is not None else executor.container_pool
        )
        # Every run starts from an empty pool at this cap (the autoscaler
        # resizes the pool during a run).
        self._pool_capacity = self.container_pool.max_containers_per_function
        self.slo = slo
        self.options = options if options is not None else ServingOptions()
        self.faults = faults
        self.protection = protection
        # Aligned with ``workflow.plan.names``, resolved once instead of on
        # the per-request hot path.
        self._cold_latency = executor.cold_latencies(workflow)

    def _reset_pool(self) -> None:
        """Empty the warm pool and restore its cap before a run.

        The pool's cumulative counters stay, since backend statistics read
        them across runs.
        """
        self.container_pool.clear()
        self.container_pool.resize(self._pool_capacity)

    # -- the event-driven run ------------------------------------------------------
    def run(
        self,
        requests: Iterable[RequestArrival],
        configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
        rng: Optional[RngStream] = None,
        duration_seconds: Optional[float] = None,
        fault_rng: Optional[RngStream] = None,
        controller=None,
    ) -> ServingResult:
        """Serve the whole stream and return outcomes plus metrics.

        Parameters
        ----------
        requests:
            The request stream; arrivals are processed in time order (equal
            timestamps keep stream order).
        configuration_for:
            Per-arrival configuration callback — constant for fixed
            configurations, or the input-aware engine's dispatcher.
        rng:
            Optional noise stream; children are derived per request index so
            results do not depend on dispatch interleaving.
        duration_seconds:
            Nominal traffic duration used for the offered-rate metric;
            defaults to the last arrival time.  The run itself always drains:
            queued work completes past the horizon.
        fault_rng:
            Optional stream overriding the fault plan's own seed (the
            default derives the schedule from ``faults.seed``, so two runs
            of the same simulator are identical).
        controller:
            Optional :class:`~repro.control.controller.ReconfigurationController`
            closing the monitoring → drift-detection → re-tune → rollout loop
            *inside* this run.  When present it owns configuration selection:
            each arrival is assigned the controller's active (or canary)
            configuration version instead of ``configuration_for``, each
            completion feeds the controller's monitor (and may trigger a
            re-tune), and completed outcomes carry their ``config_version``.
            All controller work happens inline within existing arrival and
            completion events — no extra events are scheduled — so a
            controller that never re-tunes (e.g. a ``NullDriftDetector``)
            leaves the run byte-identical to a static one.
        """
        self._reset_pool()
        request_list = list(requests)
        run = _ServingRun(
            self, configuration_for, rng, fault_rng, controller, len(request_list)
        )
        loop = run.loop
        for index, request in enumerate(request_list):
            loop.schedule(request.arrival_time, partial(run.arrive, index, request))

        if duration_seconds is None:
            duration_seconds = max((r.arrival_time for r in request_list), default=0.0)

        if self.cluster is not None:
            for failure_time, node_name in run.injector.node_failure_schedule(
                duration_seconds, [node.name for node in self.cluster.nodes]
            ):
                loop.schedule(failure_time, partial(run.node_failure, node_name))

        if run.autoscaler is not None:
            loop.schedule_after(self.options.autoscaler.interval_seconds, run.autoscale_tick)

        loop.run()
        ledger = run.ledger
        ledger.advance(loop.now)
        outcomes = run.outcomes
        outcomes.sort(key=lambda o: o.index)
        metrics = summarize_outcomes(
            outcomes, run.rejected, duration_seconds, len(request_list), self.slo,
            ledger=ledger,
            node_failures=run.node_failures,
            rejection_causes=run.rejection_causes,
        )
        protection_events: List[Tuple[float, str, str]] = []
        guard = run.guard
        if guard is not None:
            metrics.breaker_opens = guard.breaker_opens
            metrics.deadline_kills = guard.deadline_kills
            protection_events = guard.drain_events()
            if controller is not None and hasattr(controller, "observe_protection"):
                for when, kind, detail in protection_events:
                    controller.observe_protection(when, kind, detail)
        autoscaler = run.autoscaler
        return ServingResult(
            outcomes=outcomes,
            rejected=run.rejected,
            metrics=metrics,
            autoscaler_decisions=autoscaler.decisions if autoscaler is not None else [],
            protection_events=protection_events,
        )

