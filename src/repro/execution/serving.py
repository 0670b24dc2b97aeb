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
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.execution.backend import EvaluationBackend, SimulatorBackend
from repro.execution.cluster import Cluster, ClusterLedger
from repro.execution.container import ContainerPool
from repro.execution.events import EventLoop, RequestArrival
from repro.execution.executor import WorkflowExecutor
from repro.execution.faults import (
    HEDGE_ATTEMPT_OFFSET,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InvocationOutcome,
)
from repro.execution.protection import ProtectionGuard, ProtectionPolicy
from repro.execution.trace import ExecutionStatus, ExecutionTrace
from repro.utils.rng import RngStream
from repro.utils.stats import nearest_rank, percentile
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

    interval_seconds: float = 30.0
    window_seconds: float = 60.0
    headroom: float = 1.25
    min_containers: int = 1
    max_containers: int = 256

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0 or self.window_seconds <= 0:
            raise ValueError("autoscaler intervals must be positive")
        if self.headroom <= 0:
            raise ValueError("headroom must be positive")
        if not 1 <= self.min_containers <= self.max_containers:
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
    queue_capacity: Optional[int] = None
    autoscale: bool = False
    autoscaler: AutoscalerOptions = field(default_factory=AutoscalerOptions)


class ServedRequest:
    """Outcome of one request that made it through the serving layer.

    The resilience fields (``attempts`` onwards) are only populated by
    fault-injecting runs; fault-free runs leave them at their zero defaults.
    ``base_invocations`` counts the invocations a fault-free execution of
    the same trace performs, so ``attempts / base_invocations`` is the
    request's retry amplification.

    A million-request run allocates one of these per request, so the class
    is a hand-written ``__slots__`` record rather than a dataclass (which
    cannot combine slots with field defaults before Python 3.10); the
    memory win is measured in ``benchmarks/results/BENCH_serving.json``.
    ``config_version`` stays writable — the serving loop stamps it at
    completion time under an adaptive controller.
    """

    __slots__ = (
        "index",
        "request",
        "configuration",
        "dispatch_time",
        "completion_time",
        "cost",
        "cold_start_count",
        "cold_start_seconds",
        "succeeded",
        "service_trace",
        "config_version",
        "attempts",
        "retries",
        "restarts",
        "base_invocations",
        "wasted_seconds",
        "wasted_gb_seconds",
        "fault_counts",
        "hedges",
        "hedge_wins",
    )

    def __init__(
        self,
        index: int,
        request: RequestArrival,
        configuration: WorkflowConfiguration,
        dispatch_time: float,
        completion_time: float,
        cost: float,
        cold_start_count: int = 0,
        cold_start_seconds: float = 0.0,
        succeeded: bool = True,
        service_trace: Optional[ExecutionTrace] = None,
        config_version: int = 0,
        attempts: int = 0,
        retries: int = 0,
        restarts: int = 0,
        base_invocations: int = 0,
        wasted_seconds: float = 0.0,
        wasted_gb_seconds: float = 0.0,
        fault_counts: Optional[Dict[str, int]] = None,
        hedges: int = 0,
        hedge_wins: int = 0,
    ) -> None:
        self.index = index
        self.request = request
        self.configuration = configuration
        self.dispatch_time = dispatch_time
        self.completion_time = completion_time
        self.cost = cost
        self.cold_start_count = cold_start_count
        self.cold_start_seconds = cold_start_seconds
        self.succeeded = succeeded
        self.service_trace = service_trace
        #: Configuration version that served this request (0 = the initial
        #: configuration; bumped by adaptive re-tunes).  Static runs stay at 0.
        self.config_version = config_version
        self.attempts = attempts
        self.retries = retries
        self.restarts = restarts
        self.base_invocations = base_invocations
        self.wasted_seconds = wasted_seconds
        self.wasted_gb_seconds = wasted_gb_seconds
        self.fault_counts = fault_counts if fault_counts is not None else {}
        self.hedges = hedges
        self.hedge_wins = hedge_wins

    def __repr__(self) -> str:
        return (
            f"ServedRequest(index={self.index}, "
            f"arrival={self.request.arrival_time!r}, "
            f"dispatch={self.dispatch_time!r}, "
            f"completion={self.completion_time!r}, cost={self.cost!r}, "
            f"succeeded={self.succeeded})"
        )

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    @property
    def arrival_time(self) -> float:
        """When the request entered the system."""
        return self.request.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for cluster capacity."""
        return self.dispatch_time - self.request.arrival_time

    @property
    def service_seconds(self) -> float:
        """Time from dispatch to completion (cold starts included)."""
        return self.completion_time - self.dispatch_time

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency the client observes (queueing included)."""
        return self.completion_time - self.request.arrival_time


@dataclass
class ServingMetrics:
    """Tail-latency / SLO / cost summary of one serving run."""

    duration_seconds: float
    offered: int
    completed: int
    rejected: int
    failed: int
    makespan_seconds: float
    offered_rate_rps: float
    throughput_rps: float
    latency_mean_seconds: float
    latency_p50_seconds: float
    latency_p95_seconds: float
    latency_p99_seconds: float
    latency_max_seconds: float
    queueing_mean_seconds: float
    queueing_p95_seconds: float
    queueing_max_seconds: float
    slo_limit_seconds: Optional[float]
    slo_attainment: Optional[float]
    cold_start_request_rate: float
    cold_start_invocations: int
    mean_cost_per_request: float
    total_cost: float
    cpu_utilization: Optional[float]
    memory_utilization: Optional[float]
    peak_concurrency: int
    mean_concurrency: float
    # -- resilience metrics (fault-injection runs; zero/identity otherwise) ----
    goodput_rps: float = 0.0
    availability: float = 1.0
    retry_amplification: float = 1.0
    wasted_seconds: float = 0.0
    wasted_gb_seconds: float = 0.0
    faults_injected: int = 0
    node_failures: int = 0
    # -- graceful-degradation metrics (protected runs; empty/zero otherwise) ----
    rejected_by_cause: Dict[str, int] = field(default_factory=dict)
    hedges_launched: int = 0
    hedge_wins: int = 0
    breaker_opens: int = 0
    deadline_kills: int = 0


@dataclass
class ServingResult:
    """Everything one serving run produced."""

    outcomes: List[ServedRequest]
    rejected: List[RequestArrival]
    metrics: ServingMetrics
    autoscaler_decisions: List[Tuple[float, int]] = field(default_factory=list)
    #: Why a batched engine delegated this run to the scalar one ("" = it
    #: did not).  Stamped by the batched engine, never by the scalar path.
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


class _RequestCarry:
    """Counters one request accumulates across node-failure incarnations.

    A node failure aborts the in-flight request and re-queues it; the fresh
    launch must keep billing, retry and wasted-work totals from the aborted
    incarnation, so they live here rather than in per-launch state.
    ``__slots__``-backed like :class:`ServedRequest` — one per in-flight
    request on the faulty hot path.
    """

    __slots__ = (
        "attempts",
        "retries",
        "restarts",
        "wasted_seconds",
        "wasted_gb_seconds",
        "extra_cost",
        "cold_count",
        "cold_seconds",
        "fault_counts",
        "hedges",
        "hedge_wins",
    )

    def __init__(self) -> None:
        self.attempts = 0
        self.retries = 0
        self.restarts = 0
        self.wasted_seconds = 0.0
        self.wasted_gb_seconds = 0.0
        self.extra_cost = 0.0
        self.cold_count = 0
        self.cold_seconds = 0.0
        self.fault_counts: Dict[str, int] = {}
        self.hedges = 0
        self.hedge_wins = 0

    def count_fault(self, kind: FaultKind) -> None:
        self.fault_counts[kind.value] = self.fault_counts.get(kind.value, 0) + 1


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
    cluster:
        Finite capacity the requests contend for; ``None`` serves every
        request immediately (no queueing).
    container_pool:
        Warm pool for the cold-start overlay; defaults to the executor's own
        pool so backend statistics report the serving pool's counters.
    slo:
        End-to-end latency objective used for SLO-attainment reporting.
    options:
        Queueing / cold-start / autoscaling knobs.
    faults:
        Optional :class:`~repro.execution.faults.FaultPlan` perturbing the
        run (crashes, OOM/timeout kills, stragglers, node failures,
        retries).  ``None`` — or an *empty* plan — leaves the unperturbed
        code path untouched, so such runs are byte-identical to pre-fault
        behaviour.
    protection:
        Optional :class:`~repro.execution.protection.ProtectionPolicy`
        defending the run (admission control, circuit breakers, load
        shedding, hedging, deadline budgets).  ``None`` — or an *empty*
        policy — leaves the unprotected code path untouched, mirroring the
        empty-fault-plan invariant.
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
        self.cluster = cluster
        self.container_pool = (
            container_pool if container_pool is not None else executor.container_pool
        )
        self.slo = slo
        self.options = options if options is not None else ServingOptions()
        self.faults = faults
        self.protection = protection
        # The workflow is fixed for the simulator's lifetime: resolve the
        # per-function cold-start latencies, topological order and adjacency
        # once instead of on the per-request hot path.
        self._cold_latency = {
            spec.name: executor.cold_start_latency(spec.profile_name)
            for spec in workflow.functions
        }
        self._topo_order: List[str] = list(workflow.topological_order())
        self._predecessors: Dict[str, List[str]] = {
            name: list(workflow.predecessors(name)) for name in self._topo_order
        }
        self._successors: Dict[str, List[str]] = {name: [] for name in self._topo_order}
        for name, preds in self._predecessors.items():
            for pred in preds:
                self._successors[pred].append(name)

    # -- service-time reconstruction ---------------------------------------------
    def _launch(
        self,
        loop: EventLoop,
        index: int,
        request: RequestArrival,
        configuration: WorkflowConfiguration,
        dispatch_time: float,
        rng: Optional[RngStream],
        on_complete: Callable[[ServedRequest], None],
    ) -> None:
        """Replay one request's service trace on the event loop.

        The trace comes from the backend at trigger 0 (memoizable); each
        function is then re-enacted as events at its absolute start/finish
        times, acquiring warm containers at the true start and releasing them
        at the true finish — so overlapping requests can never share a
        container, exactly as on a real platform.  ``on_complete`` fires as a
        loop event at the request's completion time.
        """
        trace = self.backend.evaluate(
            self.workflow,
            configuration,
            input_scale=request.input_scale,
            rng=rng,
        )
        pool = self.container_pool if self.options.simulate_cold_starts else None
        records = trace.records
        finish: Dict[str, float] = {}
        waiting = {
            name: sum(1 for p in self._predecessors[name] if p in records)
            for name in self._topo_order
            if name in records
        }
        state = {
            "remaining": len(waiting),
            "completion": dispatch_time,
            "cold_count": 0,
            "cold_seconds": 0.0,
            "extra_cost": 0.0,
        }

        def finish_function(name: str, end: float) -> None:
            finish[name] = end
            state["completion"] = max(state["completion"], end)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                outcome = ServedRequest(
                    index=index,
                    request=request,
                    configuration=configuration,
                    dispatch_time=dispatch_time,
                    completion_time=state["completion"],
                    cost=trace.total_cost + state["extra_cost"],
                    cold_start_count=state["cold_count"],
                    cold_start_seconds=state["cold_seconds"],
                    succeeded=trace.succeeded,
                    service_trace=trace,
                )
                loop.schedule(state["completion"], lambda: on_complete(outcome))
                return
            for successor in self._successors[name]:
                if successor not in waiting:
                    continue
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    start = max(
                        finish[p] for p in self._predecessors[successor] if p in finish
                    )
                    loop.schedule(start, run_function(successor, start))

        def run_function(name: str, start: float) -> Callable[[], None]:
            def fire() -> None:
                record = records[name]
                if record.status is ExecutionStatus.SKIPPED:
                    finish_function(name, start)
                    return
                penalty = 0.0
                container = None
                if pool is not None:
                    container, cold = pool.acquire(name, record.config, start)
                    if cold:
                        penalty = self._cold_latency[name]
                        state["cold_count"] += 1
                        state["cold_seconds"] += penalty
                end = start + penalty + record.runtime_seconds
                if container is not None:
                    if record.status is ExecutionStatus.OOM:
                        # The OOM kill destroys the container: never released.
                        pass
                    else:
                        # Released as an event at the true finish time, so a
                        # concurrent request cannot warm-hit a busy container.
                        loop.schedule(
                            end,
                            lambda c=container, t=end: pool.release(c, t),
                        )
                if penalty > 0.0:
                    # The cold start is billed like runtime on the same container.
                    state["extra_cost"] += self.executor.pricing.invocation_cost(
                        record.runtime_seconds + penalty, record.config
                    ) - self.executor.pricing.invocation_cost(
                        record.runtime_seconds, record.config
                    )
                finish_function(name, end)

            return fire

        roots = [name for name, pending in waiting.items() if pending == 0]
        if not roots:
            # Degenerate empty trace: complete immediately with zero work.
            loop.schedule(
                dispatch_time,
                lambda: on_complete(
                    ServedRequest(
                        index=index,
                        request=request,
                        configuration=configuration,
                        dispatch_time=dispatch_time,
                        completion_time=dispatch_time,
                        cost=trace.total_cost,
                        succeeded=trace.succeeded,
                        service_trace=trace,
                    )
                ),
            )
            return
        for name in roots:
            loop.schedule(dispatch_time, run_function(name, dispatch_time))

    # -- fault-injecting service replay --------------------------------------------
    def _launch_faulty(
        self,
        loop: EventLoop,
        injector: FaultInjector,
        index: int,
        request: RequestArrival,
        configuration: WorkflowConfiguration,
        dispatch_time: float,
        rng: Optional[RngStream],
        on_complete: Callable[[ServedRequest], None],
        register_abort: Callable[[int, Callable[[float], None]], None],
        carry: _RequestCarry,
        guard: Optional[ProtectionGuard] = None,
    ) -> None:
        """Replay one request's service trace with fault injection.

        Mirrors :meth:`_launch`, with three additions: every invocation
        attempt asks the injector for its fate (clean completion, straggler
        slowdown, or a crash/OOM/timeout kill), killed attempts are retried
        under the plan's :class:`~repro.execution.faults.RetryPolicy` (a
        retry that exhausts its budget fails the function terminally and
        skips its dependents), and the whole launch can be *aborted* by a
        node failure — partial work is billed and counted as waste, and the
        caller re-queues the request with its accumulated ``carry``.

        A :class:`~repro.execution.protection.ProtectionGuard` adds two
        per-attempt mechanisms on top (everything below is a strict no-op
        when ``guard`` is ``None``, keeping faulty-but-unprotected runs
        byte-identical to their PR 4 behaviour):

        * **deadline budgets** — each attempt is capped at its stage's
          share of the end-to-end budget; exceeding it is a timeout kill,
          retried like any other.
        * **hedging** — an attempt planned to outlast the function's
          rolling straggler percentile gets a deterministic backup attempt
          launched at the percentile mark.  The race is resolved
          analytically at hedge-launch time (both fates are already
          known), but every consequence — loser cancellation, waste
          billing, breaker feeds, the retry of a doubly-killed stage — is
          still applied as events at its true simulated time.
        """
        trace = self.backend.evaluate(
            self.workflow,
            configuration,
            input_scale=request.input_scale,
            rng=rng,
        )
        pool = self.container_pool if self.options.simulate_cold_starts else None
        pricing = self.executor.pricing
        records = trace.records
        incarnation = carry.restarts
        budgets = (
            guard.stage_budgets(
                {
                    name: record.runtime_seconds
                    for name, record in records.items()
                    if record.status is not ExecutionStatus.SKIPPED
                }
            )
            if guard is not None
            else None
        )
        base_invocations = sum(
            1 for r in records.values() if r.status is not ExecutionStatus.SKIPPED
        )
        finish: Dict[str, float] = {}
        waiting = {
            name: sum(1 for p in self._predecessors[name] if p in records)
            for name in self._topo_order
            if name in records
        }
        state = {
            "dead": False,
            "remaining": len(waiting),
            "completion": dispatch_time,
        }
        # Attempts currently in flight (with or without a container) and the
        # work of attempts already completed — both needed to account an
        # abort, and billing happens at settle/abort time only, so the same
        # attempt can never be charged twice.
        running: Dict[str, Tuple[Optional[object], float, object]] = {}
        done_work: List[Tuple[float, float, object]] = []  # (elapsed, base_cost, config)
        failed: set = set()

        def complete_request() -> None:
            # A terminally failed request is billed only for the work that
            # actually ran (completed attempts' base costs live in
            # ``done_work``, killed attempts in ``carry.extra_cost``); the
            # functions its failure skipped never execute, so the trace's
            # full base cost would overcharge it.
            if failed:
                base_cost = sum(cost for _, cost, _ in done_work)
            else:
                base_cost = trace.total_cost
            outcome = ServedRequest(
                index=index,
                request=request,
                configuration=configuration,
                dispatch_time=dispatch_time,
                completion_time=state["completion"],
                cost=base_cost + carry.extra_cost,
                cold_start_count=carry.cold_count,
                cold_start_seconds=carry.cold_seconds,
                succeeded=trace.succeeded and not failed,
                service_trace=trace,
                attempts=carry.attempts,
                retries=carry.retries,
                restarts=carry.restarts,
                base_invocations=base_invocations,
                wasted_seconds=carry.wasted_seconds,
                wasted_gb_seconds=carry.wasted_gb_seconds,
                fault_counts=dict(carry.fault_counts),
                hedges=carry.hedges,
                hedge_wins=carry.hedge_wins,
            )
            loop.schedule(
                state["completion"],
                lambda: None if state["dead"] else on_complete(outcome),
            )

        def finish_function(name: str, end: float) -> None:
            finish[name] = end
            state["completion"] = max(state["completion"], end)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                complete_request()
                return
            for successor in self._successors[name]:
                if successor not in waiting:
                    continue
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    start = max(
                        finish[p] for p in self._predecessors[successor] if p in finish
                    )
                    loop.schedule(start, start_function(successor, start, 1))

        def settle_completed(
            name: str, end: float, outcome: InvocationOutcome, record,
            release_container: bool = True,
            cancel: Optional[Dict[str, bool]] = None,
        ) -> Callable[[], None]:
            def fire() -> None:
                if state["dead"] or (cancel is not None and cancel["cancelled"]):
                    return
                entry = running.pop(name, None)
                if entry is not None and entry[0] is not None and pool is not None:
                    if release_container:
                        pool.release(entry[0], end)
                    # else: the attempt killed its own container (config OOM);
                    # it is never returned, exactly as in the fault-free path.
                if outcome.fault is FaultKind.STRAGGLER:
                    carry.count_fault(FaultKind.STRAGGLER)
                # Bill the cold start and any straggler stretch on top of the
                # trace's own (base-runtime) cost.
                carry.extra_cost += pricing.invocation_cost(
                    outcome.elapsed_seconds, record.config
                ) - pricing.invocation_cost(record.runtime_seconds, record.config)
                done_work.append((outcome.elapsed_seconds, record.cost, record.config))
                if guard is not None:
                    guard.observe_attempt(name, end, False, outcome.elapsed_seconds)
                finish_function(name, end)

            return fire

        def settle_killed(
            name: str, end: float, attempt: int, outcome: InvocationOutcome, record,
            cancel: Optional[Dict[str, bool]] = None,
        ) -> Callable[[], None]:
            def fire() -> None:
                if state["dead"] or (cancel is not None and cancel["cancelled"]):
                    return
                entry = running.pop(name, None)
                if entry is not None and entry[0] is not None and pool is not None:
                    pool.kill(entry[0])
                # The killed attempt is billed in full and is pure waste; the
                # trace's base cost is only charged by the attempt that
                # eventually completes.
                carry.count_fault(outcome.fault)
                carry.extra_cost += pricing.invocation_cost(
                    outcome.elapsed_seconds, record.config
                )
                carry.wasted_seconds += outcome.elapsed_seconds
                carry.wasted_gb_seconds += (
                    record.config.memory_mb / 1024.0 * outcome.elapsed_seconds
                )
                if guard is not None:
                    guard.observe_attempt(name, end, True, None)
                delay = injector.backoff_seconds(index, name, attempt, incarnation)
                if delay is None:
                    # Retry budget exhausted: terminal failure.  Dependents
                    # are skipped, sibling branches run to completion.
                    failed.add(name)
                    finish_function(name, end)
                    return
                carry.retries += 1
                retry_at = end + delay
                loop.schedule(retry_at, start_function(name, retry_at, attempt + 1))

            return fire

        def launch_hedge(
            name: str,
            attempt: int,
            h_start: float,
            p_start: float,
            p_outcome: InvocationOutcome,
            p_end: float,
            record,
            cancel: Dict[str, bool],
        ) -> Callable[[], None]:
            """Launch the backup attempt and resolve the race.

            Both fates are fully determined here (the injector is a pure
            function of the attempt's identity), so the winner is picked
            analytically — but every consequence is scheduled as an event
            at its true time, so containers, billing and breaker feeds all
            happen exactly when they would on a real platform.
            """

            def fire() -> None:
                if (
                    state["dead"]
                    or name not in running
                    or carry.hedges >= guard.max_hedges_per_request
                ):
                    return
                penalty = 0.0
                h_container = None
                if pool is not None:
                    h_container, cold = pool.acquire(name, record.config, h_start)
                    if cold:
                        penalty = self._cold_latency[name]
                        carry.cold_count += 1
                        carry.cold_seconds += penalty
                carry.attempts += 1
                carry.hedges += 1
                h_outcome = injector.plan_invocation(
                    index,
                    name,
                    HEDGE_ATTEMPT_OFFSET + attempt,
                    record.runtime_seconds,
                    cold_start_seconds=penalty,
                    incarnation=incarnation,
                )
                h_outcome = guard.cap_stage(name, h_outcome, budgets)
                h_end = h_start + h_outcome.elapsed_seconds
                hkey = name + "\x00hedge"
                running[hkey] = (h_container, h_start, record.config)

                def drop(at: float, natural_kill: bool) -> Callable[[], None]:
                    # The hedge leaves the race at ``at`` — killed by its own
                    # fault (natural_kill) or cancelled because the primary
                    # won.  Either way its work is waste.
                    def fire_drop() -> None:
                        if state["dead"]:
                            return
                        entry = running.pop(hkey, None)
                        if entry is None:
                            return
                        elapsed = at - h_start
                        if elapsed > 0:
                            carry.extra_cost += pricing.invocation_cost(
                                elapsed, record.config
                            )
                            carry.wasted_seconds += elapsed
                            carry.wasted_gb_seconds += (
                                record.config.memory_mb / 1024.0 * elapsed
                            )
                        if natural_kill:
                            carry.count_fault(h_outcome.fault)
                            guard.observe_attempt(name, at, True, None)
                        if pool is not None and entry[0] is not None:
                            pool.kill(entry[0])

                    return fire_drop

                def cancel_primary(at: float, natural_kill: bool) -> Callable[[], None]:
                    # Re-enact the primary's exit now that its settle event is
                    # suppressed: its own kill at ``p_end`` (natural_kill) or
                    # cancellation the moment the hedge completes.
                    def fire_cancel() -> None:
                        if state["dead"]:
                            return
                        entry = running.pop(name, None)
                        if entry is None:
                            return
                        elapsed = at - p_start
                        if elapsed > 0:
                            carry.extra_cost += pricing.invocation_cost(
                                elapsed, record.config
                            )
                            carry.wasted_seconds += elapsed
                            carry.wasted_gb_seconds += (
                                record.config.memory_mb / 1024.0 * elapsed
                            )
                        if natural_kill:
                            carry.count_fault(p_outcome.fault)
                            guard.observe_attempt(name, at, True, None)
                        if pool is not None and entry[0] is not None:
                            pool.kill(entry[0])

                    return fire_cancel

                def win_fire() -> None:
                    if state["dead"]:
                        return
                    entry = running.pop(hkey, None)
                    if entry is None:
                        return
                    if entry[0] is not None and pool is not None:
                        pool.release(entry[0], h_end)
                    if h_outcome.fault is FaultKind.STRAGGLER:
                        carry.count_fault(FaultKind.STRAGGLER)
                    carry.extra_cost += pricing.invocation_cost(
                        h_outcome.elapsed_seconds, record.config
                    ) - pricing.invocation_cost(record.runtime_seconds, record.config)
                    done_work.append(
                        (h_outcome.elapsed_seconds, record.cost, record.config)
                    )
                    carry.hedge_wins += 1
                    guard.observe_attempt(name, h_end, False, h_outcome.elapsed_seconds)
                    finish_function(name, h_end)

                def hedge_killed_retry() -> None:
                    # Both attempts died and the hedge died last: it owns the
                    # stage's retry decision (the primary's settle was
                    # suppressed so the stage cannot retry twice).
                    if state["dead"]:
                        return
                    entry = running.pop(hkey, None)
                    if entry is None:
                        return
                    if pool is not None and entry[0] is not None:
                        pool.kill(entry[0])
                    carry.count_fault(h_outcome.fault)
                    carry.extra_cost += pricing.invocation_cost(
                        h_outcome.elapsed_seconds, record.config
                    )
                    carry.wasted_seconds += h_outcome.elapsed_seconds
                    carry.wasted_gb_seconds += (
                        record.config.memory_mb / 1024.0 * h_outcome.elapsed_seconds
                    )
                    guard.observe_attempt(name, h_end, True, None)
                    delay = injector.backoff_seconds(index, name, attempt, incarnation)
                    if delay is None:
                        failed.add(name)
                        finish_function(name, h_end)
                        return
                    carry.retries += 1
                    retry_at = h_end + delay
                    loop.schedule(retry_at, start_function(name, retry_at, attempt + 1))

                p_ok = p_outcome.completed
                h_ok = h_outcome.completed
                if p_ok and (not h_ok or p_end <= h_end):
                    # Primary wins (ties favour it); the hedge dies on its own
                    # fault if that comes first, else is cancelled at p_end.
                    if not h_ok and h_end <= p_end:
                        loop.schedule(h_end, drop(h_end, True))
                    else:
                        loop.schedule(p_end, drop(p_end, False))
                elif h_ok and (not p_ok or h_end < p_end):
                    # Hedge wins: suppress the primary's scheduled settle and
                    # re-enact its exit at the right moment.
                    cancel["cancelled"] = True
                    if not p_ok and p_end < h_end:
                        loop.schedule(p_end, cancel_primary(p_end, True))
                    else:
                        loop.schedule(h_end, cancel_primary(h_end, False))
                    loop.schedule(h_end, win_fire)
                else:
                    # Both die.  The later kill drives the retry.
                    if p_end <= h_end:
                        cancel["cancelled"] = True
                        loop.schedule(p_end, cancel_primary(p_end, True))
                        loop.schedule(h_end, hedge_killed_retry)
                    else:
                        loop.schedule(h_end, drop(h_end, True))
                        # The primary's own settle_killed still fires at p_end
                        # and retries as usual.

            return fire

        def start_function(name: str, start: float, attempt: int) -> Callable[[], None]:
            def fire() -> None:
                if state["dead"]:
                    return
                record = records[name]
                if record.status is ExecutionStatus.SKIPPED:
                    finish_function(name, start)
                    return
                if any(p in failed for p in self._predecessors[name]):
                    # Upstream terminal (injected) failure: skip this work too.
                    failed.add(name)
                    finish_function(name, start)
                    return
                penalty = 0.0
                container = None
                if pool is not None:
                    container, cold = pool.acquire(name, record.config, start)
                    if cold:
                        penalty = self._cold_latency[name]
                        carry.cold_count += 1
                        carry.cold_seconds += penalty
                carry.attempts += 1
                if record.status is ExecutionStatus.OOM:
                    # Configuration-caused OOM: deterministic, so retrying is
                    # pointless — mirror the fault-free path (container dies,
                    # never released; the trace already bills and skips).
                    oom_outcome = InvocationOutcome(
                        fault=None,
                        elapsed_seconds=penalty + record.runtime_seconds,
                        completed=True,
                    )
                    end = start + oom_outcome.elapsed_seconds
                    running[name] = (container, start, record.config)
                    loop.schedule(
                        end,
                        settle_completed(
                            name, end, oom_outcome, record, release_container=False
                        ),
                    )
                    return
                outcome = injector.plan_invocation(
                    index,
                    name,
                    attempt,
                    record.runtime_seconds,
                    cold_start_seconds=penalty,
                    incarnation=incarnation,
                )
                if guard is not None:
                    outcome = guard.cap_stage(name, outcome, budgets)
                end = start + outcome.elapsed_seconds
                # Track the attempt even without a container: an abort must
                # account its partial work whether or not cold starts are
                # simulated.
                running[name] = (container, start, record.config)
                cancel: Optional[Dict[str, bool]] = None
                if guard is not None and carry.hedges < guard.max_hedges_per_request:
                    hedge_after = guard.hedge_delay(name, outcome.elapsed_seconds)
                    if hedge_after is not None and start + hedge_after < end:
                        # The settle below gets a cancellation token so a
                        # winning hedge can suppress it; the race itself is
                        # resolved when the hedge launches.
                        cancel = {"cancelled": False}
                        loop.schedule(
                            start + hedge_after,
                            launch_hedge(
                                name, attempt, start + hedge_after, start,
                                outcome, end, record, cancel,
                            ),
                        )
                if outcome.completed:
                    loop.schedule(
                        end, settle_completed(name, end, outcome, record, cancel=cancel)
                    )
                else:
                    loop.schedule(
                        end,
                        settle_killed(name, end, attempt, outcome, record, cancel=cancel),
                    )

            return fire

        def abort(now: float) -> None:
            """Node failure took this request's placement: lose all work."""
            state["dead"] = True
            for name, (container, started_at, config) in running.items():
                elapsed = now - started_at
                if elapsed > 0:
                    carry.extra_cost += pricing.invocation_cost(elapsed, config)
                    carry.wasted_seconds += elapsed
                    carry.wasted_gb_seconds += config.memory_mb / 1024.0 * elapsed
                if pool is not None and container is not None:
                    pool.kill(container)
            running.clear()
            for elapsed, base_cost, config in done_work:
                # Completed work must be redone from scratch by the next
                # incarnation, whose trace cost bills it again — so charge
                # (and count as waste) the aborted incarnation's share here.
                carry.extra_cost += base_cost
                carry.wasted_seconds += elapsed
                carry.wasted_gb_seconds += config.memory_mb / 1024.0 * elapsed
            carry.count_fault(FaultKind.NODE_FAILURE)
            carry.restarts += 1

        register_abort(index, abort)

        roots = [name for name, pending in waiting.items() if pending == 0]
        if not roots:
            complete_request()
            return
        for name in roots:
            loop.schedule(dispatch_time, start_function(name, dispatch_time, 1))

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
        request_list = list(requests)
        loop = EventLoop()
        ledger = ClusterLedger(self.cluster)
        queue: Deque[Tuple[int, RequestArrival, WorkflowConfiguration]] = deque()
        outcomes: List[ServedRequest] = []
        rejected: List[RequestArrival] = []
        autoscaler = (
            _Autoscaler(self.container_pool, self.options.autoscaler)
            if self.options.autoscale
            else None
        )
        pending_arrivals = len(request_list)
        plan = self.faults
        injector = (
            FaultInjector(plan, fault_rng)
            if plan is not None and not plan.is_empty
            else None
        )
        policy = self.protection
        guard = (
            ProtectionGuard(
                policy,
                function_names=self._topo_order,
                slo_limit_seconds=(
                    self.slo.latency_limit if self.slo is not None else None
                ),
                cold_latency=self._cold_latency,
                topo_order=self._topo_order,
                predecessors=self._predecessors,
            )
            if policy is not None and not policy.is_empty
            else None
        )
        if guard is not None and injector is None:
            # Protected runs need the per-attempt machinery (deadline kills,
            # hedges, retries) even without injected faults: borrow the
            # faulty launch path with an empty plan, which perturbs nothing.
            injector = FaultInjector(FaultPlan.none(seed=policy.seed), fault_rng)
        rejection_causes: Dict[str, int] = {}

        def count_rejection(cause: str) -> None:
            rejection_causes[cause] = rejection_causes.get(cause, 0) + 1
        # Fault bookkeeping: abort callbacks of in-flight launches, counters
        # carried across node-failure incarnations, and the failure count.
        inflight_aborts: Dict[int, Callable[[float], None]] = {}
        carries: Dict[int, _RequestCarry] = {}
        dispatched: Dict[int, Tuple[RequestArrival, WorkflowConfiguration]] = {}
        node_failure_count = 0

        if controller is not None:
            controller.bind(pool=self.container_pool)

        def finish_request(outcome: ServedRequest) -> None:
            ledger.release(outcome.index, loop.now)
            if controller is not None:
                outcome.config_version = controller.version_of(outcome.index)
            outcomes.append(outcome)
            inflight_aborts.pop(outcome.index, None)
            carries.pop(outcome.index, None)
            dispatched.pop(outcome.index, None)
            if guard is not None:
                guard.observe_completion(outcome.service_seconds)
            if autoscaler is not None:
                autoscaler.observe_service(loop.now, outcome.service_seconds)
            if controller is not None:
                # May fire drift detection, an inline re-tune and a rollout
                # step — all in simulated-zero time within this event.
                controller.observe_completion(loop.now, outcome)
            try_dispatch()

        def try_dispatch() -> None:
            # Strict FIFO admission: stop at the first request that does not
            # fit so later (possibly smaller) requests cannot starve it.
            while queue:
                index, request, configuration = queue[0]
                if ledger.try_reserve(index, configuration, loop.now) is None:
                    if ledger.active == 0 and not ledger.has_down_nodes:
                        # Fits on no node even with the cluster empty: it can
                        # never be served, so drop it instead of deadlocking
                        # the queue.  (With a node down, wait for recovery
                        # instead — the capacity may come back.)
                        queue.popleft()
                        rejected.append(request)
                        count_rejection("queue-full")
                        if controller is not None:
                            controller.observe_rejection(loop.now, index)
                        continue
                    break
                queue.popleft()
                if guard is not None:
                    guard.observe_dispatch(loop.now)
                request_rng = rng.child("request", index) if rng is not None else None
                if injector is None:
                    self._launch(
                        loop, index, request, configuration, loop.now, request_rng,
                        finish_request,
                    )
                    continue
                carry = carries.get(index)
                if carry is None:
                    carry = _RequestCarry()
                    carries[index] = carry
                dispatched[index] = (request, configuration)
                self._launch_faulty(
                    loop, injector, index, request, configuration, loop.now,
                    request_rng, finish_request,
                    lambda i, fn: inflight_aborts.__setitem__(i, fn), carry,
                    guard=guard,
                )

        def arrive(index: int, request: RequestArrival) -> Callable[[], None]:
            def fire() -> None:
                nonlocal pending_arrivals
                pending_arrivals -= 1
                if autoscaler is not None:
                    autoscaler.observe_arrival(loop.now)
                if controller is not None:
                    # The controller assigns the configuration (active
                    # version, or the canary during a rollout) at arrival
                    # time; a later node-failure re-queue keeps it.
                    controller.observe_arrival(loop.now, request)
                    configuration = controller.assign(index, request)
                else:
                    configuration = configuration_for(request)
                if guard is not None:
                    # Protection vets the arrival before it can queue: an
                    # open breaker, an active shed level, or an admission
                    # verdict rejects it outright with its cause.
                    cause = guard.admit(
                        loop.now, request.input_class, len(queue), ledger.active
                    )
                    if cause is not None:
                        rejected.append(request)
                        count_rejection(cause)
                        if controller is not None:
                            controller.observe_rejection(loop.now, index)
                        return
                queue.append((index, request, configuration))
                try_dispatch()
                # The capacity bounds *waiting* requests: an arrival that
                # dispatched immediately never counts against it (so
                # queue_capacity=0 models a serve-or-reject loss system).
                if (
                    self.options.queue_capacity is not None
                    and len(queue) > self.options.queue_capacity
                ):
                    dropped_index, dropped, _ = queue.pop()
                    rejected.append(dropped)
                    count_rejection("queue-full")
                    if controller is not None:
                        controller.observe_rejection(loop.now, dropped_index)

            return fire

        for index, request in enumerate(request_list):
            loop.schedule(request.arrival_time, arrive(index, request))

        if duration_seconds is None:
            duration_seconds = max((r.arrival_time for r in request_list), default=0.0)

        if injector is not None and plan is not None and self.cluster is not None:

            def node_failure(node_name: str) -> Callable[[], None]:
                def fire() -> None:
                    nonlocal node_failure_count
                    if not self.cluster.node(node_name).healthy:
                        return  # struck while already down
                    affected = ledger.fail_node(node_name, loop.now)
                    node_failure_count += 1
                    loop.schedule_after(
                        plan.node_recovery_seconds, lambda: recover(node_name)
                    )
                    # Abort every in-flight request that lost its placement
                    # and re-queue it at the front (it was admitted first);
                    # reversed() keeps the original index order at the head.
                    for request_id in reversed(affected):
                        abort_fn = inflight_aborts.pop(request_id, None)
                        if abort_fn is None:
                            continue
                        abort_fn(loop.now)
                        victim_request, victim_config = dispatched.pop(request_id)
                        queue.appendleft((request_id, victim_request, victim_config))
                    try_dispatch()

                return fire

            def recover(node_name: str) -> None:
                ledger.restore_node(node_name, loop.now)
                try_dispatch()

            for failure_time, node_name in injector.node_failure_schedule(
                duration_seconds, [node.name for node in self.cluster.nodes]
            ):
                loop.schedule(failure_time, node_failure(node_name))

        if autoscaler is not None:

            def autoscale_tick() -> None:
                autoscaler.tick(loop.now)
                # Keep ticking only while there is (or will be) work; the
                # loop must drain once the last request completes.
                if pending_arrivals > 0 or queue or ledger.active > 0:
                    loop.schedule_after(self.options.autoscaler.interval_seconds, autoscale_tick)

            loop.schedule_after(self.options.autoscaler.interval_seconds, autoscale_tick)

        loop.run()
        ledger.advance(loop.now)
        outcomes.sort(key=lambda o: o.index)
        metrics = summarize_outcomes(
            outcomes, rejected, duration_seconds, len(request_list), self.slo,
            ledger=ledger,
            node_failures=node_failure_count,
            rejection_causes=rejection_causes,
        )
        protection_events: List[Tuple[float, str, str]] = []
        if guard is not None:
            metrics.breaker_opens = guard.breaker_opens
            metrics.deadline_kills = guard.deadline_kills
            protection_events = guard.drain_events()
            if controller is not None and hasattr(controller, "observe_protection"):
                for when, kind, detail in protection_events:
                    controller.observe_protection(when, kind, detail)
        return ServingResult(
            outcomes=outcomes,
            rejected=rejected,
            metrics=metrics,
            autoscaler_decisions=autoscaler.decisions if autoscaler is not None else [],
            protection_events=protection_events,
        )


def summarize_outcomes(
    outcomes: Sequence[ServedRequest],
    rejected: Sequence[RequestArrival],
    duration_seconds: float,
    offered: int,
    slo: Optional[SLO],
    ledger: Optional[ClusterLedger] = None,
    node_failures: int = 0,
    rejection_causes: Optional[Dict[str, int]] = None,
) -> ServingMetrics:
    """Tail-latency / SLO / cost / resilience summary of one run's outcomes.

    ``ledger`` supplies the cluster gauges (utilization, peak and mean
    concurrency); without one they read ``None``, ``None``, 0 and 0.0, as
    for one tenant's slice of a fleet.
    """
    latencies = [o.latency_seconds for o in outcomes]
    queueing = [o.queueing_delay for o in outcomes]
    costs = [o.cost for o in outcomes]
    # Sort once per metric list (numpy sorts the same float values the
    # builtin would, and the nearest-rank lookup only reads elements) —
    # three percentile calls per list would re-sort each time.
    latencies_sorted = np.sort(np.asarray(latencies, dtype=np.float64))
    queueing_sorted = np.sort(np.asarray(queueing, dtype=np.float64))
    completed = len(outcomes)
    makespan = max((o.completion_time for o in outcomes), default=0.0)
    slo_limit = slo.latency_limit if slo is not None else None
    attainment: Optional[float] = None
    if slo_limit is not None and completed:
        attainment = sum(1 for l in latencies if l <= slo_limit) / completed
    if ledger is not None:
        cpu_util, mem_util, mean_concurrency = ledger.utilization()
        peak_concurrency = ledger.peak_active
    else:
        cpu_util, mem_util, mean_concurrency = None, None, 0.0
        peak_concurrency = 0
    successes = sum(1 for o in outcomes if o.succeeded)
    total_attempts = sum(o.attempts for o in outcomes)
    total_base = sum(o.base_invocations for o in outcomes)
    if rejection_causes is None:
        # Callers predating the protection layer (e.g. the batched
        # engine) reject only on queue pressure.
        rejection_causes = {"queue-full": len(rejected)} if rejected else {}
    return ServingMetrics(
        duration_seconds=duration_seconds,
        offered=offered,
        completed=completed,
        rejected=len(rejected),
        failed=sum(1 for o in outcomes if not o.succeeded),
        makespan_seconds=makespan,
        offered_rate_rps=offered / duration_seconds if duration_seconds > 0 else 0.0,
        throughput_rps=completed / makespan if makespan > 0 else 0.0,
        latency_mean_seconds=sum(latencies) / completed if completed else float("nan"),
        latency_p50_seconds=nearest_rank(latencies_sorted, 50),
        latency_p95_seconds=nearest_rank(latencies_sorted, 95),
        latency_p99_seconds=nearest_rank(latencies_sorted, 99),
        latency_max_seconds=float(latencies_sorted[-1]) if completed else float("nan"),
        queueing_mean_seconds=sum(queueing) / completed if completed else float("nan"),
        queueing_p95_seconds=nearest_rank(queueing_sorted, 95),
        queueing_max_seconds=float(queueing_sorted[-1]) if completed else float("nan"),
        slo_limit_seconds=slo_limit,
        slo_attainment=attainment,
        cold_start_request_rate=(
            sum(1 for o in outcomes if o.cold_start_count > 0) / completed
            if completed
            else 0.0
        ),
        cold_start_invocations=sum(o.cold_start_count for o in outcomes),
        mean_cost_per_request=sum(costs) / completed if completed else float("nan"),
        total_cost=sum(costs),
        cpu_utilization=cpu_util,
        memory_utilization=mem_util,
        peak_concurrency=peak_concurrency,
        mean_concurrency=mean_concurrency,
        goodput_rps=successes / makespan if makespan > 0 else 0.0,
        availability=successes / offered if offered else 1.0,
        retry_amplification=(
            total_attempts / total_base if total_base else 1.0
        ),
        wasted_seconds=sum(o.wasted_seconds for o in outcomes),
        wasted_gb_seconds=sum(o.wasted_gb_seconds for o in outcomes),
        faults_injected=sum(
            sum(o.fault_counts.values()) for o in outcomes
        ),
        node_failures=node_failures,
        rejected_by_cause=dict(rejection_causes),
        hedges_launched=sum(o.hedges for o in outcomes),
        hedge_wins=sum(o.hedge_wins for o in outcomes),
    )
