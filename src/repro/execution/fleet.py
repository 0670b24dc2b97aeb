"""Multi-tenant fleet serving on heterogeneous clusters.

One shared cluster, one shared warm pool, many tenants: each
:class:`Tenant` bundles a workload, a traffic model, an SLO, a priority and
a per-function configuration, and the :class:`FleetSimulator` multiplexes
their merged request stream through a pluggable placement policy:

``fair-share``
    Spread: place each container on the least-loaded node (projected
    cpu+memory utilisation), ties broken by imbalance then name.
``bin-packing``
    The existing affinity heuristic: minimise the node's post-placement
    CPU/memory imbalance, ties broken by total utilisation then name —
    packs complementary containers onto fewer nodes.
``priority``
    Fair-share spreading plus priority scheduling: the queue drains in
    priority order, and tenants below the fleet's top priority may not push
    any node beyond ``1 − priority_reserve_fraction`` occupancy, so the
    high-priority tenant always finds reserved headroom.

Tenants interfere through shared-node memory pressure: a request dispatched
onto nodes whose memory utilisation exceeds ``interference_threshold`` runs
every function ``1 + interference_alpha × excess`` slower (and is billed for
the stretched runtime).  Billing is node-priced — each function invocation
pays its runtime cost scaled by the hosting node's ``price_multiplier``, so
spot and Graviton capacity is genuinely cheaper.  Spot nodes are subject to
seed-deterministic eviction schedules that ride the same abort/re-queue
machinery as node failures.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.execution.backend import EvaluationBackend, SimulatorBackend
from repro.execution.cluster import Cluster, ClusterLedger, Node, balance_key, spread_key
from repro.execution.container import ContainerPool
from repro.execution.events import EventLoop, RequestArrival
from repro.execution.instances import spot_eviction_schedule
from repro.execution.protection import ProtectionGuard, ProtectionPolicy
from repro.execution.serving import ServedRequest, ServingMetrics, summarize_outcomes
from repro.execution.trace import ExecutionStatus
from repro.utils.rng import RngStream, derive_seed
from repro.workloads.arrivals import merge_request_streams
from repro.workloads.base import WorkloadSpec
from repro.workflow.resources import WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = [
    "PLACEMENT_POLICIES",
    "Tenant",
    "FleetOptions",
    "TenantResult",
    "FleetResult",
    "FleetSimulator",
]

#: Placement policies; a run maps each onto the cluster ledger's key and cap.
PLACEMENT_POLICIES = ("fair-share", "bin-packing", "priority")


@dataclass
class Tenant:
    """One workload sharing the fleet: traffic + SLO + priority + config.

    ``traffic`` accepts anything with a ``generate(duration_seconds, rng)``
    method (a :class:`~repro.workloads.arrivals.TrafficModel` or a
    :class:`~repro.workloads.arrivals.DriftingTrafficModel`); when ``None``
    the workload's default profile is used with the optional ``arrival`` /
    ``rate_rps`` overrides.  ``slo`` and ``configuration`` default to the
    workload's own.  Higher ``priority`` means more important.
    """

    name: str
    workload: WorkloadSpec
    priority: int = 0
    arrival: Optional[str] = None
    rate_rps: Optional[float] = None
    traffic: Optional[object] = None
    slo: Optional[SLO] = None
    configuration: Optional[WorkflowConfiguration] = None

    def effective_slo(self) -> SLO:
        return self.slo if self.slo is not None else self.workload.slo

    def effective_configuration(self) -> WorkflowConfiguration:
        if self.configuration is not None:
            return self.configuration
        return self.workload.base_configuration()

    def traffic_source(self) -> object:
        if self.traffic is not None:
            return self.traffic
        return self.workload.traffic_model(arrival=self.arrival, rate_rps=self.rate_rps)


@dataclass(frozen=True)
class FleetOptions:
    """Tunable behaviour of the fleet simulator."""

    placement: str = "fair-share"
    queue_capacity: Optional[int] = None
    simulate_cold_starts: bool = True
    keep_alive_seconds: float = 600.0
    max_warm_per_function: int = 16
    interference_threshold: float = 0.6
    interference_alpha: float = 0.8
    priority_reserve_fraction: float = 0.25
    node_failures_per_hour: float = 0.0
    node_recovery_seconds: float = 60.0
    spot_evictions_per_hour: float = 0.0
    spot_recovery_seconds: float = 90.0

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {', '.join(PLACEMENT_POLICIES)}"
            )
        # Comparisons are written so that NaN fails them.
        if self.queue_capacity is not None and not self.queue_capacity >= 0:
            raise ValueError("queue_capacity must be non-negative (or None)")
        if not self.keep_alive_seconds >= 0:
            raise ValueError("keep_alive_seconds must be non-negative")
        if not self.max_warm_per_function >= 1:
            raise ValueError("max_warm_per_function must be at least 1")
        if not 0 <= self.interference_threshold <= 1:
            raise ValueError("interference_threshold must be in [0, 1]")
        if not 0 <= self.interference_alpha < math.inf:
            raise ValueError("interference_alpha must be finite and non-negative")
        if not 0 <= self.priority_reserve_fraction < 1:
            raise ValueError("priority_reserve_fraction must be in [0, 1)")
        for name in ("node_failures_per_hour", "spot_evictions_per_hour"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("node_recovery_seconds", "spot_recovery_seconds"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


@dataclass
class TenantResult:
    """Everything one tenant's slice of the fleet run produced."""

    tenant: str
    priority: int
    metrics: ServingMetrics
    outcomes: List[ServedRequest]
    rejected: List[RequestArrival]
    rejected_by_cause: Dict[str, int]
    control: Optional[object] = None


@dataclass
class FleetResult:
    """One fleet run: per-tenant results plus fleet-wide accounting."""

    policy: str
    duration_seconds: float
    tenants: Dict[str, TenantResult]
    total_cost: float
    cpu_utilization: Optional[float]
    memory_utilization: Optional[float]
    peak_concurrency: int
    mean_concurrency: float
    node_failures: int
    spot_evictions: int
    interference_stretched: int
    mean_stretch: float
    protection_events: List[Tuple[float, str, str]] = field(default_factory=list)

    def tenant(self, name: str) -> TenantResult:
        return self.tenants[name]

    @property
    def offered(self) -> int:
        return sum(r.metrics.offered for r in self.tenants.values())

    @property
    def completed(self) -> int:
        return sum(r.metrics.completed for r in self.tenants.values())

    @property
    def rejected_total(self) -> int:
        return sum(r.metrics.rejected for r in self.tenants.values())


class _TenantRuntime:
    """Per-tenant substrate resolved once per simulator lifetime."""

    def __init__(self, tenant: Tenant, backend: Optional[EvaluationBackend]) -> None:
        self.tenant = tenant
        self.executor = tenant.workload.build_executor()
        if self.executor.options.simulate_cold_starts:
            raise ValueError(
                "fleet serving overlays cold starts itself; tenant executors "
                "must not simulate them"
            )
        self.backend = backend if backend is not None else SimulatorBackend(self.executor)
        self.pricing = self.executor.pricing
        self.slo = tenant.effective_slo()
        self.configuration = tenant.effective_configuration()
        workflow = tenant.workload.workflow
        self.workflow = workflow
        self.cold_latency = {
            spec.name: self.executor.cold_start_latency(spec.profile_name)
            for spec in workflow.functions
        }
        self.topo_order: List[str] = list(workflow.topological_order())
        self.predecessors: Dict[str, List[str]] = {
            name: list(workflow.predecessors(name)) for name in self.topo_order
        }
        self.successors: Dict[str, List[str]] = {name: [] for name in self.topo_order}
        for name, preds in self.predecessors.items():
            for pred in preds:
                self.successors[pred].append(name)


class _NamespacedPool:
    """Adapter handing one tenant's controller the shared warm pool.

    The fleet pool keys containers ``tenant/function``; controller rollouts
    retarget by bare function name, so this proxy prefixes the keys before
    delegating.
    """

    def __init__(self, pool: ContainerPool, tenant: str) -> None:
        self._pool = pool
        self._tenant = tenant

    def retarget(self, configuration: Mapping) -> int:
        return self._pool.retarget(
            {f"{self._tenant}/{name}": config for name, config in configuration.items()}
        )


class FleetSimulator:
    """Serve many tenants' merged request stream on one shared cluster.

    Parameters
    ----------
    tenants:
        The fleet, in a deterministic order (ties in arrival time break by
        this order).  Names must be unique.
    cluster:
        Shared (typically heterogeneous) capacity; see
        :mod:`repro.execution.instances` for catalog-built clusters.
    options:
        Placement policy, interference model, spot/failure schedules.
    protection:
        Optional fleet-level :class:`ProtectionPolicy`; the guard sees the
        *tenant name* as the input class, so
        :meth:`ProtectionPolicy.for_tenants` sheds low-priority tenants
        first under queue pressure.
    controllers:
        Optional tenant name → :class:`ReconfigurationController` mapping;
        each controller observes only its tenant's traffic and re-tunes that
        tenant's configuration in place (PR 5 machinery, per tenant).
    """

    def __init__(
        self,
        tenants: Sequence[Tenant],
        cluster: Cluster,
        options: Optional[FleetOptions] = None,
        protection: Optional[ProtectionPolicy] = None,
        controllers: Optional[Mapping[str, object]] = None,
        backends: Optional[Mapping[str, EvaluationBackend]] = None,
    ) -> None:
        if not tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.tenants = list(tenants)
        self.cluster = cluster
        self.options = options if options is not None else FleetOptions()
        self.protection = protection
        self.controllers = dict(controllers or {})
        backends = backends or {}
        self.container_pool = ContainerPool(
            keep_alive_seconds=self.options.keep_alive_seconds,
            max_containers_per_function=self.options.max_warm_per_function,
        )
        self._runtimes: Dict[str, _TenantRuntime] = {
            tenant.name: _TenantRuntime(tenant, backends.get(tenant.name))
            for tenant in self.tenants
        }

    # -- one request's replay ------------------------------------------------------
    def _launch(
        self,
        loop: EventLoop,
        runtime: _TenantRuntime,
        index: int,
        request: RequestArrival,
        configuration: WorkflowConfiguration,
        dispatch_time: float,
        stretch: float,
        node_of: Dict[str, Node],
        carry: Dict[str, float],
        rng: Optional[RngStream],
        on_complete: Callable[[ServedRequest], None],
        register_abort: Callable[[int, Callable[[float], None]], None],
    ) -> None:
        """Replay one tenant request with node pricing and interference.

        Mirrors the serving layer's clean replay, with three fleet twists:
        every runtime is stretched by the dispatch-time interference factor,
        every invocation is billed at its hosting node's price multiplier,
        and the whole replay can be aborted (node failure / spot eviction) —
        running containers are killed, billed work is carried as waste, and
        the caller re-queues the request.
        """
        tenant = runtime.tenant
        trace = runtime.backend.evaluate(
            runtime.workflow,
            configuration,
            input_scale=request.input_scale,
            rng=rng,
        )
        pool = self.container_pool if self.options.simulate_cold_starts else None
        records = trace.records
        finish: Dict[str, float] = {}
        waiting = {
            name: sum(1 for p in runtime.predecessors[name] if p in records)
            for name in runtime.topo_order
            if name in records
        }
        running: Dict[str, object] = {}
        state = {
            "remaining": len(waiting),
            "completion": dispatch_time,
            "cold_count": 0,
            "cold_seconds": 0.0,
            "billed": 0.0,
            "dead": False,
        }

        def abort(now: float) -> None:
            state["dead"] = True
            if pool is not None:
                for container in running.values():
                    pool.kill(container)
            running.clear()
            carry["restarts"] += 1
            carry["wasted_seconds"] += max(0.0, now - dispatch_time)
            # Work already billed in the aborted incarnation was real spend.
            carry["extra_cost"] += state["billed"]
            carry["cold_count"] += state["cold_count"]
            carry["cold_seconds"] += state["cold_seconds"]

        register_abort(index, abort)

        def complete() -> None:
            outcome = ServedRequest(
                index=index,
                request=request,
                configuration=configuration,
                dispatch_time=dispatch_time,
                completion_time=state["completion"],
                cost=state["billed"] + carry["extra_cost"],
                cold_start_count=state["cold_count"] + int(carry["cold_count"]),
                cold_start_seconds=state["cold_seconds"] + carry["cold_seconds"],
                succeeded=trace.succeeded,
                service_trace=trace,
                restarts=int(carry["restarts"]),
                wasted_seconds=carry["wasted_seconds"],
            )
            on_complete(outcome)

        def finish_function(name: str, end: float) -> None:
            finish[name] = end
            state["completion"] = max(state["completion"], end)
            state["remaining"] -= 1
            if state["remaining"] == 0:
                complete()
                return
            for successor in runtime.successors[name]:
                if successor not in waiting:
                    continue
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    start = max(
                        finish[p] for p in runtime.predecessors[successor] if p in finish
                    )
                    loop.schedule(start, run_function(successor, start))

        def run_function(name: str, start: float) -> Callable[[], None]:
            def fire() -> None:
                if state["dead"]:
                    return
                record = records[name]
                if record.status is ExecutionStatus.SKIPPED:
                    finish_function(name, start)
                    return
                node = node_of.get(name)
                multiplier = node.price_multiplier if node is not None else 1.0
                penalty = 0.0
                container = None
                if pool is not None:
                    container, cold = pool.acquire(
                        f"{tenant.name}/{name}", record.config, start
                    )
                    container.node_name = node.name if node is not None else None
                    if cold:
                        penalty = runtime.cold_latency[name]
                        state["cold_count"] += 1
                        state["cold_seconds"] += penalty
                runtime_seconds = record.runtime_seconds * stretch
                end = start + penalty + runtime_seconds
                cost = (
                    runtime.pricing.invocation_cost(
                        runtime_seconds + penalty, record.config
                    )
                    * multiplier
                )
                if container is not None:
                    running[name] = container

                def settle() -> None:
                    if state["dead"]:
                        return
                    if container is not None:
                        running.pop(name, None)
                        if record.status is not ExecutionStatus.OOM:
                            pool.release(container, end)
                    state["billed"] += cost
                    finish_function(name, end)

                loop.schedule(end, settle)

            return fire

        roots = [name for name, pending in waiting.items() if pending == 0]
        if not roots:
            loop.schedule(dispatch_time, complete)
            return
        for name in roots:
            loop.schedule(dispatch_time, run_function(name, dispatch_time))

    # -- the run -------------------------------------------------------------------
    def run(self, duration_seconds: float, seed: int = 2025) -> FleetResult:
        """Serve every tenant's stream for ``duration_seconds`` at ``seed``."""
        if duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        options = self.options
        rng = RngStream(derive_seed(seed, "fleet"))
        loop = EventLoop()
        # The policy picks the ledger's node score; under ``priority`` every
        # tenant below the top priority is capped short of the reserve.
        ledger = ClusterLedger(
            self.cluster,
            key=balance_key if options.placement == "bin-packing" else spread_key,
        )
        max_priority = max(tenant.priority for tenant in self.tenants)
        cap_of = {
            tenant.name: (
                1.0 - options.priority_reserve_fraction
                if options.placement == "priority" and tenant.priority < max_priority
                else 1.0
            )
            for tenant in self.tenants
        }
        guard: Optional[ProtectionGuard] = None
        if self.protection is not None and not self.protection.is_empty:
            guard = ProtectionGuard(
                self.protection.with_priorities(
                    {tenant.name: tenant.priority for tenant in self.tenants}
                ),
                function_names=[],
            )

        streams = {
            tenant.name: tenant.traffic_source().generate(
                duration_seconds, rng.child("arrivals", tenant.name)
            )
            for tenant in self.tenants
        }
        merged = merge_request_streams(streams)

        tenant_of: Dict[int, str] = {}
        outcomes: Dict[str, List[ServedRequest]] = {t.name: [] for t in self.tenants}
        rejected: Dict[str, List[RequestArrival]] = {t.name: [] for t in self.tenants}
        causes: Dict[str, Dict[str, int]] = {t.name: {} for t in self.tenants}
        offered: Dict[str, int] = {t.name: 0 for t in self.tenants}
        stretches: List[float] = []
        inflight_aborts: Dict[int, Callable[[float], None]] = {}
        carries: Dict[int, Dict[str, float]] = {}
        node_failures = 0
        spot_evictions = 0

        priority_of = {tenant.name: tenant.priority for tenant in self.tenants}
        runtimes = self._runtimes
        for name, controller in self.controllers.items():
            controller.bind(pool=_NamespacedPool(self.container_pool, name))

        # Queue of (order_key, seq) entries; order_key is -priority under the
        # priority policy (drain important tenants first) and 0 otherwise
        # (pure FIFO by fleet sequence number).
        queue: List[Tuple[int, int]] = []
        entries: Dict[int, Tuple[str, RequestArrival, WorkflowConfiguration]] = {}

        def order_key(tenant_name: str) -> int:
            if options.placement == "priority":
                return -priority_of[tenant_name]
            return 0

        def count_rejection(tenant_name: str, cause: str) -> None:
            bucket = causes[tenant_name]
            bucket[cause] = bucket.get(cause, 0) + 1

        def reject(seq: int, tenant_name: str, request: RequestArrival, cause: str) -> None:
            rejected[tenant_name].append(request)
            count_rejection(tenant_name, cause)
            controller = self.controllers.get(tenant_name)
            if controller is not None:
                controller.observe_rejection(loop.now, seq)

        def finish_request(outcome: ServedRequest) -> None:
            ledger.release(outcome.index, loop.now)
            tenant_name = tenant_of[outcome.index]
            controller = self.controllers.get(tenant_name)
            if controller is not None:
                outcome.config_version = controller.version_of(outcome.index)
            outcomes[tenant_name].append(outcome)
            inflight_aborts.pop(outcome.index, None)
            carries.pop(outcome.index, None)
            entries.pop(outcome.index, None)
            if guard is not None:
                guard.observe_completion(outcome.service_seconds)
            if controller is not None:
                controller.observe_completion(loop.now, outcome)
            try_dispatch()

        def try_dispatch() -> None:
            # Strict in-order admission (queue order, not arrival order):
            # stop at the first request that does not fit so later smaller
            # ones cannot starve it.
            while queue:
                _, seq = queue[0]
                tenant_name, request, configuration = entries[seq]
                node_of = ledger.try_reserve(
                    seq, configuration, loop.now, cap_of[tenant_name]
                )
                if node_of is None:
                    if ledger.active == 0 and not ledger.has_down_nodes:
                        # Fits nowhere even on an idle cluster: drop instead
                        # of deadlocking the queue.
                        heapq.heappop(queue)
                        entries.pop(seq, None)
                        reject(seq, tenant_name, request, "queue-full")
                        continue
                    break
                heapq.heappop(queue)
                if guard is not None:
                    guard.observe_dispatch(loop.now)
                # Interference: dispatching onto memory-pressured nodes runs
                # slower — deterministic, from post-placement utilisation of
                # exactly the nodes hosting this request.
                pressure = max(
                    (node.memory_utilization for node in node_of.values()),
                    default=0.0,
                )
                excess = max(0.0, pressure - options.interference_threshold)
                stretch = 1.0 + options.interference_alpha * excess
                if stretch > 1.0:
                    stretches.append(stretch)
                carry = carries.get(seq)
                if carry is None:
                    carry = {
                        "restarts": 0,
                        "wasted_seconds": 0.0,
                        "extra_cost": 0.0,
                        "cold_count": 0,
                        "cold_seconds": 0.0,
                    }
                    carries[seq] = carry
                request_rng = rng.child("request", tenant_name, seq)
                self._launch(
                    loop,
                    runtimes[tenant_name],
                    seq,
                    request,
                    configuration,
                    loop.now,
                    stretch,
                    node_of,
                    carry,
                    request_rng,
                    finish_request,
                    lambda i, fn: inflight_aborts.__setitem__(i, fn),
                )

        def arrive(seq: int, tenant_name: str, request: RequestArrival) -> Callable[[], None]:
            def fire() -> None:
                offered[tenant_name] += 1
                tenant_of[seq] = tenant_name
                controller = self.controllers.get(tenant_name)
                if controller is not None:
                    controller.observe_arrival(loop.now, request)
                    configuration = controller.assign(seq, request)
                else:
                    configuration = runtimes[tenant_name].configuration
                if guard is not None:
                    # The guard sees the tenant name as the input class, so
                    # shed priorities are per tenant.
                    cause = guard.admit(loop.now, tenant_name, len(queue), ledger.active)
                    if cause is not None:
                        reject(seq, tenant_name, request, cause)
                        return
                entries[seq] = (tenant_name, request, configuration)
                heapq.heappush(queue, (order_key(tenant_name), seq))
                try_dispatch()
                if (
                    options.queue_capacity is not None
                    and len(queue) > options.queue_capacity
                ):
                    # Shed the worst queued entry that never ran, as the
                    # serving layer sheds its newest arrival; a request that
                    # an eviction put back keeps its place (and its bill).
                    fresh = [entry for entry in queue if entry[1] not in carries]
                    if fresh:
                        worst = max(fresh)
                        queue.remove(worst)
                        heapq.heapify(queue)
                        _, dropped_seq = worst
                        dropped_tenant, dropped_request, _ = entries.pop(dropped_seq)
                        reject(dropped_seq, dropped_tenant, dropped_request, "queue-full")

            return fire

        for seq, (tenant_name, request) in enumerate(merged):
            loop.schedule(request.arrival_time, arrive(seq, tenant_name, request))

        # -- node downtime: failures and spot evictions on one recovery path ----
        downtime: List[Tuple[float, str, str]] = []
        if options.node_failures_per_hour > 0:
            failure_stream = RngStream(derive_seed(seed, "fleet-node-failures"))
            from repro.execution.faults import poisson_node_event_schedule

            for when, node_name in poisson_node_event_schedule(
                failure_stream,
                duration_seconds,
                options.node_failures_per_hour,
                [node.name for node in self.cluster.nodes],
            ):
                downtime.append((when, node_name, "failure"))
        if options.spot_evictions_per_hour > 0:
            for when, node_name in spot_eviction_schedule(
                self.cluster,
                duration_seconds,
                options.spot_evictions_per_hour,
                seed,
            ):
                downtime.append((when, node_name, "spot-eviction"))
        downtime.sort(key=lambda event: (event[0], event[1], event[2]))

        def take_down(node_name: str, kind: str) -> Callable[[], None]:
            def fire() -> None:
                nonlocal node_failures, spot_evictions
                if not self.cluster.node(node_name).healthy:
                    return  # struck while already down
                affected = ledger.fail_node(node_name, loop.now)
                if kind == "failure":
                    node_failures += 1
                    recovery = options.node_recovery_seconds
                else:
                    spot_evictions += 1
                    recovery = options.spot_recovery_seconds
                self.container_pool.evict_node(node_name)
                loop.schedule_after(recovery, lambda: recover(node_name))
                for seq in affected:
                    abort = inflight_aborts.pop(seq, None)
                    if abort is not None:
                        abort(loop.now)
                    tenant_name, _, _ = entries[seq]
                    heapq.heappush(queue, (order_key(tenant_name), seq))
                try_dispatch()

            return fire

        def recover(node_name: str) -> None:
            ledger.restore_node(node_name, loop.now)
            try_dispatch()

        for when, node_name, kind in downtime:
            loop.schedule(when, take_down(node_name, kind))

        loop.run()
        ledger.advance(loop.now)

        cpu_util, mem_util, mean_concurrency = ledger.utilization()
        tenant_results: Dict[str, TenantResult] = {}
        total_cost = 0.0
        for tenant in self.tenants:
            name = tenant.name
            metrics = summarize_outcomes(
                outcomes[name],
                rejected[name],
                duration_seconds,
                offered[name],
                runtimes[name].slo,
                rejection_causes=causes[name],
            )
            total_cost += metrics.total_cost
            controller = self.controllers.get(name)
            tenant_results[name] = TenantResult(
                tenant=name,
                priority=tenant.priority,
                metrics=metrics,
                outcomes=outcomes[name],
                rejected=rejected[name],
                rejected_by_cause=dict(causes[name]),
                control=controller.summary() if controller is not None else None,
            )

        return FleetResult(
            policy=options.placement,
            duration_seconds=duration_seconds,
            tenants=tenant_results,
            total_cost=total_cost,
            cpu_utilization=cpu_util,
            memory_utilization=mem_util,
            peak_concurrency=ledger.peak_active,
            mean_concurrency=mean_concurrency,
            node_failures=node_failures,
            spot_evictions=spot_evictions,
            interference_stretched=len(stretches),
            mean_stretch=(sum(stretches) / len(stretches)) if stretches else 1.0,
            protection_events=guard.drain_events() if guard is not None else [],
        )

