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
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.execution.backend import EvaluationBackend, SimulatorBackend
from repro.execution.cluster import Cluster, ClusterLedger, Node, balance_key, spread_key
from repro.execution.container import ContainerPool
from repro.execution.events import EventLoop, Launch, RequestArrival
from repro.execution.instances import spot_eviction_schedule
from repro.execution.protection import ProtectionGuard, ProtectionPolicy
from repro.execution.outcomes import ServedRequest, ServingMetrics, summarize_outcomes
from repro.execution.templates import TraceMemo, TraceTemplate
from repro.execution.trace import ExecutionStatus
from repro.utils.ranges import AT_LEAST_0, NON_NEGATIVE, POSITIVE, UNIT, Range, check_fields
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
    queue_capacity: Optional[int] = AT_LEAST_0.field(None)
    simulate_cold_starts: bool = True
    keep_alive_seconds: float = Range(0.0, math.inf).field(600.0)
    max_warm_per_function: int = Range(1, math.inf, integer=True).field(16)
    interference_threshold: float = UNIT.field(0.6)
    interference_alpha: float = NON_NEGATIVE.field(0.8)
    priority_reserve_fraction: float = Range(0.0, 1.0, hi_open=True).field(0.25)
    node_failures_per_hour: float = NON_NEGATIVE.field(0.0)
    node_recovery_seconds: float = POSITIVE.field(60.0)
    spot_evictions_per_hour: float = NON_NEGATIVE.field(0.0)
    spot_recovery_seconds: float = POSITIVE.field(90.0)

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {', '.join(PLACEMENT_POLICIES)}"
            )
        check_fields(self)


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
        if not self.backend.deterministic:
            raise ValueError(
                f"tenant {tenant.name!r}: fleet serving evaluates each "
                "(configuration, input scale) once per run, so its backend must "
                "be deterministic (its executor must not simulate cold starts)"
            )
        self.pricing = self.executor.pricing
        self.slo = tenant.effective_slo()
        self.configuration = tenant.effective_configuration()
        self.workflow = tenant.workload.workflow
        #: Aligned with ``workflow.plan.names``, as are the warm-pool keys.
        self.cold_latency = self.executor.cold_latencies(self.workflow)
        self.pool_keys = tuple(f"{tenant.name}/{name}" for name in self.workflow.plan.names)


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


class _FleetLaunch(Launch):
    """Replay one tenant request's trace template with node pricing and interference.

    Mirrors the serving layer's clean replay, with three fleet twists:
    every runtime is stretched by the dispatch-time interference factor,
    every invocation is billed at its hosting node's price multiplier, and
    the whole replay can be aborted (node failure / spot eviction) — running
    containers are killed, billed work is carried as waste, and the caller
    re-queues the request.  An aborted launch's pending events return at
    once.
    """

    __slots__ = ("run", "runtime", "pool", "template", "index", "request", "configuration",
                 "stretch", "node_of", "carry", "running", "cold_count", "cold_seconds",
                 "billed", "dead")

    def __init__(self, run: "_FleetRun", runtime: _TenantRuntime, template: TraceTemplate,
                 index: int, request: RequestArrival,
                 configuration: WorkflowConfiguration, stretch: float,
                 node_of: Dict[str, Node], carry: Dict[str, float]) -> None:
        super().__init__(run.loop, runtime.workflow.plan, run.loop.now)
        self.run = run
        self.runtime = runtime
        self.pool = run.pool
        self.template = template
        self.index = index
        self.request = request
        self.configuration = configuration
        self.stretch = stretch
        self.node_of = node_of
        self.carry = carry
        # Containers of the functions running now, by position.
        self.running: Dict[int, object] = {}
        self.cold_count = 0
        self.cold_seconds = 0.0
        self.billed = 0.0
        self.dead = False

    def abort(self, now: float) -> None:
        self.dead = True
        if self.pool is not None:
            for container in self.running.values():
                self.pool.kill(container)
        self.running.clear()
        carry = self.carry
        carry["restarts"] += 1
        carry["wasted_seconds"] += max(0.0, now - self.dispatch_time)
        # Work already billed in the aborted incarnation was real spend.
        carry["extra_cost"] += self.billed
        carry["cold_count"] += self.cold_count
        carry["cold_seconds"] += self.cold_seconds

    def _complete(self) -> None:
        carry = self.carry
        self.run.finish_request(
            ServedRequest(
                index=self.index,
                request=self.request,
                configuration=self.configuration,
                dispatch_time=self.dispatch_time,
                completion_time=self.completion,
                cost=self.billed + carry["extra_cost"],
                cold_start_count=self.cold_count + int(carry["cold_count"]),
                cold_start_seconds=self.cold_seconds + carry["cold_seconds"],
                succeeded=self.template.succeeded,
                service_trace=self.template.trace,
                restarts=int(carry["restarts"]),
                wasted_seconds=carry["wasted_seconds"],
            )
        )

    def start(self, k: int, start: float) -> None:
        if self.dead:
            return
        template, runtime = self.template, self.runtime
        if template.statuses[k] is ExecutionStatus.SKIPPED:
            self._finish(k, start)
            return
        config = template.configs[k]
        node = self.node_of.get(self.plan.names[k])
        multiplier = node.price_multiplier if node is not None else 1.0
        penalty = 0.0
        container = None
        if self.pool is not None:
            container, cold = self.pool.acquire(runtime.pool_keys[k], config, start)
            container.node_name = node.name if node is not None else None
            if cold:
                penalty = runtime.cold_latency[k]
                self.cold_count += 1
                self.cold_seconds += penalty
            self.running[k] = container
        runtime_seconds = template.runtimes[k] * self.stretch
        end = start + penalty + runtime_seconds
        cost = runtime.pricing.invocation_cost(runtime_seconds + penalty, config) * multiplier
        self.loop.schedule(end, partial(self.settle, k, end, container, cost))

    def settle(self, k: int, end: float, container, cost: float) -> None:
        if self.dead:
            return
        if container is not None:
            self.running.pop(k, None)
            if self.template.statuses[k] is not ExecutionStatus.OOM:
                self.pool.release(container, end)
        self.billed += cost
        self._finish(k, end)


class _FleetRun:
    """One fleet run: what its launches share, and its event handlers.

    As in the serving layer, each handler is a method scheduled as a
    ``functools.partial`` of a bound method, and neither the run nor a
    launch stores a bound method of the run, so reference counting frees it
    when :meth:`FleetSimulator.run` returns.  A launch holds the run and
    calls :meth:`finish_request` at completion.
    """

    __slots__ = ("fleet", "options", "loop", "ledger", "cap_of", "priority_of", "guard",
                 "runtimes", "memos", "pool", "tenant_of", "outcomes", "rejected", "causes",
                 "offered", "stretches", "inflight_aborts", "carries", "queue", "entries",
                 "node_failures", "spot_evictions")

    def __init__(self, fleet: "FleetSimulator") -> None:
        options = fleet.options
        self.fleet = fleet
        self.options = options
        self.loop = EventLoop()
        # The policy picks the ledger's node score; under ``priority`` every
        # tenant below the top priority is capped short of the reserve.
        self.ledger = ClusterLedger(
            fleet.cluster,
            key=balance_key if options.placement == "bin-packing" else spread_key,
        )
        max_priority = max(tenant.priority for tenant in fleet.tenants)
        self.cap_of = {
            tenant.name: (
                1.0 - options.priority_reserve_fraction
                if options.placement == "priority" and tenant.priority < max_priority
                else 1.0
            )
            for tenant in fleet.tenants
        }
        self.priority_of = {tenant.name: tenant.priority for tenant in fleet.tenants}
        self.guard: Optional[ProtectionGuard] = None
        if fleet.protection is not None and not fleet.protection.is_empty:
            self.guard = ProtectionGuard(fleet.protection.with_priorities(self.priority_of), None)
        self.runtimes = fleet._runtimes
        # One memo per tenant and run: each (configuration, input scale) a
        # tenant dispatches is evaluated once, then replayed as a template.
        self.memos = {
            name: TraceMemo(runtime.backend, runtime.workflow, runtime.pricing,
                            runtime.cold_latency)
            for name, runtime in self.runtimes.items()
        }
        fleet.container_pool = ContainerPool(
            keep_alive_seconds=options.keep_alive_seconds,
            max_containers_per_function=options.max_warm_per_function,
        )
        for name, controller in fleet.controllers.items():
            controller.bind(pool=_NamespacedPool(fleet.container_pool, name))
        self.pool = fleet.container_pool if options.simulate_cold_starts else None
        self.tenant_of: Dict[int, str] = {}
        self.outcomes: Dict[str, List[ServedRequest]] = {t.name: [] for t in fleet.tenants}
        self.rejected: Dict[str, List[RequestArrival]] = {t.name: [] for t in fleet.tenants}
        self.causes: Dict[str, Dict[str, int]] = {t.name: {} for t in fleet.tenants}
        self.offered: Dict[str, int] = {t.name: 0 for t in fleet.tenants}
        self.stretches: List[float] = []
        self.inflight_aborts: Dict[int, Callable[[float], None]] = {}
        self.carries: Dict[int, Dict[str, float]] = {}
        # Queue of (order_key, seq) entries; order_key is -priority under the
        # priority policy (drain important tenants first) and 0 otherwise
        # (pure FIFO by fleet sequence number).
        self.queue: List[Tuple[int, int]] = []
        self.entries: Dict[int, Tuple[str, RequestArrival, WorkflowConfiguration]] = {}
        self.node_failures = 0
        self.spot_evictions = 0

    def order_key(self, tenant_name: str) -> int:
        if self.options.placement == "priority":
            return -self.priority_of[tenant_name]
        return 0

    def reject(self, seq: int, tenant_name: str, request: RequestArrival, cause: str) -> None:
        self.rejected[tenant_name].append(request)
        bucket = self.causes[tenant_name]
        bucket[cause] = bucket.get(cause, 0) + 1
        controller = self.fleet.controllers.get(tenant_name)
        if controller is not None:
            controller.observe_rejection(self.loop.now, seq)

    def finish_request(self, outcome: ServedRequest) -> None:
        seq = outcome.index
        now = self.loop.now
        self.ledger.release(seq, now)
        tenant_name = self.tenant_of[seq]
        controller = self.fleet.controllers.get(tenant_name)
        if controller is not None:
            outcome.config_version = controller.version_of(seq)
        self.outcomes[tenant_name].append(outcome)
        self.inflight_aborts.pop(seq, None)
        self.carries.pop(seq, None)
        self.entries.pop(seq, None)
        if self.guard is not None:
            self.guard.observe_completion(outcome.service_seconds)
        if controller is not None:
            controller.observe_completion(now, outcome)
        self.try_dispatch()

    def try_dispatch(self) -> None:
        # Strict in-order admission (queue order, not arrival order): stop at
        # the first request that does not fit so later smaller ones cannot
        # starve it.
        queue, entries, ledger, loop = self.queue, self.entries, self.ledger, self.loop
        guard, carries, options = self.guard, self.carries, self.options
        while queue:
            _, seq = queue[0]
            tenant_name, request, configuration = entries[seq]
            node_of = ledger.try_reserve(seq, configuration, loop.now, self.cap_of[tenant_name])
            if node_of is None:
                if ledger.active == 0 and not ledger.has_down_nodes:
                    # Fits nowhere even on an idle cluster: drop instead of
                    # deadlocking the queue.
                    heapq.heappop(queue)
                    entries.pop(seq, None)
                    self.reject(seq, tenant_name, request, "queue-full")
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
                self.stretches.append(stretch)
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
            launch = _FleetLaunch(
                self,
                self.runtimes[tenant_name],
                self.memos[tenant_name].get(configuration, request.input_scale),
                seq,
                request,
                configuration,
                stretch,
                node_of,
                carry,
            )
            self.inflight_aborts[seq] = launch.abort
            launch.begin()

    def arrive(self, seq: int, tenant_name: str, request: RequestArrival) -> None:
        now = self.loop.now
        self.offered[tenant_name] += 1
        self.tenant_of[seq] = tenant_name
        controller = self.fleet.controllers.get(tenant_name)
        if controller is not None:
            controller.observe_arrival(now, request)
            configuration = controller.assign(seq, request)
        else:
            configuration = self.runtimes[tenant_name].configuration
        queue = self.queue
        if self.guard is not None:
            # The guard sees the tenant name as the input class, so shed
            # priorities are per tenant.
            cause = self.guard.admit(now, tenant_name, len(queue), self.ledger.active)
            if cause is not None:
                self.reject(seq, tenant_name, request, cause)
                return
        self.entries[seq] = (tenant_name, request, configuration)
        heapq.heappush(queue, (self.order_key(tenant_name), seq))
        self.try_dispatch()
        capacity = self.options.queue_capacity
        if capacity is not None and len(queue) > capacity:
            # Shed the worst queued entry that never ran, as the serving
            # layer sheds its newest arrival; a request that an eviction put
            # back keeps its place (and its bill).
            fresh = [entry for entry in queue if entry[1] not in self.carries]
            if fresh:
                worst = max(fresh)
                queue.remove(worst)
                heapq.heapify(queue)
                _, dropped_seq = worst
                dropped_tenant, dropped_request, _ = self.entries.pop(dropped_seq)
                self.reject(dropped_seq, dropped_tenant, dropped_request, "queue-full")

    def take_down(self, node_name: str, kind: str) -> None:
        """A node fails or its spot capacity is evicted: abort and re-queue
        the requests it hosted."""
        fleet = self.fleet
        if not fleet.cluster.node(node_name).healthy:
            return  # struck while already down
        loop = self.loop
        affected = self.ledger.fail_node(node_name, loop.now)
        if kind == "failure":
            self.node_failures += 1
            recovery = self.options.node_recovery_seconds
        else:
            self.spot_evictions += 1
            recovery = self.options.spot_recovery_seconds
        fleet.container_pool.evict_node(node_name)
        loop.schedule_after(recovery, partial(self.recover, node_name))
        for seq in affected:
            abort = self.inflight_aborts.pop(seq, None)
            if abort is not None:
                abort(loop.now)
            tenant_name, _, _ = self.entries[seq]
            heapq.heappush(self.queue, (self.order_key(tenant_name), seq))
        self.try_dispatch()

    def recover(self, node_name: str) -> None:
        self.ledger.restore_node(node_name, self.loop.now)
        self.try_dispatch()


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
        first under queue pressure.  Fleets run admission control and
        shedding only; a policy with a breaker, hedging or deadline is
        rejected, since the fleet's launch loop would ignore them.
    controllers:
        Optional tenant name → :class:`ReconfigurationController` mapping;
        each controller observes only its tenant's traffic and re-tunes that
        tenant's configuration in place.
    backends:
        Optional tenant name → :class:`EvaluationBackend` mapping for the
        tenants' service traces; a tenant without one gets a plain
        :class:`SimulatorBackend` over its workload's executor.  Each run
        evaluates every (configuration, input scale) a tenant dispatches
        once, noise-free (``rng=None``), and replays that trace template
        for every request with the same pair, so tenant traces are
        noise-free and a backend must be ``deterministic``: one over an
        executor that simulates cold starts is rejected.
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
        unsupported = [
            mechanism
            for mechanism in ("breaker", "hedging", "deadline")
            if protection is not None and getattr(protection, mechanism) is not None
        ]
        if unsupported:
            raise ValueError(
                "fleet serving runs only admission control and shedding; "
                f"the protection policy also sets {', '.join(unsupported)}"
            )
        self.tenants = list(tenants)
        self.cluster = cluster
        self.options = options if options is not None else FleetOptions()
        self.protection = protection
        self.controllers = dict(controllers or {})
        backends = backends or {}
        #: The warm pool of the latest run; each run starts from an empty one.
        self.container_pool: Optional[ContainerPool] = None
        self._runtimes: Dict[str, _TenantRuntime] = {
            tenant.name: _TenantRuntime(tenant, backends.get(tenant.name))
            for tenant in self.tenants
        }

    # -- the run -------------------------------------------------------------------
    def run(self, duration_seconds: float, seed: int = 2025) -> FleetResult:
        """Serve every tenant's stream for ``duration_seconds`` at ``seed``."""
        POSITIVE.check(duration_seconds, "duration_seconds")
        options = self.options
        rng = RngStream(derive_seed(seed, "fleet"))
        run = _FleetRun(self)
        streams = {
            tenant.name: tenant.traffic_source().generate(
                duration_seconds, rng.child("arrivals", tenant.name)
            )
            for tenant in self.tenants
        }
        merged = merge_request_streams(streams)
        loop = run.loop
        for seq, (tenant_name, request) in enumerate(merged):
            loop.schedule(request.arrival_time, partial(run.arrive, seq, tenant_name, request))

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
        for when, node_name, kind in downtime:
            loop.schedule(when, partial(run.take_down, node_name, kind))

        loop.run()
        ledger = run.ledger
        ledger.advance(loop.now)

        cpu_util, mem_util, mean_concurrency = ledger.utilization()
        stretches = run.stretches
        tenant_results: Dict[str, TenantResult] = {}
        total_cost = 0.0
        for tenant in self.tenants:
            name = tenant.name
            metrics = summarize_outcomes(
                run.outcomes[name],
                run.rejected[name],
                duration_seconds,
                run.offered[name],
                run.runtimes[name].slo,
                rejection_causes=run.causes[name],
            )
            total_cost += metrics.total_cost
            controller = self.controllers.get(name)
            tenant_results[name] = TenantResult(
                tenant=name,
                priority=tenant.priority,
                metrics=metrics,
                outcomes=run.outcomes[name],
                rejected=run.rejected[name],
                rejected_by_cause=dict(run.causes[name]),
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
            node_failures=run.node_failures,
            spot_evictions=run.spot_evictions,
            interference_stretched=len(stretches),
            mean_stretch=(sum(stretches) / len(stretches)) if stretches else 1.0,
            protection_events=run.guard.drain_events() if run.guard is not None else [],
        )

