"""Batched serving engine: array-cohort settlement of request streams.

The scalar :class:`~repro.execution.serving.ServingSimulator` walks one
event-loop closure per arrival, function start, container release and
completion — flexible, but it caps the drift/fault/adaptive scenario suites
at modest request counts.  The :class:`BatchedServingSimulator` here serves
the same streams from array operations while staying **bit-identical** to
the scalar engine under fixed seeds (the differential tier in
``tests/differential/test_engine_differential.py`` is the arbiter):

* Requests are grouped into **cohorts** sharing a service-trace template —
  one ``(configuration, input_scale)`` evaluation per template instead of
  one per request — and each template's function timeline is settled for
  the whole cohort in NumPy passes (per-function start/finish arrays,
  elementwise-max joins, cumulative-sum concurrency integration).
* The warm-pool overlay replays the :class:`ContainerPool` contract per
  function with a sorted sweep: the common single-configuration bucket
  reduces to an exact LIFO deque (most-recent warm match, strict-boundary
  expiry, oldest-first capacity eviction), and mixed-configuration buckets
  drive a real replica pool so input-aware cohorts keep exact semantics.
* Runs that contend for a finite cluster replay the scalar event loop
  *exactly* on the :class:`~repro.execution.events_calendar.EventCalendar`
  — same event set, same insertion-order tie-breaking — just without the
  per-event closure allocation and per-request re-evaluation.
* Faulty, noisy, adaptive-controller and autoscaled runs **fall back** to
  the scalar engine unchanged, so ``repro scenarios`` semantics are
  untouched (the differential tier still compares them byte-for-byte).

Floating-point equality is engineered, not hoped for: sequential Python
accumulation is replicated with ``np.cumsum`` (bit-identical to a running
sum), scalar expression shapes like ``start + penalty + runtime`` keep
their association, and the rare request with three or more cold starts is
re-accumulated in the scalar engine's event order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.execution.backend import EvaluationBackend
from repro.execution.cluster import Cluster, ClusterLedger
from repro.execution.container import ContainerPool
from repro.execution.events import RequestArrival
from repro.execution.events_calendar import EventCalendar
from repro.execution.executor import WorkflowExecutor
from repro.execution.faults import FaultPlan
from repro.execution.protection import ProtectionPolicy
from repro.execution.serving import (
    ServedRequest,
    ServingOptions,
    ServingResult,
    ServingSimulator,
    summarize_outcomes,
)
from repro.execution.trace import ExecutionStatus
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = [
    "SERVING_ENGINE_NAMES",
    "BatchedServingSimulator",
    "build_serving_engine",
]

#: Engine names accepted by :func:`build_serving_engine` (and the CLI).
SERVING_ENGINE_NAMES: Tuple[str, ...] = ("event", "batched")

# Event kinds on the calendar (arrivals ride the pre-sorted backbone lane).
_ARRIVAL = 0
_START = 1
_RELEASE = 2
_COMPLETE = 3


class _Template:
    """Per-(configuration, input-scale) service-trace template.

    Everything the scalar engine derives per request from the evaluated
    trace — topological function order, per-function runtimes/configs/
    predecessor sets, cold-start penalty and its billing delta — resolved
    once per cohort.  Function identity is a dense index into ``names``
    (topologically ordered, filtered to the trace's records), matching the
    scalar engine's ``waiting`` dict iteration order exactly.
    """

    __slots__ = (
        "trace",
        "names",
        "index",
        "statuses",
        "runtimes",
        "configs",
        "penalties",
        "deltas",
        "preds",
        "succs",
        "waiting0",
        "roots",
        "base_cost",
        "succeeded",
    )

    def __init__(self, simulator: ServingSimulator, trace) -> None:
        records = trace.records
        names = [name for name in simulator._topo_order if name in records]
        index = {name: position for position, name in enumerate(names)}
        preds = [
            [index[p] for p in simulator._predecessors[name] if p in records]
            for name in names
        ]
        succs: List[List[int]] = [[] for _ in names]
        for position, plist in enumerate(preds):
            for p in plist:
                succs[p].append(position)
        pricing = simulator.executor.pricing
        self.trace = trace
        self.names = names
        self.index = index
        self.preds = preds
        self.succs = succs
        self.waiting0 = [len(plist) for plist in preds]
        self.roots = [k for k, w in enumerate(self.waiting0) if w == 0]
        self.statuses = [records[name].status for name in names]
        self.runtimes = [records[name].runtime_seconds for name in names]
        self.configs = [records[name].config for name in names]
        self.penalties = [simulator._cold_latency[name] for name in names]
        # Cold-start billing is deterministic per (runtime, penalty, config):
        # precompute the scalar engine's invocation-cost difference once.
        self.deltas = [
            pricing.invocation_cost(runtime + penalty, config)
            - pricing.invocation_cost(runtime, config)
            for runtime, penalty, config in zip(
                self.runtimes, self.penalties, self.configs
            )
        ]
        self.base_cost = trace.total_cost
        self.succeeded = trace.succeeded


class BatchedServingSimulator:
    """Array-cohort serving engine, bit-identical to the scalar loop.

    Accepts the same construction arguments as :class:`ServingSimulator`
    and wraps one internally — both for the fallback paths (faults, noise,
    adaptive control, autoscaling) and to reuse its precomputed topology.
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
        self._scalar = ServingSimulator(
            workflow=workflow,
            executor=executor,
            backend=backend,
            cluster=cluster,
            container_pool=container_pool,
            slo=slo,
            options=options,
            faults=faults,
            protection=protection,
        )
        scalar = self._scalar
        self.workflow = scalar.workflow
        self.executor = scalar.executor
        self.backend = scalar.backend
        self.cluster = scalar.cluster
        self.container_pool = scalar.container_pool
        self.slo = scalar.slo
        self.options = scalar.options
        self.faults = scalar.faults
        self.protection = scalar.protection

    # -- template resolution ----------------------------------------------------
    def _build_templates(
        self,
        request_list: List[RequestArrival],
        configs: List[WorkflowConfiguration],
    ) -> Tuple[List[_Template], List[int]]:
        """Group requests into trace cohorts, evaluating once per template.

        Keyed by configuration identity + exact input scale; the ``configs``
        list keeps every configuration object alive, so object ids cannot be
        recycled mid-run.  Templates are evaluated in first-arrival order —
        the same order a memoizing backend sees misses from the scalar run.
        """
        scalar = self._scalar
        templates: List[_Template] = []
        lookup: Dict[Tuple[int, float], int] = {}
        template_of = [0] * len(request_list)
        for i, request in enumerate(request_list):
            key = (id(configs[i]), request.input_scale)
            t = lookup.get(key)
            if t is None:
                trace = scalar.backend.evaluate(
                    scalar.workflow,
                    configs[i],
                    input_scale=request.input_scale,
                    rng=None,
                )
                t = len(templates)
                templates.append(_Template(scalar, trace))
                lookup[key] = t
            template_of[i] = t
        return templates, template_of

    # -- entry point -------------------------------------------------------------
    def run(
        self,
        requests: Iterable[RequestArrival],
        configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
        rng: Optional[RngStream] = None,
        duration_seconds: Optional[float] = None,
        fault_rng: Optional[RngStream] = None,
        controller=None,
    ) -> ServingResult:
        """Serve the stream; identical signature and results to the scalar run.

        Faulty, noisy, adaptive, autoscaled and *protected* runs route to
        the scalar engine per request — their per-event branching defeats
        cohorting, and the contract is that those cohorts still match
        byte-for-byte.  The delegation happens before any dispatcher side
        effect (``configuration_for`` is not called for a delegated run),
        and the returned result records why in ``fallback_reason``.
        """
        scalar = self._scalar
        plan = scalar.faults
        policy = scalar.protection
        reason = ""
        if plan is not None and not plan.is_empty:
            reason = "faults"
        elif policy is not None and not policy.is_empty:
            reason = "protection"
        elif rng is not None:
            reason = "noise"
        elif controller is not None:
            reason = "adaptive"
        elif scalar.options.autoscale:
            reason = "autoscale"
        if reason:
            return self._delegate(
                reason,
                requests,
                configuration_for,
                rng=rng,
                duration_seconds=duration_seconds,
                fault_rng=fault_rng,
                controller=controller,
            )
        request_list = list(requests)
        times = [r.arrival_time for r in request_list]
        sorted_ok = all(b >= a for a, b in zip(times, times[1:]))
        pool_warmed = scalar.options.simulate_cold_starts and any(
            scalar.container_pool._containers.values()
        )
        # The cohort sweep assumes a pristine pool (fresh per experiment);
        # unsorted streams would break the backbone lane.  Both are exotic —
        # serve them on the reference engine instead of approximating.
        if not sorted_ok or (scalar.cluster is None and pool_warmed):
            return self._delegate(
                "unsorted-arrivals" if not sorted_ok else "warm-pool",
                request_list,
                configuration_for,
                duration_seconds=duration_seconds,
            )
        if duration_seconds is None:
            duration_seconds = max(times, default=0.0)
        configs = [configuration_for(r) for r in request_list]
        if scalar.cluster is not None:
            return self._run_calendar(request_list, configs, duration_seconds)
        return self._run_cohort(request_list, configs, duration_seconds)

    def _delegate(
        self,
        reason: str,
        requests: Iterable[RequestArrival],
        configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
        **kwargs,
    ) -> ServingResult:
        """Serve on the scalar reference engine, recording why.

        The notice is logged once per delegated run so a ``--engine
        batched`` invocation never *silently* loses its speedup; the reason
        also lands on the result (and the rendered report) for posterity.
        """
        get_logger(__name__).info(
            "batched engine: delegating run to the scalar engine (%s)", reason
        )
        result = self._scalar.run(requests, configuration_for, **kwargs)
        result.fallback_reason = reason
        return result

    # -- uncontended cohort path -------------------------------------------------
    def _run_cohort(
        self,
        request_list: List[RequestArrival],
        configs: List[WorkflowConfiguration],
        duration_seconds: float,
    ) -> ServingResult:
        """No cluster: every request dispatches at arrival; settle in arrays.

        Function timelines are walked in topological order with one merged
        pool sweep per function name, so the warm-pool state seen by each
        acquisition matches the scalar event sequence (request-level start
        ties across a function are measure-zero under continuous arrival
        processes; the differential tier guards the discrete ones).
        """
        scalar = self._scalar
        n = len(request_list)
        pool = scalar.container_pool if scalar.options.simulate_cold_starts else None
        templates, template_of_list = self._build_templates(request_list, configs)
        template_of = np.asarray(template_of_list, dtype=np.intp)
        arrivals = np.asarray(
            [r.arrival_time for r in request_list], dtype=np.float64
        )
        requests_of = [
            np.nonzero(template_of == t)[0] for t in range(len(templates))
        ]
        arrivals_of = [arrivals[idx] for idx in requests_of]
        finishes: List[List[Optional[np.ndarray]]] = [
            [None] * len(tpl.names) for tpl in templates
        ]
        cold_count = np.zeros(n, dtype=np.int64)
        cold_seconds = np.zeros(n, dtype=np.float64)
        extra_cost = np.zeros(n, dtype=np.float64)
        # (request indices, start times, penalty, delta, topo position) per
        # cold batch — kept for the exact-order re-accumulation below.
        cold_batches: List[Tuple[np.ndarray, np.ndarray, float, float, int]] = []
        pool_cold = pool_warm = pool_evicted = 0

        for topo_position, name in enumerate(scalar._topo_order):
            # One participant per template containing this function, with the
            # cohort's start times (arrival for roots, max of predecessor
            # finishes otherwise — max is order-free, so elementwise works).
            participants = []
            for t, tpl in enumerate(templates):
                k = tpl.index.get(name)
                if k is None or requests_of[t].size == 0:
                    continue
                plist = tpl.preds[k]
                if not plist:
                    starts = arrivals_of[t]
                else:
                    starts = finishes[t][plist[0]]
                    for p in plist[1:]:
                        starts = np.maximum(starts, finishes[t][p])
                if tpl.statuses[k] is ExecutionStatus.SKIPPED:
                    finishes[t][k] = starts
                    continue
                if pool is None:
                    finishes[t][k] = starts + tpl.runtimes[k]
                    continue
                participants.append(
                    (t, k, starts, tpl.statuses[k] is ExecutionStatus.OOM)
                )
            if not participants:
                continue
            cold, evicted, warm, flags_of = self._sweep_function(
                name, templates, participants, finishes, pool
            )
            pool_cold += cold
            pool_evicted += evicted
            pool_warm += warm
            for (t, k, starts, _), flags in zip(participants, flags_of):
                if flags.any():
                    indices = requests_of[t][flags]
                    penalty = templates[t].penalties[k]
                    delta = templates[t].deltas[k]
                    # One event per request per function: fancy-index adds
                    # are duplicate-free (2-term float sums are commutative;
                    # 3+ cold requests are re-accumulated in event order).
                    cold_count[indices] += 1
                    cold_seconds[indices] += penalty
                    extra_cost[indices] += delta
                    cold_batches.append(
                        (indices, starts[flags], penalty, delta, topo_position)
                    )

        self._fix_multi_cold(cold_count, cold_seconds, extra_cost, cold_batches)

        completion = arrivals.copy()
        for t, tpl in enumerate(templates):
            idx = requests_of[t]
            if idx.size == 0 or not tpl.names:
                continue
            cohort_completion = arrivals_of[t]
            for k in range(len(tpl.names)):
                cohort_completion = np.maximum(cohort_completion, finishes[t][k])
            completion[idx] = cohort_completion

        base_cost = np.asarray(
            [tpl.base_cost for tpl in templates], dtype=np.float64
        )[template_of]
        costs = base_cost + extra_cost

        completion_list = completion.tolist()
        cost_list = costs.tolist()
        cold_count_list = cold_count.tolist()
        cold_seconds_list = cold_seconds.tolist()
        outcomes: List[ServedRequest] = []
        append = outcomes.append
        for i, request in enumerate(request_list):
            tpl = templates[template_of_list[i]]
            append(
                ServedRequest(
                    i,
                    request,
                    configs[i],
                    request.arrival_time,
                    completion_list[i],
                    cost_list[i],
                    cold_count_list[i],
                    cold_seconds_list[i],
                    tpl.succeeded,
                    tpl.trace,
                )
            )

        if pool is not None:
            stats = pool._stats
            stats.cold_starts += pool_cold
            stats.warm_hits += pool_warm
            stats.evictions += pool_evicted

        ledger = self._replay_ledger(arrivals, completion)
        metrics = summarize_outcomes(
            outcomes, [], duration_seconds, n, scalar.slo, ledger=ledger
        )
        return ServingResult(outcomes=outcomes, rejected=[], metrics=metrics)

    def _sweep_function(
        self,
        name: str,
        templates: List[_Template],
        participants: List[Tuple[int, int, np.ndarray, bool]],
        finishes: List[List[Optional[np.ndarray]]],
        pool: ContainerPool,
    ) -> Tuple[int, int, int, List[np.ndarray]]:
        """Replay one function's pool bucket over all cohorts' start events.

        Stores the per-participant finish arrays in ``finishes`` and
        returns ``(cold_starts, evictions, warm_hits, cold_flags)`` with
        one boolean flag array per participant.  Single-configuration
        buckets (the common case) reduce to an exact LIFO deque of
        last-used times; mixed buckets drive a replica
        :class:`ContainerPool`, keeping the MRU/expiry/capacity contract by
        construction.
        """
        start_arrays = [p[2] for p in participants]
        sizes = [s.size for s in start_arrays]
        merged = (
            np.concatenate(start_arrays) if len(start_arrays) > 1 else start_arrays[0]
        )
        if len(participants) > 1:
            owner = np.repeat(np.arange(len(participants)), sizes)
        else:
            owner = np.zeros(merged.size, dtype=np.intp)
        order = np.argsort(merged, kind="stable")
        start_sorted = merged[order].tolist()
        owner_sorted = owner[order].tolist()
        runtime_of = [templates[t].runtimes[k] for t, k, _, _ in participants]
        config_of = [templates[t].configs[k] for t, k, _, _ in participants]
        oom_of = [oom for _, _, _, oom in participants]
        penalty = templates[participants[0][0]].penalties[participants[0][1]]
        total = merged.size
        cold_flags = [False] * total
        end_sorted = [0.0] * total
        keep_alive = pool.keep_alive_seconds
        capacity = pool.max_containers_per_function
        cold = warm = evicted = 0

        if len(set(config_of)) == 1:
            # Exact single-bucket replay: ``idle`` holds last-used times in
            # ascending order.  Releases flush before any acquisition at the
            # same instant; expiry uses the pool's own two-sided predicate
            # (heap-popped at ``last + keep_alive <= t``, evicted only when
            # ``t - last > keep_alive``), so boundary containers stay warm
            # and rounding zombies linger exactly as in ContainerPool.
            idle: deque = deque()
            pending: List[float] = []
            heappush, heappop = heapq.heappush, heapq.heappop
            for j in range(total):
                now = start_sorted[j]
                while pending and pending[0] <= now:
                    idle.append(heappop(pending))
                    if len(idle) > capacity:
                        idle.popleft()
                        evicted += 1
                while idle:
                    last = idle[0]
                    if last + keep_alive <= now and now - last > keep_alive:
                        idle.popleft()
                        evicted += 1
                    else:
                        break
                p = owner_sorted[j]
                if idle and now - idle[-1] <= keep_alive:
                    idle.pop()
                    warm += 1
                    end = now + runtime_of[p]
                else:
                    cold_flags[j] = True
                    cold += 1
                    end = (now + penalty) + runtime_of[p]
                end_sorted[j] = end
                if not oom_of[p]:
                    heappush(pending, end)
        else:
            # Mixed configurations (input-aware cohorts): drive a real pool
            # replica so exact-config matching keeps ContainerPool semantics.
            replica = ContainerPool(keep_alive, capacity)
            tie = itertools.count()
            releases: List[Tuple[float, int, object]] = []
            heappush, heappop = heapq.heappush, heapq.heappop
            for j in range(total):
                now = start_sorted[j]
                while releases and releases[0][0] <= now:
                    finish_time, _, container = heappop(releases)
                    replica.release(container, finish_time)
                p = owner_sorted[j]
                container, is_cold = replica.acquire(name, config_of[p], now)
                if is_cold:
                    cold_flags[j] = True
                    end = (now + penalty) + runtime_of[p]
                else:
                    end = now + runtime_of[p]
                end_sorted[j] = end
                if not oom_of[p]:
                    heappush(releases, (end, next(tie), container))
            cold = replica.cold_starts
            warm = replica.warm_hits
            evicted = replica.evictions

        ends = np.empty(total, dtype=np.float64)
        ends[order] = np.asarray(end_sorted, dtype=np.float64)
        flags = np.zeros(total, dtype=bool)
        flags[order] = np.asarray(cold_flags, dtype=bool)
        flags_of: List[np.ndarray] = []
        offset = 0
        for (t, k, _, _), size in zip(participants, sizes):
            finishes[t][k] = ends[offset : offset + size]
            flags_of.append(flags[offset : offset + size])
            offset += size
        return cold, evicted, warm, flags_of

    @staticmethod
    def _fix_multi_cold(
        cold_count: np.ndarray,
        cold_seconds: np.ndarray,
        extra_cost: np.ndarray,
        cold_batches: List[Tuple[np.ndarray, np.ndarray, float, float, int]],
    ) -> None:
        """Re-accumulate 3+-cold-start requests in scalar event order.

        Two-term float sums are order-free (commutativity), but three or
        more additions depend on association — replay those requests'
        penalties and billing deltas sorted by (start time, topo position),
        the order the scalar engine's start events fire in.
        """
        multi = np.nonzero(cold_count >= 3)[0]
        if not multi.size:
            return
        wanted = set(multi.tolist())
        events: Dict[int, List[Tuple[float, int, float, float]]] = {
            r: [] for r in wanted
        }
        for indices, starts, penalty, delta, topo_position in cold_batches:
            for r, s in zip(indices.tolist(), starts.tolist()):
                if r in wanted:
                    events[r].append((s, topo_position, penalty, delta))
        for r, request_events in events.items():
            request_events.sort()
            seconds = 0.0
            cost = 0.0
            for _, _, penalty, delta in request_events:
                seconds += penalty
                cost += delta
            cold_seconds[r] = seconds
            extra_cost[r] = cost

    @staticmethod
    def _replay_ledger(
        arrivals: np.ndarray, completion: np.ndarray
    ) -> ClusterLedger:
        """Rebuild the scalar ledger's concurrency integral from arrays.

        ``np.cumsum`` is bit-identical to a sequential running sum, the
        scalar's skipped zero-``dt`` advances add exact ``0.0`` terms, and
        arrivals win completion ties (stable sort, arrivals concatenated
        first) exactly as their lower event sequence numbers do.
        """
        ledger = ClusterLedger(None)
        n = arrivals.size
        if n == 0:
            return ledger
        times = np.concatenate((arrivals, completion))
        deltas = np.concatenate(
            (np.ones(n, dtype=np.float64), -np.ones(n, dtype=np.float64))
        )
        order = np.argsort(times, kind="stable")
        times_sorted = times[order]
        deltas_sorted = deltas[order]
        active_after = np.cumsum(deltas_sorted)
        dt = np.empty(times_sorted.size, dtype=np.float64)
        dt[0] = times_sorted[0] - 0.0
        dt[1:] = times_sorted[1:] - times_sorted[:-1]
        terms = (active_after - deltas_sorted) * dt
        ledger._concurrency_area = float(np.cumsum(terms)[-1])
        ledger._last_time = float(times_sorted[-1])
        ledger.peak_active = int(active_after.max())
        return ledger

    # -- contended calendar path -------------------------------------------------
    def _run_calendar(
        self,
        request_list: List[RequestArrival],
        configs: List[WorkflowConfiguration],
        duration_seconds: float,
    ) -> ServingResult:
        """Finite cluster: exact event replay on the two-lane calendar.

        The event set, handler order and every push mirror the scalar
        ``run``/``_launch`` pair one-for-one (arrivals on the backbone own
        seqs ``0..n-1``; dynamic pushes continue in the scalar's schedule
        order), so tie-breaking is identical — only the closure allocation
        and per-request backend evaluation are gone.
        """
        scalar = self._scalar
        n = len(request_list)
        pool = scalar.container_pool if scalar.options.simulate_cold_starts else None
        queue_capacity = scalar.options.queue_capacity
        templates, template_of = self._build_templates(request_list, configs)
        ledger = ClusterLedger(scalar.cluster)
        queue: deque = deque()
        outcomes: List[ServedRequest] = []
        rejected: List[RequestArrival] = []
        calendar = EventCalendar(
            [r.arrival_time for r in request_list], _ARRIVAL
        )
        release_slots: List[Tuple[object, float]] = []
        # Per-request launch state, indexed by request.
        dispatch_at = [0.0] * n
        completion_at = [0.0] * n
        colds = [0] * n
        cold_secs = [0.0] * n
        extras = [0.0] * n
        finish_of: List[Optional[List[float]]] = [None] * n
        waiting_of: List[Optional[List[int]]] = [None] * n
        remaining = [0] * n

        def launch(i: int, dispatch_time: float) -> None:
            tpl = templates[template_of[i]]
            dispatch_at[i] = dispatch_time
            completion_at[i] = dispatch_time
            if not tpl.roots:
                calendar.push(dispatch_time, _COMPLETE, i)
                return
            finish_of[i] = [0.0] * len(tpl.names)
            waiting_of[i] = tpl.waiting0.copy()
            remaining[i] = len(tpl.names)
            for k in tpl.roots:
                calendar.push(dispatch_time, _START, i, k)

        def try_dispatch() -> None:
            while queue:
                i = queue[0]
                if ledger.try_reserve(i, configs[i], calendar.now) is None:
                    if ledger.active == 0 and not ledger.has_down_nodes:
                        queue.popleft()
                        rejected.append(request_list[i])
                        continue
                    break
                queue.popleft()
                launch(i, calendar.now)

        while calendar:
            now, _, kind, a, b = calendar.pop()
            if kind == _START:
                tpl = templates[template_of[a]]
                status = tpl.statuses[b]
                if status is ExecutionStatus.SKIPPED:
                    end = now
                else:
                    penalty = 0.0
                    container = None
                    if pool is not None:
                        container, is_cold = pool.acquire(
                            tpl.names[b], tpl.configs[b], now
                        )
                        if is_cold:
                            penalty = tpl.penalties[b]
                            colds[a] += 1
                            cold_secs[a] += penalty
                    end = now + penalty + tpl.runtimes[b]
                    if container is not None and status is not ExecutionStatus.OOM:
                        # OOM kills destroy the container: never released.
                        calendar.push(end, _RELEASE, len(release_slots))
                        release_slots.append((container, end))
                    if penalty > 0.0:
                        extras[a] += tpl.deltas[b]
                finish = finish_of[a]
                finish[b] = end
                if end > completion_at[a]:
                    completion_at[a] = end
                remaining[a] -= 1
                if remaining[a] == 0:
                    calendar.push(completion_at[a], _COMPLETE, a)
                else:
                    waiting = waiting_of[a]
                    for s in tpl.succs[b]:
                        waiting[s] -= 1
                        if waiting[s] == 0:
                            plist = tpl.preds[s]
                            start = finish[plist[0]]
                            for p in plist[1:]:
                                value = finish[p]
                                if value > start:
                                    start = value
                            calendar.push(start, _START, a, s)
            elif kind == _RELEASE:
                container, finish_time = release_slots[a]
                pool.release(container, finish_time)
            elif kind == _COMPLETE:
                tpl = templates[template_of[a]]
                outcome = ServedRequest(
                    a,
                    request_list[a],
                    configs[a],
                    dispatch_at[a],
                    completion_at[a],
                    tpl.base_cost + extras[a],
                    colds[a],
                    cold_secs[a],
                    tpl.succeeded,
                    tpl.trace,
                )
                ledger.release(a, now)
                outcomes.append(outcome)
                try_dispatch()
            else:  # arrival
                queue.append(a)
                try_dispatch()
                if queue_capacity is not None and len(queue) > queue_capacity:
                    dropped = queue.pop()
                    rejected.append(request_list[dropped])

        ledger.advance(calendar.now)
        outcomes.sort(key=lambda o: o.index)
        metrics = summarize_outcomes(
            outcomes, rejected, duration_seconds, n, scalar.slo, ledger=ledger
        )
        return ServingResult(outcomes=outcomes, rejected=rejected, metrics=metrics)


def build_serving_engine(name: str = "event", **kwargs):
    """Factory over the serving engines, mirroring ``build_backend``.

    ``"event"`` is the scalar reference :class:`ServingSimulator`;
    ``"batched"`` the array-cohort :class:`BatchedServingSimulator`.  Both
    take the same keyword arguments and are bit-identical under fixed
    seeds.
    """
    key = (name or "event").strip().lower()
    if key == "event":
        return ServingSimulator(**kwargs)
    if key == "batched":
        return BatchedServingSimulator(**kwargs)
    raise ValueError(
        f"unknown serving engine {name!r}; expected one of {SERVING_ENGINE_NAMES}"
    )
