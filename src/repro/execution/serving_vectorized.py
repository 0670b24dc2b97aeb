"""Batched serving engine: uncapped request streams settled as columns.

The :class:`~repro.execution.serving.ServingSimulator` walks every request
through its discrete event loop.  The :class:`BatchedServingSimulator` here
is that simulator with one more path: it settles a clean run without a
cluster from array operations, staying **bit-identical** to the event loop
under fixed seeds (the differential tier in
``tests/differential/test_engine_differential.py`` is the arbiter):

* A stream is served as columns from input to summary.  ``run`` takes the
  :class:`~repro.execution.events.ArrivalBatch` that ``generate_batch``
  returns (arrival times, input scales and class codes), or reads a list
  of records into the same columns once.  The dispatcher is called once per
  request on a transient record, and the results come back as an
  :class:`~repro.execution.outcomes.OutcomeTable`, whose records are built
  only when read.  No per-request object outlives the call.
* Requests are grouped into **cohorts** sharing a service-trace template —
  one ``(configuration, input_scale)`` evaluation per template instead of
  one per request, keyed in arrays — and each template's function timeline
  is settled for the whole cohort in NumPy passes (per-function start/finish
  arrays, elementwise-max joins, cumulative-sum concurrency integration).
* The warm-pool overlay replays the :class:`ContainerPool` contract per
  function with a sweep over the start-sorted acquisitions.  In the common
  single-configuration bucket, the idle stack's height decides every
  acquisition: each release flushed by then raises it (evicting the oldest
  container above the cap), and an acquisition is cold exactly when it is
  zero.  The releases flushed by each acquisition are counted with
  ``searchsorted`` over the ascending warm and cold release times, in
  blocks shorter than the shortest runtime, so that all of a block's counts
  come from earlier, settled blocks and one integer walk settles it.  The
  counts ignore keep-alive expiry, so they settle a sweep only while every
  gap between acquisitions that empty the stack stays below the keep-alive;
  that sweep and any whose blocks are too small to pay are replayed by the
  exact LIFO deque (most-recent warm match, strict-boundary expiry,
  oldest-first capacity eviction).  Mixed-configuration buckets drive a real
  replica pool so input-aware cohorts keep exact semantics.
* Every other run is **delegated**, whole, to the event loop: faulted,
  protected, noisy, adaptive-controller and autoscaled runs, whose
  per-event branching defeats cohorting, and runs on a finite cluster, where
  each request's dispatch waits on the completions before it.  The result's
  ``fallback_reason`` says why, so ``repro scenarios`` semantics are
  untouched (the differential tier still compares them byte-for-byte).

Floating-point equality is engineered, not hoped for: sequential Python
accumulation is replicated with ``np.cumsum`` (bit-identical to a running
sum), scalar expression shapes like ``start + penalty + runtime`` keep
their association, and the requests with three or more cold starts are
re-accumulated in the scalar engine's event order, one event rank at a
time.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.execution.cluster import ClusterLedger
from repro.execution.container import ContainerPool
from repro.execution.events import ArrivalBatch, RequestArrival
from repro.execution.outcomes import OutcomeTable, summarize_outcomes
from repro.execution.serving import ServingResult, ServingSimulator
from repro.execution.templates import TraceMemo, TraceTemplate
from repro.execution.trace import ExecutionStatus
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream
from repro.workflow.resources import WorkflowConfiguration

__all__ = [
    "SERVING_ENGINE_NAMES",
    "BatchedServingSimulator",
    "build_serving_engine",
]

#: Engine names accepted by :func:`build_serving_engine` (and the CLI).
SERVING_ENGINE_NAMES: Tuple[str, ...] = ("event", "batched")


class BatchedServingSimulator(ServingSimulator):
    """The event-loop simulator with a cohort path for clean uncapped runs.

    Takes the same construction arguments as :class:`ServingSimulator`.
    :meth:`run` settles a clean run without a cluster in arrays and
    delegates every other run, whole, to the event loop it inherits.
    """

    # -- entry point -------------------------------------------------------------
    def run(
        self,
        requests: Union[Iterable[RequestArrival], ArrivalBatch],
        configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
        rng: Optional[RngStream] = None,
        duration_seconds: Optional[float] = None,
        fault_rng: Optional[RngStream] = None,
        controller=None,
    ) -> ServingResult:
        """Serve the stream; identical signature and results to the event loop.

        ``requests`` is an :class:`~repro.execution.events.ArrivalBatch` or
        an iterable of records, which is read into the same columns once.
        ``configuration_for`` is called once per request, in arrival order,
        on a record built for the call.

        Faulted, protected, noisy, adaptive and autoscaled runs, and runs on
        a finite cluster, are delegated whole to the event loop, checked in
        that order.  The delegation happens before the stream is read and
        before any dispatcher side effect (this method calls no
        ``configuration_for`` for a delegated run), and the returned result
        records why in ``fallback_reason``.
        """
        plan = self.faults
        policy = self.protection
        reason = ""
        if plan is not None and not plan.is_empty:
            reason = "faults"
        elif policy is not None and not policy.is_empty:
            reason = "protection"
        elif rng is not None:
            reason = "noise"
        elif controller is not None:
            reason = "adaptive"
        elif self.options.autoscale:
            reason = "autoscale"
        elif self.cluster is not None:
            reason = "cluster"
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
        self._reset_pool()
        if not isinstance(requests, ArrivalBatch):
            requests = ArrivalBatch.from_requests(list(requests))
        times = requests.times
        # The cohort sweeps assume arrival order; unsorted streams are
        # exotic, so serve them on the event loop instead of approximating.
        if not (times[1:] >= times[:-1]).all():
            return self._delegate(
                "unsorted-arrivals",
                requests,
                configuration_for,
                duration_seconds=duration_seconds,
            )
        if duration_seconds is None:
            duration_seconds = float(times.max()) if times.size else 0.0
        names = requests.class_names
        configs = [
            configuration_for(RequestArrival(time, scale, names[code]))
            for time, scale, code in zip(
                times.tolist(), requests.scales.tolist(), requests.class_ids.tolist()
            )
        ]
        memo = TraceMemo(self.backend, self.workflow, self.executor.pricing, self._cold_latency)
        template_of = memo.group(configs, requests.scales)
        del configs  # each template holds its configuration
        return self._run_cohort(requests, memo.templates, template_of, duration_seconds)

    def _delegate(
        self,
        reason: str,
        requests: Union[Iterable[RequestArrival], ArrivalBatch],
        configuration_for: Callable[[RequestArrival], WorkflowConfiguration],
        **kwargs,
    ) -> ServingResult:
        """Serve on the event loop, recording why.

        The notice is logged once per delegated run so a ``--engine
        batched`` invocation never *silently* loses its speedup; the reason
        also lands on the result (and the rendered report) for posterity.
        A batch is served as its records.
        """
        get_logger(__name__).info(
            "batched engine: delegating run to the scalar engine (%s)", reason
        )
        if isinstance(requests, ArrivalBatch):
            requests = requests.to_requests()
        result = super().run(requests, configuration_for, **kwargs)
        result.fallback_reason = reason
        return result

    # -- uncontended cohort path -------------------------------------------------
    def _run_cohort(
        self,
        requests: ArrivalBatch,
        templates: List[TraceTemplate],
        template_of: np.ndarray,
        duration_seconds: float,
    ) -> ServingResult:
        """No cluster: every request dispatches at arrival; settle in arrays.

        Function timelines are walked in topological order with one merged
        pool sweep per function name, so the warm-pool state seen by each
        acquisition matches the scalar event sequence (request-level start
        ties across a function are measure-zero under continuous arrival
        processes; the differential tier guards the discrete ones).
        """
        arrivals = requests.times
        n = arrivals.size
        pool = self.container_pool if self.options.simulate_cold_starts else None
        requests_of = [
            np.nonzero(template_of == t)[0] for t in range(len(templates))
        ]
        arrivals_of = [arrivals[idx] for idx in requests_of]
        plan = self.workflow.plan
        finishes: List[List[Optional[np.ndarray]]] = [
            [None] * len(plan.names) for _ in templates
        ]
        cold_count = np.zeros(n, dtype=np.int64)
        cold_seconds = np.zeros(n, dtype=np.float64)
        extra_cost = np.zeros(n, dtype=np.float64)
        # (request indices, start times, penalty, delta, topo position) per
        # cold batch — kept for the exact-order re-accumulation below.
        cold_batches: List[Tuple[np.ndarray, np.ndarray, float, float, int]] = []
        pool_cold = pool_warm = pool_evicted = 0

        for k, preds in enumerate(plan.preds):
            # One participant per template, with the cohort's start times
            # (arrival for roots, max of predecessor finishes otherwise — max
            # is order-free, so elementwise works).
            participants = []
            for t, tpl in enumerate(templates):
                if not preds:
                    starts = arrivals_of[t]
                else:
                    starts = finishes[t][preds[0]]
                    for p in preds[1:]:
                        starts = np.maximum(starts, finishes[t][p])
                if tpl.statuses[k] is ExecutionStatus.SKIPPED:
                    finishes[t][k] = starts
                    continue
                if pool is None:
                    finishes[t][k] = starts + tpl.runtimes[k]
                    continue
                participants.append((t, starts, tpl.statuses[k] is ExecutionStatus.OOM))
            if not participants:
                continue
            cold, evicted, warm, flags_of = self._sweep_function(
                k, templates, participants, finishes, pool
            )
            pool_cold += cold
            pool_evicted += evicted
            pool_warm += warm
            penalty = self._cold_latency[k]
            for (t, starts, _), flags in zip(participants, flags_of):
                if flags.any():
                    indices = requests_of[t][flags]
                    delta = templates[t].deltas[k]
                    # One event per request per function: fancy-index adds
                    # are duplicate-free (2-term float sums are commutative;
                    # 3+ cold requests are re-accumulated in event order).
                    cold_count[indices] += 1
                    cold_seconds[indices] += penalty
                    extra_cost[indices] += delta
                    cold_batches.append((indices, starts[flags], penalty, delta, k))

        _fix_multi_cold(cold_count, cold_seconds, extra_cost, cold_batches)

        completion = arrivals.copy()
        for t, cohort_finishes in enumerate(finishes):
            cohort_completion = arrivals_of[t]
            for finish in cohort_finishes:
                cohort_completion = np.maximum(cohort_completion, finish)
            completion[requests_of[t]] = cohort_completion

        if pool is not None:
            stats = pool._stats
            stats.cold_starts += pool_cold
            stats.warm_hits += pool_warm
            stats.evictions += pool_evicted

        outcomes = OutcomeTable(
            np.arange(n),
            requests,
            arrivals,
            completion,
            _base_costs(templates)[template_of] + extra_cost,
            cold_count,
            cold_seconds,
            template_of,
            templates,
        )
        ledger = self._replay_ledger(arrivals, completion)
        metrics = summarize_outcomes(
            outcomes, [], duration_seconds, n, self.slo, ledger=ledger
        )
        return ServingResult(outcomes=outcomes, rejected=[], metrics=metrics)

    def _sweep_function(
        self,
        k: int,
        templates: List[TraceTemplate],
        participants: List[Tuple[int, np.ndarray, bool]],
        finishes: List[List[Optional[np.ndarray]]],
        pool: ContainerPool,
    ) -> Tuple[int, int, int, List[np.ndarray]]:
        """Replay one function's pool bucket over all cohorts' start events.

        ``k`` is the function's position in the workflow plan and each
        participant is ``(template, start times, OOM-killed)``.  Stores the
        per-participant finish arrays in ``finishes`` and
        returns ``(cold_starts, evictions, warm_hits, cold_flags)`` with
        one boolean flag array per participant.

        A single-configuration bucket (the common case) is an idle stack
        whose height alone decides each acquisition.  ``_settle_sweep``
        settles it from release counts in blocks that none of their own
        releases reach (``_settle_counts``) when the blocks average at least
        ``_BLOCK_FILL`` acquisitions per participant and no container can
        expire; otherwise it replays the acquisitions one by one through an
        exact LIFO deque (``_settle_loop``), the reference the counts are
        tested against.  Mixed buckets drive a replica
        :class:`ContainerPool`, keeping the MRU/expiry/capacity contract by
        construction.
        """
        start_arrays = [p[1] for p in participants]
        sizes = [s.size for s in start_arrays]
        merged = (
            np.concatenate(start_arrays) if len(start_arrays) > 1 else start_arrays[0]
        )
        if len(participants) > 1:
            owner = np.repeat(np.arange(len(participants)), sizes)
        else:
            owner = np.zeros(merged.size, dtype=np.intp)
        order = np.argsort(merged, kind="stable")
        runtime_of = [templates[t].runtimes[k] for t, _, _ in participants]
        config_of = [templates[t].configs[k] for t, _, _ in participants]
        oom_of = [oom for _, _, oom in participants]
        penalty = self._cold_latency[k]
        total = merged.size
        keep_alive = pool.keep_alive_seconds
        capacity = pool.max_containers_per_function

        if len(set(config_of)) == 1:
            cold_sorted, end_sorted, cold, warm, evicted = _settle_sweep(
                merged[order], owner[order], runtime_of, oom_of,
                penalty, capacity, keep_alive,
            )
        else:
            # Mixed configurations (input-aware cohorts): drive a real pool
            # replica so exact-config matching keeps ContainerPool semantics.
            start_sorted = merged[order].tolist()
            owner_sorted = owner[order].tolist()
            cold_flags = [False] * total
            end_list = [0.0] * total
            name = self.workflow.plan.names[k]
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
                end_list[j] = end
                if not oom_of[p]:
                    heappush(releases, (end, next(tie), container))
            cold_sorted = np.asarray(cold_flags, dtype=bool)
            end_sorted = np.asarray(end_list, dtype=np.float64)
            cold = replica.cold_starts
            warm = replica.warm_hits
            evicted = replica.evictions

        ends = np.empty(total, dtype=np.float64)
        ends[order] = end_sorted
        flags = np.zeros(total, dtype=bool)
        flags[order] = cold_sorted
        flags_of: List[np.ndarray] = []
        offset = 0
        for (t, _, _), size in zip(participants, sizes):
            finishes[t][k] = ends[offset : offset + size]
            flags_of.append(flags[offset : offset + size])
            offset += size
        return cold, evicted, warm, flags_of

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


def _base_costs(templates: List[TraceTemplate]) -> np.ndarray:
    """Each template's fault-free trace cost, by template position."""
    return np.asarray([tpl.base_cost for tpl in templates], dtype=np.float64)


def _fix_multi_cold(
    cold_count: np.ndarray,
    cold_seconds: np.ndarray,
    extra_cost: np.ndarray,
    cold_batches: List[Tuple[np.ndarray, np.ndarray, float, float, int]],
) -> None:
    """Re-accumulate 3+-cold-start requests in scalar event order.

    Two-term float sums are order-free (commutativity), but three or more
    additions depend on association.  The scalar engine's start events fire
    in (start time, topo position) order, which never ties within a request
    (one start per function).  So each cold batch is masked to those
    requests, their events are sorted by (request, start, topo position),
    and penalties and billing deltas are added from ``0.0`` one event rank
    at a time: a request has at most one event per rank, so every
    fancy-index add is duplicate-free and each sum keeps the event order.
    """
    multi = cold_count >= 3
    if not multi.any():
        return
    requests, starts, penalties, deltas, positions = [], [], [], [], []
    for indices, batch_starts, penalty, delta, position in cold_batches:
        keep = multi[indices]
        if keep.any():
            chosen = indices[keep]
            requests.append(chosen)
            starts.append(batch_starts[keep])
            penalties.append(np.full(chosen.size, penalty))
            deltas.append(np.full(chosen.size, delta))
            positions.append(np.full(chosen.size, position))
    request = np.concatenate(requests)
    order = np.lexsort((np.concatenate(positions), np.concatenate(starts), request))
    request = request[order]
    penalty = np.concatenate(penalties)[order]
    delta = np.concatenate(deltas)[order]
    # Each event's rank within its request: its position past the request's
    # first event in the sorted order.
    first = np.flatnonzero(np.r_[True, request[1:] != request[:-1]])
    rank = np.arange(request.size) - np.repeat(first, np.diff(np.r_[first, request.size]))
    chosen = request[first]
    cold_seconds[chosen] = 0.0
    extra_cost[chosen] = 0.0
    for r in range(int(rank.max()) + 1):
        at = rank == r
        cold_seconds[request[at]] += penalty[at]
        extra_cost[request[at]] += delta[at]


# -- single-configuration warm-pool settlement ----------------------------------
# Each settlement takes one function's acquisitions sorted by start time
# (``start``, with ``owner`` indexing ``runtimes`` and ``oom``), the function's
# cold-start ``penalty`` and the pool's ``capacity`` (``math.inf``: no cap) and
# ``keep_alive``.  It returns ``(cold, ends, cold_starts, warm_hits,
# evictions)`` with per-acquisition cold flags and end times in sorted order.
_Settlement = Tuple[np.ndarray, np.ndarray, int, int, int]

#: Average acquisitions per block and participant below which the count
#: settlement's per-block array calls cost about as much as the loop they
#: replace: the two broke even near 35, and at 50 the counts took about
#: two thirds of the loop's time.
_BLOCK_FILL = 50


def _settle_loop(
    start: np.ndarray,
    owner: np.ndarray,
    runtimes: Sequence[float],
    oom: Sequence[bool],
    penalty: float,
    capacity: float,
    keep_alive: float,
) -> _Settlement:
    """Replay the bucket acquisition by acquisition: the exact reference.

    ``idle`` holds last-used times in ascending order.  Releases flush
    before any acquisition at the same instant; expiry uses the pool's own
    two-sided predicate (heap-popped at ``last + keep_alive <= t``, evicted
    only when ``t - last > keep_alive``), so boundary containers stay warm
    and rounding zombies linger exactly as in ContainerPool.
    """
    start_sorted = start.tolist()
    owner_sorted = owner.tolist()
    total = len(start_sorted)
    cold_flags = [False] * total
    end_sorted = [0.0] * total
    cold = warm = evicted = 0
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
            end = now + runtimes[p]
        else:
            cold_flags[j] = True
            cold += 1
            end = (now + penalty) + runtimes[p]
        end_sorted[j] = end
        if not oom[p]:
            heappush(pending, end)
    return (
        np.asarray(cold_flags, dtype=bool),
        np.asarray(end_sorted, dtype=np.float64),
        cold,
        warm,
        evicted,
    )


def _count_blocks(
    start: np.ndarray, runtimes: Sequence[float], oom: Sequence[bool], limit: int
) -> Optional[List[int]]:
    """Cut the sorted starts into blocks that none of their releases reach.

    Returns the bounds ``[0, b1, ..., n]`` of the greedy blocks ``[a, b)``
    with ``start[b - 1] < start[a] + step``, where ``step`` is the shortest
    runtime of a participant that releases its containers: every release of
    a block's acquisitions lands after the block.  ``None`` when it takes
    more than ``limit`` blocks, or when a block would be empty (a runtime
    too short to move its start).
    """
    step = min((r for r, killed in zip(runtimes, oom) if not killed), default=math.inf)
    bounds = [0]
    while bounds[-1] < start.size:
        if len(bounds) > limit:
            return None
        a = bounds[-1]
        b = int(start.searchsorted(start[a] + step, "left"))
        if b == a:
            return None
        bounds.append(b)
    return bounds


def _settle_counts(
    start: np.ndarray,
    owner: np.ndarray,
    runtimes: Sequence[float],
    oom: Sequence[bool],
    penalty: float,
    capacity: float,
    keep_alive: float,
    bounds: List[int],
) -> Optional[_Settlement]:
    """Settle the bucket block by block from release counts, or ``None``.

    Per participant, warm releases ``start + runtime`` and cold releases
    ``(start + penalty) + runtime`` both ascend with the start, so the
    releases flushed by an acquisition at ``t`` number ``iw - cold[:iw] +
    cold[:ic]`` over the releasing acquisitions sorted by either release
    time, with ``iw`` and ``ic`` the ``side="right"`` ranks of ``t`` (a
    release at ``t`` flushes first).  Within a block of ``bounds`` every
    such release comes from an earlier, settled block, so the block's counts
    take a few array calls and one integer walk settles it: the idle stack's
    ``height`` gains each new release, evicts above ``capacity`` and loses
    one per warm acquisition; an acquisition is cold exactly when it is 0.

    Heights ignore expiry.  Every idle container an acquisition sees was
    released after the last acquisition that emptied the stack, so while
    every gap between emptyings (from the first start up to the last) stays
    below ``keep_alive``, nothing expires and every warm check passes.
    Returns ``None`` as soon as a gap could let a container expire.
    """
    run = np.asarray(runtimes, dtype=np.float64)[owner]
    warm_end = start + run
    cold_end = (start + penalty) + run
    releasing = np.nonzero(~np.asarray(oom, dtype=bool)[owner])[0]
    by_warm = releasing[np.argsort(warm_end[releasing], kind="stable")]
    by_cold = releasing[np.argsort(cold_end[releasing], kind="stable")]
    # Releases that would flush by each start if every acquisition were warm,
    # and if every one were cold.
    warm_ranks = warm_end[by_warm].searchsorted(start, "right")
    cold_ranks = cold_end[by_cold].searchsorted(start, "right")
    # Cold flags counted along each release order, filled as blocks settle.
    warm_prefix = np.zeros(releasing.size + 1, dtype=np.int64)
    cold_prefix = np.zeros(releasing.size + 1, dtype=np.int64)
    warm_done = cold_done = 0
    cold = np.zeros(start.size, dtype=bool)
    height = evicted = 0
    last_empty = float(start[0])
    flushed = np.zeros(1, dtype=np.int64)
    for a, b in zip(bounds, bounds[1:]):
        iw = warm_ranks[a:b]
        ic = cold_ranks[a:b]
        top = int(iw[-1])
        if top > warm_done:
            warm_prefix[warm_done + 1 : top + 1] = warm_prefix[warm_done] + np.cumsum(
                cold[by_warm[warm_done:top]]
            )
            warm_done = top
        top = int(ic[-1])
        if top > cold_done:
            cold_prefix[cold_done + 1 : top + 1] = cold_prefix[cold_done] + np.cumsum(
                cold[by_cold[cold_done:top]]
            )
            cold_done = top
        # Releases flushed by each acquisition, after the previous block's last.
        previous = flushed[-1]
        flushed = np.empty(b - a + 1, dtype=np.int64)
        flushed[0] = previous
        np.add(iw - warm_prefix[iw], cold_prefix[ic], out=flushed[1:])
        emptied: List[int] = []
        colds: List[int] = []
        for j, released in enumerate((flushed[1:] - flushed[:-1]).tolist(), a):
            height += released
            if height > capacity:
                evicted += height - capacity
                height = capacity
            if height > 1:
                height -= 1
            else:
                emptied.append(j)
                if height:
                    height = 0
                else:
                    colds.append(j)
        if colds:
            cold[colds] = True
        for mark in start[emptied].tolist():
            if mark - last_empty >= keep_alive:
                return None
            last_empty = mark
        if float(start[b - 1]) - last_empty >= keep_alive:
            return None
    n_cold = int(np.count_nonzero(cold))
    return (
        cold,
        np.where(cold, cold_end, warm_end),
        n_cold,
        start.size - n_cold,
        evicted,
    )


def _settle_sweep(
    start: np.ndarray,
    owner: np.ndarray,
    runtimes: Sequence[float],
    oom: Sequence[bool],
    penalty: float,
    capacity: float,
    keep_alive: float,
) -> _Settlement:
    """Settle from counts where they are exact and their blocks pay, else loop."""
    limit = start.size // (_BLOCK_FILL * len(runtimes))
    bounds = _count_blocks(start, runtimes, oom, limit)
    if bounds is not None:
        settled = _settle_counts(
            start, owner, runtimes, oom, penalty, capacity, keep_alive, bounds
        )
        if settled is not None:
            return settled
    return _settle_loop(start, owner, runtimes, oom, penalty, capacity, keep_alive)


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
