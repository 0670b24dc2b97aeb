"""Container and warm-pool model.

Serverless platforms keep recently used containers warm for a keep-alive
window; an invocation that finds a warm container with a matching resource
configuration skips the cold start.  The pool here is intentionally simple —
per (function, configuration) LRU with a fixed keep-alive — which is enough to
study how often the configuration search pays cold starts and to support the
request-stream simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.utils.ranges import Range
from repro.workflow.resources import ResourceConfig

__all__ = ["Container", "ContainerPool"]

#: A per-function warm-pool cap: at least one container, or ``inf`` for none.
_CAPACITY = Range(1, math.inf, integer=True)


#: Stale entries a function's expiry heap may hold beyond one per resident
#: container before it is rebuilt.
_HEAP_SLACK = 16


def _capacity(value: float) -> float:
    """The checked cap: an ``int``, or ``math.inf`` for an unbounded pool."""
    _CAPACITY.check(value, "max_containers_per_function")
    return value if value == math.inf else int(value)


@dataclass
class Container:
    """A (possibly warm) container bound to one function and configuration."""

    container_id: int
    function_name: str
    config: ResourceConfig
    created_at: float
    last_used_at: float
    invocations: int = 0
    node_name: Optional[str] = None

    def record_invocation(self, finish_time: float) -> None:
        """Mark the container as used until ``finish_time``."""
        if finish_time < self.last_used_at - 1e-9:
            raise ValueError("finish_time cannot move backwards")
        self.last_used_at = finish_time
        self.invocations += 1

    def is_warm_at(self, timestamp: float, keep_alive_seconds: float) -> bool:
        """Whether the container is still warm at ``timestamp``."""
        return timestamp - self.last_used_at <= keep_alive_seconds


@dataclass
class _PoolStats:
    cold_starts: int = 0
    warm_hits: int = 0
    evictions: int = 0
    fault_kills: int = 0


class ContainerPool:
    """Warm-container pool keyed by (function, configuration).

    Idle containers are indexed three ways: an insertion-ordered
    id → container map per function (pool membership), a per-function
    min-heap of ``(expiry time, container id)`` entries, and per-function
    buckets keyed by exact configuration.  Expiry is processed lazily from
    the heap — O(log n) per *actually expired* container instead of a
    full-pool rescan per event — and the warm-match lookup in
    :meth:`acquire` only scans the bucket of the requested configuration, so
    autoscaled pools holding many differently-configured containers (e.g.
    input-aware serving) no longer pay a whole-pool scan per request.  Heap
    entries are not removed eagerly; a stale entry (container re-released
    later, checked out, discarded or capacity-evicted) is skipped when
    popped, and a heap holding more than twice as many entries as resident
    containers (plus a small slack) is rebuilt from their current expiries.

    Parameters
    ----------
    keep_alive_seconds:
        How long an idle container stays warm.
    max_containers_per_function:
        Cap on simultaneously retained containers per function (oldest idle
        containers are evicted first); ``math.inf`` keeps every container
        until it expires.
    """

    def __init__(
        self,
        keep_alive_seconds: float = 600.0,
        max_containers_per_function: int = 16,
    ) -> None:
        Range(0.0, math.inf).check(keep_alive_seconds, "keep_alive_seconds")
        self.keep_alive_seconds = float(keep_alive_seconds)
        self.max_containers_per_function = _capacity(max_containers_per_function)
        self._containers: Dict[str, Dict[int, Container]] = {}
        self._by_config: Dict[str, Dict[ResourceConfig, Dict[int, Container]]] = {}
        self._expiry_heaps: Dict[str, List[Tuple[float, int]]] = {}
        self._id_counter = itertools.count(1)
        self._stats = _PoolStats()

    # -- index maintenance -----------------------------------------------------
    def _insert(self, container: Container) -> None:
        function_name = container.function_name
        self._containers.setdefault(function_name, {})[container.container_id] = container
        self._by_config.setdefault(function_name, {}).setdefault(
            container.config, {}
        )[container.container_id] = container

    def _remove(self, container: Container) -> None:
        function_name = container.function_name
        pool = self._containers.get(function_name)
        if pool is not None:
            pool.pop(container.container_id, None)
        buckets = self._by_config.get(function_name)
        if buckets is not None:
            bucket = buckets.get(container.config)
            if bucket is not None:
                bucket.pop(container.container_id, None)
                if not bucket:
                    del buckets[container.config]

    # -- acquisition -----------------------------------------------------------
    def acquire(
        self, function_name: str, config: ResourceConfig, timestamp: float
    ) -> Tuple[Container, bool]:
        """Obtain a container for an invocation starting at ``timestamp``.

        Returns ``(container, cold_start)``.  A warm container is reused only
        when its configuration matches exactly (platforms recycle containers
        per configuration revision); the most recently used match wins.  The
        container is *checked out*: it leaves the pool until :meth:`release`
        returns it, so concurrent invocations can never share one container.
        """
        self._evict_expired(function_name, timestamp)
        bucket = self._by_config.get(function_name, {}).get(config, {})
        best: Optional[Container] = None
        for container in bucket.values():
            if container.is_warm_at(timestamp, self.keep_alive_seconds):
                if best is None or container.last_used_at > best.last_used_at:
                    best = container
        if best is not None:
            self._remove(best)
            self._stats.warm_hits += 1
            return best, False
        container = Container(
            container_id=next(self._id_counter),
            function_name=function_name,
            config=config,
            created_at=timestamp,
            last_used_at=timestamp,
        )
        self._stats.cold_starts += 1
        return container, True

    def release(self, container: Container, finish_time: float) -> None:
        """Return a checked-out container to the pool after an invocation.

        ``finish_time`` is clamped to the container's last use: configuration
        searches replay every evaluation from trigger time 0, so a reused
        warm container can legitimately observe an earlier finish time than
        its previous invocation.
        """
        container.record_invocation(max(finish_time, container.last_used_at))
        function_name = container.function_name
        if container.container_id not in self._containers.get(function_name, {}):
            self._insert(container)
        resident = self._containers[function_name]
        heap = self._expiry_heaps.setdefault(function_name, [])
        heapq.heappush(
            heap, (container.last_used_at + self.keep_alive_seconds, container.container_id)
        )
        if len(heap) > 2 * len(resident) + _HEAP_SLACK:
            # Mostly stale entries: keep only each resident container's
            # current one, the entries _evict_expired does not skip, so the
            # heap stays proportional to the pool and evictions are unchanged.
            heap[:] = [
                (c.last_used_at + self.keep_alive_seconds, c.container_id)
                for c in resident.values()
            ]
            heapq.heapify(heap)
        self._enforce_capacity(function_name)

    def discard(self, container: Container) -> None:
        """Forcibly remove a pool-resident container (counted as an eviction).

        The executor itself never needs this — checked-out containers that
        die (OOM) are simply never released — but platform-level studies
        (node drains, config rollouts) use it to retire idle warm containers.
        Discarding a checked-out or already-evicted container is a no-op.
        """
        pool = self._containers.get(container.function_name)
        if pool is None or container.container_id not in pool:
            return
        self._remove(container)
        self._stats.evictions += 1

    def evict_node(self, node_name: str) -> int:
        """Discard every idle warm container resident on one node.

        Node failures and spot evictions destroy the warm state living on
        the node.  Checked-out containers die through :meth:`kill` on the
        fault path; this retires the *idle* ones so a request never takes a
        warm start from a machine that is gone.  Containers with no recorded
        ``node_name`` are untouched.  Returns the number evicted.
        """
        victims = [
            container
            for pool in self._containers.values()
            for container in pool.values()
            if container.node_name == node_name
        ]
        for container in victims:
            self._remove(container)
        self._stats.evictions += len(victims)
        return len(victims)

    def kill(self, container: Container) -> None:
        """Record the fault-kill of a checked-out container.

        The fault layer destroys containers mid-invocation (crashes,
        transient OOM, timeout kills, node failures).  A checked-out
        container is not pool-resident, so there is nothing to remove — the
        call just counts the kill; if the container somehow is resident it
        is removed as well so a dead container never serves a warm start.
        """
        resident = self._containers.get(container.function_name, {})
        if container.container_id in resident:
            self._remove(container)
        self._stats.fault_kills += 1

    # -- maintenance -----------------------------------------------------------
    def _evict_expired(self, function_name: str, timestamp: float) -> None:
        """Pop expired heap entries; skip stale ones, re-queue boundary ones.

        An entry can be stale in two ways: its container left the pool
        (checked out, discarded, capacity-evicted), or it was re-released
        later.  Every release pushes an entry, so in the second case the
        fresher entry with the container's current expiry already sits in
        the heap and the popped one is dropped; re-queuing it would add one
        duplicate per reuse of a busy container.  Only the current entry is
        re-queued, when rounding leaves its container warm at its own expiry.
        Warmth is always re-checked against the container itself, so this
        evicts exactly the containers a full scan would.
        """
        heap = self._expiry_heaps.get(function_name)
        if not heap:
            return
        pool = self._containers.get(function_name, {})
        still_warm: List[Tuple[float, int]] = []
        while heap and heap[0][0] <= timestamp:
            expiry, container_id = heapq.heappop(heap)
            container = pool.get(container_id)
            if container is None:
                continue  # stale entry: container no longer pool-resident
            current_expiry = container.last_used_at + self.keep_alive_seconds
            if current_expiry > expiry:
                continue  # stale entry: a later release queued the fresh one
            if container.is_warm_at(timestamp, self.keep_alive_seconds):
                # Boundary entry: warm at its own expiry, so keep it queued.
                still_warm.append((current_expiry, container_id))
                continue
            self._remove(container)
            self._stats.evictions += 1
        for entry in still_warm:
            heapq.heappush(heap, entry)

    def _enforce_capacity(self, function_name: str) -> None:
        pool = self._containers.get(function_name, {})
        excess = len(pool) - self.max_containers_per_function
        if excess > 0:
            oldest = sorted(pool.values(), key=lambda c: c.last_used_at)[:excess]
            for container in oldest:
                self._remove(container)
            self._stats.evictions += excess

    def resize(self, max_containers_per_function: int) -> int:
        """Change the per-function warm-pool cap (autoscaler entry point).

        Shrinking immediately evicts the oldest idle containers of every
        function down to the new cap; growing just raises the cap (new warm
        containers appear as invocations are released).  Checked-out
        containers are unaffected either way.  Returns the number of
        containers evicted by the shrink.
        """
        before = self._stats.evictions
        self.max_containers_per_function = _capacity(max_containers_per_function)
        for function_name in list(self._containers):
            self._enforce_capacity(function_name)
        return self._stats.evictions - before

    def retarget(self, configuration: Mapping[str, ResourceConfig]) -> int:
        """Retire idle warm containers that a config rollout made useless.

        When the serving layer switches a workflow to a new configuration
        (adaptive re-tune promote or rollback), warm containers built for the
        *old* per-function configurations can never serve a warm start again
        — acquisition matches configurations exactly — yet they would sit in
        the pool until keep-alive expiry, occupying capacity slots.  This
        discards every idle container of the named functions whose
        configuration differs from the new target (counted as evictions).
        Checked-out containers are untouched: in-flight requests finish on
        the configuration they started with.  Returns the number evicted.
        """
        evicted = 0
        for function_name, target in configuration.items():
            buckets = self._by_config.get(function_name)
            if not buckets:
                continue
            for config in list(buckets):
                if config == target:
                    continue
                for container in list(buckets[config].values()):
                    self.discard(container)
                    evicted += 1
        return evicted

    def clear(self) -> None:
        """Drop all containers (used between independent experiments)."""
        self._containers.clear()
        self._by_config.clear()
        self._expiry_heaps.clear()

    # -- inspection -----------------------------------------------------------
    def warm_count(self, function_name: str, timestamp: float) -> int:
        """Number of warm containers for a function at a point in time."""
        return sum(
            1
            for c in self._containers.get(function_name, {}).values()
            if c.is_warm_at(timestamp, self.keep_alive_seconds)
        )

    @property
    def cold_starts(self) -> int:
        """Total cold starts paid since construction."""
        return self._stats.cold_starts

    @property
    def warm_hits(self) -> int:
        """Total warm-container reuses since construction."""
        return self._stats.warm_hits

    @property
    def evictions(self) -> int:
        """Total containers evicted (expiry, capacity and forced discards)."""
        return self._stats.evictions

    @property
    def fault_kills(self) -> int:
        """Total checked-out containers destroyed by injected faults."""
        return self._stats.fault_kills
