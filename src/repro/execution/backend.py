"""Pluggable evaluation backends.

Every search method observes the platform through a
:class:`~repro.core.objective.WorkflowObjective`, and the objective in turn
delegates each evaluation to an :class:`EvaluationBackend`.  The backend layer
is where the *execution substrate* is chosen and composed:

* :class:`SimulatorBackend` — the default substrate, wrapping one
  :class:`~repro.execution.executor.WorkflowExecutor` (the paper's testbed
  stand-in).
* :class:`CachingBackend` — a decorator memoizing deterministic evaluations
  keyed on ``(workflow, configuration, input_scale)`` with hit/miss counters.
  Noisy evaluations (those carrying an :class:`~repro.utils.rng.RngStream`)
  always bypass the cache.
* :class:`~repro.execution.vectorized.VectorizedBackend` — a substrate
  serving whole batches from NumPy array kernels, bit-identical to the
  simulator (defined in :mod:`repro.execution.vectorized`).

Backends compose: ``CachingBackend(VectorizedBackend(...))`` serves repeated
configurations from memory and evaluates fresh batches in array passes.
:func:`build_backend` assembles that stack from plain knobs (``name=``,
``cache=``) so experiment settings and the CLI can select a substrate by
name.  Future substrates (multi-provider adapters, trace replay, distributed
evaluation) plug in by implementing the same protocol.
"""

from __future__ import annotations

import abc
import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.execution.executor import WorkflowExecutor
from repro.execution.trace import ExecutionTrace
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration

__all__ = [
    "BackendStats",
    "EvaluationBackend",
    "SimulatorBackend",
    "CachingBackend",
    "BACKEND_NAMES",
    "build_backend",
]

#: Substrate names understood by :func:`build_backend` (and the CLI).
BACKEND_NAMES: Tuple[str, ...] = ("simulator", "vectorized")


@dataclass
class BackendStats:
    """Counters describing how a backend served its evaluations.

    Attributes
    ----------
    evaluations:
        Traces returned to callers (cache hits included).
    simulations:
        Evaluations that actually ran the underlying substrate one
        configuration at a time.
    vectorized:
        Evaluations served by the array engine of a
        :class:`~repro.execution.vectorized.VectorizedBackend` (zero on
        scalar substrates).
    batches:
        ``evaluate_batch`` calls served.
    cache_hits / cache_misses:
        Memoization counters (zero unless a :class:`CachingBackend` is in the
        stack).
    cold_starts / warm_hits / evictions:
        Warm-container-pool counters of the underlying executor (zero when
        the substrate simulates no cold starts and no serving layer shares
        its pool).
    fault_kills:
        Containers destroyed mid-invocation by the fault-injection layer
        (zero unless a serving run injected faults through the shared pool).
    """

    evaluations: int = 0
    simulations: int = 0
    vectorized: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cold_starts: int = 0
    warm_hits: int = 0
    evictions: int = 0
    fault_kills: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from memory."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    def delta(self, previous: "BackendStats") -> "BackendStats":
        """Counter growth since an earlier snapshot of the same backend.

        Enumerates the dataclass fields, so new counters are picked up
        automatically.
        """
        return BackendStats(
            **{
                f.name: getattr(self, f.name) - getattr(previous, f.name)
                for f in dataclasses.fields(self)
            }
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.evaluations} evaluations "
            f"({self.simulations} simulated, {self.batches} batches)"
        )
        if self.vectorized:
            text += f", {self.vectorized} vectorized"
        if self.cache_hits or self.cache_misses:
            text += (
                f", cache {self.cache_hits} hits / {self.cache_misses} misses "
                f"({self.cache_hit_rate * 100:.1f}% hit rate)"
            )
        if self.cold_starts or self.warm_hits or self.evictions:
            text += (
                f", pool {self.cold_starts} cold starts / {self.warm_hits} warm hits"
                f" / {self.evictions} evictions"
            )
        if self.fault_kills:
            text += f", {self.fault_kills} fault kills"
        return text


class EvaluationBackend(abc.ABC):
    """Protocol every execution substrate implements.

    A backend turns ``(workflow, configuration, input_scale, rng)`` into an
    :class:`~repro.execution.trace.ExecutionTrace`.  ``evaluate_batch``
    evaluates many candidate configurations against the same workflow and
    input scale, returning traces in submission order; decorators may serve
    entries from a cache, and substrates may evaluate the whole batch at once.
    """

    #: Short name used in reports and factory lookups.
    name: str = "backend"

    @abc.abstractmethod
    def evaluate(
        self,
        workflow: Workflow,
        configuration: WorkflowConfiguration,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
    ) -> ExecutionTrace:
        """Evaluate one configuration and return its execution trace."""

    def evaluate_batch(
        self,
        workflow: Workflow,
        configurations: Sequence[WorkflowConfiguration],
        input_scale: float = 1.0,
        rngs: Optional[Sequence[Optional[RngStream]]] = None,
    ) -> List[ExecutionTrace]:
        """Evaluate many configurations; traces come back in submission order.

        ``rngs`` optionally supplies one (pre-derived) random stream per
        configuration so that noisy batches stay deterministic regardless of
        the order the substrate evaluates them in.
        """
        rngs = self._check_rngs(configurations, rngs)
        return [
            self.evaluate(workflow, configuration, input_scale=input_scale, rng=rng)
            for configuration, rng in zip(configurations, rngs)
        ]

    @property
    def stats(self) -> BackendStats:
        """Snapshot of this backend stack's counters."""
        return BackendStats()

    @property
    def deterministic(self) -> bool:
        """Whether identical rng-free evaluations always yield identical traces.

        Stateful substrates (e.g. a simulator with a warm-container pool)
        are not: the trace depends on what ran before.  Caching layers must
        not memoize over a non-deterministic substrate.
        """
        return True

    def describe(self) -> str:
        """Human-readable description of the backend stack."""
        return self.name

    @staticmethod
    def _check_rngs(
        configurations: Sequence[WorkflowConfiguration],
        rngs: Optional[Sequence[Optional[RngStream]]],
    ) -> Sequence[Optional[RngStream]]:
        if rngs is None:
            return [None] * len(configurations)
        if len(rngs) != len(configurations):
            raise ValueError(
                f"rngs length ({len(rngs)}) must match configurations "
                f"({len(configurations)})"
            )
        return rngs


class SimulatorBackend(EvaluationBackend):
    """The default substrate: one evaluation = one simulated execution."""

    name = "simulator"

    def __init__(self, executor: WorkflowExecutor) -> None:
        self.executor = executor
        self._lock = threading.Lock()
        self._stats = BackendStats()

    def evaluate(
        self,
        workflow: Workflow,
        configuration: WorkflowConfiguration,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
    ) -> ExecutionTrace:
        trace = self.executor.execute(
            workflow, configuration, input_scale=input_scale, rng=rng
        )
        with self._lock:
            self._stats.evaluations += 1
            self._stats.simulations += 1
        return trace

    def evaluate_batch(
        self,
        workflow: Workflow,
        configurations: Sequence[WorkflowConfiguration],
        input_scale: float = 1.0,
        rngs: Optional[Sequence[Optional[RngStream]]] = None,
    ) -> List[ExecutionTrace]:
        traces = super().evaluate_batch(workflow, configurations, input_scale, rngs)
        with self._lock:
            self._stats.batches += 1
        return traces

    @property
    def stats(self) -> BackendStats:
        pool = self.executor.container_pool
        with self._lock:
            stats = BackendStats(**vars(self._stats))
        stats.cold_starts = pool.cold_starts
        stats.warm_hits = pool.warm_hits
        stats.evictions = pool.evictions
        stats.fault_kills = pool.fault_kills
        return stats

    @property
    def deterministic(self) -> bool:
        # A warm-container pool makes the trace depend on execution history
        # (the first run pays cold starts, later ones may not).
        return not self.executor.options.simulate_cold_starts


class CachingBackend(EvaluationBackend):
    """Memoizing decorator for deterministic evaluations.

    The cache key is ``(workflow name, configuration, input_scale)``.  An
    evaluation carrying an ``rng`` is potentially noisy and therefore always
    bypasses the cache — both for lookups and for insertion — so noisy
    objectives observe fresh executions every time.  Likewise, when the inner
    backend reports itself non-``deterministic`` (e.g. a simulator with
    ``simulate_cold_starts=True``, whose traces depend on warm-pool history),
    every evaluation passes straight through: memoizing would replay the
    first cold-start trace forever and diverge from an uncached run.

    Parameters
    ----------
    inner:
        The substrate serving cache misses.
    max_entries:
        Optional LRU capacity; ``None`` keeps every entry.
    context:
        Optional hashable evaluation context folded into every cache key.
        ``(workflow, configuration, input_scale)`` identifies an evaluation
        only while everything else about it is fixed; a caller whose
        evaluations additionally depend on ambient state — the adaptive
        controller re-tuning against *observed* traffic phases is the
        motivating case — sets the context to that state's signature (see
        :meth:`set_context`) so entries recorded under one phase are never
        replayed for another.
    """

    name = "caching"

    def __init__(
        self,
        inner: EvaluationBackend,
        max_entries: Optional[int] = None,
        context: Optional[Hashable] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.inner = inner
        self.max_entries = max_entries
        self._context: Optional[Hashable] = context
        self._cache: "OrderedDict[Hashable, ExecutionTrace]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._batches_served = 0  # batches answered without touching inner

    # -- cache plumbing ---------------------------------------------------------
    @property
    def context(self) -> Optional[Hashable]:
        """The evaluation context currently folded into cache keys."""
        return self._context

    def set_context(self, context: Optional[Hashable]) -> None:
        """Switch the evaluation context new lookups and insertions key on.

        Entries recorded under other contexts stay cached (switching back
        re-enables them) but are invisible to the current context, so e.g. a
        re-tune against one traffic phase can never read entries recorded
        under a different phase's context.  ``None`` restores the default
        (context-free) key space.
        """
        with self._lock:
            self._context = context

    def _key(
        self, workflow: Workflow, configuration: WorkflowConfiguration, input_scale: float
    ) -> Hashable:
        # Canonicalised to plain-float tuples so configurations assembled from
        # NumPy array batches (np.float64 allocations) and hand-built scalar
        # configurations hash to the same entry: vectorized and scalar paths
        # share the cache.
        return (
            workflow.name,
            tuple(
                (name, float(config.vcpu), float(config.memory_mb))
                for name, config in sorted(configuration.items())
            ),
            float(input_scale),
            self._context,
        )

    def _lookup(self, key: Hashable) -> Optional[ExecutionTrace]:
        with self._lock:
            trace = self._cache.get(key)
            if trace is not None:
                self._cache.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return trace

    def _store(self, key: Hashable, trace: ExecutionTrace) -> None:
        with self._lock:
            self._cache[key] = trace
            self._cache.move_to_end(key)
            if self.max_entries is not None:
                while len(self._cache) > self.max_entries:
                    self._cache.popitem(last=False)

    # -- EvaluationBackend ------------------------------------------------------
    def evaluate(
        self,
        workflow: Workflow,
        configuration: WorkflowConfiguration,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
    ) -> ExecutionTrace:
        if rng is not None or not self.inner.deterministic:
            # Potentially noisy or stateful: never cached, never served
            # from the cache.
            return self.inner.evaluate(
                workflow, configuration, input_scale=input_scale, rng=rng
            )
        key = self._key(workflow, configuration, input_scale)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        trace = self.inner.evaluate(workflow, configuration, input_scale=input_scale)
        self._store(key, trace)
        return trace

    def evaluate_batch(
        self,
        workflow: Workflow,
        configurations: Sequence[WorkflowConfiguration],
        input_scale: float = 1.0,
        rngs: Optional[Sequence[Optional[RngStream]]] = None,
    ) -> List[ExecutionTrace]:
        if not self.inner.deterministic:
            return self.inner.evaluate_batch(workflow, configurations, input_scale, rngs)
        rngs = self._check_rngs(configurations, rngs)
        traces: List[Optional[ExecutionTrace]] = [None] * len(configurations)

        # Deterministic entries are looked up first; duplicates within the
        # batch collapse onto one simulation.  Noisy entries go straight to
        # the inner backend.
        miss_indices: List[int] = []
        first_seen: "OrderedDict[Hashable, int]" = OrderedDict()
        for index, (configuration, rng) in enumerate(zip(configurations, rngs)):
            if rng is not None:
                miss_indices.append(index)
                continue
            key = self._key(workflow, configuration, input_scale)
            cached = self._lookup(key)
            if cached is not None:
                traces[index] = cached
            elif key in first_seen:
                # Duplicate miss within this batch: simulated once, then
                # served from the cache below (counted as a hit).
                with self._lock:
                    self._misses -= 1
                    self._hits += 1
            else:
                first_seen[key] = index
                miss_indices.append(index)

        if not miss_indices:
            # Fully cache-served: the inner backend never sees this batch,
            # so count it here to keep the batch counter truthful.
            with self._lock:
                self._batches_served += 1
        if miss_indices:
            miss_traces = self.inner.evaluate_batch(
                workflow,
                [configurations[i] for i in miss_indices],
                input_scale=input_scale,
                rngs=[rngs[i] for i in miss_indices],
            )
            if len(miss_traces) != len(miss_indices):
                raise RuntimeError(
                    f"inner backend returned {len(miss_traces)} traces "
                    f"for {len(miss_indices)} submitted configurations"
                )
            for index, trace in zip(miss_indices, miss_traces):
                traces[index] = trace
                if rngs[index] is None:
                    self._store(self._key(workflow, configurations[index], input_scale), trace)

        # Fill duplicate-miss positions from their first occurrence's trace
        # (not from the cache, which a bounded LRU may already have evicted).
        for index, (configuration, rng) in enumerate(zip(configurations, rngs)):
            if traces[index] is None and rng is None:
                traces[index] = traces[first_seen[self._key(workflow, configuration, input_scale)]]
        # Every slot is filled by construction; a None here means the inner
        # backend broke the protocol, and silently dropping it would shift
        # every later trace onto the wrong configuration.
        if any(trace is None for trace in traces):
            raise RuntimeError("inner backend returned no trace for some configurations")
        return traces  # type: ignore[return-value]

    # -- inspection ---------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Evaluations served from the cache."""
        return self._hits

    @property
    def cache_misses(self) -> int:
        """Evaluations that had to run the inner backend."""
        return self._misses

    @property
    def cache_size(self) -> int:
        """Entries currently memoized."""
        return len(self._cache)

    def clear(self) -> None:
        """Drop all memoized traces (counters are kept)."""
        with self._lock:
            self._cache.clear()

    @property
    def stats(self) -> BackendStats:
        inner = self.inner.stats
        with self._lock:
            return BackendStats(
                evaluations=inner.evaluations + self._hits,
                simulations=inner.simulations,
                vectorized=inner.vectorized,
                batches=inner.batches + self._batches_served,
                cache_hits=inner.cache_hits + self._hits,
                cache_misses=inner.cache_misses + self._misses,
                cold_starts=inner.cold_starts,
                warm_hits=inner.warm_hits,
                evictions=inner.evictions,
                fault_kills=inner.fault_kills,
            )

    @property
    def deterministic(self) -> bool:
        return self.inner.deterministic

    def describe(self) -> str:
        capacity = "unbounded" if self.max_entries is None else str(self.max_entries)
        return f"caching({capacity}) -> {self.inner.describe()}"


def build_backend(
    executor: WorkflowExecutor,
    name: str = "simulator",
    cache: bool = False,
    cache_entries: Optional[int] = None,
) -> EvaluationBackend:
    """Assemble a backend stack from plain knobs.

    Parameters
    ----------
    executor:
        The execution simulator at the bottom of the stack.
    name:
        ``"simulator"`` (one scalar walk per configuration) or
        ``"vectorized"`` (whole batches in one NumPy pass, bit-identical to
        the simulator).
    cache:
        Wrap the stack in a :class:`CachingBackend`.
    cache_entries:
        Optional LRU capacity for the cache.
    """
    key = name.strip().lower()
    if key not in BACKEND_NAMES:
        raise KeyError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
        )
    backend: EvaluationBackend
    if key == "vectorized":
        # Imported here: the vectorized module depends on this one.
        from repro.execution.vectorized import VectorizedBackend

        backend = VectorizedBackend(executor)
    else:
        backend = SimulatorBackend(executor)
    if cache:
        backend = CachingBackend(backend, max_entries=cache_entries)
    return backend
