"""Tests for the pluggable evaluation-backend layer."""

import pytest

from repro.execution.backend import (
    BACKEND_NAMES,
    BackendStats,
    CachingBackend,
    SimulatorBackend,
    build_backend,
)
from repro.execution.executor import ExecutorOptions, WorkflowExecutor
from repro.perfmodel.noise import LognormalNoise
from repro.perfmodel.registry import PerformanceModelRegistry
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig


@pytest.fixture
def simulator(diamond_executor):
    return SimulatorBackend(diamond_executor)


def _variants(diamond_base_configuration, count=6):
    """Distinct configurations derived from the base (vary one function)."""
    variants = []
    for index in range(count):
        memory = 1024.0 + 128.0 * index
        variants.append(
            diamond_base_configuration.updated(
                "right", ResourceConfig(vcpu=2.0, memory_mb=memory)
            )
        )
    return variants


class TestSimulatorBackend:
    def test_matches_direct_execution(self, simulator, diamond_executor, diamond_workflow,
                                      diamond_base_configuration):
        via_backend = simulator.evaluate(diamond_workflow, diamond_base_configuration)
        direct = diamond_executor.execute(diamond_workflow, diamond_base_configuration)
        assert via_backend.end_to_end_latency == direct.end_to_end_latency
        assert via_backend.total_cost == direct.total_cost

    def test_stats_count_simulations(self, simulator, diamond_workflow,
                                     diamond_base_configuration):
        simulator.evaluate(diamond_workflow, diamond_base_configuration)
        simulator.evaluate_batch(diamond_workflow, [diamond_base_configuration] * 3)
        stats = simulator.stats
        assert stats.evaluations == 4
        assert stats.simulations == 4
        assert stats.batches == 1

    def test_batch_preserves_order(self, simulator, diamond_workflow,
                                   diamond_base_configuration):
        configurations = _variants(diamond_base_configuration)
        traces = simulator.evaluate_batch(diamond_workflow, configurations)
        sequential = [
            simulator.evaluate(diamond_workflow, configuration)
            for configuration in configurations
        ]
        assert [t.total_cost for t in traces] == [t.total_cost for t in sequential]

    def test_rngs_length_mismatch_rejected(self, simulator, diamond_workflow,
                                           diamond_base_configuration):
        with pytest.raises(ValueError):
            simulator.evaluate_batch(
                diamond_workflow, [diamond_base_configuration], rngs=[None, None]
            )


class TestCachingBackend:
    def test_hit_skips_simulation(self, diamond_executor, diamond_workflow,
                                  diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        first = backend.evaluate(diamond_workflow, diamond_base_configuration)
        executions_after_first = diamond_executor.executions
        second = backend.evaluate(diamond_workflow, diamond_base_configuration)
        assert diamond_executor.executions == executions_after_first
        assert backend.cache_hits == 1
        assert backend.cache_misses == 1
        assert second.total_cost == first.total_cost

    def test_distinct_keys_miss(self, diamond_executor, diamond_workflow,
                                diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        other = diamond_base_configuration.updated(
            "right", ResourceConfig(vcpu=1.0, memory_mb=512.0)
        )
        backend.evaluate(diamond_workflow, other)
        backend.evaluate(diamond_workflow, diamond_base_configuration, input_scale=2.0)
        assert backend.cache_hits == 0
        assert backend.cache_misses == 3

    def test_context_isolates_phases(self, diamond_executor, diamond_workflow,
                                     diamond_base_configuration):
        """Entries cached under one traffic-phase context are never read
        back under another — the adaptive controller's re-tune isolation."""
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        backend.set_context(("phase", "morning"))
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        executions_after_morning = diamond_executor.executions
        # Same (workflow, configuration, scale) under another phase: a miss.
        backend.set_context(("phase", "evening"))
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        assert diamond_executor.executions == executions_after_morning + 1
        assert backend.cache_hits == 0
        assert backend.cache_misses == 2
        # Within a phase the cache still serves repeats ...
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        assert diamond_executor.executions == executions_after_morning + 1
        assert backend.cache_hits == 1
        # ... and switching back re-enables the earlier phase's entries.
        backend.set_context(("phase", "morning"))
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        assert diamond_executor.executions == executions_after_morning + 1
        assert backend.cache_hits == 2

    def test_context_isolates_batches_too(self, diamond_executor, diamond_workflow,
                                          diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        variants = _variants(diamond_base_configuration, count=3)
        backend.set_context(("phase", 1))
        backend.evaluate_batch(diamond_workflow, variants)
        executions = diamond_executor.executions
        backend.set_context(("phase", 2))
        backend.evaluate_batch(diamond_workflow, variants)
        assert diamond_executor.executions == executions + len(variants)
        backend.evaluate_batch(diamond_workflow, variants)
        assert diamond_executor.executions == executions + len(variants)

    def test_default_context_is_none_and_constructor_sets_it(
        self, diamond_executor
    ):
        plain = CachingBackend(SimulatorBackend(diamond_executor))
        assert plain.context is None
        tagged = CachingBackend(
            SimulatorBackend(diamond_executor), context=("phase", 0)
        )
        assert tagged.context == ("phase", 0)

    def test_noisy_evaluations_bypass_cache(self, diamond_profiles, diamond_workflow,
                                            diamond_base_configuration):
        registry = PerformanceModelRegistry.from_profiles(
            diamond_profiles, noise=LognormalNoise(0.05)
        )
        executor = WorkflowExecutor(registry)
        backend = CachingBackend(SimulatorBackend(executor))
        a = backend.evaluate(diamond_workflow, diamond_base_configuration, rng=RngStream(1))
        b = backend.evaluate(diamond_workflow, diamond_base_configuration, rng=RngStream(2))
        assert a.end_to_end_latency != b.end_to_end_latency
        assert backend.cache_hits == 0
        assert backend.cache_misses == 0
        assert executor.executions == 2
        # Noisy results must never be stored either.
        assert backend.cache_size == 0

    def test_stateful_cold_start_substrate_bypasses_cache(self, diamond_registry,
                                                          diamond_workflow,
                                                          diamond_base_configuration):
        # Regression: a warm-container pool makes traces history-dependent
        # (first run pays cold starts); memoizing would replay the cold
        # trace forever and diverge from an uncached run.
        executor = WorkflowExecutor(
            diamond_registry, options=ExecutorOptions(simulate_cold_starts=True)
        )
        backend = CachingBackend(SimulatorBackend(executor))
        assert not backend.deterministic
        runtimes = [
            backend.evaluate(diamond_workflow, diamond_base_configuration).end_to_end_latency
            for _ in range(3)
        ]
        reference = WorkflowExecutor(
            diamond_registry, options=ExecutorOptions(simulate_cold_starts=True)
        )
        expected = [
            reference.execute(diamond_workflow, diamond_base_configuration).end_to_end_latency
            for _ in range(3)
        ]
        assert runtimes == expected
        assert runtimes[1] < runtimes[0]  # warm runs really are faster
        assert backend.cache_hits == 0 and backend.cache_misses == 0
        # Batches pass straight through as well.
        traces = backend.evaluate_batch(diamond_workflow, [diamond_base_configuration] * 2)
        assert len(traces) == 2
        assert backend.cache_size == 0

    def test_batch_dedupes_repeated_configurations(self, diamond_executor, diamond_workflow,
                                                   diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        batch = [diamond_base_configuration] * 4
        traces = backend.evaluate_batch(diamond_workflow, batch)
        assert len(traces) == 4
        assert diamond_executor.executions == 1
        assert backend.cache_hits == 3
        assert backend.cache_misses == 1
        assert len({t.total_cost for t in traces}) == 1

    def test_batch_duplicates_survive_lru_eviction(self, diamond_executor, diamond_workflow,
                                                   diamond_base_configuration):
        # Regression: with a bounded cache, a later miss in the same batch can
        # evict an earlier entry; duplicates must be filled from the batch's
        # own traces, not from the (evictable) cache.
        backend = CachingBackend(SimulatorBackend(diamond_executor), max_entries=1)
        other = diamond_base_configuration.updated(
            "right", ResourceConfig(vcpu=1.0, memory_mb=512.0)
        )
        batch = [diamond_base_configuration, diamond_base_configuration, other]
        traces = backend.evaluate_batch(diamond_workflow, batch)
        assert len(traces) == 3
        assert traces[0].total_cost == traces[1].total_cost
        assert diamond_executor.executions == 2

    def test_lru_eviction(self, diamond_executor, diamond_workflow,
                          diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor), max_entries=2)
        configurations = _variants(diamond_base_configuration, count=3)
        for configuration in configurations:
            backend.evaluate(diamond_workflow, configuration)
        assert backend.cache_size == 2
        # The oldest entry was evicted and must be simulated again.
        backend.evaluate(diamond_workflow, configurations[0])
        assert backend.cache_misses == 4

    def test_stats_merge_hits_into_evaluations(self, diamond_executor, diamond_workflow,
                                               diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        backend.evaluate(diamond_workflow, diamond_base_configuration)
        stats = backend.stats
        assert stats.evaluations == 2
        assert stats.simulations == 1
        assert stats.cache_hit_rate == pytest.approx(0.5)

    def test_fully_cached_batches_still_count(self, diamond_executor, diamond_workflow,
                                              diamond_base_configuration):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        batch = [diamond_base_configuration] * 2
        backend.evaluate_batch(diamond_workflow, batch)
        backend.evaluate_batch(diamond_workflow, batch)  # served without inner
        assert backend.stats.batches == 2


class TestBuildBackend:
    def test_default_is_plain_simulator(self, diamond_executor):
        backend = build_backend(diamond_executor)
        assert isinstance(backend, SimulatorBackend)

    def test_cache_wraps_outermost(self, diamond_executor):
        backend = build_backend(diamond_executor, cache=True)
        assert isinstance(backend, CachingBackend)
        assert isinstance(backend.inner, SimulatorBackend)
        assert "caching" in backend.describe()

    def test_unknown_name_rejected(self, diamond_executor):
        for name in ("quantum", "parallel"):
            with pytest.raises(KeyError):
                build_backend(diamond_executor, name=name)

    def test_names_constant(self):
        assert BACKEND_NAMES == ("simulator", "vectorized")


class TestBackendStats:
    def test_hit_rate(self):
        assert BackendStats().cache_hit_rate == 0.0
        assert BackendStats(cache_hits=3, cache_misses=1).cache_hit_rate == pytest.approx(0.75)

    def test_describe_mentions_cache_only_when_used(self):
        assert "cache" not in BackendStats(evaluations=1).describe()
        assert "hit rate" in BackendStats(cache_hits=1, cache_misses=1).describe()
