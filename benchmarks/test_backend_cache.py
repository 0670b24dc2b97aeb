"""Evaluation-backend study — cached vs. uncached throughput.

Repeats the same deterministic grid search several times against (a) a plain
simulator backend and (b) a shared memoizing :class:`CachingBackend`, and
records the evaluations/second of both variants to ``benchmarks/results/``.
The cached runs must report cache hits while producing bit-identical search
results — memoization changes how evaluations are served, never what the
searchers observe.
"""

import time

import pytest

from repro.core.objective import WorkflowObjective
from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.optimizers.grid import GridSearchOptimizer
from repro.utils.tables import Table
from repro.workloads.registry import get_workload

#: Repeated sweeps: the first cached sweep populates the cache, the rest hit.
N_REPEATS = 4


def _run_sweeps(workload, backend=None):
    """Run N_REPEATS grid searches; returns (results, elapsed, evaluations)."""
    searcher = GridSearchOptimizer()
    results = []
    evaluations = 0
    started = time.perf_counter()
    for _ in range(N_REPEATS):
        objective = WorkflowObjective(
            executor=workload.build_executor() if backend is None else None,
            workflow=workload.workflow,
            slo=workload.slo,
            input_scale=workload.default_input_scale,
            backend=backend,
        )
        results.append(searcher.search(objective))
        evaluations += objective.sample_count
    return results, time.perf_counter() - started, evaluations


@pytest.mark.benchmark(group="backend")
def test_backend_cache_throughput(benchmark, record_result):
    workload = get_workload("chatbot")

    uncached_results, uncached_elapsed, uncached_evals = _run_sweeps(workload)
    shared_cache = CachingBackend(SimulatorBackend(workload.build_executor()))
    cached_results, cached_elapsed, cached_evals = _run_sweeps(workload, shared_cache)
    stats = shared_cache.stats

    # Benchmark the representative unit of work: one fully cached sweep.
    benchmark.pedantic(
        lambda: _run_sweeps(workload, shared_cache), rounds=1, iterations=1
    )

    # Identical observations: the cache only changes how samples are served.
    assert stats.cache_hits > 0
    for uncached, cached in zip(uncached_results, cached_results):
        assert cached.best_configuration == uncached.best_configuration
        assert cached.best_cost == uncached.best_cost
        assert cached.history.cost_series() == uncached.history.cost_series()
        assert cached.history.runtime_series() == uncached.history.runtime_series()
    # Every sweep after the first is served entirely from memory.
    assert stats.cache_misses == cached_evals // N_REPEATS
    assert stats.cache_hits == cached_evals - stats.cache_misses

    table = Table(
        ["variant", "sweeps", "evaluations", "elapsed_s", "evals_per_s",
         "cache_hits", "hit_rate"],
        precision=3,
        title=f"backend cache study — repeated grid search on {workload.name}",
    )
    table.add_row(
        "uncached", N_REPEATS, uncached_evals, uncached_elapsed,
        uncached_evals / uncached_elapsed if uncached_elapsed > 0 else float("inf"),
        0, "0.0%",
    )
    table.add_row(
        "cached", N_REPEATS, cached_evals, cached_elapsed,
        cached_evals / cached_elapsed if cached_elapsed > 0 else float("inf"),
        stats.cache_hits, f"{stats.cache_hit_rate * 100:.1f}%",
    )
    record_result("backend_cache.txt", table.render(), timings=True)
