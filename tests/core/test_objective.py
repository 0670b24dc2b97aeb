"""Tests for the objective wrapper and search bookkeeping."""

import pytest

from repro.core.objective import SearchHistory, WorkflowObjective
from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.optimizers.grid import GridSearchOptimizer
from repro.workflow.resources import ResourceConfig


class TestWorkflowObjective:
    def test_evaluate_records_sample(self, diamond_objective, diamond_base_configuration):
        result = diamond_objective.evaluate(diamond_base_configuration)
        assert diamond_objective.sample_count == 1
        assert result.runtime_seconds > 0
        assert result.cost > 0
        assert result.slo_met
        assert result.succeeded
        assert result.feasible

    def test_history_totals_accumulate(self, diamond_objective, diamond_base_configuration):
        for _ in range(3):
            diamond_objective.evaluate(diamond_base_configuration)
        history = diamond_objective.history
        assert history.sample_count == 3
        assert history.total_runtime_seconds == pytest.approx(
            3 * history.samples[0].runtime_seconds
        )
        assert history.total_cost == pytest.approx(3 * history.samples[0].cost)

    def test_max_samples_enforced(self, diamond_executor, diamond_workflow, diamond_slo,
                                  diamond_base_configuration):
        objective = WorkflowObjective(
            executor=diamond_executor, workflow=diamond_workflow, slo=diamond_slo, max_samples=2
        )
        objective.evaluate(diamond_base_configuration)
        objective.evaluate(diamond_base_configuration)
        with pytest.raises(RuntimeError):
            objective.evaluate(diamond_base_configuration)

    def test_infeasible_detected(self, diamond_objective, diamond_base_configuration):
        starved = diamond_base_configuration.updated(
            "left", ResourceConfig(vcpu=0.1, memory_mb=256)
        )
        result = diamond_objective.evaluate(starved)
        assert not result.slo_met or result.cost > 0  # slow branch violates the 30s SLO
        assert not result.feasible or result.slo_met

    def test_oom_marks_not_succeeded(self, diamond_objective, diamond_base_configuration):
        starved = diamond_base_configuration.updated(
            "left", ResourceConfig(vcpu=4, memory_mb=128)
        )
        result = diamond_objective.evaluate(starved)
        assert not result.succeeded
        assert not result.feasible

    def test_path_metrics(self, diamond_objective, diamond_base_configuration):
        result = diamond_objective.evaluate(diamond_base_configuration)
        runtimes = result.trace.runtimes()
        assert result.path_runtime(["entry", "left"]) == pytest.approx(
            runtimes["entry"] + runtimes["left"]
        )
        assert result.path_cost(["entry"]) == pytest.approx(result.trace.record("entry").cost)

    def test_make_result_with_and_without_best(self, diamond_objective,
                                               diamond_base_configuration):
        none_result = diamond_objective.make_result("X", None)
        assert not none_result.found_feasible
        assert "no feasible" in none_result.summary()

        best = diamond_objective.evaluate(diamond_base_configuration)
        result = diamond_objective.make_result("X", best)
        assert result.found_feasible
        assert result.best_cost == best.cost
        assert result.sample_count == diamond_objective.sample_count
        assert "X on diamond" in result.summary()


class TestEvaluateBatch:
    def _variants(self, base, count):
        return [
            base.updated("right", ResourceConfig(vcpu=2.0, memory_mb=1024.0 + 128.0 * i))
            for i in range(count)
        ]

    def test_batch_matches_sequential_history(self, diamond_executor, diamond_workflow,
                                              diamond_slo, diamond_base_configuration):
        configurations = self._variants(diamond_base_configuration, 4)
        batched = WorkflowObjective(
            executor=diamond_executor, workflow=diamond_workflow, slo=diamond_slo
        )
        sequential = WorkflowObjective(
            executor=diamond_executor, workflow=diamond_workflow, slo=diamond_slo
        )
        batched.evaluate_batch(configurations, phase="grid")
        for configuration in configurations:
            sequential.evaluate(configuration, phase="grid")
        assert batched.history.cost_series() == sequential.history.cost_series()
        assert batched.history.runtime_series() == sequential.history.runtime_series()

    def test_batch_sample_indices_in_submission_order(self, diamond_objective,
                                                      diamond_base_configuration):
        configurations = self._variants(diamond_base_configuration, 3)
        results = diamond_objective.evaluate_batch(configurations)
        samples = diamond_objective.history.samples
        assert [s.index for s in samples] == [0, 1, 2]
        assert [s.configuration for s in samples] == configurations
        assert [r.configuration for r in results] == configurations

    def test_batch_respects_sample_budget(self, diamond_executor, diamond_workflow,
                                          diamond_slo, diamond_base_configuration):
        objective = WorkflowObjective(
            executor=diamond_executor, workflow=diamond_workflow, slo=diamond_slo,
            max_samples=2,
        )
        with pytest.raises(RuntimeError):
            objective.evaluate_batch(self._variants(diamond_base_configuration, 3))
        # Nothing was recorded: the budget check happens before submission.
        assert objective.sample_count == 0

    def test_empty_batch_is_noop(self, diamond_objective):
        assert diamond_objective.evaluate_batch([]) == []
        assert diamond_objective.sample_count == 0

    def test_backend_required_without_executor(self, diamond_workflow, diamond_slo):
        with pytest.raises(ValueError):
            WorkflowObjective(workflow=diamond_workflow, slo=diamond_slo)

    def test_noisy_parallel_batch_matches_sequential(self, diamond_profiles,
                                                     diamond_workflow, diamond_slo,
                                                     diamond_base_configuration):
        # The per-sample RNGs are derived from history indices, so a noisy
        # batch must be bit-identical to the same objective evaluated one
        # sample at a time with the same root stream.
        from repro.perfmodel.noise import LognormalNoise
        from repro.perfmodel.registry import PerformanceModelRegistry
        from repro.utils.rng import RngStream
        from repro.execution.executor import WorkflowExecutor

        registry = PerformanceModelRegistry.from_profiles(
            diamond_profiles, noise=LognormalNoise(0.1)
        )
        configurations = self._variants(diamond_base_configuration, 6)

        def run(batched):
            objective = WorkflowObjective(
                workflow=diamond_workflow, slo=diamond_slo,
                rng=RngStream(2025, "noisy-batch"),
                backend=SimulatorBackend(WorkflowExecutor(registry)),
            )
            if batched:
                objective.evaluate_batch(configurations)
            else:
                for configuration in configurations:
                    objective.evaluate(configuration)
            return objective.history.runtime_series()

        series = run(batched=True)
        assert series == run(batched=False)
        assert len(set(series)) > 1  # the noise really is active


class TestCachedSearch:
    def test_repeated_grid_search_hits_cache_and_matches_uncached(
        self, diamond_executor, diamond_workflow, diamond_slo
    ):
        """Acceptance: a repeated grid search over a shared caching backend
        reports cache hits and an identical result to the uncached run."""
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        searcher = GridSearchOptimizer()

        def run(use_backend):
            objective = WorkflowObjective(
                executor=diamond_executor,
                workflow=diamond_workflow,
                slo=diamond_slo,
                backend=backend if use_backend else None,
            )
            return searcher.search(objective)

        uncached = run(False)
        first = run(True)
        second = run(True)
        assert backend.cache_hits > 0
        assert second.best_configuration == uncached.best_configuration
        assert second.best_cost == uncached.best_cost
        assert second.history.cost_series() == uncached.history.cost_series()
        assert second.history.runtime_series() == uncached.history.runtime_series()
        assert first.best_cost == second.best_cost
        # The second sweep was served entirely from memory.
        assert second.backend_stats.cache_hit_rate > 0.4


class TestSearchHistory:
    def _sample_result(self, objective, configuration):
        return objective.evaluate(configuration)

    def test_series_lengths(self, diamond_objective, diamond_base_configuration):
        for _ in range(4):
            diamond_objective.evaluate(diamond_base_configuration)
        history = diamond_objective.history
        assert len(history.runtime_series()) == 4
        assert len(history.cost_series()) == 4
        assert len(history.best_feasible_cost_series()) == 4

    def test_best_feasible_tracks_minimum_cost(self, diamond_objective,
                                               diamond_base_configuration):
        cheap = diamond_base_configuration.updated(
            "right", ResourceConfig(vcpu=0.5, memory_mb=256)
        )
        diamond_objective.evaluate(diamond_base_configuration)
        diamond_objective.evaluate(cheap)
        best = diamond_objective.history.best_feasible()
        assert best is not None
        assert best.cost == min(s.cost for s in diamond_objective.history.samples if s.feasible)

    def test_best_feasible_none_when_all_infeasible(self):
        history = SearchHistory()
        assert history.best_feasible() is None
        assert history.feasible_fraction() == 0.0
        assert history.cost_fluctuation_amplitude() == 0.0

    def test_fluctuation_amplitude(self, diamond_objective, diamond_base_configuration):
        cheap = diamond_base_configuration.updated(
            "right", ResourceConfig(vcpu=0.5, memory_mb=256)
        )
        diamond_objective.evaluate(diamond_base_configuration)
        diamond_objective.evaluate(cheap)
        diamond_objective.evaluate(diamond_base_configuration)
        history = diamond_objective.history
        costs = history.cost_series()
        expected = (abs(costs[1] - costs[0]) + abs(costs[2] - costs[1])) / 2
        assert history.cost_fluctuation_amplitude() == pytest.approx(expected)

    def test_phases_recorded(self, diamond_objective, diamond_base_configuration):
        diamond_objective.evaluate(diamond_base_configuration, phase="profiling")
        assert diamond_objective.history.samples[0].phase == "profiling"


class TestIncrementalHistoryCaches:
    """The aggregates SearchHistory maintains on record() must match a naive
    rebuild over the samples — reporting reads them after every sample."""

    def _naive_best_series(self, history):
        best, series = float("inf"), []
        for sample in history.samples:
            if sample.feasible and sample.cost < best:
                best = sample.cost
            series.append(best)
        return series

    def _record_mixed_samples(self, objective, base):
        # Feasible, infeasible (OOM) and progressively cheaper samples.
        starved = base.updated("left", ResourceConfig(vcpu=4, memory_mb=128))
        lean = base.updated("right", ResourceConfig(vcpu=1.0, memory_mb=512.0))
        for configuration in (base, starved, lean, base, starved):
            objective.evaluate(configuration)

    def test_best_feasible_series_matches_naive_rebuild(self, diamond_objective,
                                                        diamond_base_configuration):
        self._record_mixed_samples(diamond_objective, diamond_base_configuration)
        history = diamond_objective.history
        assert history.best_feasible_cost_series() == self._naive_best_series(history)

    def test_aggregates_match_naive_rebuild(self, diamond_objective,
                                            diamond_base_configuration):
        self._record_mixed_samples(diamond_objective, diamond_base_configuration)
        history = diamond_objective.history
        samples = history.samples
        assert history.total_runtime_seconds == sum(s.runtime_seconds for s in samples)
        assert history.total_cost == sum(s.cost for s in samples)
        assert history.feasible_fraction() == (
            sum(1 for s in samples if s.feasible) / len(samples)
        )
        costs = history.cost_series()
        diffs = [abs(costs[i + 1] - costs[i]) for i in range(len(costs) - 1)]
        assert history.cost_fluctuation_amplitude() == sum(diffs) / len(diffs)

    def test_best_feasible_keeps_earliest_on_cost_tie(self, diamond_objective,
                                                      diamond_base_configuration):
        diamond_objective.evaluate(diamond_base_configuration)
        diamond_objective.evaluate(diamond_base_configuration)
        best = diamond_objective.history.best_feasible()
        assert best is not None and best.index == 0

    def test_series_accessors_return_copies(self, diamond_objective,
                                            diamond_base_configuration):
        diamond_objective.evaluate(diamond_base_configuration)
        series = diamond_objective.history.cost_series()
        series.append(-1.0)
        assert diamond_objective.history.cost_series() != series
        best_series = diamond_objective.history.best_feasible_cost_series()
        best_series.clear()
        assert diamond_objective.history.best_feasible_cost_series()
