"""Tests for the experiment harness plumbing."""

import pytest

from repro.core.aarc import AARC
from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.experiments.harness import (
    DEFAULT_METHODS,
    DEFAULT_WORKLOADS,
    ExperimentSettings,
    build_objective,
    make_methods,
    make_searcher,
    run_method_on_workload,
)
from repro.optimizers.bayesian import BayesianOptimizer
from repro.optimizers.grid import GridSearchOptimizer
from repro.optimizers.maff import MAFFOptimizer
from repro.optimizers.random_search import RandomSearchOptimizer
from repro.workloads.registry import get_workload


class TestMakeSearcher:
    def test_method_types(self):
        workload = get_workload("chatbot")
        assert isinstance(make_searcher("AARC", workload), AARC)
        assert isinstance(make_searcher("BO", workload), BayesianOptimizer)
        assert isinstance(make_searcher("MAFF", workload), MAFFOptimizer)
        assert isinstance(make_searcher("Random", workload), RandomSearchOptimizer)

    def test_case_insensitive(self):
        workload = get_workload("chatbot")
        assert isinstance(make_searcher("aarc", workload), AARC)

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            make_searcher("simulated-annealing", get_workload("chatbot"))

    def test_aarc_uses_workload_base_config(self):
        workload = get_workload("video-analysis")
        searcher = make_searcher("AARC", workload)
        assert searcher.scheduler.options.base_config == workload.base_config

    def test_maff_uses_workload_base_memory(self):
        workload = get_workload("video-analysis")
        searcher = make_searcher("MAFF", workload)
        assert searcher.options.initial_memory_mb == workload.base_config.memory_mb

    def test_bo_budget_from_settings(self):
        settings = ExperimentSettings(bo_samples=17)
        searcher = make_searcher("BO", get_workload("chatbot"), settings)
        assert searcher.options.max_samples == 17

    def test_grid_method(self):
        assert isinstance(make_searcher("Grid", get_workload("chatbot")), GridSearchOptimizer)


class TestBuildObjective:
    def test_default_backend_is_simulator(self):
        workload = get_workload("chatbot")
        objective = build_objective(workload, ExperimentSettings())
        assert isinstance(objective.backend, SimulatorBackend)

    def test_cache_knob_wraps_caching_backend(self):
        workload = get_workload("chatbot")
        objective = build_objective(workload, ExperimentSettings(cache=True))
        assert isinstance(objective.backend, CachingBackend)

    def test_cached_run_matches_uncached(self):
        workload = get_workload("chatbot")
        plain = run_method_on_workload("Random", "chatbot")
        settings = ExperimentSettings(cache=True)
        searcher = make_searcher("Random", workload, settings)
        cached = searcher.search(build_objective(workload, settings))
        assert cached.best_cost == plain.best_cost
        assert cached.history.cost_series() == plain.history.cost_series()


class TestMakeMethods:
    def test_defaults(self):
        methods = make_methods(get_workload("chatbot"))
        assert list(methods.keys()) == DEFAULT_METHODS

    def test_subset(self):
        methods = make_methods(get_workload("chatbot"), methods=["AARC"])
        assert list(methods.keys()) == ["AARC"]


class TestRunMethodOnWorkload:
    def test_aarc_end_to_end(self):
        result = run_method_on_workload("AARC", "chatbot")
        assert result.found_feasible
        assert result.workflow_name == "chatbot"

    def test_defaults_constants(self):
        assert DEFAULT_WORKLOADS == ["chatbot", "ml-pipeline", "video-analysis"]
        assert DEFAULT_METHODS == ["AARC", "BO", "MAFF"]
