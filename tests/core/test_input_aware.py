"""Tests for the Input-Aware Configuration Engine."""

import pytest

from repro.core.aarc import AARC, AARCOptions
from repro.core.input_aware import InputAwareEngine, InputClassRule, default_input_classes
from repro.core.scheduler import SchedulerOptions
from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.execution.events import RequestArrival
from repro.workflow.resources import ResourceConfig


@pytest.fixture
def engine(diamond_executor, diamond_workflow, diamond_slo):
    searcher = AARC(
        options=AARCOptions(scheduler=SchedulerOptions(base_config=ResourceConfig(4, 2048)))
    )
    return InputAwareEngine(
        searcher=searcher,
        executor=diamond_executor,
        workflow=diamond_workflow,
        slo=diamond_slo,
        classes=[
            InputClassRule(name="light", max_scale=0.6, representative_scale=0.5),
            InputClassRule(name="heavy", max_scale=float("inf"), representative_scale=1.5),
        ],
    )


class TestInputClassRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            InputClassRule(name="x", max_scale=0, representative_scale=1)
        with pytest.raises(ValueError):
            InputClassRule(name="x", max_scale=1, representative_scale=0)

    def test_default_classes(self):
        classes = default_input_classes()
        assert [c.name for c in classes] == ["light", "middle", "heavy"]
        assert classes[-1].max_scale == float("inf")


class TestEngineConstruction:
    def test_requires_classes(self, diamond_executor, diamond_workflow, diamond_slo):
        with pytest.raises(ValueError):
            InputAwareEngine(
                searcher=AARC(), executor=diamond_executor, workflow=diamond_workflow,
                slo=diamond_slo, classes=[],
            )

    def test_classes_must_be_sorted(self, diamond_executor, diamond_workflow, diamond_slo):
        with pytest.raises(ValueError):
            InputAwareEngine(
                searcher=AARC(), executor=diamond_executor, workflow=diamond_workflow,
                slo=diamond_slo,
                classes=[
                    InputClassRule("big", max_scale=2.0, representative_scale=2.0),
                    InputClassRule("small", max_scale=1.0, representative_scale=1.0),
                ],
            )

    def test_class_names_unique(self, diamond_executor, diamond_workflow, diamond_slo):
        with pytest.raises(ValueError):
            InputAwareEngine(
                searcher=AARC(), executor=diamond_executor, workflow=diamond_workflow,
                slo=diamond_slo,
                classes=[
                    InputClassRule("x", max_scale=1.0, representative_scale=1.0),
                    InputClassRule("x", max_scale=2.0, representative_scale=2.0),
                ],
            )

    def test_shared_backend_reuses_cached_baselines(self, diamond_executor,
                                                    diamond_workflow, diamond_slo):
        searcher = AARC(
            options=AARCOptions(scheduler=SchedulerOptions(base_config=ResourceConfig(4, 2048)))
        )
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        classes = [
            InputClassRule(name="light", max_scale=0.6, representative_scale=0.5),
            InputClassRule(name="heavy", max_scale=float("inf"), representative_scale=1.5),
        ]

        def prepare():
            engine = InputAwareEngine(
                searcher=searcher, executor=diamond_executor, workflow=diamond_workflow,
                slo=diamond_slo, classes=classes, backend=backend,
            )
            engine.prepare()
            return engine

        prepare()
        simulations_after_first = backend.stats.simulations
        hits_after_first = backend.cache_hits
        # A second offline phase re-searches both classes, but every
        # evaluation is already memoized — nothing is re-simulated.
        prepare()
        assert backend.stats.simulations == simulations_after_first
        assert backend.cache_hits > hits_after_first


class TestClassification:
    def test_classify_uses_bounds(self, engine):
        assert engine.classify(0.4).name == "light"
        assert engine.classify(0.6).name == "light"
        assert engine.classify(1.0).name == "heavy"
        assert engine.classify(5.0).name == "heavy"

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf"), 0, -1])
    def test_classify_rejects_invalid_scales(self, engine, scale):
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            engine.classify(scale)


class TestPrepareAndDispatch:
    def test_dispatch_before_prepare_raises(self, engine):
        with pytest.raises(RuntimeError):
            engine.configuration_for(RequestArrival(arrival_time=0.0, input_scale=1.0))

    def test_prepare_builds_one_configuration_per_class(self, engine):
        results = engine.prepare()
        assert set(results.keys()) == {"light", "heavy"}
        assert engine.prepared
        configurations = engine.configurations()
        assert set(configurations.keys()) == {"light", "heavy"}
        for result in engine.search_results().values():
            assert result.found_feasible

    def test_dispatch_selects_class_configuration(self, engine):
        engine.prepare()
        light_request = RequestArrival(arrival_time=0.0, input_scale=0.5, input_class="light")
        heavy_request = RequestArrival(arrival_time=0.0, input_scale=2.0, input_class="heavy")
        assert engine.configuration_for(light_request) == engine.configurations()["light"]
        assert engine.configuration_for(heavy_request) == engine.configurations()["heavy"]
        dispatcher = engine.dispatcher()
        assert dispatcher(light_request) == engine.configurations()["light"]

    def test_heavy_class_gets_at_least_as_much_resources(self, engine):
        engine.prepare()
        light = engine.configurations()["light"]
        heavy = engine.configurations()["heavy"]
        assert heavy.total_vcpu() + heavy.total_memory_mb() >= \
            light.total_vcpu() + light.total_memory_mb() * 0.5
