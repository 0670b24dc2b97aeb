"""Differential tests: the batched serving engine vs the scalar event loop.

Every serving scenario is run twice under identical seeds — once with
``engine="event"`` (the reference scalar event loop) and once with
``engine="batched"`` (the cohort-vectorized engine in
:mod:`repro.execution.serving_vectorized`) — and the results are compared
*exactly*: per-request dispatch/completion/cost traces, the full metrics
block and the rendered report.  Faulty, noisy, adaptive and autoscaled
scenarios route through the batched engine's scalar fallback, and must
still match byte for byte.  Whatever optimisations the batched engine
grows, it can never silently diverge from the reference semantics without
failing here.

The quick cases run in the fast lane; the full resilience-matrix sweep and
the adaptive-drift run are ``slow``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.input_aware import InputAwareEngine
from repro.execution import serving_vectorized
from repro.execution.backend import build_backend
from repro.execution.cluster import Cluster
from repro.execution.events import ArrivalBatch
from repro.execution.serving import ServingOptions, ServingSimulator
from repro.execution.serving_vectorized import (
    SERVING_ENGINE_NAMES,
    BatchedServingSimulator,
    build_serving_engine,
)
from repro.experiments.harness import ExperimentSettings, make_searcher
from repro.experiments.reporting import render_serving_report
from repro.experiments.serving_experiment import (
    ServingSettings,
    build_scenario_matrix,
    run_serving_experiment,
)
from repro.utils.rng import RngStream
from repro.workloads.arrivals import DriftingTrafficModel, TrafficPhase, TrafficProfile
from repro.workloads.inputs import input_class_rules
from repro.workloads.registry import get_workload


def run_pair(workload: str, settings: ServingSettings):
    """Run one scenario on both engines under identical seeds."""
    reference = run_serving_experiment(
        workload, dataclasses.replace(settings, engine="event")
    )
    batched = run_serving_experiment(
        workload, dataclasses.replace(settings, engine="batched")
    )
    return reference, batched


def request_trace(report):
    """Flatten per-request behaviour to comparable tuples."""
    return [
        (
            outcome.index,
            outcome.request.arrival_time,
            outcome.dispatch_time,
            outcome.completion_time,
            outcome.cost,
            outcome.cold_start_count,
            outcome.cold_start_seconds,
            outcome.succeeded,
            outcome.config_version,
            outcome.attempts,
            outcome.retries,
        )
        for outcome in report.result.outcomes
    ]


def assert_equivalent(reference, batched):
    """Bit-exact equality of traces, metrics and the rendered report."""
    assert request_trace(reference) == request_trace(batched)
    assert dataclasses.asdict(reference.metrics) == dataclasses.asdict(batched.metrics)
    assert len(reference.result.rejected) == len(batched.result.rejected)
    # The rendered reports differ only in backend-stack bookkeeping (the
    # engines evaluate per-template vs per-request, so cache hit counts in
    # the "backend:"/bracketed lines legitimately differ).
    ref_text = render_serving_report(reference)
    fast_text = render_serving_report(batched)
    # ... and in the engine-fallback notice (only the batched engine
    # delegates, so only its report carries the fallback line).
    strip = lambda text: [  # noqa: E731 - tiny local helper
        line
        for line in text.splitlines()
        if "backend:" not in line and "[" not in line and "fallback" not in line
    ]
    assert strip(ref_text) == strip(fast_text)


class TestQuickDifferential:
    """Fast-lane guards over the main engine code paths."""

    def test_uncapped_cohort_path(self):
        # nodes=0 drives the cohort-vectorized settlement (no cluster).
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.5,
            duration_seconds=120.0,
            nodes=0,
            seed=90210,
        )
        assert_equivalent(*run_pair("chatbot", settings))

    def test_contended_run_routes_through_fallback(self):
        # nodes>0 queues on a finite cluster: the batched engine delegates the
        # whole run to the event loop and records why.
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.4,
            duration_seconds=60.0,
            nodes=2,
            seed=90210,
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        assert reference.result.fallback_reason == ""
        assert batched.result.fallback_reason == "cluster"
        assert "engine fallback" in render_serving_report(batched)
        assert "engine fallback" not in render_serving_report(reference)

    def test_queue_capacity_rejections(self):
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=1.5,
            duration_seconds=40.0,
            nodes=2,
            seed=90210,
            queue_capacity=3,
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        assert reference.metrics.rejected > 0

    def test_input_aware_multi_config_cohorts(self):
        # Per-class configurations exercise the multi-config pool sweep.
        settings = ServingSettings(
            method="AARC",
            input_aware=True,
            arrival="poisson",
            rate_rps=0.3,
            duration_seconds=90.0,
            nodes=0,
            seed=90210,
        )
        assert_equivalent(*run_pair("video-analysis", settings))

    def test_noisy_run_routes_through_fallback(self):
        # Noise hands the batched engine to its scalar fallback; reports
        # must still match byte for byte.
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.3,
            duration_seconds=50.0,
            nodes=2,
            seed=90210,
            noise_cv=0.1,
        )
        assert_equivalent(*run_pair("chatbot", settings))

    def test_faulted_run_routes_through_fallback(self):
        settings = ServingSettings(
            method="base",
            arrival="constant",
            rate_rps=0.3,
            duration_seconds=60.0,
            nodes=2,
            seed=90210,
            faults="crashes",
        )
        assert_equivalent(*run_pair("chatbot", settings))

    def test_protected_run_routes_through_fallback(self):
        # The batched engine refuses protected runs identically to scalar:
        # it delegates before any dispatcher side effects, records why, and
        # reproduces the guarded run byte for byte.
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.6,
            duration_seconds=60.0,
            nodes=2,
            seed=90210,
            queue_capacity=3,
            protection="full",
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        assert reference.result.fallback_reason == ""
        assert batched.result.fallback_reason == "protection"
        assert "engine fallback" in render_serving_report(batched)

    def test_protection_outranks_noise_in_fallback_reason(self):
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.3,
            duration_seconds=40.0,
            nodes=2,
            seed=90210,
            noise_cv=0.1,
            protection="shedding",
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        assert batched.result.fallback_reason == "protection"

    @pytest.mark.parametrize(
        "reason, overrides",
        [
            pytest.param("faults", {"faults": "crashes"}, id="faults"),
            pytest.param("protection", {"protection": "shedding"}, id="protection"),
            pytest.param("noise", {"noise_cv": 0.1}, id="noise"),
            pytest.param("adaptive", {"adaptive": True}, id="adaptive"),
            pytest.param("autoscale", {"autoscale": True}, id="autoscale"),
        ],
    )
    def test_cluster_ranks_last_in_fallback_reason(self, reason, overrides):
        # Each of these runs is also on a finite cluster, and each records
        # its own reason rather than "cluster".
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=0.3,
            duration_seconds=60.0,
            nodes=2,
            seed=90210,
            **overrides,
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        assert reference.result.fallback_reason == ""
        assert batched.result.fallback_reason == reason


class TestColumnarStreamDifferential:
    """The batched engine serves an ``ArrivalBatch`` as columns.  Fed the
    batch, it must equal itself fed ``batch.to_requests()`` and the event
    engine fed ``generate(...)``: per request, in the metrics and in the
    rejected records."""

    @staticmethod
    def engine(workload, name, nodes=0, queue_capacity=None):
        executor = workload.build_executor()
        return build_serving_engine(
            name,
            workflow=workload.workflow,
            executor=executor,
            backend=build_backend(executor, name="simulator", cache=True),
            cluster=Cluster.homogeneous(nodes) if nodes else None,
            slo=workload.slo,
            options=ServingOptions(queue_capacity=queue_capacity),
        )

    @staticmethod
    def rows(result):
        return [
            (
                outcome.index,
                outcome.request.arrival_time,
                outcome.request.input_scale,
                outcome.request.input_class,
                outcome.dispatch_time,
                outcome.completion_time,
                outcome.cost,
                outcome.cold_start_count,
                outcome.cold_start_seconds,
                outcome.succeeded,
                id(outcome.configuration),
            )
            for outcome in result.outcomes
        ]

    def serve_three_ways(self, workload, batch, requests, dispatcher, duration, reason="",
                         **options):
        """Serve ``batch``, its records and ``requests``; assert the three
        results agree, that the batched runs record ``reason`` as their
        fallback (``""``: none), and return them."""
        assert batch.to_requests() == requests
        runs = [
            ("batched", batch),
            ("batched", batch.to_requests()),
            ("event", requests),
        ]
        results = []
        for name, stream in runs:
            result = self.engine(workload, name, **options).run(
                stream, dispatcher, duration_seconds=duration
            )
            assert result.fallback_reason == (reason if name == "batched" else "")
            results.append(result)
        first = results[0]
        for other in results[1:]:
            assert self.rows(other) == self.rows(first)
            # repr: an empty run's NaN means compare equal only as text.
            assert repr(other.metrics) == repr(first.metrics)
            assert other.rejected == first.rejected
        return results

    @staticmethod
    def streams(traffic, duration, seed):
        return (
            traffic.generate_batch(duration, RngStream(seed, "traffic")),
            traffic.generate(duration, RngStream(seed, "traffic")),
        )

    def test_chatbot_uncapped(self):
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        traffic = workload.traffic_model(arrival="poisson", rate_rps=50.0)
        batch, requests = self.streams(traffic, 60.0, 2025)
        results = self.serve_three_ways(
            workload, batch, requests, lambda _r: configuration, 60.0
        )
        assert results[0].metrics.completed == len(requests) > 2000
        assert results[0].metrics.cold_start_invocations > 0

    def test_video_analysis_input_aware(self):
        self.serve_video_analysis_input_aware(nodes=0)

    def test_video_analysis_input_aware_on_a_cluster(self):
        # The batched engine delegates: equal dispatch counts show that it
        # does so before calling the dispatcher.
        self.serve_video_analysis_input_aware(nodes=8)

    def serve_video_analysis_input_aware(self, nodes):
        workload = get_workload("video-analysis")
        engine = InputAwareEngine(
            searcher=make_searcher("AARC", workload, ExperimentSettings(seed=717)),
            executor=workload.build_executor(),
            workflow=workload.workflow,
            slo=workload.slo,
            classes=input_class_rules(workload.input_classes),
        )
        engine.prepare()
        traffic = workload.traffic_model(arrival="poisson", rate_rps=2.0)
        batch, requests = self.streams(traffic, 200.0, 717)
        counts = []

        def dispatcher(request):
            return engine.configuration_for(request)

        results = []
        for name, stream in (
            ("batched", batch),
            ("batched", batch.to_requests()),
            ("event", requests),
        ):
            engine.reset_dispatch_counts()
            result = self.engine(workload, name, nodes).run(
                stream, dispatcher, duration_seconds=200.0
            )
            assert result.fallback_reason == ("cluster" if nodes and name == "batched" else "")
            results.append(result)
            counts.append(engine.dispatch_counts())
        assert counts[0] == counts[1] == counts[2]
        assert sum(counts[0].values()) == len(requests)
        first = results[0]
        for other in results[1:]:
            assert self.rows(other) == self.rows(first)
            assert repr(other.metrics) == repr(first.metrics)
        # Three templates, and a function whose containers differ between
        # them: its pool bucket is the mixed-configuration sweep.
        configurations = {id(o.configuration): o.configuration for o in first.outcomes}
        assert len(configurations) == 3
        names = workload.workflow.plan.names
        assert any(
            len({c[name] for c in configurations.values()}) > 1 for name in names
        )

    def test_drifting_phases(self):
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        traffic = DriftingTrafficModel(
            [
                TrafficPhase("light", 0.0, TrafficProfile(arrival="poisson", rate_rps=2.0)),
                TrafficPhase("surge", 60.0, TrafficProfile(arrival="bursty", rate_rps=6.0)),
            ]
        )
        batch, requests = self.streams(traffic, 150.0, 424242)
        self.serve_three_ways(workload, batch, requests, lambda _r: configuration, 150.0)

    def test_cluster_with_rejections_delegates(self):
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        traffic = workload.traffic_model(arrival="poisson", rate_rps=1.5)
        batch, requests = self.streams(traffic, 40.0, 90210)
        results = self.serve_three_ways(
            workload, batch, requests, lambda _r: configuration, 40.0, "cluster",
            nodes=2, queue_capacity=3,
        )
        assert results[0].rejected
        assert results[0].metrics.completed + len(results[0].rejected) == len(requests)

    def test_cluster_run_dispatches_the_callers_records(self):
        # The batched engine delegates before it reads the stream into
        # columns, so on a cluster its dispatcher sees the caller's own
        # records, in the order the event loop sees them.
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        traffic = workload.traffic_model(arrival="poisson", rate_rps=1.5)
        _, requests = self.streams(traffic, 40.0, 90210)
        seen = []
        for name in ("batched", "event"):
            calls = []

            def dispatcher(request, calls=calls):
                calls.append(request)
                return configuration

            result = self.engine(workload, name, nodes=2).run(
                requests, dispatcher, duration_seconds=40.0
            )
            assert result.fallback_reason == ("cluster" if name == "batched" else "")
            seen.append([id(request) for request in calls])
        assert seen[0] == seen[1]
        assert sorted(seen[0]) == sorted(id(request) for request in requests)

    def test_empty_stream(self):
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        batch = ArrivalBatch(
            times=np.empty(0),
            scales=np.empty(0),
            class_ids=np.empty(0, dtype=np.intp),
            class_names=[c.name for c in workload.input_classes or []],
        )
        results = self.serve_three_ways(
            workload, batch, [], lambda _r: configuration, 10.0
        )
        assert len(results[0].outcomes) == 0


class TestZooDifferential:
    """Zoo workflows on both engines, uncapped (cohort path) and on 8 nodes
    (delegated to the event loop).  No other case here serves a zoo DAG, and
    the layered family's several roots exist in no paper workload."""

    @pytest.mark.parametrize("nodes", [0, 8])
    @pytest.mark.parametrize(
        "workload", ["zoo-layered", "zoo-fanout", "zoo-pipeline", "zoo-random"]
    )
    def test_zoo_workflow(self, workload, nodes):
        settings = ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=5.0,
            duration_seconds=200.0,
            nodes=nodes,
        )
        reference, batched = run_pair(workload, settings)
        assert_equivalent(reference, batched)
        assert batched.result.fallback_reason == ("cluster" if nodes else "")


class TestPoolSettlementDifferential:
    """The single-configuration pool sweep settles from release counts where
    that is exact and pays, and replays the loop elsewhere; either way the
    engines agree.  ``paths`` records which settlement each sweep used:
    ``counts``, ``guard`` (the counts stopped: a container could expire) or
    ``loop``."""

    @pytest.fixture
    def paths(self, monkeypatch):
        record = []
        counts, loop = serving_vectorized._settle_counts, serving_vectorized._settle_loop

        def spy_counts(*args):
            settled = counts(*args)
            record.append("counts" if settled is not None else "guard")
            return settled

        def spy_loop(*args):
            record.append("loop")
            return loop(*args)

        monkeypatch.setattr(serving_vectorized, "_settle_counts", spy_counts)
        monkeypatch.setattr(serving_vectorized, "_settle_loop", spy_loop)
        return record

    @staticmethod
    def settings(**overrides):
        return ServingSettings(
            method="base", arrival="poisson", nodes=0, seed=2025, **overrides
        )

    @pytest.mark.parametrize("capacity", [1, 16])
    def test_counts_settle_chatbot(self, paths, capacity):
        settings = self.settings(
            rate_rps=50.0, duration_seconds=60.0, max_containers_per_function=capacity
        )
        assert_equivalent(*run_pair("chatbot", settings))
        assert paths == ["counts"] * 7

    def test_counts_settle_ml_pipeline(self, paths):
        settings = self.settings(rate_rps=20.0, duration_seconds=100.0)
        assert_equivalent(*run_pair("ml-pipeline", settings))
        assert paths == ["counts"] * 5 + ["loop"]

    def test_sparse_stream_stays_on_the_loop(self, paths):
        # Blocks of one acquisition: the block-size rule keeps the loop.
        settings = self.settings(rate_rps=0.05, duration_seconds=20000.0)
        assert_equivalent(*run_pair("chatbot", settings))
        assert paths == ["loop"] * 7

    def test_expiry_guard_falls_back_to_the_loop(self, paths):
        # A 100-container cap rarely empties the idle stack, so an idle
        # container can outlive a 30 s keep-alive: the guard stops the counts.
        settings = self.settings(
            rate_rps=20.0,
            duration_seconds=120.0,
            keep_alive_seconds=30.0,
            max_containers_per_function=100,
        )
        assert_equivalent(*run_pair("chatbot", settings))
        assert paths.count("guard") == 5
        assert "counts" not in paths

    def test_counts_settle_every_sweep_of_the_benchmark_run(self, paths):
        # The perfbench ``serve-batched`` run: chatbot, Poisson 100 rps.
        settings = self.settings(
            rate_rps=100.0, duration_seconds=1000.0, engine="batched"
        )
        report = run_serving_experiment("chatbot", settings)
        assert report.result.fallback_reason == ""
        assert paths == ["counts"] * 7
        assert report.backend_stats.evictions == 48_296


class TestEngineFactory:
    """build_serving_engine routing and the explicit fallback conditions."""

    @staticmethod
    def _kwargs(workload):
        executor = workload.build_executor()
        from repro.execution.backend import build_backend

        return dict(
            workflow=workload.workflow,
            executor=executor,
            backend=build_backend(executor, name="simulator"),
            cluster=None,
            slo=workload.slo,
        )

    def test_factory_names(self):
        workload = get_workload("chatbot")
        assert isinstance(
            build_serving_engine("event", **self._kwargs(workload)),
            ServingSimulator,
        )
        assert isinstance(
            build_serving_engine("batched", **self._kwargs(workload)),
            BatchedServingSimulator,
        )
        with pytest.raises(ValueError, match="batched"):
            build_serving_engine("warp", **self._kwargs(workload))
        assert set(SERVING_ENGINE_NAMES) == {"event", "batched"}

    def test_noisy_rng_falls_back_to_scalar(self):
        from repro.execution.events import RequestArrival
        from repro.utils.rng import RngStream
        from repro.workloads.arrivals import PoissonArrivals

        workload = get_workload("chatbot")
        engine = build_serving_engine("batched", **self._kwargs(workload))
        configuration = workload.base_configuration()
        requests = [
            RequestArrival(t)
            for t in PoissonArrivals(0.5).arrival_times(
                30.0, RngStream(7, "arrivals")
            )
        ]
        reference = ServingSimulator(**self._kwargs(workload))
        expected = reference.run(
            requests, lambda _r: configuration, rng=RngStream(7, "noise")
        )
        result = engine.run(
            requests, lambda _r: configuration, rng=RngStream(7, "noise")
        )
        assert dataclasses.asdict(result.metrics) == dataclasses.asdict(
            expected.metrics
        )


@pytest.mark.slow
class TestScenarioMatrixDifferential:
    """Every named resilience scenario agrees across engines."""

    @pytest.mark.parametrize(
        "spec",
        build_scenario_matrix("chatbot", seed=717, duration_seconds=90.0),
        ids=lambda spec: spec.name,
    )
    def test_scenario(self, spec):
        assert_equivalent(*run_pair("chatbot", spec.settings))


@pytest.mark.slow
class TestAdaptiveDifferential:
    """The adaptive control loop agrees across engines (scalar fallback)."""

    def test_adaptive_drift_run(self):
        phases = (
            TrafficPhase(
                "calm", 0.0, TrafficProfile(arrival="constant", rate_rps=0.02)
            ),
            TrafficPhase(
                "busy", 600.0, TrafficProfile(arrival="constant", rate_rps=0.06)
            ),
        )
        settings = ServingSettings(
            method="base",
            duration_seconds=1500.0,
            nodes=4,
            seed=717,
            phases=phases,
            adaptive=True,
            detector="threshold",
            detector_options={"relative_threshold": 0.5},
            rollout="immediate",
        )
        reference, batched = run_pair("chatbot", settings)
        assert_equivalent(reference, batched)
        ref_events = [(e.time, e.kind) for e in reference.control.events]
        fast_events = [(e.time, e.kind) for e in batched.control.events]
        assert ref_events == fast_events


@pytest.mark.slow
class TestDriftDifferential:
    """Drifting traffic (batched arrival generation across phases) agrees."""

    def test_drifting_mix_shift(self):
        phases = (
            TrafficPhase(
                "light", 0.0, TrafficProfile(arrival="poisson", rate_rps=0.3)
            ),
            TrafficPhase(
                "surge", 120.0, TrafficProfile(arrival="bursty", rate_rps=0.6)
            ),
        )
        settings = ServingSettings(
            method="base",
            duration_seconds=300.0,
            nodes=0,
            seed=424242,
            phases=phases,
        )
        assert_equivalent(*run_pair("chatbot", settings))
