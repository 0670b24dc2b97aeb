"""Tests for the event-driven serving layer."""

import math

import pytest

from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.execution.cluster import Cluster
from repro.execution.events import RequestArrival
from repro.execution.executor import ExecutorOptions, WorkflowExecutor
from repro.execution.serving import (
    AutoscalerOptions,
    ServingOptions,
    ServingSimulator,
    percentile,
)
from repro.execution.serving_vectorized import SERVING_ENGINE_NAMES, build_serving_engine
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.slo import SLO
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.registry import get_workload


def constant_stream(n, gap):
    return [RequestArrival(arrival_time=i * gap) for i in range(n)]


@pytest.fixture
def serving(diamond_workflow, diamond_executor, diamond_base_configuration):
    def build(cluster=None, options=None, slo=None, backend=None, executor=None):
        return ServingSimulator(
            workflow=diamond_workflow,
            executor=executor if executor is not None else diamond_executor,
            backend=backend,
            cluster=cluster,
            slo=slo,
            options=options,
        )

    return build


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestUncontendedServing:
    def test_no_cluster_means_no_queueing(self, serving, diamond_base_configuration):
        result = serving().run(
            constant_stream(5, 50.0), lambda r: diamond_base_configuration
        )
        assert result.metrics.completed == 5
        assert all(o.queueing_delay == 0.0 for o in result.outcomes)
        # Same configuration and scale: equal latency once containers are warm
        # (only the first request pays cold starts).
        latencies = {round(o.latency_seconds, 9) for o in result.outcomes[1:]}
        assert len(latencies) == 1

    def test_outcomes_preserve_arrival_index_order(self, serving, diamond_base_configuration):
        result = serving().run(
            constant_stream(4, 2.0), lambda r: diamond_base_configuration
        )
        assert [o.index for o in result.outcomes] == [0, 1, 2, 3]
        assert [o.arrival_time for o in result.outcomes] == [0.0, 2.0, 4.0, 6.0]

    def test_rejects_cold_start_simulating_executor(
        self, diamond_workflow, diamond_registry
    ):
        cold_starting = WorkflowExecutor(
            performance_model=diamond_registry,
            options=ExecutorOptions(simulate_cold_starts=True),
        )
        for engine in SERVING_ENGINE_NAMES:
            with pytest.raises(ValueError, match="simulate_cold_starts=False"):
                build_serving_engine(
                    engine, workflow=diamond_workflow, executor=cold_starting
                )
            # A cold-starting backend is history-dependent too: the engines
            # would disagree on it, so both refuse it.
            with pytest.raises(ValueError, match="deterministic"):
                build_serving_engine(
                    engine,
                    workflow=diamond_workflow,
                    executor=WorkflowExecutor(performance_model=diamond_registry),
                    backend=SimulatorBackend(cold_starting),
                )


class TestContention:
    def test_saturation_queues_and_inflates_tail(
        self, serving, diamond_workflow, diamond_executor, diamond_base_configuration
    ):
        # One node fitting exactly one request at a time (4 functions x 4 vcpu).
        cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        uncontended = diamond_executor.execute(
            diamond_workflow, diamond_base_configuration
        ).end_to_end_latency
        result = serving(cluster=cluster).run(
            constant_stream(10, 0.5), lambda r: diamond_base_configuration
        )
        metrics = result.metrics
        assert metrics.completed == 10
        assert metrics.peak_concurrency == 1
        # Queueing is actually modelled: the tail strictly exceeds the
        # uncontended single-request latency.
        assert metrics.latency_p99_seconds > uncontended
        assert metrics.queueing_max_seconds > 0.0
        # FIFO: completion order equals arrival order at one slot.
        assert [o.index for o in sorted(result.outcomes, key=lambda o: o.completion_time)] == list(range(10))

    def test_capacity_released_on_completion(self, serving, diamond_base_configuration):
        cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        result = serving(cluster=cluster).run(
            constant_stream(3, 10_000.0), lambda r: diamond_base_configuration
        )
        # Arrivals far apart: nobody queues, and the cluster ends empty.
        assert all(o.queueing_delay == 0.0 for o in result.outcomes)
        assert all(n.vcpu_used == 0.0 for n in cluster.nodes)
        assert all(not n.placements for n in cluster.nodes)

    def test_impossible_request_is_rejected_not_deadlocked(
        self, serving, diamond_workflow, diamond_base_configuration
    ):
        tiny = Cluster.homogeneous(1, vcpu_per_node=1.0, memory_per_node_mb=256.0)
        giant = WorkflowConfiguration.uniform(
            diamond_workflow.function_names, ResourceConfig(vcpu=8.0, memory_mb=4096.0)
        )
        result = serving(cluster=tiny).run(
            constant_stream(3, 1.0), lambda r: giant
        )
        assert result.metrics.completed == 0
        assert result.metrics.rejected == 3

    def test_queue_capacity_rejects_overflow(self, serving, diamond_base_configuration):
        cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        options = ServingOptions(queue_capacity=2)
        result = serving(cluster=cluster, options=options).run(
            constant_stream(20, 0.01), lambda r: diamond_base_configuration
        )
        assert result.metrics.rejected > 0
        assert result.metrics.completed + result.metrics.rejected == 20

    def test_zero_queue_capacity_is_a_loss_system(self, serving, diamond_base_configuration):
        # queue_capacity=0 means serve-or-reject: free capacity still serves.
        cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        options = ServingOptions(queue_capacity=0)
        spaced = serving(cluster=cluster, options=options).run(
            constant_stream(3, 100.0), lambda r: diamond_base_configuration
        )
        assert spaced.metrics.completed == 3
        assert spaced.metrics.rejected == 0
        # Simultaneous arrivals on one slot: one serves, the rest are lost.
        burst = serving(cluster=cluster, options=options).run(
            constant_stream(3, 0.0), lambda r: diamond_base_configuration
        )
        assert burst.metrics.completed == 1
        assert burst.metrics.rejected == 2
        assert burst.metrics.queueing_max_seconds == 0.0

    def test_utilization_bounded_and_positive(self, serving, diamond_base_configuration):
        cluster = Cluster.homogeneous(2, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        result = serving(cluster=cluster).run(
            constant_stream(10, 0.5), lambda r: diamond_base_configuration
        )
        metrics = result.metrics
        assert 0.0 < metrics.cpu_utilization <= 1.0
        assert 0.0 < metrics.memory_utilization <= 1.0
        assert metrics.mean_concurrency <= metrics.peak_concurrency


class TestColdStartOverlay:
    def test_first_request_pays_cold_starts(self, serving, diamond_base_configuration):
        result = serving().run(
            constant_stream(3, 100.0), lambda r: diamond_base_configuration
        )
        first, second, third = result.outcomes
        assert first.cold_start_count == 4  # every diamond function cold
        # Arrivals inside the keep-alive window reuse the warm containers.
        assert second.cold_start_count == 0
        assert third.cold_start_count == 0
        assert first.service_seconds > second.service_seconds

    def test_expired_containers_pay_again(self, serving, diamond_executor, diamond_base_configuration):
        diamond_executor.container_pool.keep_alive_seconds = 10.0
        result = serving().run(
            constant_stream(2, 10_000.0), lambda r: diamond_base_configuration
        )
        assert result.outcomes[1].cold_start_count == 4

    def test_cold_start_billed(self, serving, diamond_base_configuration):
        hot = serving().run(
            constant_stream(2, 100.0), lambda r: diamond_base_configuration
        )
        first, second = hot.outcomes
        assert first.cold_start_seconds > 0.0
        assert first.cost > second.cost

    def test_disabled_overlay_never_pays(self, serving, diamond_base_configuration):
        options = ServingOptions(simulate_cold_starts=False)
        result = serving(options=options).run(
            constant_stream(3, 1.0), lambda r: diamond_base_configuration
        )
        assert all(o.cold_start_count == 0 for o in result.outcomes)

    def test_deterministic_traces_are_memoized(
        self, serving, diamond_executor, diamond_base_configuration
    ):
        backend = CachingBackend(SimulatorBackend(diamond_executor))
        result = serving(backend=backend).run(
            constant_stream(8, 100.0), lambda r: diamond_base_configuration
        )
        assert result.metrics.completed == 8
        assert backend.cache_misses == 1
        assert backend.cache_hits == 7
        # Memoization changes how traces are served, never the outcomes.
        latencies = {round(o.service_seconds, 9) for o in result.outcomes[1:]}
        assert len(latencies) == 1

    def test_noisy_runs_bypass_cache(self, diamond_workflow, diamond_profiles, diamond_base_configuration):
        from repro.perfmodel.noise import LognormalNoise
        from repro.perfmodel.registry import PerformanceModelRegistry

        registry = PerformanceModelRegistry.from_profiles(
            diamond_profiles, noise=LognormalNoise(0.05)
        )
        executor = WorkflowExecutor(performance_model=registry)
        backend = CachingBackend(SimulatorBackend(executor))
        simulator = ServingSimulator(diamond_workflow, executor, backend=backend)
        result = simulator.run(
            constant_stream(5, 1.0),
            lambda r: diamond_base_configuration,
            rng=RngStream(3, "serve"),
        )
        assert backend.cache_hits == 0
        assert backend.cache_misses == 0  # rng-carrying evaluations skip lookups
        latencies = {o.service_seconds for o in result.outcomes}
        assert len(latencies) == 5  # noise actually applied


class TestNoContainerSharing:
    def test_concurrent_requests_never_share_warm_containers(
        self, serving, diamond_executor, diamond_base_configuration
    ):
        # Three simultaneous arrivals, no cluster limit: every request must
        # cold-start its own containers because its peers' containers are
        # busy until their true finish times.
        result = serving().run(
            constant_stream(3, 0.0), lambda r: diamond_base_configuration
        )
        assert all(o.cold_start_count == 4 for o in result.outcomes)
        assert diamond_executor.container_pool.cold_starts == 12
        assert diamond_executor.container_pool.warm_hits == 0

    def test_released_containers_are_reused_after_finish(
        self, serving, diamond_executor, diamond_base_configuration
    ):
        # Sequential arrivals (gap far beyond the service time): the second
        # and third requests warm-hit the first request's containers.
        result = serving().run(
            constant_stream(3, 100.0), lambda r: diamond_base_configuration
        )
        assert [o.cold_start_count for o in result.outcomes] == [4, 0, 0]
        assert diamond_executor.container_pool.warm_hits == 8


class TestDeterminism:
    def test_same_seed_bit_identical(
        self, diamond_workflow, diamond_registry, diamond_base_configuration
    ):
        def one_run():
            executor = WorkflowExecutor(performance_model=diamond_registry)
            cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
            simulator = ServingSimulator(
                diamond_workflow, executor, cluster=cluster, slo=SLO(30.0, name="d")
            )
            result = simulator.run(
                constant_stream(12, 0.5), lambda r: diamond_base_configuration
            )
            return [
                (o.index, o.dispatch_time, o.completion_time, o.cost, o.cold_start_count)
                for o in result.outcomes
            ]

        assert one_run() == one_run()


class TestSLOAndMetrics:
    def test_slo_attainment_uses_client_latency(self, serving, diamond_base_configuration):
        cluster = Cluster.homogeneous(1, vcpu_per_node=16.0, memory_per_node_mb=16384.0)
        slo = SLO(30.0, name="diamond-e2e")
        result = serving(cluster=cluster, slo=slo).run(
            constant_stream(10, 0.5), lambda r: diamond_base_configuration
        )
        metrics = result.metrics
        expected = sum(1 for o in result.outcomes if o.latency_seconds <= 30.0) / 10
        assert metrics.slo_attainment == pytest.approx(expected)
        assert 0.0 <= metrics.slo_attainment < 1.0  # saturated: tail violates

    def test_offered_rate_uses_duration(self, serving, diamond_base_configuration):
        result = serving().run(
            constant_stream(10, 1.0),
            lambda r: diamond_base_configuration,
            duration_seconds=10.0,
        )
        assert result.metrics.offered_rate_rps == pytest.approx(1.0)

    def test_per_class_breakdowns(self, serving, diamond_base_configuration):
        requests = [
            RequestArrival(arrival_time=0.0, input_scale=0.5, input_class="light"),
            RequestArrival(arrival_time=1.0, input_scale=1.5, input_class="heavy"),
            RequestArrival(arrival_time=2.0, input_scale=0.5, input_class="light"),
        ]
        result = serving().run(requests, lambda r: diamond_base_configuration)
        by_class = result.mean_latency_by_class()
        assert set(by_class) == {"light", "heavy"}
        assert by_class["heavy"] > by_class["light"]
        assert set(result.mean_cost_by_class()) == {"light", "heavy"}


class TestAutoscaler:
    def test_autoscaler_resizes_pool(self, diamond_workflow, diamond_registry, diamond_base_configuration):
        executor = WorkflowExecutor(performance_model=diamond_registry)
        pool = executor.container_pool
        pool.max_containers_per_function = 1
        options = ServingOptions(
            autoscale=True,
            autoscaler=AutoscalerOptions(
                interval_seconds=5.0, window_seconds=20.0, max_containers=32
            ),
        )
        simulator = ServingSimulator(diamond_workflow, executor, options=options)
        result = simulator.run(
            constant_stream(100, 0.5), lambda r: diamond_base_configuration
        )
        assert result.autoscaler_decisions  # it acted
        assert pool.max_containers_per_function != 1
        for _, target in result.autoscaler_decisions:
            assert 1 <= target <= 32

    def test_autoscaler_loop_terminates(self, diamond_workflow, diamond_registry, diamond_base_configuration):
        executor = WorkflowExecutor(performance_model=diamond_registry)
        options = ServingOptions(
            autoscale=True,
            autoscaler=AutoscalerOptions(interval_seconds=1.0, window_seconds=5.0),
        )
        simulator = ServingSimulator(diamond_workflow, executor, options=options)
        result = simulator.run(constant_stream(3, 1.0), lambda r: diamond_base_configuration)
        assert result.metrics.completed == 3  # and run() returned (loop drained)


class TestBackendPoolStats:
    def test_pool_counters_flow_into_backend_stats(
        self, diamond_workflow, diamond_registry, diamond_base_configuration
    ):
        executor = WorkflowExecutor(performance_model=diamond_registry)
        backend = CachingBackend(SimulatorBackend(executor))
        simulator = ServingSimulator(diamond_workflow, executor, backend=backend)
        simulator.run(constant_stream(4, 100.0), lambda r: diamond_base_configuration)
        stats = backend.stats
        assert stats.cold_starts == 4
        assert stats.warm_hits == 12
        assert "pool 4 cold starts" in stats.describe()


class TestLedgerHealthyCapacityAccounting:
    """Regression: utilization must divide by the capacity actually up."""

    def _loaded_ledger(self):
        from repro.execution.cluster import ClusterLedger

        cluster = Cluster.homogeneous(2, vcpu_per_node=8, memory_per_node_mb=8192)
        ledger = ClusterLedger(cluster)
        configuration = WorkflowConfiguration({"f": ResourceConfig(4, 2048)})
        assert ledger.try_reserve(0, configuration, 0.0) is not None
        return ledger

    def test_mid_run_node_failure_strictly_raises_utilization(self):
        healthy = self._loaded_ledger()
        healthy.advance(200.0)
        baseline_cpu, baseline_mem, _ = healthy.utilization()

        degraded = self._loaded_ledger()
        # Fail the *idle* node halfway through: the same work ran on half
        # the capacity for the second window, so reported utilization must
        # go up, not stay diluted by the ghost node's capacity.
        idle = next(
            n.name for n in degraded.cluster.nodes if n.vcpu_used == 0
        )
        degraded.fail_node(idle, 100.0)
        degraded.advance(200.0)
        cpu, mem, _ = degraded.utilization()
        assert cpu > baseline_cpu
        assert mem > baseline_mem
        # Closed form: 4 vcpu busy over 16*100 + 8*100 healthy vcpu-seconds.
        assert cpu == pytest.approx((4 * 200.0) / (16 * 100.0 + 8 * 100.0))

    def test_fault_free_run_keeps_the_historical_formula(self):
        # Byte-identity guard: with no failure the denominator must be the
        # exact closed-form capacity*span product, not a summed area.
        ledger = self._loaded_ledger()
        ledger.advance(200.0)
        cpu, mem, _ = ledger.utilization()
        cluster = ledger.cluster
        assert cpu == (4 * 200.0) / (cluster.total_vcpu_capacity * 200.0)
        assert mem == (2048 * 200.0) / (cluster.total_memory_capacity_mb * 200.0)

    def test_recovery_resumes_full_denominator(self):
        ledger = self._loaded_ledger()
        idle = next(n.name for n in ledger.cluster.nodes if n.vcpu_used == 0)
        ledger.fail_node(idle, 100.0)
        ledger.restore_node(idle, 150.0)
        ledger.advance(200.0)
        cpu, _, _ = ledger.utilization()
        assert cpu == pytest.approx((4 * 200.0) / (16 * 150.0 + 8 * 50.0))


class TestLedgerRefusedReservation:
    """Regression: a refused reservation leaves every node bit-identical.

    Placing a container and removing it again is not exact in floating point
    (0.6 + 0.3 - 0.3 == 0.5999999999999999), so the ledger must decide before
    it places anything.
    """

    def test_refusal_leaves_no_float_residue(self):
        from repro.execution.cluster import ClusterLedger, Node

        cluster = Cluster(
            [
                Node("a", vcpu_capacity=2.0, memory_capacity_mb=4096.0),
                Node("b", vcpu_capacity=1.0, memory_capacity_mb=4096.0),
            ]
        )
        ledger = ClusterLedger(cluster)
        small = ResourceConfig(0.3, 128)
        pair = WorkflowConfiguration({"f": small, "g": small})
        assert ledger.try_reserve(0, pair, 0.0) is not None
        before = [
            (node.vcpu_used, node.memory_used_mb, list(node.placements))
            for node in cluster.nodes
        ]
        assert cluster.node("a").vcpu_used == 0.6
        too_big = WorkflowConfiguration(
            {"f": small, "g": small, "h": ResourceConfig(1.5, 128)}
        )
        assert ledger.try_reserve(1, too_big, 1.0) is None
        after = [
            (node.vcpu_used, node.memory_used_mb, list(node.placements))
            for node in cluster.nodes
        ]
        assert after == before
        assert ledger.active == 1


class TestLedgerWithoutCluster:
    """Unbounded capacity: every reservation is granted, only concurrency
    is integrated, and the summary reports no cluster gauges without it."""

    def test_every_reservation_is_an_empty_grant(self):
        from repro.execution.cluster import ClusterLedger

        ledger = ClusterLedger(None)
        configuration = WorkflowConfiguration({"f": ResourceConfig(4, 2048)})
        # An empty assignment is a grant: callers must test ``is None``.
        assert ledger.try_reserve(0, configuration, 0.0) == {}
        assert ledger.try_reserve(1, configuration, 10.0) == {}
        ledger.release(0, 20.0)
        ledger.release(1, 30.0)
        assert ledger.fail_node("node-0", 30.0) == []
        assert not ledger.has_down_nodes
        assert ledger.peak_active == 2
        assert ledger.utilization() == (None, None, 40.0 / 30.0)

    def test_summary_without_a_ledger_zeroes_the_cluster_gauges(
        self, serving, diamond_base_configuration
    ):
        from repro.execution.serving import summarize_outcomes

        slo = SLO(latency_limit=100.0)
        result = serving(cluster=Cluster.homogeneous(2), slo=slo).run(
            constant_stream(6, 5.0), lambda r: diamond_base_configuration
        )
        metrics = summarize_outcomes(
            result.outcomes, result.rejected, result.metrics.duration_seconds,
            result.metrics.offered, slo,
        )
        assert (metrics.cpu_utilization, metrics.memory_utilization) == (None, None)
        assert (metrics.peak_concurrency, metrics.mean_concurrency) == (0, 0.0)
        assert result.metrics.peak_concurrency > 0
        for name in ("completed", "latency_p99_seconds", "slo_attainment", "total_cost"):
            assert getattr(metrics, name) == getattr(result.metrics, name)


class TestAutoscalerWindowing:
    """Regression: service observations share the arrivals' sliding window,
    and early ticks divide by the time actually observed (warm-up)."""

    def _autoscaler(self, **overrides):
        from repro.execution.container import ContainerPool
        from repro.execution.serving import _Autoscaler

        options = AutoscalerOptions(
            interval_seconds=10.0, window_seconds=60.0, headroom=1.25, **overrides
        )
        pool = ContainerPool(max_containers_per_function=1)
        return _Autoscaler(pool, options), pool

    def test_stale_service_times_fall_out_of_the_window(self):
        autoscaler, pool = self._autoscaler(max_containers=256)
        # A slow era long before the window, then a fast recent era.
        for t in (100.0, 110.0, 120.0):
            autoscaler.observe_service(t, 600.0)
        for t in (950.0, 960.0, 970.0, 980.0, 990.0):
            autoscaler.observe_arrival(t)
            autoscaler.observe_service(t, 2.0)
        autoscaler.tick(1000.0)
        # Window rate 5/60 with 2s recent services: a small pool.  The old
        # lifetime mean (226s) would have demanded dozens of containers.
        assert pool.max_containers_per_function <= 2

    def test_warm_up_divides_by_observed_time(self):
        autoscaler, pool = self._autoscaler(max_containers=256)
        for t in (1.0, 3.0, 5.0, 7.0, 9.0):
            autoscaler.observe_arrival(t)
        autoscaler.observe_service(9.0, 6.0)
        autoscaler.tick(10.0)
        # rate = 5 arrivals / 10 observed seconds (not /60 nominal window):
        # target = ceil(0.5 * 6 * 1.25) = 4.  The pre-fix estimate was
        # ceil(5/60 * 6 * 1.25) = 1 — no scale-up at all.
        assert pool.max_containers_per_function == 4

    def test_no_service_observation_leaves_pool_alone(self):
        autoscaler, pool = self._autoscaler()
        autoscaler.observe_arrival(5.0)
        autoscaler.tick(10.0)
        assert pool.max_containers_per_function == 1
        assert autoscaler.decisions == []


class TestRepeatedRuns:
    """A second run of one simulator starts from an empty warm pool."""

    @pytest.mark.parametrize(
        "engine, nodes, autoscale",
        [("event", 0, False), ("event", 0, True), ("batched", 0, False), ("batched", 8, False)],
    )
    def test_second_run_equals_first(self, engine, nodes, autoscale):
        workload = get_workload("chatbot")
        options = ServingOptions(
            autoscale=autoscale,
            autoscaler=AutoscalerOptions(
                interval_seconds=30.0, window_seconds=60.0, min_containers=1
            ),
        )
        simulator = build_serving_engine(
            engine,
            workflow=workload.workflow,
            executor=workload.build_executor(),
            cluster=(
                Cluster.homogeneous(nodes, vcpu_per_node=16.0, memory_per_node_mb=65536.0)
                if nodes
                else None
            ),
            slo=workload.slo,
            options=options,
        )
        requests = [
            RequestArrival(t)
            for t in PoissonArrivals(0.5).arrival_times(300.0, RngStream(717, "arrivals"))
        ]
        configuration = workload.base_configuration()

        def served():
            result = simulator.run(requests, lambda _r: configuration)
            return result, [
                (o.index, o.dispatch_time, o.completion_time, o.cost,
                 o.cold_start_count, o.cold_start_seconds)
                for o in result.outcomes
            ]

        first, first_trace = served()
        second, second_trace = served()
        assert first.metrics.cold_start_invocations > 0
        assert second_trace == first_trace
        assert repr(second.metrics) == repr(first.metrics)
        assert second.fallback_reason == first.fallback_reason
        if autoscale:
            assert first.autoscaler_decisions
            assert second.autoscaler_decisions == first.autoscaler_decisions
        # The pool's counters accumulate across runs.
        assert simulator.container_pool.cold_starts == (
            2 * first.metrics.cold_start_invocations
        )
