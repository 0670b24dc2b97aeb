"""Tests for multi-tenant fleet serving on heterogeneous clusters."""

import dataclasses
import math

import pytest

from repro.execution.backend import SimulatorBackend
from repro.execution.cluster import Cluster, ClusterLedger, Node, balance_key, spread_key
from repro.execution.executor import ExecutorOptions
from repro.execution.fleet import FleetOptions, FleetSimulator, Tenant
from repro.execution.instances import build_cluster
from repro.execution.protection import (
    AdmissionControlConfig,
    CircuitBreakerConfig,
    DeadlineConfig,
    HedgingConfig,
    ProtectionPolicy,
)
from repro.experiments.fleet_experiment import (
    FLEET_SCENARIO_NAMES,
    build_fleet_scenario,
    run_fleet_scenario,
)
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workloads.registry import get_workload


def small_fleet():
    return [
        Tenant(
            name="interactive",
            workload=get_workload("chatbot"),
            priority=2,
            arrival="poisson",
            rate_rps=0.012,
        ),
        Tenant(
            name="batch",
            workload=get_workload("ml-pipeline"),
            priority=0,
            arrival="poisson",
            rate_rps=0.02,
        ),
    ]


def small_cluster():
    return build_cluster([("m5.4xlarge", 3), ("c5.4xlarge", 2)])


class TestTenant:
    def test_defaults_come_from_workload(self):
        workload = get_workload("chatbot")
        tenant = Tenant(name="t", workload=workload)
        assert tenant.effective_slo() is workload.slo
        assert tenant.effective_configuration() == workload.base_configuration()

    def test_overrides_win(self):
        workload = get_workload("chatbot")
        configuration = workload.base_configuration()
        tenant = Tenant(name="t", workload=workload, configuration=configuration)
        assert tenant.effective_configuration() is configuration


class TestFleetOptions:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="placement policy"):
            FleetOptions(placement="round-robin")

    def test_rejects_bad_reserve_fraction(self):
        with pytest.raises(ValueError):
            FleetOptions(priority_reserve_fraction=1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("interference_alpha", float("nan")),
            ("interference_alpha", float("inf")),
            ("keep_alive_seconds", -1.0),
            ("keep_alive_seconds", float("nan")),
            ("max_warm_per_function", 0),
            ("node_failures_per_hour", float("nan")),
            ("node_failures_per_hour", -1.0),
            ("node_recovery_seconds", 0.0),
            ("node_recovery_seconds", -30.0),
            ("spot_evictions_per_hour", float("inf")),
            ("spot_recovery_seconds", float("nan")),
            ("queue_capacity", -1),
        ],
    )
    def test_rejects_bad_numbers(self, name, value):
        with pytest.raises(ValueError, match=name):
            FleetOptions(**{name: value})

    def test_accepts_boundary_values(self):
        FleetOptions(
            queue_capacity=0,
            keep_alive_seconds=0.0,
            max_warm_per_function=1,
            interference_alpha=0.0,
            node_failures_per_hour=0.0,
            spot_evictions_per_hour=0.0,
        )


class TestFleetSimulator:
    def test_requires_tenants_with_unique_names(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            FleetSimulator([], small_cluster())
        tenants = small_fleet()
        tenants[1].name = tenants[0].name
        with pytest.raises(ValueError, match="unique"):
            FleetSimulator(tenants, small_cluster())

    @pytest.mark.parametrize(
        "mechanism, config",
        [
            ("breaker", CircuitBreakerConfig()),
            ("hedging", HedgingConfig()),
            ("deadline", DeadlineConfig(total_budget_seconds=1.0)),
        ],
    )
    def test_rejects_protection_it_does_not_run(self, mechanism, config):
        # The fleet's launch loop has no breaker feedback, hedges or stage
        # budgets; such a policy used to be accepted and silently ignored.
        protection = ProtectionPolicy(
            admission=AdmissionControlConfig(max_inflight_requests=4),
            **{mechanism: config},
        )
        with pytest.raises(ValueError, match=f"sets {mechanism}$"):
            FleetSimulator(small_fleet(), small_cluster(), protection=protection)

    def test_accepts_admission_and_shedding_policies(self):
        for protection in (
            ProtectionPolicy.for_tenants({"interactive": 2, "batch": 0}),
            ProtectionPolicy(admission=AdmissionControlConfig(max_inflight_requests=4)),
        ):
            simulator = FleetSimulator(small_fleet(), small_cluster(), protection=protection)
            assert simulator.protection is protection

    def test_seed_determinism(self):
        def run():
            simulator = FleetSimulator(small_fleet(), small_cluster())
            return simulator.run(300.0, seed=717)

        a, b = run(), run()
        assert a.total_cost == b.total_cost
        assert a.cpu_utilization == b.cpu_utilization
        for name in a.tenants:
            ma, mb = a.tenant(name).metrics, b.tenant(name).metrics
            assert (ma.offered, ma.completed, ma.rejected) == (
                mb.offered,
                mb.completed,
                mb.rejected,
            )
            assert ma.latency_p99_seconds == mb.latency_p99_seconds
            assert ma.total_cost == mb.total_cost

    def test_per_tenant_conservation_and_billing_sum(self):
        simulator = FleetSimulator(small_fleet(), small_cluster())
        result = simulator.run(300.0, seed=717)
        assert result.offered > 0
        for tenant_result in result.tenants.values():
            metrics = tenant_result.metrics
            assert metrics.offered == metrics.completed + metrics.rejected
            assert metrics.rejected == sum(tenant_result.rejected_by_cause.values())
        assert result.total_cost == sum(
            t.metrics.total_cost for t in result.tenants.values()
        )

    def test_spot_evictions_restart_work(self):
        tenants = [
            Tenant(
                name="steady",
                workload=get_workload("chatbot"),
                arrival="poisson",
                rate_rps=0.02,
            )
        ]
        cluster = build_cluster(
            [("m5.4xlarge", 1)], spot_spec=[("m5.4xlarge", 2)]
        )
        options = FleetOptions(
            spot_evictions_per_hour=60.0, spot_recovery_seconds=30.0
        )
        result = FleetSimulator(tenants, cluster, options=options).run(600.0, seed=717)
        assert result.spot_evictions > 0
        metrics = result.tenant("steady").metrics
        assert metrics.offered == metrics.completed + metrics.rejected

    def test_queue_shedding_never_drops_a_request_that_ran(self, monkeypatch):
        # Regression: a full queue used to shed its worst entry even when an
        # eviction had put that request back after it ran, dropping its
        # billed partial work and restarts.  Only never-run entries shed.
        import repro.execution.fleet as fleet_module

        granted = set()

        class RecordingLedger(ClusterLedger):
            def try_reserve(self, request_id, configuration, now, cap=None):
                node_of = super().try_reserve(request_id, configuration, now, cap)
                if node_of is not None:
                    granted.add(request_id)
                return node_of

        monkeypatch.setattr(fleet_module, "ClusterLedger", RecordingLedger)
        tenants = [
            Tenant(name, get_workload("chatbot"), priority=priority,
                   arrival="poisson", rate_rps=0.5)
            for name, priority in (("hi", 1), ("lo", 0))
        ]
        cluster = build_cluster([("m5.large", 1)], spot_spec=[("m5.4xlarge", 3)])
        options = FleetOptions(
            placement="priority",
            queue_capacity=4,
            spot_evictions_per_hour=120.0,
            spot_recovery_seconds=120.0,
        )
        result = FleetSimulator(tenants, cluster, options=options).run(900.0, seed=3)
        assert result.spot_evictions > 0
        assert result.rejected_total > 0
        completed = {
            outcome.index
            for tenant in result.tenants.values()
            for outcome in tenant.outcomes
        }
        assert granted and granted <= completed


class TestFleetLedger:
    def _config(self):
        return WorkflowConfiguration({"f": ResourceConfig(4, 4096)})

    def test_priority_policy_reserves_headroom(self):
        # One 16-vCPU node, 25% reserved: low-priority work (the priority
        # policy's 0.75 cap) may fill 12 vCPU (three 4-vCPU containers) but
        # not the reserved quarter.
        cluster = build_cluster([("m5.4xlarge", 1)])
        ledger = ClusterLedger(cluster, key=spread_key)
        for request_id in range(3):
            assert ledger.try_reserve(request_id, self._config(), 0.0, cap=0.75)
        assert ledger.try_reserve(3, self._config(), 0.0, cap=0.75) is None
        # The top-priority tenant (cap 1.0) can still use the reserved headroom.
        assert ledger.try_reserve(4, self._config(), 0.0, cap=1.0)

    def test_fair_share_spreads_while_bin_packing_stacks(self):
        # A cpu-heavy then a mem-heavy container: packing them on one node
        # balances it (bin-packing's imbalance-first key), while fair-share's
        # load-first key sends the second container to the empty node.
        cpu_heavy = WorkflowConfiguration({"f": ResourceConfig(8, 2048)})
        mem_heavy = WorkflowConfiguration({"f": ResourceConfig(1, 32768)})

        def place(key):
            cluster = build_cluster([("m5.4xlarge", 2)])
            ledger = ClusterLedger(cluster, key=key)
            nodes = []
            for request_id, config in enumerate([cpu_heavy, mem_heavy]):
                assignment = ledger.try_reserve(request_id, config, 0.0, cap=1.0)
                assert assignment is not None
                nodes.append(assignment["f"].name)
            return nodes

        assert len(set(place(spread_key))) == 2
        assert len(set(place(balance_key))) == 1

    def test_failed_reservation_leaves_node_usage_untouched(self):
        # Placing 0.3 vCPU onto 0.6 and taking it off again gives
        # 0.5999999999999999; a refused reservation must not do that.
        cluster = Cluster([Node("n", vcpu_capacity=2.0, memory_capacity_mb=4096.0)])
        ledger = ClusterLedger(cluster, key=spread_key)
        small = ResourceConfig(0.3, 128)
        pair = WorkflowConfiguration({"a": small, "b": small})
        assert ledger.try_reserve(0, pair, 0.0, cap=1.0)
        node = cluster.node("n")
        before = (node.vcpu_used, node.memory_used_mb, list(node.placements))
        too_big = WorkflowConfiguration({"a": small, "b": ResourceConfig(1.5, 128)})
        assert ledger.try_reserve(1, too_big, 1.0, cap=1.0) is None
        assert (node.vcpu_used, node.memory_used_mb, list(node.placements)) == before
        assert node.vcpu_used == 0.6
        # The refused plan's tentative moves were undone too, so the ledger
        # can still release the first request and grant the refused one.
        ledger.release(0, 2.0)
        assert ledger.try_reserve(2, too_big, 3.0, cap=1.0)

    def test_refusal_is_remembered_until_capacity_changes(self, monkeypatch):
        import repro.execution.cluster as cluster_module

        plans = []
        real_plan = cluster_module.plan_placement

        def counting_plan(*args, **kwargs):
            plans.append(args[1])
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(cluster_module, "plan_placement", counting_plan)
        cluster = build_cluster([("m5.4xlarge", 1)])
        ledger = ClusterLedger(cluster, key=spread_key)
        config = self._config()
        for request_id in range(3):
            assert ledger.try_reserve(request_id, config, 0.0, cap=0.75)
        version = ledger.version
        assert ledger.try_reserve(3, config, 1.0, cap=0.75) is None
        assert len(plans) == 4
        # Same object, same cap, unchanged cluster: refused without a scan.
        assert ledger.try_reserve(3, config, 2.0, cap=0.75) is None
        assert len(plans) == 4
        assert ledger.version == version
        # An equal but distinct configuration object, or another cap, scans.
        assert ledger.try_reserve(3, self._config(), 2.0, cap=0.75) is None
        assert ledger.try_reserve(3, config, 2.0, cap=1.0)
        assert len(plans) == 6
        # Every commit and release bumps the version and forgets refusals;
        # once room is freed, a fresh scan grants the same configuration.
        assert ledger.version == version + 1
        ledger.release(0, 3.0)
        ledger.release(3, 3.0)
        assert ledger.version == version + 3
        assert ledger.try_reserve(4, config, 4.0, cap=0.75)
        assert len(plans) == 7

    def test_failed_node_aborts_and_restores(self):
        cluster = build_cluster([("m5.4xlarge", 2)])
        ledger = ClusterLedger(cluster, key=spread_key)
        assignment = ledger.try_reserve(0, self._config(), 0.0, cap=1.0)
        victim = assignment["f"].name
        assert ledger.fail_node(victim, 10.0) == [0]
        assert ledger.active == 0
        assert ledger.has_down_nodes
        ledger.restore_node(victim, 20.0)
        assert not ledger.has_down_nodes


class TestFleetScenarios:
    def test_scenario_registry(self):
        assert set(FLEET_SCENARIO_NAMES) == {
            "noisy-neighbor",
            "priority-inversion",
            "spot-eviction-storm",
            "fleet-flash-crowd",
        }
        with pytest.raises(KeyError, match="unknown fleet scenario"):
            build_fleet_scenario("nope")

    def test_noisy_neighbor_priority_beats_fair_share(self):
        # The acceptance criterion: under priority-aware placement the
        # high-priority interactive tenant's SLO attainment strictly exceeds
        # what fair-share FIFO gives it at the comparison seed.
        result = run_fleet_scenario("noisy-neighbor", seed=717)
        fair = result.runs["fair-share"].tenant("interactive").metrics
        prio = result.runs["priority"].tenant("interactive").metrics
        assert fair.completed > 0 and prio.completed > 0
        assert prio.slo_attainment > fair.slo_attainment

    def test_spot_eviction_storm_counts_evictions(self):
        result = run_fleet_scenario(
            "spot-eviction-storm", seed=717, policies=["fair-share"]
        )
        run = result.runs["fair-share"]
        assert run.spot_evictions > 0
        assert run.node_failures == 0


class TestFleetIntegrations:
    def test_per_tenant_controller_observes_its_tenant_only(self):
        from repro.control.controller import ReconfigurationController
        from repro.control.drift import NullDriftDetector
        from repro.control.rollout import ImmediateRollout
        from repro.execution.backend import SimulatorBackend

        tenants = small_fleet()
        workload = tenants[0].workload
        controller = ReconfigurationController(
            workflow=workload.workflow,
            slo=workload.slo,
            initial_configuration=workload.base_configuration(),
            detector=NullDriftDetector(),
            rollout=ImmediateRollout(),
            backend=SimulatorBackend(workload.build_executor()),
            seed=7,
            name="interactive",
        )
        simulator = FleetSimulator(
            tenants,
            small_cluster(),
            controllers={"interactive": controller},
        )
        result = simulator.run(300.0, seed=717)
        interactive = result.tenant("interactive")
        assert interactive.control is not None
        # The controller saw exactly its tenant's completions, nobody else's.
        completions = sum(interactive.control.version_completions.values())
        assert completions == interactive.metrics.completed
        assert interactive.metrics.completed > 0
        assert result.tenant("batch").control is None

    def test_protection_guard_sheds_by_tenant_priority(self):
        from repro.execution.protection import ProtectionPolicy

        tenants = [
            Tenant(
                name="gold",
                workload=get_workload("chatbot"),
                priority=2,
                arrival="poisson",
                rate_rps=0.05,
            ),
            Tenant(
                name="bronze",
                workload=get_workload("chatbot"),
                priority=0,
                arrival="poisson",
                rate_rps=0.05,
            ),
        ]
        # Two nodes hold exactly one in-flight chatbot request (28 of 32
        # vCPU), so the shared queue backs up immediately at these rates.
        cluster = build_cluster([("m5.4xlarge", 2)])
        protection = ProtectionPolicy.for_tenants(
            {"gold": 2, "bronze": 0}, queue_high=2, queue_low=1
        )
        result = FleetSimulator(tenants, cluster, protection=protection).run(
            600.0, seed=717
        )
        shed = {
            name: tenant.rejected_by_cause.get("shed", 0)
            for name, tenant in result.tenants.items()
        }
        assert shed["bronze"] > 0
        assert shed["bronze"] >= shed["gold"]
        assert result.protection_events

    def test_node_failures_count_and_conserve(self):
        tenants = [
            Tenant(
                name="only",
                workload=get_workload("chatbot"),
                arrival="poisson",
                rate_rps=0.02,
            )
        ]
        options = FleetOptions(
            node_failures_per_hour=30.0, node_recovery_seconds=45.0
        )
        result = FleetSimulator(tenants, small_cluster(), options=options).run(
            600.0, seed=717
        )
        assert result.node_failures > 0
        metrics = result.tenant("only").metrics
        assert metrics.offered == metrics.completed + metrics.rejected


def benchmark_fleet():
    """The tenants, cluster and options of perfbench's ``fleet`` workload."""
    tenants = [
        Tenant("interactive", get_workload("chatbot"), priority=2,
               arrival="poisson", rate_rps=0.5),
        Tenant("pipeline", get_workload("ml-pipeline"), priority=1,
               arrival="poisson", rate_rps=0.5),
        Tenant("video", get_workload("video-analysis"), priority=0,
               arrival="bursty", rate_rps=0.1),
    ]
    cluster = build_cluster(
        [("m5.4xlarge", 12), ("c5.4xlarge", 8), ("m6g.4xlarge", 4)],
        spot_spec=[("c5a.4xlarge", 8), ("m6g.4xlarge", 4)],
    )
    return tenants, cluster, FleetOptions(placement="priority", spot_evictions_per_hour=20.0)


def assert_traces_are_fresh(tenants, result):
    """Each outcome's service trace equals a fresh execution of its own key."""
    for tenant in tenants:
        executor = tenant.workload.build_executor()
        outcomes = result.tenant(tenant.name).outcomes
        assert outcomes
        for outcome in outcomes:
            fresh = executor.execute(
                tenant.workload.workflow,
                outcome.configuration,
                input_scale=outcome.request.input_scale,
            )
            served = outcome.service_trace.records
            assert list(served) == list(fresh.records)
            for name, record in fresh.records.items():
                assert (served[name].status, served[name].runtime_seconds,
                        served[name].cost) == (record.status, record.runtime_seconds,
                                               record.cost)


def distinct_keys(outcomes):
    return {(id(outcome.configuration), outcome.request.input_scale) for outcome in outcomes}


class TestTraceTemplates:
    @pytest.mark.parametrize("seed", [717, 11])
    def test_service_traces_match_fresh_executions(self, seed):
        tenants, cluster, options = benchmark_fleet()
        result = FleetSimulator(tenants, cluster, options=options).run(900.0, seed=seed)
        assert result.spot_evictions > 0
        assert_traces_are_fresh(tenants, result)

    def test_retuned_configuration_gets_its_own_template(self):
        from repro.control.controller import ControllerOptions, ReconfigurationController
        from repro.control.drift import ScheduledDriftDetector
        from repro.control.rollout import ImmediateRollout
        from repro.execution.backend import CachingBackend

        workload = get_workload("chatbot")
        controller = ReconfigurationController(
            workflow=workload.workflow,
            slo=workload.slo,
            initial_configuration=workload.base_configuration(),
            detector=ScheduledDriftDetector(interval_seconds=100.0),
            rollout=ImmediateRollout(),
            backend=CachingBackend(SimulatorBackend(workload.build_executor())),
            options=ControllerOptions(
                window_seconds=200.0,
                min_window_completions=3,
                min_retune_interval_seconds=10.0,
            ),
            seed=7,
            name="adaptive",
        )
        tenants = [Tenant("adaptive", workload, arrival="poisson", rate_rps=0.05)]
        result = FleetSimulator(
            tenants, small_cluster(), controllers={"adaptive": controller}
        ).run(600.0, seed=717)
        # A promoted re-tune served part of the traffic, so a template keyed
        # on anything but the configuration would replay the stale trace.
        assert len(result.tenant("adaptive").control.version_completions) >= 2
        assert_traces_are_fresh(tenants, result)

    def test_each_run_simulates_each_dispatched_key_once(self):
        tenants, cluster, options = benchmark_fleet()
        backends = {
            tenant.name: SimulatorBackend(tenant.workload.build_executor())
            for tenant in tenants
        }
        simulator = FleetSimulator(tenants, cluster, options=options, backends=backends)
        first = simulator.run(900.0, seed=717)
        keys = {name: len(distinct_keys(t.outcomes)) for name, t in first.tenants.items()}
        assert all(count > 0 for count in keys.values())
        assert {name: b.stats.simulations for name, b in backends.items()} == keys
        # The memo belongs to one run: a second run evaluates its keys again.
        simulator.run(900.0, seed=717)
        assert {name: b.stats.simulations for name, b in backends.items()} == {
            name: 2 * count for name, count in keys.items()
        }

    def test_rejects_a_backend_that_simulates_cold_starts(self):
        tenants = small_fleet()
        executor = tenants[0].workload.build_executor(
            options=ExecutorOptions(simulate_cold_starts=True)
        )
        with pytest.raises(ValueError, match="deterministic"):
            FleetSimulator(
                tenants,
                small_cluster(),
                backends={tenants[0].name: SimulatorBackend(executor)},
            )


class TestRepeatedRuns:
    def test_second_run_starts_from_an_empty_pool(self):
        tenants = [
            Tenant("only", get_workload("chatbot"), arrival="poisson", rate_rps=0.05)
        ]
        simulator = FleetSimulator(tenants, small_cluster())

        def served(result):
            return [
                (o.index, o.dispatch_time, o.completion_time, o.cost,
                 o.cold_start_count, o.cold_start_seconds)
                for o in result.tenant("only").outcomes
            ]

        first = simulator.run(300.0, seed=717)
        first_pool = simulator.container_pool
        second = simulator.run(300.0, seed=717)
        assert first.tenant("only").metrics.cold_start_invocations > 0
        assert served(second) == served(first)
        assert dataclasses.asdict(second.tenant("only").metrics) == dataclasses.asdict(
            first.tenant("only").metrics
        )
        assert second.total_cost == first.total_cost
        for counter in ("cold_starts", "warm_hits", "evictions"):
            assert getattr(simulator.container_pool, counter) == getattr(
                first_pool, counter
            )


class TestUnboundedWarmPool:
    def test_infinite_cap_equals_a_cap_above_the_invocation_count(self):
        tenants = [
            Tenant("only", get_workload("chatbot"), arrival="poisson", rate_rps=0.05)
        ]

        def run(cap):
            simulator = FleetSimulator(
                tenants, small_cluster(), options=FleetOptions(max_warm_per_function=cap)
            )
            return simulator, simulator.run(600.0, seed=717)

        unbounded_pool, unbounded = run(math.inf)
        invocations = unbounded_pool.container_pool.cold_starts + (
            unbounded_pool.container_pool.warm_hits
        )
        assert invocations > 0
        capped_pool, capped = run(invocations + 1)
        assert dataclasses.asdict(unbounded.tenant("only").metrics) == dataclasses.asdict(
            capped.tenant("only").metrics
        )

        def served(result):
            return [
                (o.index, o.dispatch_time, o.completion_time, o.cost,
                 o.cold_start_count, o.cold_start_seconds)
                for o in result.tenant("only").outcomes
            ]

        assert served(unbounded) == served(capped)
        for counter in ("cold_starts", "warm_hits", "evictions"):
            assert getattr(unbounded_pool.container_pool, counter) == getattr(
                capped_pool.container_pool, counter
            )
