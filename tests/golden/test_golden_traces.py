"""Golden-trace regression fixtures for end-to-end serving, fleet and search runs.

Seeded runs are snapshotted to ``tests/data/golden/*.json``; these tests
compare the current behaviour against the recorded one *exactly* (floats
survive a JSON round-trip bit-for-bit), the way
``tests/data/bo_seed_trajectories.json`` already locks the BO trajectories
down.  After an intentional behaviour change, refresh the fixtures with::

    pytest tests/golden --update-golden

The empty-fault-plan test doubles as the fault layer's core invariant: a
serving run with an empty :class:`~repro.execution.faults.FaultPlan` must
reproduce the recorded fault-free traces bit-identically.
"""

import dataclasses
import json
import os

import pytest

from repro.control.controller import ControllerOptions
from repro.execution.faults import ExponentialBackoffRetry, FaultPlan, FixedRetry
from repro.execution.fleet import FleetOptions, FleetSimulator, Tenant
from repro.execution.instances import build_cluster
from repro.execution.protection import ProtectionPolicy
from repro.experiments.harness import ExperimentSettings, build_objective, make_searcher
from repro.experiments.serving_experiment import ServingSettings, run_serving_experiment
from repro.workflow.serialization import configuration_to_dict
from repro.workloads.arrivals import TrafficPhase, TrafficProfile
from repro.workloads.registry import get_workload

SERVING_SETTINGS = ServingSettings(
    method="base",
    arrival="poisson",
    rate_rps=0.4,
    duration_seconds=90.0,
    nodes=2,
    seed=424242,
)

#: Drifting-traffic settings shared by the adaptive goldens: a steady stream
#: served from the base configuration, with one scheduled re-tune rolled out
#: through a canary.  The promote/rollback split comes from the canary's
#: latency guard alone, so the two fixtures pin both decision paths.
ADAPTIVE_SETTINGS = ServingSettings(
    method="base",
    duration_seconds=1800.0,
    nodes=4,
    seed=424242,
    phases=(
        TrafficPhase("steady", 0.0, TrafficProfile(arrival="constant", rate_rps=0.02)),
    ),
    adaptive=True,
    detector="scheduled",
    detector_options={"interval_seconds": 500.0},
    rollout="canary",
    rollout_options={"fraction": 0.5, "evaluation_requests": 4, "min_stable": 2},
    controller=ControllerOptions(
        window_seconds=400.0,
        min_window_completions=4,
        min_retune_interval_seconds=200.0,
    ),
)


def adaptive_snapshot(rollout_options=None):
    """Run the pinned adaptive experiment and flatten it to JSON-safe data."""
    settings = ADAPTIVE_SETTINGS
    if rollout_options is not None:
        settings = dataclasses.replace(settings, rollout_options=rollout_options)
    report = run_serving_experiment("chatbot", settings)
    control = report.control
    metrics = report.metrics
    return {
        "workload": report.workload,
        "traffic": report.traffic_description,
        "requests": [
            {
                "index": outcome.index,
                "arrival": outcome.arrival_time,
                "dispatch": outcome.dispatch_time,
                "completion": outcome.completion_time,
                "cost": outcome.cost,
                "version": outcome.config_version,
            }
            for outcome in report.result.outcomes
        ],
        "metrics": {
            "completed": metrics.completed,
            "latency_p50": metrics.latency_p50_seconds,
            "latency_p99": metrics.latency_p99_seconds,
            "mean_cost_per_request": metrics.mean_cost_per_request,
            "slo_attainment": metrics.slo_attainment,
        },
        "control": {
            "retunes": control.retunes,
            "promotions": control.promotions,
            "rollbacks": control.rollbacks,
            "failed_retunes": control.failed_retunes,
            "final_version": control.final_version,
            "version_completions": {
                str(version): count
                for version, count in control.version_completions.items()
            },
            "events": [
                {
                    "time": event.time,
                    "kind": event.kind,
                    "version": event.version,
                }
                for event in control.events
            ],
        },
    }


def serving_snapshot(faults=None, adaptive_null=False, protection=None):
    """Run the pinned serving experiment and flatten it to JSON-safe data."""
    settings = SERVING_SETTINGS
    if faults is not None:
        settings = dataclasses.replace(settings, faults=faults)
    if protection is not None:
        settings = dataclasses.replace(settings, protection=protection)
    if adaptive_null:
        # The full adaptive machinery with a detector that never fires: must
        # be indistinguishable from the static run.
        settings = dataclasses.replace(
            settings, adaptive=True, detector="null", rollout="canary"
        )
    report = run_serving_experiment("chatbot", settings)
    metrics = report.metrics
    return {
        "workload": report.workload,
        "traffic": report.traffic_description,
        "requests": [
            {
                "index": outcome.index,
                "arrival": outcome.arrival_time,
                "dispatch": outcome.dispatch_time,
                "completion": outcome.completion_time,
                "cost": outcome.cost,
                "cold_starts": outcome.cold_start_count,
                "cold_start_seconds": outcome.cold_start_seconds,
                "succeeded": outcome.succeeded,
            }
            for outcome in report.result.outcomes
        ],
        "rejected": len(report.result.rejected),
        "metrics": {
            "completed": metrics.completed,
            "throughput_rps": metrics.throughput_rps,
            "latency_p50": metrics.latency_p50_seconds,
            "latency_p95": metrics.latency_p95_seconds,
            "latency_p99": metrics.latency_p99_seconds,
            "queueing_mean": metrics.queueing_mean_seconds,
            "slo_attainment": metrics.slo_attainment,
            "mean_cost_per_request": metrics.mean_cost_per_request,
            "total_cost": metrics.total_cost,
            "cold_start_invocations": metrics.cold_start_invocations,
        },
        "backend": {
            "evaluations": report.backend_stats.evaluations,
            "simulations": report.backend_stats.simulations,
            "cache_hits": report.backend_stats.cache_hits,
            "cache_misses": report.backend_stats.cache_misses,
            "cold_starts": report.backend_stats.cold_starts,
            "warm_hits": report.backend_stats.warm_hits,
            "evictions": report.backend_stats.evictions,
        },
    }


#: Protected-run goldens.  The overload settings mirror the
#: ``overload-brownout`` scenario cell (tight queue + crashes + the ``full``
#: protection profile); the breaker-storm settings drive a crash rate past
#: the ``breakers`` profile's failure threshold so the fixtures pin actual
#: breaker state transitions, not just the clean path.
PROTECTED_OVERLOAD_SETTINGS = dataclasses.replace(
    SERVING_SETTINGS,
    rate_rps=0.6,
    queue_capacity=4,
    faults=FaultPlan(
        crash_probability=0.2,
        retry=ExponentialBackoffRetry(max_attempts=4, base_delay_seconds=0.5),
        seed=SERVING_SETTINGS.seed,
    ),
    protection="full",
)

BREAKER_STORM_SETTINGS = dataclasses.replace(
    SERVING_SETTINGS,
    faults=FaultPlan(
        crash_probability=0.5,
        retry=FixedRetry(max_attempts=2, delay_seconds=0.5),
        seed=SERVING_SETTINGS.seed,
    ),
    protection="breakers",
)


def protection_snapshot(settings):
    """Run a protected serving experiment and flatten it to JSON-safe data.

    On top of the per-request trace this records the degradation
    bookkeeping — rejection causes, hedge/breaker/deadline counters and the
    timestamped protection events — so a refresh that silently stops
    protecting would change the fixture visibly.
    """
    report = run_serving_experiment("chatbot", settings)
    metrics = report.metrics
    return {
        "workload": report.workload,
        "traffic": report.traffic_description,
        "protection": report.protection_description,
        "requests": [
            {
                "index": outcome.index,
                "arrival": outcome.arrival_time,
                "dispatch": outcome.dispatch_time,
                "completion": outcome.completion_time,
                "cost": outcome.cost,
                "succeeded": outcome.succeeded,
                "attempts": outcome.attempts,
                "hedges": outcome.hedges,
                "hedge_wins": outcome.hedge_wins,
            }
            for outcome in report.result.outcomes
        ],
        "rejected": len(report.result.rejected),
        "rejected_by_cause": dict(metrics.rejected_by_cause),
        "metrics": {
            "completed": metrics.completed,
            "throughput_rps": metrics.throughput_rps,
            "latency_p50": metrics.latency_p50_seconds,
            "latency_p99": metrics.latency_p99_seconds,
            "queueing_mean": metrics.queueing_mean_seconds,
            "slo_attainment": metrics.slo_attainment,
            "total_cost": metrics.total_cost,
            "hedges_launched": metrics.hedges_launched,
            "hedge_wins": metrics.hedge_wins,
            "breaker_opens": metrics.breaker_opens,
            "deadline_kills": metrics.deadline_kills,
        },
        "protection_events": [
            [when, kind, detail]
            for when, kind, detail in report.result.protection_events
        ],
    }


def search_snapshot():
    """Run the pinned search experiments and flatten them to JSON-safe data."""
    snapshot = {}
    for method in ("AARC", "Random"):
        settings = ExperimentSettings(seed=20260730, bo_samples=40)
        searcher = make_searcher(method, get_chatbot(), settings)
        objective = build_objective(get_chatbot(), settings)
        result = searcher.search(objective)
        snapshot[method] = {
            "sample_count": result.sample_count,
            "total_runtime_seconds": result.total_search_runtime_seconds,
            "total_cost": result.total_search_cost,
            "found_feasible": result.found_feasible,
            "best_runtime_seconds": result.best_runtime_seconds,
            "best_cost": result.best_cost,
            "best_configuration": (
                configuration_to_dict(result.best_configuration)
                if result.found_feasible
                else None
            ),
            "runtime_series": result.history.runtime_series(),
            "cost_series": result.history.cost_series(),
        }
    return snapshot


def get_chatbot():
    return get_workload("chatbot")


def check_golden(golden_dir: str, name: str, payload, update: bool) -> None:
    """Compare ``payload`` against the stored fixture (or rewrite it)."""
    path = os.path.join(golden_dir, name)
    if update:
        os.makedirs(golden_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    if not os.path.exists(path):
        pytest.fail(
            f"golden fixture {name!r} is missing; generate it with "
            "`pytest tests/golden --update-golden`"
        )
    with open(path, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    # Round-trip the fresh payload through JSON so both sides carry the same
    # types (tuples become lists, ints stay ints, floats are bit-exact).
    actual = json.loads(json.dumps(payload))
    assert actual == expected, (
        f"behaviour diverged from golden fixture {name!r}; if the change is "
        "intentional, refresh with `pytest tests/golden --update-golden`"
    )


class TestServingGolden:
    def test_seeded_serving_run_matches_golden(self, golden_dir, update_golden):
        check_golden(
            golden_dir, "serving_chatbot.json", serving_snapshot(), update_golden
        )

    def test_empty_fault_plan_reproduces_golden_bit_identically(
        self, golden_dir, update_golden
    ):
        """The fault layer's core invariant, asserted against the recording.

        A run with an *empty* fault plan must be indistinguishable from the
        recorded fault-free behaviour — never refreshed from its own output,
        so it cannot drift along with the clean-path fixture.
        """
        if update_golden:
            pytest.skip("fixture is owned by the fault-free serving test")
        check_golden(
            golden_dir,
            "serving_chatbot.json",
            serving_snapshot(faults=FaultPlan.none()),
            update=False,
        )

    def test_faulted_serving_run_matches_golden(self, golden_dir, update_golden):
        """The crash/retry schedule itself is pinned, not just the clean path."""
        check_golden(
            golden_dir,
            "serving_chatbot_crashes.json",
            serving_snapshot(faults="crashes"),
            update_golden,
        )

    def test_null_drift_detector_is_byte_identical_to_static_serving(
        self, golden_dir, update_golden
    ):
        """The control layer's core invariant, asserted against the recording.

        An adaptive run whose detector never fires must reproduce the
        recorded *static* serving behaviour bit-identically — the controller
        schedules no events of its own and assigns the same configuration
        object, so its mere presence cannot perturb the run.  Never
        refreshed from its own output.
        """
        if update_golden:
            pytest.skip("fixture is owned by the fault-free serving test")
        check_golden(
            golden_dir,
            "serving_chatbot.json",
            serving_snapshot(adaptive_null=True),
            update=False,
        )


class TestProtectionGolden:
    def test_empty_protection_policy_reproduces_golden_bit_identically(
        self, golden_dir, update_golden
    ):
        """The protection layer's core invariant, asserted against the recording.

        A run with an *empty* :class:`ProtectionPolicy` must be
        indistinguishable from the recorded unprotected behaviour — never
        refreshed from its own output, so it cannot drift along with the
        clean-path fixture.
        """
        if update_golden:
            pytest.skip("fixture is owned by the fault-free serving test")
        check_golden(
            golden_dir,
            "serving_chatbot.json",
            serving_snapshot(protection=ProtectionPolicy.none()),
            update=False,
        )

    def test_protected_overload_run_matches_golden(self, golden_dir, update_golden):
        snapshot = protection_snapshot(PROTECTED_OVERLOAD_SETTINGS)
        # The fixture must pin actual degradation decisions — a refresh
        # that silently stops protecting would defeat the test.
        assert sum(snapshot["rejected_by_cause"].values()) == snapshot["rejected"]
        assert set(snapshot["rejected_by_cause"]) - {"queue-full"}
        check_golden(
            golden_dir, "serving_protected_overload.json", snapshot, update_golden
        )

    def test_breaker_storm_run_matches_golden(self, golden_dir, update_golden):
        snapshot = protection_snapshot(BREAKER_STORM_SETTINGS)
        assert snapshot["metrics"]["breaker_opens"] >= 1
        assert any(
            kind.startswith("breaker-") for _, kind, _ in snapshot["protection_events"]
        )
        check_golden(
            golden_dir, "serving_breaker_storm.json", snapshot, update_golden
        )


class TestAdaptiveGolden:
    def test_drift_with_canary_promote_matches_golden(self, golden_dir, update_golden):
        snapshot = adaptive_snapshot()
        # The fixture must actually pin a promoted canary rollout — a
        # refresh that silently loses the promote would defeat the test.
        assert snapshot["control"]["promotions"] >= 1
        assert snapshot["control"]["rollbacks"] == 0
        assert snapshot["control"]["final_version"] > 0
        check_golden(
            golden_dir, "serving_adaptive_canary.json", snapshot, update_golden
        )

    def test_drift_with_rollback_matches_golden(self, golden_dir, update_golden):
        # A strict latency guard vetoes the slower (cheaper) candidate, so
        # the same run resolves in a rollback instead of a promote.
        snapshot = adaptive_snapshot(
            rollout_options={
                "fraction": 0.5,
                "evaluation_requests": 4,
                "min_stable": 2,
                "latency_tolerance": 0.15,
            }
        )
        assert snapshot["control"]["rollbacks"] >= 1
        assert snapshot["control"]["final_version"] == 0
        check_golden(
            golden_dir, "serving_adaptive_rollback.json", snapshot, update_golden
        )


def fleet_snapshot():
    """Run the pinned fleet and flatten it to JSON-safe data.

    Three tenants queue for a 36-node heterogeneous cluster with spot
    evictions under priority placement.  Placement shows up in the results
    twice: each function is billed at its hosting node's price multiplier,
    and only requests hosted on an evicted spot node restart.
    """
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
    options = FleetOptions(placement="priority", spot_evictions_per_hour=20.0)
    result = FleetSimulator(tenants, cluster, options=options).run(200.0, seed=717)
    return {
        "tenants": {
            name: {
                "requests": [
                    {
                        "index": outcome.index,
                        "arrival": outcome.arrival_time,
                        "dispatch": outcome.dispatch_time,
                        "completion": outcome.completion_time,
                        "cost": outcome.cost,
                        "cold_starts": outcome.cold_start_count,
                        "restarts": outcome.restarts,
                        "wasted_seconds": outcome.wasted_seconds,
                    }
                    for outcome in tenant.outcomes
                ],
                "rejected_by_cause": dict(tenant.rejected_by_cause),
                "metrics": {
                    "completed": tenant.metrics.completed,
                    "latency_p50": tenant.metrics.latency_p50_seconds,
                    "latency_p99": tenant.metrics.latency_p99_seconds,
                    "queueing_mean": tenant.metrics.queueing_mean_seconds,
                    "total_cost": tenant.metrics.total_cost,
                },
            }
            for name, tenant in result.tenants.items()
        },
        "total_cost": result.total_cost,
        "cpu_utilization": result.cpu_utilization,
        "memory_utilization": result.memory_utilization,
        "peak_concurrency": result.peak_concurrency,
        "mean_concurrency": result.mean_concurrency,
        "spot_evictions": result.spot_evictions,
        "interference_stretched": result.interference_stretched,
        "mean_stretch": result.mean_stretch,
    }


class TestFleetGolden:
    def test_priority_fleet_with_spot_evictions_matches_golden(
        self, golden_dir, update_golden
    ):
        snapshot = fleet_snapshot()
        # The fixture must pin contended placement under evictions: a
        # refresh that loses the evictions or the restarts they cause would
        # no longer cover what the fleet's placement decides.
        assert snapshot["spot_evictions"] >= 1
        assert any(
            request["restarts"]
            for tenant in snapshot["tenants"].values()
            for request in tenant["requests"]
        )
        check_golden(golden_dir, "fleet_priority_spot.json", snapshot, update_golden)


class TestSearchGolden:
    def test_seeded_search_runs_match_golden(self, golden_dir, update_golden):
        check_golden(
            golden_dir, "search_chatbot.json", search_snapshot(), update_golden
        )
