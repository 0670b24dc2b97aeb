"""Unit tests for the fault-injection subsystem."""

import math

import pytest

from repro.execution.cluster import Cluster
from repro.execution.container import ContainerPool
from repro.execution.faults import (
    FAULT_PROFILE_NAMES,
    HEDGE_ATTEMPT_OFFSET,
    ExponentialBackoffRetry,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FixedRetry,
    NoRetry,
    get_fault_profile,
)
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan.none().is_empty
        assert FaultPlan().is_empty

    def test_any_fault_source_makes_it_non_empty(self):
        assert not FaultPlan(crash_probability=0.1).is_empty
        assert not FaultPlan(oom_probability=0.1).is_empty
        assert not FaultPlan(straggler_probability=0.1).is_empty
        assert not FaultPlan(timeout_seconds=10.0).is_empty
        assert not FaultPlan(timeout_overrides={"split": 5.0}).is_empty
        assert not FaultPlan(node_failures_per_hour=1.0).is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_probability=0.6, oom_probability=0.6)
        with pytest.raises(ValueError):
            FaultPlan(crash_fraction_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=0.5)
        with pytest.raises(ValueError):
            FaultPlan(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            FaultPlan(node_failures_per_hour=-1.0)

    def test_timeout_overrides_take_precedence(self):
        plan = FaultPlan(timeout_seconds=30.0, timeout_overrides={"train": 5.0})
        assert plan.timeout_for("train") == 5.0
        assert plan.timeout_for("split") == 30.0

    def test_with_seed_reroots_the_schedule(self):
        plan = FaultPlan(crash_probability=0.3, seed=1)
        assert plan.with_seed(2).seed == 2
        assert plan.with_seed(2).crash_probability == 0.3

    def test_describe_lists_active_sources(self):
        text = FaultPlan(
            crash_probability=0.1,
            node_failures_per_hour=10.0,
            retry=FixedRetry(max_attempts=3),
        ).describe()
        assert "crash" in text and "node failures" in text and "retry" in text
        assert FaultPlan.none().describe() == "no faults"


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: FaultPlan(timeout_seconds=v),
        lambda v: FaultPlan(timeout_overrides={"split": v}),
        lambda v: FaultPlan(straggler_slowdown=v),
        lambda v: FaultPlan(node_failures_per_hour=v),
        lambda v: FaultPlan(node_recovery_seconds=v),
        lambda v: ExponentialBackoffRetry(base_delay_seconds=v),
        lambda v: ExponentialBackoffRetry(multiplier=v),
        lambda v: ExponentialBackoffRetry(max_delay_seconds=v),
        lambda v: FixedRetry(delay_seconds=v),
        lambda v: FixedRetry(max_attempts=v),
    ],
    ids=[
        "timeout_seconds",
        "timeout_overrides",
        "straggler_slowdown",
        "node_failures_per_hour",
        "node_recovery_seconds",
        "base_delay_seconds",
        "multiplier",
        "max_delay_seconds",
        "delay_seconds",
        "max_attempts",
    ],
)
def test_non_finite_values_are_rejected_when_built(build, value):
    with pytest.raises(ValueError):
        build(value)


class TestRetryPolicies:
    def test_no_retry(self):
        assert NoRetry().backoff_seconds(1) is None

    def test_fixed_retry_delay_and_budget(self):
        policy = FixedRetry(max_attempts=3, delay_seconds=2.0)
        assert policy.backoff_seconds(1) == 2.0
        assert policy.backoff_seconds(2) == 2.0
        assert policy.backoff_seconds(3) is None

    def test_exponential_backoff_grows_and_caps(self):
        policy = ExponentialBackoffRetry(
            max_attempts=10, base_delay_seconds=1.0, multiplier=2.0,
            max_delay_seconds=5.0, jitter=0.0,
        )
        assert policy.backoff_seconds(1) == 1.0
        assert policy.backoff_seconds(2) == 2.0
        assert policy.backoff_seconds(3) == 4.0
        assert policy.backoff_seconds(4) == 5.0  # capped

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            FixedRetry(max_attempts=0)
        with pytest.raises(ValueError):
            ExponentialBackoffRetry(multiplier=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoffRetry(jitter=1.5)


class TestFaultInjector:
    def test_clean_plan_never_faults(self):
        injector = FaultInjector(FaultPlan.none())
        outcome = injector.plan_invocation(0, "f", 1, runtime_seconds=3.0)
        assert outcome.completed and outcome.fault is None
        assert outcome.elapsed_seconds == 3.0

    def test_certain_crash_is_partial(self):
        plan = FaultPlan(
            crash_probability=1.0, crash_fraction_range=(0.25, 0.25), seed=3
        )
        outcome = FaultInjector(plan).plan_invocation(0, "f", 1, runtime_seconds=8.0)
        assert outcome.killed and outcome.fault is FaultKind.CRASH
        assert outcome.elapsed_seconds == pytest.approx(2.0)

    def test_straggler_completes_slowly(self):
        plan = FaultPlan(straggler_probability=1.0, straggler_slowdown=3.0, seed=3)
        outcome = FaultInjector(plan).plan_invocation(0, "f", 1, runtime_seconds=4.0)
        assert outcome.completed and outcome.fault is FaultKind.STRAGGLER
        assert outcome.elapsed_seconds == pytest.approx(12.0)

    def test_timeout_kills_first(self):
        plan = FaultPlan(timeout_seconds=2.5, seed=3)
        outcome = FaultInjector(plan).plan_invocation(0, "f", 1, runtime_seconds=10.0)
        assert outcome.fault is FaultKind.TIMEOUT
        assert outcome.elapsed_seconds == 2.5

    def test_timeout_counts_cold_start(self):
        plan = FaultPlan(timeout_seconds=5.0, seed=3)
        ok = FaultInjector(plan).plan_invocation(
            0, "f", 1, runtime_seconds=3.0, cold_start_seconds=1.0
        )
        assert ok.completed
        killed = FaultInjector(plan).plan_invocation(
            0, "f", 1, runtime_seconds=3.0, cold_start_seconds=2.5
        )
        assert killed.fault is FaultKind.TIMEOUT

    def test_incarnations_draw_fresh_schedules(self):
        plan = FaultPlan(crash_probability=0.5, seed=11)
        injector = FaultInjector(plan)
        outcomes = {
            incarnation: injector.plan_invocation(
                0, "f", 1, runtime_seconds=5.0, incarnation=incarnation
            )
            for incarnation in range(6)
        }
        # Not all incarnations can share one fate at p=0.5 over 6 draws
        # (this is deterministic for the pinned seed).
        assert len({o.killed for o in outcomes.values()}) == 2

    def test_node_failure_schedule_is_sorted_and_bounded(self):
        plan = FaultPlan(node_failures_per_hour=360.0, seed=5)
        schedule = FaultInjector(plan).node_failure_schedule(600.0, ["a", "b"])
        assert schedule, "a 6/min rate over 10 minutes must strike"
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0 <= t < 600.0 for t in times)
        assert all(node in {"a", "b"} for _, node in schedule)

    def test_empty_node_schedule_without_rate(self):
        assert FaultInjector(FaultPlan.none()).node_failure_schedule(600.0, ["a"]) == []

    def test_a_plan_without_per_attempt_faults_draws_nothing(self, monkeypatch):
        def no_child(self, *labels):
            raise AssertionError(f"built a stream for {labels}")

        monkeypatch.setattr(RngStream, "child", no_child)
        plan = FaultPlan(timeout_seconds=4.0, node_failures_per_hour=30.0)
        injector = FaultInjector(plan, function_names=["a", "b"], hedging=True)
        assert injector.draw_row(0) is None
        outcome = injector.plan_invocation(0, "a", 1, runtime_seconds=3.0)
        assert outcome.completed and outcome.fault is None
        assert injector.plan_invocation(0, "a", 1, runtime_seconds=5.0).fault is (
            FaultKind.TIMEOUT
        )


#: Functions of the row tests' workflow.
FUNCTIONS = ["split", "extract", "classify"]


#: A plan whose draws hit every branch: crash and OOM kills (which use the
#: second draw), stragglers, clean runs, and jittered backoffs.
ROW_PLAN = FaultPlan(
    crash_probability=0.3,
    oom_probability=0.3,
    straggler_probability=0.2,
    crash_fraction_range=(0.15, 0.85),
    retry=ExponentialBackoffRetry(max_attempts=4, jitter=0.5),
    seed=31,
)


class TestDrawRows:
    """Reading a precomputed row must equal building the key's stream."""

    def test_covered_keys_match_the_per_key_path_field_for_field(self):
        injector = FaultInjector(ROW_PLAN, function_names=FUNCTIONS, hedging=True)
        reference = FaultInjector(ROW_PLAN)  # no rows
        seen = set()
        for index in range(0, 40):
            row = injector.draw_row(index)
            assert row is not None
            for name in FUNCTIONS:
                for attempt in (1, 2, HEDGE_ATTEMPT_OFFSET + 1):
                    fast = injector.plan_invocation(
                        index, name, attempt, 7.5, cold_start_seconds=0.25, row=row
                    )
                    slow = reference.plan_invocation(
                        index, name, attempt, 7.5, cold_start_seconds=0.25
                    )
                    assert fast == slow
                    assert type(fast.elapsed_seconds) is float
                    seen.add(fast.fault)
                fast_delay = injector.backoff_seconds(index, name, 1, row=row)
                assert fast_delay == reference.backoff_seconds(index, name, 1)
                assert type(fast_delay) is float
                seen.add("negative jitter" if fast_delay < 0.5 else "positive jitter")
        # Crash and OOM kills use the second draw; jitter takes both signs.
        assert {FaultKind.CRASH, FaultKind.OOM, FaultKind.STRAGGLER, None} <= seen
        assert {"negative jitter", "positive jitter"} <= seen

    def test_uncovered_keys_take_the_per_key_path(self, monkeypatch):
        injector = FaultInjector(ROW_PLAN, function_names=FUNCTIONS, hedging=True)
        reference = FaultInjector(ROW_PLAN)  # no rows
        row = injector.draw_row(0)
        built = []
        child = RngStream.child
        monkeypatch.setattr(
            RngStream, "child", lambda self, *labels: built.append(labels) or child(self, *labels)
        )
        for attempt, incarnation in ((3, 0), (HEDGE_ATTEMPT_OFFSET + 2, 0), (1, 1)):
            for name in FUNCTIONS:
                fast = injector.plan_invocation(
                    0, name, attempt, 7.5, incarnation=incarnation, row=row
                )
                assert built[-1] == ("invocation", 0, incarnation, name, attempt)
                assert fast == reference.plan_invocation(
                    0, name, attempt, 7.5, incarnation=incarnation
                )
                fast_delay = injector.backoff_seconds(0, name, attempt, incarnation, row)
                assert built[-1] == ("backoff", 0, incarnation, name, attempt)
                assert fast_delay == reference.backoff_seconds(0, name, attempt, incarnation)

    def test_rows_hold_only_the_waves_the_run_can_ask_for(self):
        def width(plan, hedging):
            row = FaultInjector(plan, function_names=FUNCTIONS, hedging=hedging).draw_row(0)
            return None if row is None else len(row) // (2 * len(FUNCTIONS))

        assert width(ROW_PLAN, hedging=True) == 4
        assert width(ROW_PLAN, hedging=False) == 3
        assert width(FaultPlan(crash_probability=0.2, retry=FixedRetry()), False) == 2
        assert width(FaultPlan(crash_probability=0.2), hedging=True) == 2
        assert width(FaultPlan(crash_probability=0.2), hedging=False) == 1
        assert width(FaultPlan(timeout_seconds=1.0), hedging=True) is None

    def test_blocks_follow_first_dispatch_order(self, monkeypatch):
        monkeypatch.setattr(FaultInjector, "BLOCK_REQUESTS", 4)
        injector = FaultInjector(ROW_PLAN, function_names=FUNCTIONS)
        first = injector.draw_row(2)
        assert injector.draw_row(5) is not None and injector.draw_row(5).base is first.base
        assert injector.draw_row(1) is None  # below the current block
        later = injector.draw_row(9)  # past the block: a new one starts at 9
        assert later.base is not first.base
        assert injector.draw_row(8) is None
        assert injector.draw_row(12).base is later.base


class TestFaultProfiles:
    def test_all_named_profiles_build(self):
        for name in FAULT_PROFILE_NAMES:
            if name == "default":
                continue
            plan = get_fault_profile(name, seed=9)
            assert plan.seed == 9

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            get_fault_profile("kaboom")
        with pytest.raises(KeyError):
            get_fault_profile("default")  # resolved by the caller, not here


class TestClusterNodeFailure:
    def test_fail_node_evicts_and_blocks_placement(self):
        cluster = Cluster.homogeneous(2, vcpu_per_node=4.0, memory_per_node_mb=4096.0)
        node = cluster.node("node-0")
        node.place("f#1", ResourceConfig(vcpu=2.0, memory_mb=1024.0))
        evicted = cluster.fail_node("node-0")
        assert evicted == ["f#1"]
        assert not node.healthy
        assert node.vcpu_used == 0.0 and node.memory_used_mb == 0.0
        assert not node.can_fit(ResourceConfig(vcpu=0.5, memory_mb=128.0))
        assert cluster.healthy_nodes == [cluster.node("node-1")]

    def test_fail_twice_is_noop_and_restore_recovers(self):
        cluster = Cluster.homogeneous(1)
        assert cluster.fail_node("node-0") == []
        assert cluster.fail_node("node-0") == []
        cluster.restore_node("node-0")
        assert cluster.node("node-0").healthy
        assert cluster.node("node-0").can_fit(ResourceConfig(vcpu=1.0, memory_mb=256.0))

    def test_reset_brings_failed_nodes_back(self):
        cluster = Cluster.homogeneous(1)
        cluster.fail_node("node-0")
        cluster.reset()
        assert cluster.node("node-0").healthy


class TestPoolFaultKills:
    def test_kill_counts_and_never_serves_dead_containers(self):
        pool = ContainerPool(keep_alive_seconds=100.0)
        config = ResourceConfig(vcpu=1.0, memory_mb=512.0)
        container, cold = pool.acquire("f", config, 0.0)
        assert cold
        pool.kill(container)
        assert pool.fault_kills == 1
        # The killed container was checked out, so a fresh acquire is cold.
        _, cold_again = pool.acquire("f", config, 1.0)
        assert cold_again

    def test_kill_removes_resident_container(self):
        pool = ContainerPool(keep_alive_seconds=100.0)
        config = ResourceConfig(vcpu=1.0, memory_mb=512.0)
        container, _ = pool.acquire("f", config, 0.0)
        pool.release(container, 1.0)
        pool.kill(container)  # e.g. node failure hits a warm container
        assert pool.fault_kills == 1
        assert pool.warm_count("f", 1.0) == 0
