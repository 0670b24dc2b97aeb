"""Hypothesis property tests for the fault-injection layer.

Four invariants the subsystem promises:

* the fault schedule is a pure function of the plan's seed (same seed ⇒
  identical schedule, regardless of query order);
* an empty plan leaves the serving layer byte-identical to running with no
  plan at all (the serving layer gives such a run the empty plan's
  injector, so both take the same attempt-by-attempt path);
* retries never exceed the policy's ``max_attempts`` budget;
* conservation — every admitted request ends exactly once (completed,
  failed-terminal, or rejected), even under crashes and node failures.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.backend import SimulatorBackend
from repro.execution.cluster import Cluster
from repro.execution.events import RequestArrival
from repro.execution.faults import (
    ExponentialBackoffRetry,
    FaultInjector,
    FaultPlan,
    FixedRetry,
    NoRetry,
    RetryPolicy,
)
from repro.execution.serving import ServingOptions, ServingSimulator
from repro.pricing.model import PAPER_PRICING
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration


def build_plan(seed, crash, oom, straggler, node_rate, max_attempts) -> FaultPlan:
    return FaultPlan(
        crash_probability=crash,
        oom_probability=oom,
        straggler_probability=straggler,
        node_failures_per_hour=node_rate,
        node_recovery_seconds=20.0,
        retry=ExponentialBackoffRetry(
            max_attempts=max_attempts, base_delay_seconds=0.5, jitter=0.3
        ),
        seed=seed,
    )


probabilities = st.floats(min_value=0.0, max_value=0.3)


class TestScheduleDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        crash=probabilities,
        oom=probabilities,
        straggler=probabilities,
        node_rate=st.floats(min_value=0.0, max_value=120.0),
        max_attempts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_seed_yields_identical_schedule(
        self, seed, crash, oom, straggler, node_rate, max_attempts
    ):
        plan = build_plan(seed, crash, oom, straggler, node_rate, max_attempts)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        nodes = ["node-0", "node-1", "node-2"]
        assert first.node_failure_schedule(600.0, nodes) == second.node_failure_schedule(
            600.0, nodes
        )
        for request_index in range(4):
            for function_name in ("split", "train", "merge"):
                for attempt in (1, 2, 3):
                    args = (request_index, function_name, attempt)
                    assert first.plan_invocation(
                        *args, runtime_seconds=7.5, cold_start_seconds=0.4
                    ) == second.plan_invocation(
                        *args, runtime_seconds=7.5, cold_start_seconds=0.4
                    )
                    assert first.backoff_seconds(*args) == second.backoff_seconds(*args)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_schedule_is_query_order_independent(self, seed):
        plan = build_plan(seed, 0.2, 0.1, 0.1, 0.0, 3)
        forward = FaultInjector(plan)
        backward = FaultInjector(plan)
        keys = [(r, f, a) for r in range(3) for f in ("a", "b") for a in (1, 2)]
        asked_forward = {
            key: forward.plan_invocation(*key, runtime_seconds=3.0) for key in keys
        }
        asked_backward = {
            key: backward.plan_invocation(*key, runtime_seconds=3.0)
            for key in reversed(keys)
        }
        assert asked_forward == asked_backward


class TestRetryBudget:
    @given(
        max_attempts=st.integers(min_value=1, max_value=6),
        policy_kind=st.sampled_from(["fixed", "exponential"]),
        attempt=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_backoff_never_granted_past_max_attempts(
        self, max_attempts, policy_kind, attempt, seed
    ):
        policy: RetryPolicy
        if policy_kind == "fixed":
            policy = FixedRetry(max_attempts=max_attempts, delay_seconds=1.0)
        else:
            policy = ExponentialBackoffRetry(max_attempts=max_attempts, jitter=0.5)
        delay = policy.backoff_seconds(attempt, RngStream(seed, "jitter"))
        if attempt >= max_attempts:
            assert delay is None
        else:
            assert delay is not None and delay >= 0.0

    def test_no_retry_always_declines(self):
        assert NoRetry().backoff_seconds(1) is None


# -- serving-level properties on a small diamond workflow -------------------------
# Built at module scope (not via the conftest fixtures) because hypothesis
# forbids function-scoped fixtures inside @given tests; both sides are
# read-only, freshly wrapped in an executor per run.

from repro.perfmodel.analytic import FunctionProfile  # noqa: E402
from repro.perfmodel.registry import PerformanceModelRegistry  # noqa: E402
from repro.workflow.dag import FunctionSpec, Workflow  # noqa: E402

DIAMOND_WORKFLOW = Workflow(
    name="faults-diamond",
    functions=[
        FunctionSpec("entry"),
        FunctionSpec("left"),
        FunctionSpec("right"),
        FunctionSpec("exit"),
    ],
    edges=[("entry", "left"), ("entry", "right"), ("left", "exit"), ("right", "exit")],
)

DIAMOND_REGISTRY = PerformanceModelRegistry.from_profiles(
    [
        FunctionProfile(
            name="entry", cpu_seconds=1.0, io_seconds=1.0, parallel_fraction=0.5,
            working_set_mb=128.0, comfortable_memory_mb=192.0,
        ),
        FunctionProfile(
            name="left", cpu_seconds=8.0, io_seconds=1.0, parallel_fraction=0.9,
            max_parallelism=8.0, working_set_mb=256.0, comfortable_memory_mb=384.0,
        ),
        FunctionProfile(
            name="right", cpu_seconds=4.0, io_seconds=2.0, parallel_fraction=0.5,
            working_set_mb=192.0, comfortable_memory_mb=256.0,
        ),
        FunctionProfile(
            name="exit", cpu_seconds=2.0, io_seconds=1.0, parallel_fraction=0.5,
            working_set_mb=128.0, comfortable_memory_mb=192.0,
        ),
    ]
)


def serve(plan, n_requests=12, nodes=2, seed=5):
    from repro.execution.executor import WorkflowExecutor

    executor = WorkflowExecutor(
        performance_model=DIAMOND_REGISTRY, pricing=PAPER_PRICING
    )
    simulator = ServingSimulator(
        workflow=DIAMOND_WORKFLOW,
        executor=executor,
        backend=SimulatorBackend(executor),
        cluster=Cluster.homogeneous(nodes, vcpu_per_node=8.0, memory_per_node_mb=8192.0),
        options=ServingOptions(),
        faults=plan,
    )
    configuration = WorkflowConfiguration.uniform(
        DIAMOND_WORKFLOW.function_names, ResourceConfig(vcpu=2.0, memory_mb=1024.0)
    )
    gaps = RngStream(seed, "gaps")
    t = 0.0
    requests = []
    for _ in range(n_requests):
        requests.append(RequestArrival(arrival_time=t))
        t += gaps.exponential(5.0)
    return simulator.run(requests, lambda _request: configuration)


def outcome_signature(result):
    return [
        (
            outcome.index,
            outcome.dispatch_time,
            outcome.completion_time,
            outcome.cost,
            outcome.cold_start_count,
            outcome.cold_start_seconds,
            outcome.succeeded,
        )
        for outcome in result.outcomes
    ]


class TestServingProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_empty_plan_is_byte_identical_to_no_injector(self, seed):
        clean = serve(plan=None, seed=seed)
        empty = serve(plan=FaultPlan.none(), seed=seed)
        assert outcome_signature(clean) == outcome_signature(empty)
        assert clean.metrics == empty.metrics

    @given(
        crash=st.floats(min_value=0.1, max_value=0.6),
        max_attempts=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_attempts_bounded_by_retry_budget(self, crash, max_attempts, seed):
        plan = FaultPlan(
            crash_probability=crash,
            retry=FixedRetry(max_attempts=max_attempts, delay_seconds=0.5),
            seed=seed,
        )
        result = serve(plan, seed=seed)
        for outcome in result.outcomes:
            assert outcome.restarts == 0  # no node failures in this plan
            assert outcome.attempts <= outcome.base_invocations * max_attempts
            if outcome.base_invocations:
                assert outcome.attempts >= 1

    @given(
        crash=st.floats(min_value=0.0, max_value=0.4),
        node_rate=st.floats(min_value=0.0, max_value=600.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_admitted_request_ends_exactly_once(self, crash, node_rate, seed):
        plan = FaultPlan(
            crash_probability=crash,
            node_failures_per_hour=node_rate,
            node_recovery_seconds=10.0,
            retry=ExponentialBackoffRetry(max_attempts=3),
            seed=seed,
        )
        result = serve(plan, seed=seed)
        indices = [outcome.index for outcome in result.outcomes]
        assert len(indices) == len(set(indices))  # nobody finishes twice
        assert len(result.outcomes) + len(result.rejected) == result.metrics.offered
        for outcome in result.outcomes:
            # Exactly one terminal state: completed-success or failed.
            assert isinstance(outcome.succeeded, bool)
