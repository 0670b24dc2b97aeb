"""Tests for the per-run trace-template memo shared by the serving engines."""

import gc
import weakref

import numpy as np

from repro.execution.backend import SimulatorBackend
from repro.execution.events import RequestArrival
from repro.execution.templates import TraceMemo
from repro.workloads.registry import get_workload


def make_memo(workload):
    executor = workload.build_executor()
    backend = SimulatorBackend(executor)
    memo = TraceMemo(
        backend, workload.workflow, executor.pricing, executor.cold_latencies(workload.workflow)
    )
    return memo, backend, executor


def test_template_lists_follow_the_plan_order():
    workload = get_workload("video-analysis")
    memo, _, executor = make_memo(workload)
    configuration = workload.base_configuration()
    template = memo.get(configuration, 2.5)
    trace = executor.execute(workload.workflow, configuration, input_scale=2.5)
    names = workload.workflow.plan.names
    assert template.statuses == [trace.records[name].status for name in names]
    assert template.runtimes == [trace.records[name].runtime_seconds for name in names]
    assert template.configs == [trace.records[name].config for name in names]
    assert template.deltas == [
        executor.pricing.invocation_cost(runtime + penalty, config)
        - executor.pricing.invocation_cost(runtime, config)
        for runtime, penalty, config in zip(
            template.runtimes, executor.cold_latencies(workload.workflow), template.configs
        )
    ]
    assert (template.base_cost, template.succeeded) == (trace.total_cost, trace.succeeded)


def test_each_key_is_evaluated_once_in_first_arrival_order():
    workload = get_workload("chatbot")
    memo, backend, _ = make_memo(workload)
    base = workload.base_configuration()
    # Equal by value, but a different object: identity keys it separately.
    twin = workload.base_configuration()
    requests = [RequestArrival(float(t), scale) for t, scale in enumerate((1.0, 2.0, 1.0, 2.0))]
    configurations = [base, base, twin, base]
    scales = np.asarray([r.input_scale for r in requests])
    assert memo.group(configurations, scales).tolist() == [0, 1, 2, 1]
    assert backend.stats.simulations == 3
    assert memo.get(base, 2.0) is memo.templates[1]
    assert memo.get(twin, 2.0) is memo.templates[3]
    assert backend.stats.simulations == 4


def test_new_keys_are_evaluated_in_arrival_order_not_key_order():
    workload = get_workload("chatbot")
    memo, backend, _ = make_memo(workload)
    base = workload.base_configuration()
    # The first request has the larger scale, so sorting the keys would
    # evaluate (base, 1.0) first.
    scales = np.asarray([2.0, 1.0, 2.0, 1.0])
    assert memo.group([base] * 4, scales).tolist() == [0, 1, 0, 1]
    assert [memo.templates[0], memo.templates[1]] == [memo.get(base, 2.0), memo.get(base, 1.0)]
    assert backend.stats.simulations == 2


def test_the_memo_keeps_its_keyed_configurations_alive():
    workload = get_workload("chatbot")
    memo, _, _ = make_memo(workload)
    configuration = workload.base_configuration()
    alive = weakref.ref(configuration)
    memo.get(configuration, 1.0)
    del configuration
    gc.collect()
    # Its id stays taken, so no later configuration can hit its key.
    assert alive() is not None
