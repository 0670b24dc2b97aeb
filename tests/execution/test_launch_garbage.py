"""Event-loop runs and requests are freed by reference counting, not by the
collector.

Each launch (one request incarnation) and each serving or fleet run keeps its
state in one object whose events are ``functools.partial``s of its bound
methods, so nothing a request or a run allocates refers back to it once its
events have fired.  A reference cycle per request would make the cyclic
garbage collector's work grow with the run, and one per run would keep the
run's loop, ledger and injector alive until the next collection; here a run
leaves no cyclic garbage at all, nor does a simulator that is dropped.
"""

import gc

import pytest

from repro.execution import serving
from repro.execution.cluster import Cluster
from repro.execution.events import RequestArrival
from repro.execution.faults import get_fault_profile
from repro.execution.fleet import FleetOptions, FleetSimulator, Tenant
from repro.execution.instances import build_cluster
from repro.execution.protection import ProtectionGuard, get_protection_profile
from repro.execution.serving import AutoscalerOptions, ServingOptions, ServingSimulator
from repro.execution.serving_vectorized import BatchedServingSimulator
from repro.workloads.registry import get_workload


def freed_by_collection(run, requests):
    """Objects one collection frees after ``run(requests)``, with collection
    paused during the run and its result still held."""
    gc.collect()
    gc.disable()
    try:
        result = run(requests)
        freed = gc.collect()
        del result
        return freed
    finally:
        gc.enable()


def serving_run(faults=None, protection=None, nodes=0, autoscale=False,
                engine=ServingSimulator):
    workload = get_workload("chatbot")
    simulator = engine(
        workload.workflow,
        workload.build_executor(),
        cluster=Cluster.homogeneous(nodes) if nodes else None,
        slo=workload.slo,
        # A 5-s tick, so that even the 20-request (10-s) run ticks.
        options=ServingOptions(
            autoscale=True,
            autoscaler=AutoscalerOptions(interval_seconds=5.0, window_seconds=20.0),
        ) if autoscale else None,
        faults=get_fault_profile(faults, seed=3) if faults else None,
        protection=get_protection_profile(protection, seed=3) if protection else None,
    )
    configuration = workload.base_configuration()

    def run(requests):
        stream = [RequestArrival(arrival_time=0.5 * i) for i in range(requests)]
        result = simulator.run(stream, lambda request: configuration)
        assert result.metrics.offered == requests
        return result

    return run


def fleet_run():
    tenants = [
        Tenant("interactive", get_workload("chatbot"), priority=1,
               arrival="constant", rate_rps=0.5),
        Tenant("pipeline", get_workload("ml-pipeline"), priority=0,
               arrival="constant", rate_rps=0.5),
    ]
    simulator = FleetSimulator(
        tenants,
        build_cluster([("m5.4xlarge", 6)], spot_spec=[("c5a.4xlarge", 2)]),
        options=FleetOptions(placement="priority", spot_evictions_per_hour=20.0),
    )

    def run(requests):
        # Two tenants at 0.5 rps each: one request per second.
        return simulator.run(float(requests), seed=3)

    return run


@pytest.fixture(autouse=True)
def held_guards(monkeypatch):
    """Keep every run's protection guard referenced.

    A guard's breaker windows hold the attempts of the run's last
    ``window_seconds``, so how many objects they free depends on how the
    run ended, not on how many requests it served.
    """
    guards = []

    class HeldGuard(ProtectionGuard):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            guards.append(self)

    monkeypatch.setattr(serving, "ProtectionGuard", HeldGuard)
    return guards


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: serving_run("chaos", "full", nodes=0), id="faulted-protected"),
        pytest.param(lambda: serving_run("chaos", "full", nodes=8), id="faulted-node-failures"),
        pytest.param(lambda: serving_run(), id="clean"),
        pytest.param(lambda: serving_run(nodes=8, autoscale=True), id="autoscaled"),
        pytest.param(
            lambda: serving_run(nodes=8, engine=BatchedServingSimulator), id="batched-delegated"
        ),
        pytest.param(lambda: serving_run(engine=BatchedServingSimulator), id="batched-cohort"),
        pytest.param(fleet_run, id="fleet"),
    ],
)
def test_no_request_leaves_cyclic_garbage(build):
    run = build()
    # A first run fills the caches and performs one-time set-up.  The
    # simulator stays referenced here, so its warm pool and caches are not
    # garbage; a run itself must leave none, whatever its size.
    run(20)
    assert freed_by_collection(run, 100) == 0
    assert freed_by_collection(run, 400) == 0
    # Dropped, the simulator and everything its runs cached are freed by
    # reference counting too.
    gc.collect()
    gc.disable()
    try:
        del run
        assert gc.collect() == 0
    finally:
        gc.enable()
