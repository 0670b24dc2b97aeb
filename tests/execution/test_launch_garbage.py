"""Event-loop requests are freed by reference counting, not by the collector.

Each launch (one request incarnation) keeps its state in one object whose
events are ``functools.partial``s of its bound methods, so nothing a request
allocates refers back to it.  A reference cycle per request would make the
cyclic garbage collector's work grow with the run; here a run's garbage must
not depend on how many requests it served.
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
from repro.execution.serving import ServingSimulator
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


def serving_run(faults=None, protection=None, nodes=0):
    workload = get_workload("chatbot")
    simulator = ServingSimulator(
        workload.workflow,
        workload.build_executor(),
        cluster=Cluster.homogeneous(nodes) if nodes else None,
        slo=workload.slo,
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
        pytest.param(fleet_run, id="fleet"),
    ],
)
def test_no_request_leaves_cyclic_garbage(build):
    run = build()
    # A first run fills the caches and performs one-time set-up.  The
    # simulator stays referenced here, so its warm pool and caches are not
    # garbage; what one run leaves is its own closures and bookkeeping.
    run(20)
    assert freed_by_collection(run, 100) == freed_by_collection(run, 400)
