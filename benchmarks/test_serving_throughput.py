"""Serving-layer throughput studies.

Two studies share this module:

* ``test_serving_throughput_vs_arrival_rate`` drives the chatbot workload
  through the event-driven serving layer at a light, a moderate and a
  saturating Poisson arrival rate against a small cluster, and records
  simulated requests/second, tail latency and SLO attainment.  The
  saturating rate must show queueing: its p99 strictly exceeds the
  uncontended single-request latency.
* ``test_batched_engine_speedup`` is the acceptance gate for the vectorized
  serving engine: a Poisson trace served by the scalar event loop and by
  the cohort-vectorized batched engine, which must clear a ≥10×
  requests/sec speedup while reporting bit-identical metrics.  The trace
  holds 150,000 requests, the size CI's smoke job gates at.  With
  ``--update-results`` it holds 10⁶, and results land in
  ``benchmarks/results/`` as a human-readable table plus machine-readable
  ``BENCH_serving.json`` (requests/sec for both engines, request counts,
  p99, and the heap bytes each engine's result retains per request), the
  record of the 10⁶-request run.  ``REPRO_SERVING_BENCH_REQUESTS``
  overrides the length either way.
"""

import dataclasses
import gc
import json
import os
import time
import tracemalloc

import pytest

from repro.execution.backend import build_backend
from repro.execution.serving import ServingOptions
from repro.execution.serving_vectorized import build_serving_engine
from repro.experiments.serving_experiment import ServingSettings, run_serving_experiment
from repro.utils.rng import RngStream
from repro.utils.tables import Table
from repro.workloads.registry import get_workload

WORKLOAD = "chatbot"
# The cluster fits ~4 concurrent requests of ~78s each (~0.05 rps capacity):
# one rate well below capacity, one at it, one well past it.
RATES_RPS = (0.02, 0.05, 0.2)
DURATION_SECONDS = 600.0
NODES = 8


def _run_at(rate_rps: float):
    settings = ServingSettings(
        method="base",
        arrival="poisson",
        rate_rps=rate_rps,
        duration_seconds=DURATION_SECONDS,
        nodes=NODES,
        seed=2025,
    )
    started = time.perf_counter()
    report = run_serving_experiment(WORKLOAD, settings)
    return report, time.perf_counter() - started


@pytest.mark.benchmark(group="serving")
def test_serving_throughput_vs_arrival_rate(benchmark, record_result):
    reports = {rate: _run_at(rate) for rate in RATES_RPS}

    # Benchmark the representative unit of work: one full serving run at the
    # moderate rate (memoized traces, contended cluster).
    benchmark.pedantic(lambda: _run_at(RATES_RPS[1]), rounds=1, iterations=1)

    table = Table(
        [
            "rate_rps", "offered", "completed", "sim_throughput_rps",
            "p50_s", "p99_s", "slo_attainment", "queue_mean_s",
            "cold_start_rate", "wall_s",
        ],
        precision=3,
        title=(
            f"serving throughput — {WORKLOAD}, poisson arrivals, "
            f"{NODES} nodes, {DURATION_SECONDS:.0f}s horizon"
        ),
    )
    for rate in RATES_RPS:
        report, wall = reports[rate]
        metrics = report.metrics
        table.add_row(
            rate,
            metrics.offered,
            metrics.completed,
            metrics.throughput_rps,
            metrics.latency_p50_seconds,
            metrics.latency_p99_seconds,
            f"{metrics.slo_attainment * 100:.1f}%",
            metrics.queueing_mean_seconds,
            f"{metrics.cold_start_request_rate * 100:.1f}%",
            wall,
        )
    record_result("serving_throughput.txt", table.render(), timings=True)

    # Queueing is actually modelled: at the saturating rate the reported p99
    # strictly exceeds the uncontended single-request latency, and the queue
    # grows with the arrival rate.
    saturated, _ = reports[RATES_RPS[-1]]
    uncontended = max(saturated.uncontended_latency_seconds.values())
    assert saturated.metrics.latency_p99_seconds > uncontended
    queue_means = [reports[rate][0].metrics.queueing_mean_seconds for rate in RATES_RPS]
    assert queue_means == sorted(queue_means)
    # Every run completes all offered requests (the layer drains its queue).
    for rate in RATES_RPS:
        report, _ = reports[rate]
        assert report.metrics.completed + report.metrics.rejected == report.metrics.offered


# -- batched-engine speedup gate ---------------------------------------------------

#: Acceptance floor for the batched engine's requests/sec over the scalar loop.
MIN_SPEEDUP = 10.0

#: Poisson trace length of the gate in a plain run (as in CI's smoke job)...
ENGINE_REQUESTS = 150_000

#: ...and under ``--update-results``, whose ``BENCH_serving.json`` records
#: the 10⁶-request run.  ``REPRO_SERVING_BENCH_REQUESTS`` overrides both.
RECORDED_ENGINE_REQUESTS = 1_000_000

#: Arrival rate of the gate's trace — the horizon scales as requests / rate.
ENGINE_RATE_RPS = 100.0

ENGINE_SEED = 2025


def _build_engine(workload, name):
    """A fresh serving engine (own executor/pool/backend) for one timed run."""
    executor = workload.build_executor()
    return build_serving_engine(
        name,
        workflow=workload.workflow,
        executor=executor,
        backend=build_backend(executor, name="simulator", cache=True),
        cluster=None,
        slo=workload.slo,
        options=ServingOptions(),
        faults=None,
    )


def _generate(workload, engine_name, duration):
    """The gate's trace: an ``ArrivalBatch`` for the batched engine, records
    for the event loop."""
    rng = RngStream(ENGINE_SEED, f"traffic/{workload.name}")
    traffic = workload.traffic_model(arrival="poisson", rate_rps=ENGINE_RATE_RPS)
    if engine_name == "batched":
        return traffic.generate_batch(duration, rng)
    return traffic.generate(duration, rng)


def _timed_serve(workload, engine_name, configuration, duration):
    """Generate the trace and serve it; returns (result, requests, timings).

    Both phases count toward the engine's requests/sec: the batched engine's
    win comes from vectorized arrival generation *and* serving the batch as
    columns.  Garbage collection is paused around the timed region for the
    same reason as the vectorized-eval gate: a gen-2 collection landing
    inside the short batched run adds a near-constant overhead that
    compresses the ratio.
    """
    simulator = _build_engine(workload, engine_name)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        requests = _generate(workload, engine_name, duration)
        generated = time.perf_counter()
        result = simulator.run(
            requests, lambda _request: configuration, duration_seconds=duration
        )
        finished = time.perf_counter()
    finally:
        if gc_was_enabled:
            gc.enable()
    return result, requests, (generated - started, finished - generated)


#: Trace length of the retained-memory measurement (about 20,000 requests).
MEMORY_DURATION_SECONDS = 200.0


def _retained_bytes_per_request(workload, engine_name, configuration):
    """Heap bytes (tracemalloc) one engine's result retains per request.

    The trace is generated before tracing starts and the engine (with its
    warm pool) is dropped before the count, so only what the result keeps
    is counted.
    """
    duration = MEMORY_DURATION_SECONDS
    requests = _generate(workload, engine_name, duration)
    gc.collect()
    tracemalloc.start()
    try:
        result = _build_engine(workload, engine_name).run(
            requests, lambda _request: configuration, duration_seconds=duration
        )
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / len(result.outcomes), len(result.outcomes)


def _outcome_row(outcome):
    return (
        outcome.index,
        outcome.request,
        outcome.dispatch_time,
        outcome.completion_time,
        outcome.cost,
        outcome.cold_start_count,
        outcome.cold_start_seconds,
        outcome.succeeded,
    )


def _engine_requests(config) -> int:
    """The gate's trace length: the environment's, else by ``--update-results``."""
    override = os.environ.get("REPRO_SERVING_BENCH_REQUESTS")
    if override:
        return int(override)
    if config.getoption("--update-results"):
        return RECORDED_ENGINE_REQUESTS
    return ENGINE_REQUESTS


@pytest.mark.benchmark(group="serving")
def test_batched_engine_speedup(benchmark, record_result, request):
    workload = get_workload(WORKLOAD)
    configuration = workload.base_configuration()
    duration = _engine_requests(request.config) / ENGINE_RATE_RPS

    event_result, event_requests, (event_gen, event_run) = _timed_serve(
        workload, "event", configuration, duration
    )
    batched_result, batched_requests, (batched_gen, batched_run) = _timed_serve(
        workload, "batched", configuration, duration
    )

    # The engines see the *same* trace and report the *same* outcomes and
    # metrics — the batched engine changes how fast a stream is served,
    # never what it observes.  (The differential test tier asserts this on
    # smaller streams; the gate re-asserts it on the exact stream it timed.)
    assert batched_requests.to_requests() == event_requests
    assert len(batched_result.outcomes) == len(event_result.outcomes)
    for event_outcome, batched_outcome in zip(
        event_result.outcomes, batched_result.outcomes
    ):
        assert _outcome_row(batched_outcome) == _outcome_row(event_outcome)
    assert dataclasses.asdict(batched_result.metrics) == dataclasses.asdict(
        event_result.metrics
    )

    n = len(event_requests)
    event_total = event_gen + event_run
    batched_total = batched_gen + batched_run
    speedup = event_total / batched_total
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x acceptance floor ({n} requests)"
    )

    # What each engine's result keeps per request: the event loop's records
    # against the batched engine's outcome columns.  Measured only for the
    # record, since the event side serves another 20,000 requests.
    retained = {}
    if request.config.getoption("--update-results"):
        retained = {
            name: _retained_bytes_per_request(workload, name, configuration)
            for name in ("event", "batched")
        }

    table = Table(
        ["engine", "generate_s", "serve_s", "total_s", "requests_per_s"],
        precision=3,
        title=(
            f"serving engine speedup — {WORKLOAD}, poisson @ "
            f"{ENGINE_RATE_RPS:.0f} rps, {n} requests, uncapped cluster "
            f"(gate: >= {MIN_SPEEDUP:.0f}x)"
        ),
    )
    table.add_row("event", event_gen, event_run, event_total, n / event_total)
    table.add_row("batched", batched_gen, batched_run, batched_total, n / batched_total)
    rendering = table.render() + f"\nspeedup: {speedup:.1f}x" + "".join(
        f"\n{name} result retains {per_request:.1f} B/request "
        f"({count} requests)"
        for name, (per_request, count) in retained.items()
    )
    record_result("serving_engine_speedup.txt", rendering, timings=True)

    metrics = event_result.metrics
    payload = {
        "engine_speedup": {
            "workload": WORKLOAD,
            "arrival": "poisson",
            "rate_rps": ENGINE_RATE_RPS,
            "duration_seconds": duration,
            "nodes": 0,
            "seed": ENGINE_SEED,
            "requests": n,
            "completed": metrics.completed,
            "rejected": metrics.rejected,
            "latency_p50_seconds": metrics.latency_p50_seconds,
            "latency_p99_seconds": metrics.latency_p99_seconds,
            "event": {
                "generate_seconds": event_gen,
                "serve_seconds": event_run,
                "total_seconds": event_total,
                "requests_per_second": n / event_total,
            },
            "batched": {
                "generate_seconds": batched_gen,
                "serve_seconds": batched_run,
                "total_seconds": batched_total,
                "requests_per_second": n / batched_total,
            },
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "metrics_identical": True,
        },
    }
    if retained:
        payload["result_memory"] = {
            "requests": retained["event"][1],
            "event_bytes_per_request": retained["event"][0],
            "batched_bytes_per_request": retained["batched"][0],
            "note": (
                "tracemalloc heap bytes a serving result retains per request: "
                "the event loop's records vs. the batched engine's outcome "
                "columns, on a Poisson trace generated before tracing starts"
            ),
        }
    record_result(
        "BENCH_serving.json", json.dumps(payload, indent=2, sort_keys=True), timings=True
    )

    # Benchmark the representative unit of work: one batched serve of the
    # already-generated stream.
    simulator = _build_engine(workload, "batched")
    benchmark.pedantic(
        lambda: simulator.run(
            batched_requests,
            lambda _request: configuration,
            duration_seconds=duration,
        ),
        rounds=1,
        iterations=1,
    )
