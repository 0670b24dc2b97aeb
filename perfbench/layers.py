"""Which of the program's public callables the traced run times, and how
their spans and the workloads' exact counters become per-layer metrics."""

from __future__ import annotations

from typing import Dict

import repro.core.scheduler as scheduler_module
from repro.core.aarc import AARC
from repro.core.configurator import PriorityConfigurator
from repro.core.objective import WorkflowObjective
from repro.core.scheduler import GraphCentricScheduler
from repro.execution.backend import CachingBackend, SimulatorBackend
from repro.execution.cluster import Node
from repro.execution.container import ContainerPool
from repro.execution.events import EventLoop
from repro.execution.executor import WorkflowExecutor
from repro.execution.faults import FaultInjector
from repro.execution.fleet import FleetSimulator
from repro.execution.protection import ProtectionGuard
from repro.execution.serving import ServingSimulator
from repro.execution.serving_vectorized import BatchedServingSimulator
from repro.optimizers.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
)
from repro.optimizers.bayesian import BayesianOptimizer
from repro.optimizers.gp import GaussianProcessRegressor
from repro.optimizers.maff import MAFFOptimizer
from repro.perfmodel.analytic import AnalyticFunctionModel
from repro.utils.rng import RngStream
from repro.workloads.arrivals import TrafficModel

from tracing import Tracer
from workloads import REJECTION_CAUSES

# (owner, attribute, span name, collapse nested calls of the same name)
TIMED = (
    (TrafficModel, "generate", "arrivals.generate", False),
    (TrafficModel, "generate_batch", "arrivals.generate_batch", False),
    (BatchedServingSimulator, "run", "serving_vectorized.run", False),
    (ServingSimulator, "run", "serving.run", False),
    (EventLoop, "run", "events.run", False),
    (FaultInjector, "plan_invocation", "faults.plan_invocation", False),
    (FaultInjector, "backoff_seconds", "faults.backoff_seconds", False),
    (RngStream, "child", "rng.child", False),
    (ProtectionGuard, "admit", "protection.admit", False),
    (ProtectionGuard, "observe_attempt", "protection.observe_attempt", False),
    (ProtectionGuard, "hedge_delay", "protection.hedge_delay", False),
    (ProtectionGuard, "observe_completion", "protection.observe_completion", False),
    (CachingBackend, "evaluate", "backend.evaluate", True),
    (SimulatorBackend, "evaluate", "backend.evaluate", True),
    (CachingBackend, "evaluate_batch", "backend.evaluate_batch", True),
    (SimulatorBackend, "evaluate_batch", "backend.evaluate_batch", True),
    (WorkflowExecutor, "execute", "executor.execute", False),
    (AnalyticFunctionModel, "estimate", "perfmodel.estimate", True),
    (ContainerPool, "acquire", "container.acquire", False),
    (ContainerPool, "release", "container.release", False),
    (FleetSimulator, "run", "fleet.run", False),
    (AARC, "search", "core.aarc.search", False),
    (GraphCentricScheduler, "schedule", "core.scheduler.schedule", False),
    (PriorityConfigurator, "configure_path", "core.configurator.configure_path", False),
    # The scheduler calls these two by their names in its own module.
    (scheduler_module, "find_critical_path", "core.critical_path.find_critical_path", False),
    (scheduler_module, "find_detour_subpaths", "core.critical_path.find_detour_subpaths", False),
    (WorkflowObjective, "evaluate", "core.objective.evaluate", False),
    (WorkflowObjective, "evaluate_batch", "core.objective.evaluate_batch", False),
    (BayesianOptimizer, "search", "optimizers.bo.search", False),
    (MAFFOptimizer, "search", "optimizers.maff.search", False),
    (GaussianProcessRegressor, "predict", "optimizers.gp.predict", False),
    (GaussianProcessRegressor, "update", "optimizers.gp.update", False),
    (GaussianProcessRegressor, "fit", "optimizers.gp.fit", False),
    (ExpectedImprovement, "score", "optimizers.acquisition.score", True),
    (ProbabilityOfImprovement, "score", "optimizers.acquisition.score", True),
    (LowerConfidenceBound, "score", "optimizers.acquisition.score", True),
)

COUNTED = (
    (Node, "place", "cluster.place.calls"),
    (Node, "remove", "cluster.remove.calls"),
)


def register(tracer: Tracer) -> None:
    """Register a wrapper for every layer boundary the per-layer metrics are
    read from (they take effect while the tracer is active)."""
    hooks = {
        "arrivals.generate": lambda requests: tracer.add("arrivals.requests", len(requests)),
        "arrivals.generate_batch": lambda batch: tracer.add("arrivals.requests", len(batch)),
        "events.run": lambda processed: tracer.add("events.processed", processed),
    }
    for name in ("arrivals.requests", "events.processed"):
        tracer.add(name, 0)
    for owner, attr, name, collapse in TIMED:
        tracer.time_calls(owner, attr, name, collapse=collapse, on_result=hooks.get(name))
    for owner, attr, name in COUNTED:
        tracer.count_calls(owner, attr, name)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def iteration_metrics(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``counters`` are the exact counters of the workload's summary (public
    stats objects).  Every span name yields ``calls``, ``busy_s``,
    ``self_s``, ``p50_us`` and ``p99_us``; the benchmark reports the subset
    listed in BENCHMARK.json.
    """
    metrics: Dict[str, float] = {}
    for name, figures in tracer.layer_figures().items():
        for key, value in figures.items():
            metrics[f"{name}.{key}"] = value
    metrics.update(tracer.counts)
    processed = tracer.counts["events.processed"]
    metrics["events.us_per_event"] = _ratio(metrics["events.run.busy_s"] * 1e6, processed)
    metrics["runtime.gc.collections"] = tracer.gc_collections
    metrics["runtime.gc_s"] = tracer.gc_seconds

    def counter(name: str) -> int:
        return counters.get(name, 0)

    metrics["serving_vectorized.fallbacks"] = counter("serving.fallbacks")
    admitted = counter("serving.offered") - counter("serving.rejected")
    metrics["protection.admit_ratio"] = (
        _ratio(admitted, counter("serving.offered"))
        if metrics["protection.admit.calls"]
        else 0.0
    )
    metrics["protection.breaker_opens"] = counter("serving.breaker_opens")
    metrics["backend.cache_hit_ratio"] = _ratio(
        counter("backend.cache_hits"),
        counter("backend.cache_hits") + counter("backend.cache_misses"),
    )
    metrics["container.warm_hit_ratio"] = _ratio(
        counter("container.warm_hits"),
        counter("container.warm_hits") + counter("container.cold_starts"),
    )
    for name in (
        "backend.evaluations",
        "backend.simulations",
        "container.cold_starts",
        "container.warm_hits",
        "container.evictions",
        "fleet.spot_evictions",
        "serving.faults_injected",
        "serving.hedges_launched",
        "serving.rejected",
        "core.samples",
    ) + tuple(f"serving.rejected.{cause}" for cause in REJECTION_CAUSES):
        metrics[name] = counter(name)
    return metrics
