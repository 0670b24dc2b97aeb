"""The benchmark's four workloads.

Each workload builds its inputs from a seed in :meth:`build` (timed as
set-up), runs one iteration through the same public entry points the CLI
uses in :meth:`run`, and turns an iteration's output into

* ``ops`` — the operations the iteration served (the unit of ``ops_per_s``),
* ``summary`` — the simulated results plus the exact counters of the
  program's public stats objects; it is deterministic, so every iteration
  of a run must produce the same summary, and
* ``check`` — a list of correctness violations (empty when the output is
  right).

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Tuple

from repro.execution.backend import BackendStats, SimulatorBackend
from repro.execution.fleet import FleetOptions, FleetSimulator, Tenant
from repro.execution.instances import build_cluster
from repro.experiments.fuzzer import check_invariants
from repro.experiments.harness import (
    DEFAULT_METHODS,
    DEFAULT_WORKLOADS,
    ExperimentSettings,
    build_objective,
    make_searcher,
)
from repro.experiments.serving_experiment import ServingSettings, run_serving_experiment
from repro.workloads.registry import get_workload

#: Rejection causes the serving layer reports, in a fixed order.
REJECTION_CAUSES = ("admission", "breaker", "deadline", "queue-full", "shed")


def _backend_counters(stats: BackendStats) -> Dict[str, int]:
    return {
        "backend.evaluations": stats.evaluations,
        "backend.simulations": stats.simulations,
        "backend.cache_hits": stats.cache_hits,
        "backend.cache_misses": stats.cache_misses,
        "container.cold_starts": stats.cold_starts,
        "container.warm_hits": stats.warm_hits,
        "container.evictions": stats.evictions,
    }


def _add(total: Dict[str, int], extra: Dict[str, int]) -> Dict[str, int]:
    for key, value in extra.items():
        total[key] = total.get(key, 0) + value
    return total


def _serving_counters(metrics) -> Dict[str, int]:
    counters = {
        "serving.offered": metrics.offered,
        "serving.completed": metrics.completed,
        "serving.rejected": metrics.rejected,
        "serving.faults_injected": metrics.faults_injected,
        "serving.hedges_launched": metrics.hedges_launched,
        "serving.breaker_opens": metrics.breaker_opens,
    }
    for cause in REJECTION_CAUSES:
        counters[f"serving.rejected.{cause}"] = metrics.rejected_by_cause.get(cause, 0)
    return counters


def _metrics_summary(metrics) -> Dict[str, object]:
    return {
        "offered": metrics.offered,
        "completed": metrics.completed,
        "rejected": metrics.rejected,
        "failed": metrics.failed,
        "rejected_by_cause": dict(sorted(metrics.rejected_by_cause.items())),
        "latency_p50_s": metrics.latency_p50_seconds,
        "latency_p99_s": metrics.latency_p99_seconds,
        "total_cost": metrics.total_cost,
        "slo_attainment": metrics.slo_attainment,
        "cold_start_invocations": metrics.cold_start_invocations,
        "faults_injected": metrics.faults_injected,
        "hedges_launched": metrics.hedges_launched,
        "hedge_wins": metrics.hedge_wins,
        "breaker_opens": metrics.breaker_opens,
        "deadline_kills": metrics.deadline_kills,
        "wasted_seconds": metrics.wasted_seconds,
    }


class Workload:
    """Interface of a benchmark workload (see the module docstring)."""

    #: JSON-able description of the workload's inputs, set by ``build``.
    params: Dict[str, object]

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def ops(self, output) -> int:
        raise NotImplementedError

    def summary(self, output) -> Dict[str, object]:
        raise NotImplementedError

    def check(self, output) -> List[str]:
        raise NotImplementedError

    def check_once(self) -> List[str]:
        """Checks made once per run, outside the timed loop."""
        return []


class Search(Workload):
    """``repro compare`` on every paper workload: AARC, BO and MAFF."""

    def build(self, seed: int) -> None:
        self.settings = ExperimentSettings(seed=seed)
        self.specs = {name: get_workload(name) for name in DEFAULT_WORKLOADS}
        self.params = {
            "workloads": list(DEFAULT_WORKLOADS),
            "methods": list(DEFAULT_METHODS),
            "bo_samples": self.settings.bo_samples,
            "maff_samples": self.settings.maff_samples,
            "backend": self.settings.backend,
            "cache": self.settings.cache,
        }

    def run(self):
        results = {}
        for workload_name, spec in self.specs.items():
            for method in DEFAULT_METHODS:
                searcher = make_searcher(method, spec, self.settings)
                results[(workload_name, method)] = searcher.search(
                    build_objective(spec, self.settings)
                )
        return results

    def ops(self, results) -> int:
        return sum(result.sample_count for result in results.values())

    def summary(self, results) -> Dict[str, object]:
        searches = {}
        counters: Dict[str, int] = {}
        for (workload_name, method), result in results.items():
            searches[f"{workload_name}/{method}"] = {
                "samples": result.sample_count,
                "best_cost": result.best_cost,
                "best_runtime_s": result.best_runtime_seconds,
            }
            _add(counters, _backend_counters(result.backend_stats))
        counters["core.samples"] = self.ops(results)
        return {"searches": searches, "counters": counters}

    def check(self, results) -> List[str]:
        problems = []
        for (workload_name, method), result in results.items():
            label = f"{workload_name}/{method}"
            if not result.found_feasible:
                problems.append(f"{label}: no feasible configuration")
                continue
            limit = self.specs[workload_name].slo.latency_limit
            if not result.best_runtime_seconds <= limit:
                problems.append(
                    f"{label}: best runtime {result.best_runtime_seconds!r} "
                    f"exceeds the SLO {limit!r}"
                )
            # Re-run the winning configuration on a fresh simulator: the
            # reported optimum must itself meet the SLO.
            spec = self.specs[workload_name]
            trace = spec.build_executor().execute(spec.workflow, result.best_configuration)
            if not trace.end_to_end_latency <= limit:
                problems.append(
                    f"{label}: re-executed best configuration takes "
                    f"{trace.end_to_end_latency!r}s against the SLO {limit!r}s"
                )
            if not (math.isfinite(result.best_cost) and result.best_cost > 0):
                problems.append(f"{label}: best cost {result.best_cost!r}")
        return problems


class Serving(Workload):
    """One ``repro serve`` run of the chatbot workflow."""

    workload_name = "chatbot"

    def __init__(self, **settings) -> None:
        self._settings = settings

    def build(self, seed: int) -> None:
        self.settings = ServingSettings(seed=seed, **self._settings)
        get_workload(self.workload_name)
        self.params = {"workload": self.workload_name, **self._settings}

    def run(self):
        return run_serving_experiment(self.workload_name, self.settings)

    def ops(self, report) -> int:
        return report.metrics.completed

    def summary(self, report) -> Dict[str, object]:
        counters = _backend_counters(report.backend_stats)
        counters.update(_serving_counters(report.metrics))
        counters["serving.fallbacks"] = int(bool(report.result.fallback_reason))
        return {
            "metrics": _metrics_summary(report.metrics),
            "fallback_reason": report.result.fallback_reason,
            "class_counts": dict(sorted(report.class_counts.items())),
            "counters": counters,
        }

    def check(self, report) -> List[str]:
        return list(check_invariants(report))


class BatchedServing(Serving):
    """The clean uncapped path on the batched engine."""

    #: Simulated seconds of the stream prefix replayed on the event engine.
    PREFIX_SECONDS = 20.0

    def check(self, report) -> List[str]:
        problems = super().check(report)
        if report.result.fallback_reason:
            problems.append(
                f"batched engine fell back: {report.result.fallback_reason!r}"
            )
        return problems

    def check_once(self) -> List[str]:
        """The event engine must agree exactly with the batched engine on a
        prefix of the same stream."""
        reports = {
            engine: run_serving_experiment(
                self.workload_name,
                dataclasses.replace(
                    self.settings, engine=engine, duration_seconds=self.PREFIX_SECONDS
                ),
            )
            for engine in ("event", "batched")
        }
        event, batched = (repr(reports[e].metrics) for e in ("event", "batched"))
        if event != batched:
            return [f"engines disagree on the prefix: event {event} != batched {batched}"]
        return []


class Fleet(Workload):
    """Three tenants on a heterogeneous cluster with spot evictions."""

    duration_seconds = 900.0
    on_demand = (("m5.4xlarge", 12), ("c5.4xlarge", 8), ("m6g.4xlarge", 4))
    spot = (("c5a.4xlarge", 8), ("m6g.4xlarge", 4))

    def build(self, seed: int) -> None:
        self.seed = seed
        self.tenants = [
            Tenant("interactive", get_workload("chatbot"), priority=2,
                   arrival="poisson", rate_rps=0.5),
            Tenant("pipeline", get_workload("ml-pipeline"), priority=1,
                   arrival="poisson", rate_rps=0.5),
            Tenant("video", get_workload("video-analysis"), priority=0,
                   arrival="bursty", rate_rps=0.1),
        ]
        self.options = FleetOptions(placement="priority", spot_evictions_per_hour=20.0)
        self.params = {
            "tenants": [
                {"name": t.name, "workload": t.workload.name, "priority": t.priority,
                 "arrival": t.arrival, "rate_rps": t.rate_rps}
                for t in self.tenants
            ],
            "cluster": [list(entry) for entry in self.on_demand],
            "spot": [list(entry) for entry in self.spot],
            "placement": self.options.placement,
            "spot_evictions_per_hour": self.options.spot_evictions_per_hour,
            "duration_seconds": self.duration_seconds,
        }

    def run(self) -> Tuple[FleetSimulator, Dict[str, SimulatorBackend], object]:
        # Passing each tenant the backend the simulator would build itself
        # keeps the run unchanged and exposes the backend's public stats.
        backends = {
            tenant.name: SimulatorBackend(tenant.workload.build_executor())
            for tenant in self.tenants
        }
        simulator = FleetSimulator(
            self.tenants,
            build_cluster(list(self.on_demand), spot_spec=list(self.spot)),
            options=self.options,
            backends=backends,
        )
        return simulator, backends, simulator.run(self.duration_seconds, seed=self.seed)

    def ops(self, output) -> int:
        return output[2].completed

    def summary(self, output) -> Dict[str, object]:
        simulator, backends, result = output
        counters: Dict[str, int] = {}
        for backend in backends.values():
            _add(counters, _backend_counters(backend.stats))
        pool = simulator.container_pool
        counters.update(
            {
                "container.cold_starts": pool.cold_starts,
                "container.warm_hits": pool.warm_hits,
                "container.evictions": pool.evictions,
                "fleet.spot_evictions": result.spot_evictions,
            }
        )
        for tenant in result.tenants.values():
            _add(counters, _serving_counters(tenant.metrics))
        return {
            "tenants": {
                name: _metrics_summary(tenant.metrics)
                for name, tenant in result.tenants.items()
            },
            "total_cost": result.total_cost,
            "spot_evictions": result.spot_evictions,
            "node_failures": result.node_failures,
            "peak_concurrency": result.peak_concurrency,
            "interference_stretched": result.interference_stretched,
            "counters": counters,
        }

    def check(self, output) -> List[str]:
        _, _, result = output
        problems = []
        fleet_bill = 0.0
        for name, tenant in result.tenants.items():
            metrics = tenant.metrics
            if metrics.offered != metrics.completed + metrics.rejected:
                problems.append(
                    f"{name}: offered {metrics.offered} != completed "
                    f"{metrics.completed} + rejected {metrics.rejected}"
                )
            if len(tenant.outcomes) != metrics.completed:
                problems.append(f"{name}: {len(tenant.outcomes)} outcomes, "
                                f"{metrics.completed} completed")
            if sum(tenant.rejected_by_cause.values()) != metrics.rejected:
                problems.append(f"{name}: rejection causes do not sum to "
                                f"{metrics.rejected}")
            bill = sum(outcome.cost for outcome in tenant.outcomes)
            if bill != metrics.total_cost:
                problems.append(f"{name}: bill {metrics.total_cost!r} != sum of "
                                f"request costs {bill!r}")
            fleet_bill += metrics.total_cost
        if fleet_bill != result.total_cost:
            problems.append(f"tenant bills sum to {fleet_bill!r}, fleet bill is "
                            f"{result.total_cost!r}")
        return problems


WORKLOADS = {
    "search": Search,
    "serve-batched": lambda: BatchedServing(
        method="base",
        arrival="poisson",
        rate_rps=100.0,
        duration_seconds=1000.0,
        nodes=0,
        engine="batched",
    ),
    "serve-chaos": lambda: Serving(
        method="base",
        arrival="poisson",
        rate_rps=2.0,
        duration_seconds=750.0,
        nodes=0,
        engine="event",
        faults="chaos",
        protection="full",
    ),
    "fleet": Fleet,
}
