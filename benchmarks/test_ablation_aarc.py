"""Ablation benches for AARC's design choices (DESIGN.md extensions).

Three ablations of the Priority Configurator / Graph-Centric Scheduler:

* **No exponential back-off** — a rejected operation keeps its step size and
  simply loses one trial.  The paper credits back-off with convergence; the
  ablation should not find a cheaper configuration than full AARC and tends
  to waste trials re-rejecting the same large step.
* **Critical path only** — detour sub-paths keep the over-provisioned base
  configuration.  This must still satisfy the SLO but leaves money on the
  table whenever the workflow has parallel branches.
* **Trial budget sweep** — FUNC_TRIAL controls how persistently each resource
  knob is retried; more trials means more samples for (at best) marginally
  cheaper configurations.
"""

import pytest

from repro.core.aarc import AARC, AARCOptions
from repro.core.configurator import PriorityConfiguratorOptions
from repro.core.scheduler import SchedulerOptions
from repro.utils.tables import Table
from repro.workloads.registry import get_workload

WORKLOAD = "ml-pipeline"


def _search(configurator_options=None, scheduler_overrides=None):
    workload = get_workload(WORKLOAD)
    scheduler_options = SchedulerOptions(
        base_config=workload.base_config, **(scheduler_overrides or {})
    )
    searcher = AARC(
        options=AARCOptions(
            configurator=configurator_options or PriorityConfiguratorOptions(),
            scheduler=scheduler_options,
        )
    )
    objective = workload.build_objective()
    return searcher.search(objective)


@pytest.mark.benchmark(group="ablation")
def test_ablation_backoff_and_subpaths(benchmark, record_result):
    full = benchmark.pedantic(_search, rounds=1, iterations=1)

    # Disable the exponential back-off (decay ~1 keeps the step size fixed).
    no_backoff = _search(
        configurator_options=PriorityConfiguratorOptions(backoff_decay=0.999)
    )
    # Skip sub-path configuration entirely (critical path only).
    critical_only = _search(
        scheduler_overrides={"minimum_subpath_budget_seconds": float("inf")}
    )

    table = Table(
        ["variant", "samples", "best_cost", "best_runtime_s"],
        precision=1,
        title=f"AARC ablations on {WORKLOAD}",
    )
    for name, result in (
        ("full AARC", full),
        ("no back-off", no_backoff),
        ("critical path only", critical_only),
    ):
        table.add_row(name, result.sample_count, result.best_cost, result.best_runtime_seconds)
    record_result("ablation_aarc.txt", table.render())

    workload = get_workload(WORKLOAD)
    for result in (full, no_backoff, critical_only):
        assert result.found_feasible
        assert result.best_runtime_seconds <= workload.slo.latency_limit

    # Back-off never hurts the final cost and the full design is at least as
    # cheap as both ablations.
    assert full.best_cost <= no_backoff.best_cost * 1.01
    assert full.best_cost <= critical_only.best_cost * 1.01
    # Dropping sub-path scheduling leaves the detour branches over-provisioned.
    assert critical_only.best_cost >= full.best_cost


@pytest.mark.benchmark(group="ablation")
def test_ablation_func_trial_budget(benchmark, record_result):
    def sweep():
        results = {}
        for func_trial in (1, 3, 6):
            results[func_trial] = _search(
                configurator_options=PriorityConfiguratorOptions(func_trial=func_trial)
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        ["func_trial", "samples", "best_cost"],
        precision=1,
        title="FUNC_TRIAL budget sweep (ml-pipeline)",
    )
    for func_trial, result in sorted(results.items()):
        table.add_row(func_trial, result.sample_count, result.best_cost)
    record_result("ablation_func_trial.txt", table.render())

    # More per-operation trials means at least as many samples...
    assert results[1].sample_count <= results[6].sample_count
    # ...and the cost found with a larger budget is never worse.
    assert results[6].best_cost <= results[1].best_cost * 1.001
    for result in results.values():
        assert result.found_feasible
