#!/usr/bin/env python
"""Input-aware configuration of the Video Analysis workflow (paper §IV-D).

The Video Analysis workflow is input-sensitive: heavy videos need far more
resources than light ones.  This example prepares one configuration per input
class (light / middle / heavy) with the Input-Aware Configuration Engine, then
replays a mixed request stream twice — once dispatched per class (AARC) and
once with the single fixed configuration a baseline would deploy — and prints
the SLO violations and per-class costs of both strategies.

Run with::

    python examples/video_input_aware.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import AARC, AARCOptions, SchedulerOptions
from repro.core.input_aware import InputAwareEngine
from repro.execution.serving import ServingOptions, ServingSimulator
from repro.utils.tables import Table
from repro.workloads.inputs import VIDEO_INPUT_CLASSES, input_class_rules, request_sequence
from repro.workloads.registry import get_workload


def summarise(label, outcomes, slo_limit):
    """Count bad requests (SLO violations or OOM failures) and per-class costs."""
    bad = sum(
        1
        for o in outcomes
        if o.latency_seconds > slo_limit or not o.succeeded
    )
    by_class = {}
    for outcome in outcomes:
        by_class.setdefault(outcome.request.input_class, []).append(outcome.cost)
    means = {name: sum(costs) / len(costs) for name, costs in by_class.items()}
    return bad, means


def main() -> None:
    workload = get_workload("video-analysis")
    searcher = AARC(
        options=AARCOptions(scheduler=SchedulerOptions(base_config=workload.base_config))
    )

    print("preparing per-class configurations (light / middle / heavy)...")
    engine = InputAwareEngine(
        searcher=searcher,
        executor=workload.build_executor(),
        workflow=workload.workflow,
        slo=workload.slo,
        classes=input_class_rules(VIDEO_INPUT_CLASSES),
    )
    engine.prepare()
    for class_name, configuration in engine.configurations().items():
        total = f"{configuration.total_vcpu():.1f} vCPU / {configuration.total_memory_mb():.0f} MB total"
        print(f"  {class_name:>6s}: {total}")
    print()

    # Fixed baseline: the configuration found for the standard (middle) input.
    fixed_configuration = engine.configurations()["middle"]

    requests = request_sequence(n_requests=15, pattern="interleaved")
    # Unbounded capacity, no cold starts: each request runs at its arrival.
    simulator = ServingSimulator(
        workload.workflow,
        workload.build_executor(),
        options=ServingOptions(simulate_cold_starts=False),
    )

    aware_outcomes = simulator.run(requests, engine.dispatcher()).outcomes
    fixed_outcomes = simulator.run(requests, lambda _: fixed_configuration).outcomes

    slo_limit = workload.slo.latency_limit
    aware_violations, aware_costs = summarise("input-aware", aware_outcomes, slo_limit)
    fixed_violations, fixed_costs = summarise("fixed", fixed_outcomes, slo_limit)

    table = Table(
        ["strategy", "bad requests (SLO/OOM)", "cost[light]", "cost[middle]", "cost[heavy]"],
        precision=1,
        title=f"Video Analysis over {len(requests)} requests (SLO {slo_limit:.0f}s)",
    )
    table.add_row("input-aware (AARC)", f"{aware_violations}/{len(requests)}",
                  aware_costs["light"], aware_costs["middle"], aware_costs["heavy"])
    table.add_row("fixed (middle config)", f"{fixed_violations}/{len(requests)}",
                  fixed_costs["light"], fixed_costs["middle"], fixed_costs["heavy"])
    print(table.render())

    saving = 1.0 - aware_costs["light"] / fixed_costs["light"]
    print(f"\nlight-input cost saving from input awareness: {saving * 100:.1f}%")
    if fixed_violations > aware_violations:
        print(
            "the fixed configuration (sized for the standard input) cannot serve "
            f"{fixed_violations} requests correctly, while the input-aware dispatch serves all of them"
        )


if __name__ == "__main__":
    main()
