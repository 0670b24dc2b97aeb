"""Table II — average runtime and cost of the discovered configurations.

Each method's best configuration is executed 100 times with calibrated
run-to-run noise.  The reproduction checks the paper's claims: every method's
configuration satisfies the SLO (no violations), and AARC's configuration is
the cheapest on every workflow — with the largest margins over the coupled
MAFF baseline on the CPU-hungry ML Pipeline.
"""

import pytest

from repro.experiments.optimal_experiment import (
    evaluate_optimal_configurations,
    stats_by_workload,
)
from repro.experiments.reporting import render_table2


@pytest.mark.benchmark(group="table2")
def test_table2_optimal_configurations(benchmark, comparison, settings, record_result):
    stats = benchmark.pedantic(
        evaluate_optimal_configurations,
        args=(comparison,),
        kwargs={"n_runs": 100, "noise_cv": 0.02, "settings": settings},
        rounds=1,
        iterations=1,
    )
    record_result("table2_optimal_configs.txt", render_table2(stats))

    indexed = stats_by_workload(stats)
    assert set(indexed.keys()) == {"chatbot", "ml-pipeline", "video-analysis"}

    for workload, methods in indexed.items():
        assert "AARC" in methods
        aarc = methods["AARC"]

        # SLO compliance: the paper reports all methods meeting their SLOs.
        for row in methods.values():
            assert row.meets_slo_on_average
            assert row.slo_violation_rate == 0.0
            # Run-to-run variation is small (paper: std of roughly 1-4 %).
            assert row.std_runtime_seconds < 0.1 * row.mean_runtime_seconds

        # Cost: AARC's configuration is the cheapest for every workflow.
        for method, row in methods.items():
            if method != "AARC":
                assert aarc.mean_cost < row.mean_cost

    # Headline cost-saving shape (paper: 49.6 % vs BO and 61.7 % vs MAFF on
    # the ML Pipeline).  Require at least a 35 % saving against both.
    ml = indexed["ml-pipeline"]
    assert ml["AARC"].mean_cost < 0.65 * ml["MAFF"].mean_cost
    assert ml["AARC"].mean_cost < 0.65 * ml["BO"].mean_cost
