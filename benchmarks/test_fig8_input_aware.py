"""Fig. 8 — input-aware configuration of the Video Analysis workflow.

A stream of light / middle / heavy requests is replayed through the Video
Analysis workflow.  AARC dispatches each request to a per-class configuration
prepared by the Input-Aware Configuration Engine; the baselines use the single
configuration found for the standard input.  The reproduction checks the
paper's observations: the fixed MAFF configuration violates the SLO on heavy
inputs while AARC never does, and AARC's per-class dispatch is substantially
cheaper on light inputs.
"""

import pytest

from conftest import BENCH_SETTINGS
from repro.experiments.input_aware_experiment import run_input_aware_experiment
from repro.experiments.reporting import render_input_aware


@pytest.mark.benchmark(group="fig8")
def test_fig8_input_aware_video_analysis(benchmark, record_result):
    comparison = benchmark.pedantic(
        run_input_aware_experiment,
        kwargs={
            "workload_name": "video-analysis",
            "methods": ("AARC", "BO", "MAFF"),
            "n_requests": 30,
            "settings": BENCH_SETTINGS,
            "pattern": "blocked",
        },
        rounds=1,
        iterations=1,
    )
    record_result("fig8_input_aware.txt", render_input_aware(comparison))

    aarc = comparison.outcome("AARC")
    maff = comparison.outcome("MAFF")

    # AARC stays within the SLO for every request, including heavy inputs.
    assert aarc.violation_count() == 0

    # The fixed MAFF configuration (sized for the standard input) violates the
    # SLO under heavy inputs.
    heavy_runtimes = [
        runtime
        for runtime, input_class in zip(maff.runtimes_seconds, maff.request_classes)
        if input_class == "heavy"
    ]
    assert max(heavy_runtimes) > comparison.slo_limit_seconds
    assert maff.violation_count() > 0

    # Per-class cost: input-aware dispatch is cheaper on light inputs (the
    # fixed baselines over-provision them) and no more expensive than the
    # baselines on heavy inputs.
    assert comparison.cost_reduction_vs("MAFF", "light") > 0.15
    assert comparison.cost_reduction_vs("BO", "light") > 0.15
    aarc_by_class = aarc.mean_cost_by_class()
    assert aarc_by_class["light"] < aarc_by_class["heavy"]
