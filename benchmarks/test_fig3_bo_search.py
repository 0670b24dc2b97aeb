"""Fig. 3 — Bayesian Optimization search on the Chatbot workflow.

Reproduces the §II-B motivation study: adapted BO over the decoupled
per-function space needs many samples, its sampled cost fluctuates heavily
(the paper reports an 18.3 % mean relative fluctuation with roughly half of
the changes being increases) and the total sampling time is measured in hours
of workflow execution.
"""

import pytest

from conftest import BENCH_SETTINGS
from repro.experiments.motivation import bo_search_study
from repro.experiments.reporting import render_bo_study


@pytest.mark.benchmark(group="fig3")
def test_fig3_bo_search_on_chatbot(benchmark, record_result):
    study = benchmark.pedantic(
        bo_search_study,
        kwargs={"workload_name": "chatbot", "n_samples": 100, "settings": BENCH_SETTINGS},
        rounds=1,
        iterations=1,
    )
    record_result("fig3_bo_chatbot.txt", render_bo_study(study))

    assert study.sample_count == 100
    # The search does find cheaper configurations than its starting point...
    assert study.cost_reduction() > 0.1
    # ...but the sampled cost is unstable, with a large share of increases.
    assert study.relative_fluctuation() > 0.05
    assert study.increase_fraction() > 0.25
    # Total sampling time corresponds to hours of workflow execution.
    assert study.total_runtime_hours > 1.0
