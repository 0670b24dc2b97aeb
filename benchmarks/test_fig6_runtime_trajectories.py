"""Fig. 6 — workflow runtime versus sample count for each method.

Regenerates the per-sample runtime trajectories of the three search methods on
each workflow.  The paper's observation: because AARC minimises cost subject
to the SLO, the runtime of its sampled configurations trends *upwards* toward
(but never beyond, at acceptance time) the SLO, while BO's trajectory is
erratic across the enlarged decoupled space.
"""

import numpy as np
import pytest

from repro.experiments.reporting import render_trajectories
from repro.workloads.registry import get_workload


@pytest.mark.benchmark(group="fig6")
def test_fig6_runtime_trajectories(benchmark, comparison, record_result):
    text = benchmark.pedantic(
        render_trajectories, args=(comparison, "runtime"), rounds=1, iterations=1
    )
    record_result("fig6_runtime_trajectories.txt", text)

    for workload_name in comparison.workloads:
        slo = get_workload(workload_name).slo
        aarc = comparison.run(workload_name, "AARC")
        bo = comparison.run(workload_name, "BO")

        aarc_runtimes = aarc.runtime_trajectory()
        # Upward trend: the mean runtime of the second half of the search is
        # above the first profiling sample (resources are being reclaimed).
        assert np.mean(aarc_runtimes[len(aarc_runtimes) // 2 :]) > aarc_runtimes[0]
        # The finally accepted configuration never exceeds the SLO.
        assert aarc.result.best_runtime_seconds <= slo.latency_limit

        # BO explores configurations far beyond the SLO (instability).
        assert max(bo.runtime_trajectory()) > slo.latency_limit

        # Series lengths equal the sample counts (they are the Fig. 6 x-axes).
        assert len(aarc_runtimes) == aarc.sample_count
