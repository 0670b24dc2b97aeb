"""Fig. 2 — runtime and cost over a decoupled (vCPU, memory) grid.

Regenerates the motivation heat maps for the three workflows and checks the
paper's qualitative observations:

* Chatbot and ML Pipeline runtimes barely move with memory (memory-centric
  allocation is wasteful for them);
* the ML Pipeline's cheapest point uses a fraction of the memory a coupled
  allocation would buy (the paper quotes an 87.5 % reduction at 4 vCPU);
* the three workflows have different cost-optimal corners (distinct resource
  affinities).
"""

import pytest

from repro.experiments.motivation import decoupling_heatmap
from repro.experiments.reporting import render_heatmap


@pytest.mark.benchmark(group="fig2")
@pytest.mark.parametrize("workload", ["chatbot", "ml-pipeline", "video-analysis"])
def test_fig2_decoupling_heatmap(benchmark, workload, record_result):
    heatmap = benchmark.pedantic(
        decoupling_heatmap, args=(workload,), rounds=1, iterations=1
    )
    record_result(f"fig2_{workload}.txt", render_heatmap(heatmap))

    assert len(heatmap.runtime_seconds) == len(heatmap.vcpu_values) * len(
        heatmap.memory_values_mb
    )
    # The sweep is served by the vectorized engine by default; the scalar
    # simulator must produce the bit-identical panel.
    scalar = decoupling_heatmap(workload, backend="simulator")
    assert scalar.runtime_seconds == heatmap.runtime_seconds
    assert scalar.cost == heatmap.cost
    assert scalar.feasible == heatmap.feasible
    cheapest_vcpu, cheapest_memory = heatmap.cheapest_point()

    if workload == "chatbot":
        # Runtime is memory-insensitive and the optimum sits at low resources.
        assert heatmap.runtime_spread_over_memory(1.0) < 0.05
        assert cheapest_vcpu <= 1.0
        assert cheapest_memory <= 1024.0
    elif workload == "ml-pipeline":
        # CPU-hungry, memory-frugal: decoupling saves most of the coupled memory.
        assert cheapest_vcpu >= 3.0
        assert cheapest_memory <= 1024.0
        assert heatmap.memory_saving_vs_coupled() >= 0.75
    else:
        # Video Analysis needs both many cores and several GB of memory.
        assert cheapest_vcpu >= 5.0
        assert cheapest_memory >= 5120.0
