"""Input-aware configuration experiment (paper §IV-D, Fig. 8).

The Video Analysis workflow is replayed over a request stream containing
light, middle and heavy inputs.  AARC uses the Input-Aware Configuration
Engine (one configuration per input class); the baselines use the single
fixed configuration their search discovered for the standard (middle) input.
The experiment reports, per method:

* the runtime of every request in arrival order (Fig. 8a) together with the
  SLO threshold, and
* the mean cost per input class (Fig. 8b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.input_aware import InputAwareEngine
from repro.core.objective import ConfigurationSearcher
from repro.execution.events import RequestArrival
from repro.execution.serving import ServingOptions, ServingSimulator
from repro.experiments.harness import ExperimentSettings, make_searcher
from repro.workflow.resources import WorkflowConfiguration
from repro.workloads.inputs import VIDEO_INPUT_CLASSES, input_class_rules, request_sequence
from repro.workloads.registry import get_workload

__all__ = ["MethodStreamOutcome", "InputAwareComparison", "run_input_aware_experiment"]


@dataclass
class MethodStreamOutcome:
    """Per-request outcomes of one method over the request stream."""

    method: str
    request_classes: List[str]
    runtimes_seconds: List[float]
    costs: List[float]
    slo_limit_seconds: float
    search_samples: int = 0

    @property
    def n_requests(self) -> int:
        """Number of requests processed."""
        return len(self.runtimes_seconds)

    def violation_count(self) -> int:
        """Requests whose runtime exceeded the SLO (Fig. 8a violations)."""
        return sum(1 for r in self.runtimes_seconds if r > self.slo_limit_seconds)

    def violation_rate(self) -> float:
        """Fraction of requests violating the SLO."""
        if not self.runtimes_seconds:
            return 0.0
        return self.violation_count() / len(self.runtimes_seconds)

    def mean_cost_by_class(self) -> Dict[str, float]:
        """Average request cost per input class (Fig. 8b bars)."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for input_class, cost in zip(self.request_classes, self.costs):
            sums[input_class] = sums.get(input_class, 0.0) + cost
            counts[input_class] = counts.get(input_class, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}

    def mean_runtime_by_class(self) -> Dict[str, float]:
        """Average runtime per input class."""
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for input_class, runtime in zip(self.request_classes, self.runtimes_seconds):
            sums[input_class] = sums.get(input_class, 0.0) + runtime
            counts[input_class] = counts.get(input_class, 0) + 1
        return {name: sums[name] / counts[name] for name in sums}


@dataclass
class InputAwareComparison:
    """All methods' outcomes over the same request stream."""

    workload: str
    slo_limit_seconds: float
    outcomes: Dict[str, MethodStreamOutcome] = field(default_factory=dict)

    def outcome(self, method: str) -> MethodStreamOutcome:
        """Look up one method's outcome."""
        return self.outcomes[method]

    @property
    def methods(self) -> List[str]:
        """Methods present in the comparison."""
        return list(self.outcomes.keys())

    def cost_reduction_vs(self, baseline: str, input_class: str, method: str = "AARC") -> float:
        """Per-class mean-cost reduction of ``method`` vs a baseline (Fig. 8b)."""
        ours = self.outcome(method).mean_cost_by_class()[input_class]
        theirs = self.outcome(baseline).mean_cost_by_class()[input_class]
        if theirs == 0:
            return 0.0
        return 1.0 - ours / theirs


def run_input_aware_experiment(
    workload_name: str = "video-analysis",
    methods: Sequence[str] = ("AARC", "BO", "MAFF"),
    n_requests: int = 30,
    settings: Optional[ExperimentSettings] = None,
    pattern: str = "blocked",
) -> InputAwareComparison:
    """Run the Fig. 8 experiment.

    Parameters
    ----------
    workload_name:
        The input-sensitive workload (Video Analysis in the paper).
    methods:
        Methods to compare; AARC uses the input-aware engine, all others use
        their single fixed configuration found for the standard input.
    n_requests:
        Length of the request stream (the paper replays ~300 requests; the
        default here is smaller because every request is a full workflow
        execution).
    settings:
        Shared experiment settings.
    pattern:
        Request-stream composition (``"blocked"`` / ``"interleaved"`` /
        ``"random"``).
    """
    settings = settings if settings is not None else ExperimentSettings()
    workload = get_workload(workload_name)
    requests = request_sequence(n_requests, classes=VIDEO_INPUT_CLASSES, pattern=pattern)
    # No cluster and no cold-start overlay: every request runs at its arrival
    # on unbounded capacity, so only the per-class configuration matters.
    simulator = ServingSimulator(
        workload.workflow,
        workload.build_executor(),
        options=ServingOptions(simulate_cold_starts=False),
    )

    comparison = InputAwareComparison(
        workload=workload.name, slo_limit_seconds=workload.slo.latency_limit
    )
    for method in methods:
        searcher = make_searcher(method, workload, settings)
        if method.upper() == "AARC":
            dispatcher, samples = _prepare_input_aware(searcher, workload, settings)
        else:
            dispatcher, samples = _prepare_fixed(searcher, workload, settings)
        outcomes = simulator.run(requests, dispatcher).outcomes
        comparison.outcomes[method] = MethodStreamOutcome(
            method=method,
            request_classes=[r.input_class for r in requests],
            runtimes_seconds=[o.latency_seconds for o in outcomes],
            costs=[o.cost for o in outcomes],
            slo_limit_seconds=workload.slo.latency_limit,
            search_samples=samples,
        )
    return comparison


def _prepare_input_aware(searcher: ConfigurationSearcher, workload, settings):
    """Prepare AARC's per-class configurations via the Input-Aware Engine."""
    engine = InputAwareEngine(
        searcher=searcher,
        executor=workload.build_executor(),
        workflow=workload.workflow,
        slo=workload.slo,
        classes=input_class_rules(VIDEO_INPUT_CLASSES),
    )
    results = engine.prepare()
    total_samples = sum(result.sample_count for result in results.values())
    return engine.dispatcher(), total_samples


def _prepare_fixed(searcher: ConfigurationSearcher, workload, settings):
    """Prepare a baseline's single fixed configuration (standard input)."""
    objective = workload.build_objective()
    result = searcher.search(objective)
    if result.found_feasible:
        configuration: WorkflowConfiguration = result.best_configuration
    else:
        # Fall back to the over-provisioned base so the stream can still run.
        configuration = workload.base_configuration()

    def dispatcher(_: RequestArrival) -> WorkflowConfiguration:
        return configuration

    return dispatcher, result.sample_count
