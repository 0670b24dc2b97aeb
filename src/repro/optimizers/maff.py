"""MAFF gradient-descent baseline (Zubko et al., adapted to workflows).

MAFF is a *memory-centric* optimizer: it only moves the memory quota and the
CPU share follows proportionally (one vCPU per 1 024 MB, the AWS Lambda
coupling).  Starting from an over-provisioned allocation it walks memory
downwards function by function as long as cost keeps dropping; a step that
violates the workflow SLO is reverted and — following the paper's adaptation —
terminates the search, while a step that merely stops paying off freezes that
function at its local optimum.  The coupled walk needs few samples but cannot
reach the decoupled optima AARC finds, which is exactly the trade-off Table II
and Figs. 5–7 show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config_space import ConfigurationSpace
from repro.core.objective import (
    ConfigurationSearcher,
    EvaluationResult,
    SearchResult,
    WorkflowObjective,
)
from repro.utils.ranges import AT_LEAST_1, POSITIVE, Range, check_fields
from repro.workflow.resources import WorkflowConfiguration

__all__ = ["MAFFOptions", "MAFFOptimizer"]


@dataclass(frozen=True)
class MAFFOptions:
    """Tunables of the MAFF baseline.

    Attributes
    ----------
    initial_memory_mb:
        Over-provisioned starting memory per function (CPU follows coupled).
    memory_step_fraction:
        Fraction of the current memory removed per gradient step.
    min_step_mb:
        Gradient steps never go below this absolute size.
    max_samples:
        Hard cap on evaluations.
    stop_on_slo_violation:
        When True, terminate the whole search on the first SLO-violating
        step; when False (default) only the offending function's descent is
        reverted and frozen, matching the per-function sample counts the
        paper reports for its adapted MAFF (61 samples on Chatbot, 15 on the
        ML Pipeline).
    slo_safety_margin:
        Fractional latency head-room kept below the SLO when accepting a
        step, guarding the deployed configuration against run-to-run jitter.
    """

    initial_memory_mb: float = POSITIVE.field(4096.0)
    memory_step_fraction: float = Range(0.0, 1.0, True, True).field(0.25)
    min_step_mb: float = POSITIVE.field(128.0)
    max_samples: int = AT_LEAST_1.field(100)
    stop_on_slo_violation: bool = False
    slo_safety_margin: float = Range(0.0, 1.0, hi_open=True).field(0.05)

    def __post_init__(self) -> None:
        check_fields(self)


class MAFFOptimizer(ConfigurationSearcher):
    """Coupled, memory-centric gradient descent over workflow configurations."""

    name = "MAFF"

    def __init__(
        self,
        config_space: Optional[ConfigurationSpace] = None,
        options: Optional[MAFFOptions] = None,
    ) -> None:
        self.config_space = config_space if config_space is not None else ConfigurationSpace()
        self.options = options if options is not None else MAFFOptions()

    # -- search -----------------------------------------------------------------
    def search(self, objective: WorkflowObjective) -> SearchResult:
        """Run the coupled gradient descent against an objective."""
        function_names = objective.function_names
        budget = self._budget(objective)
        memories: Dict[str, float] = {
            name: self.config_space.snap_memory(self.options.initial_memory_mb)
            for name in function_names
        }
        configuration = self._coupled_configuration(memories)

        if budget <= 0:
            return objective.make_result(self.name, None)

        current = objective.evaluate(configuration, phase="maff-init")
        best: Optional[EvaluationResult] = current if current.feasible else None

        converged: Dict[str, bool] = {name: False for name in function_names}
        terminated = False
        while (
            not terminated
            and not all(converged.values())
            and objective.sample_count < budget
        ):
            progressed = False
            for name in function_names:
                if terminated or converged[name] or objective.sample_count >= budget:
                    continue
                step = max(
                    memories[name] * self.options.memory_step_fraction,
                    self.options.min_step_mb,
                )
                candidate_memory = self.config_space.snap_memory(memories[name] - step)
                if candidate_memory >= memories[name]:
                    converged[name] = True
                    continue
                trial_memories = dict(memories)
                trial_memories[name] = candidate_memory
                trial_configuration = self._coupled_configuration(trial_memories)
                result = objective.evaluate(trial_configuration, phase="maff")
                if not result.succeeded:
                    # The smaller container OOMs: freeze this function.
                    converged[name] = True
                    continue
                slo_budget = objective.slo.latency_limit * (1.0 - self.options.slo_safety_margin)
                if result.runtime_seconds > slo_budget:
                    # Revert to the previous step; per the paper the adapted
                    # MAFF terminates here.
                    converged[name] = True
                    if self.options.stop_on_slo_violation:
                        terminated = True
                    continue
                if result.cost >= current.cost:
                    # Cost stopped improving: local optimum for this function.
                    converged[name] = True
                    continue
                memories = trial_memories
                current = result
                progressed = True
                if best is None or result.cost < best.cost:
                    best = result
            if not progressed:
                break

        if best is None and current.feasible:
            best = current
        return objective.make_result(self.name, best)

    # -- helpers -----------------------------------------------------------------
    def _budget(self, objective: WorkflowObjective) -> int:
        if objective.max_samples is None:
            return self.options.max_samples
        remaining = objective.max_samples - objective.sample_count
        return max(0, min(self.options.max_samples, remaining))

    def _coupled_configuration(self, memories: Dict[str, float]) -> WorkflowConfiguration:
        return WorkflowConfiguration(
            {name: self.config_space.coupled_config(memory) for name, memory in memories.items()}
        )
