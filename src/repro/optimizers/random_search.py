"""Random search over the decoupled configuration space.

Not part of the paper's comparison, but a useful reference point for tests
and ablations: any structured method should comfortably beat uniform random
sampling of the decoupled grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config_space import ConfigurationSpace
from repro.core.objective import (
    ConfigurationSearcher,
    EvaluationResult,
    SearchResult,
    WorkflowObjective,
)
from repro.utils.ranges import AT_LEAST_1, FINITE, check_fields
from repro.utils.rng import RngStream

__all__ = ["RandomSearchOptions", "RandomSearchOptimizer"]


@dataclass(frozen=True)
class RandomSearchOptions:
    """Tunables of random search."""

    max_samples: int = AT_LEAST_1.field(50)
    seed: int = FINITE.field(0)

    def __post_init__(self) -> None:
        check_fields(self)


class RandomSearchOptimizer(ConfigurationSearcher):
    """Uniform random sampling of per-function configurations."""

    name = "Random"

    def __init__(
        self,
        config_space: Optional[ConfigurationSpace] = None,
        options: Optional[RandomSearchOptions] = None,
    ) -> None:
        self.config_space = config_space if config_space is not None else ConfigurationSpace()
        self.options = options if options is not None else RandomSearchOptions()

    def search(self, objective: WorkflowObjective) -> SearchResult:
        """Evaluate ``max_samples`` random configurations, keep the best.

        The whole design is drawn up front and submitted as one batch, so
        parallel backends can fan the evaluations out.
        """
        rng = RngStream(self.options.seed, f"random/{objective.workflow.name}")
        budget = self._budget(objective)
        configurations = [
            self.config_space.random_configuration(
                objective.function_names, rng.child(index)
            )
            for index in range(budget)
        ]
        best: Optional[EvaluationResult] = None
        for result in objective.evaluate_batch(configurations, phase="random"):
            if result.feasible and (best is None or result.cost < best.cost):
                best = result
        return objective.make_result(self.name, best)

    def _budget(self, objective: WorkflowObjective) -> int:
        if objective.max_samples is None:
            return self.options.max_samples
        remaining = objective.max_samples - objective.sample_count
        return max(0, min(self.options.max_samples, remaining))
