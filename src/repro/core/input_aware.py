"""Input-Aware Configuration Engine (paper §IV-D).

Some workflows are input-sensitive: the optimal configuration for a short
video differs from the optimal configuration for a long one.  The engine
classifies each incoming request into an input class (light / middle / heavy
by default), runs the regular AARC search once per class offline, and at
request time dispatches the request to the configuration of its class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.objective import ConfigurationSearcher, SearchResult, WorkflowObjective
from repro.execution.backend import EvaluationBackend, SimulatorBackend
from repro.execution.events import RequestArrival
from repro.execution.executor import WorkflowExecutor
from repro.utils.ranges import POSITIVE, Range, check_fields
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = ["InputClassRule", "InputAwareEngine"]


@dataclass(frozen=True)
class InputClassRule:
    """One input class recognised by the engine.

    Attributes
    ----------
    name:
        Class label (e.g. ``"light"``).
    max_scale:
        Requests with ``input_scale`` up to this value (inclusive) fall into
        this class; use ``float('inf')`` for the catch-all heaviest class.
    representative_scale:
        The input scale used when searching the class's configuration
        offline (typically the class's upper bound so the configuration is
        safe for every member of the class).
    """

    name: str
    max_scale: float = Range(0.0, math.inf, lo_open=True).field()
    representative_scale: float = POSITIVE.field()

    def __post_init__(self) -> None:
        check_fields(self)


def default_input_classes() -> List[InputClassRule]:
    """The light / middle / heavy split used for the Video Analysis study."""
    return [
        InputClassRule(name="light", max_scale=0.5, representative_scale=0.5),
        InputClassRule(name="middle", max_scale=1.0, representative_scale=1.0),
        InputClassRule(name="heavy", max_scale=float("inf"), representative_scale=2.0),
    ]


class InputAwareEngine:
    """Per-input-class configuration search and request-time dispatch."""

    def __init__(
        self,
        searcher: ConfigurationSearcher,
        executor: WorkflowExecutor,
        workflow: Workflow,
        slo: SLO,
        classes: Optional[Sequence[InputClassRule]] = None,
        rng: Optional[RngStream] = None,
        backend: Optional[EvaluationBackend] = None,
    ) -> None:
        self.searcher = searcher
        self.executor = executor
        self.workflow = workflow
        self.slo = slo
        # One backend is shared by every per-class objective, so a caching
        # backend reuses baseline evaluations across classes and across
        # repeated prepare() calls instead of re-simulating them.
        self.backend = backend if backend is not None else SimulatorBackend(executor)
        self.classes = list(classes) if classes is not None else default_input_classes()
        if not self.classes:
            raise ValueError("at least one input class is required")
        self._validate_classes()
        self.rng = rng
        self._configurations: Dict[str, WorkflowConfiguration] = {}
        self._results: Dict[str, SearchResult] = {}
        self._dispatch_counts: Dict[str, int] = {}

    def _validate_classes(self) -> None:
        bounds = [rule.max_scale for rule in self.classes]
        if sorted(bounds) != bounds:
            raise ValueError("input classes must be ordered by increasing max_scale")
        names = [rule.name for rule in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("input class names must be unique")

    # -- offline phase -----------------------------------------------------------
    def prepare(
        self,
        objective_factory: Optional[Callable[[InputClassRule], WorkflowObjective]] = None,
    ) -> Mapping[str, SearchResult]:
        """Search one configuration per input class.

        Parameters
        ----------
        objective_factory:
            Optional callback building the per-class objective; the default
            builds a :class:`WorkflowObjective` on this engine's executor with
            the class's representative input scale.

        Returns
        -------
        mapping
            Class name → the search result for that class.
        """
        for rule in self.classes:
            if objective_factory is not None:
                objective = objective_factory(rule)
            else:
                objective = WorkflowObjective(
                    executor=self.executor,
                    workflow=self.workflow,
                    slo=self.slo,
                    input_scale=rule.representative_scale,
                    rng=self.rng.child("class", rule.name) if self.rng is not None else None,
                    backend=self.backend,
                )
            result = self.searcher.search(objective)
            if not result.found_feasible:
                raise RuntimeError(
                    f"no feasible configuration found for input class {rule.name!r}"
                )
            self._results[rule.name] = result
            self._configurations[rule.name] = result.best_configuration
        return dict(self._results)

    @property
    def prepared(self) -> bool:
        """Whether every class has a configuration ready."""
        return len(self._configurations) == len(self.classes)

    def configurations(self) -> Mapping[str, WorkflowConfiguration]:
        """Per-class configurations discovered by :meth:`prepare`."""
        return dict(self._configurations)

    def search_results(self) -> Mapping[str, SearchResult]:
        """Per-class search results (sample counts, histories)."""
        return dict(self._results)

    # -- request-time dispatch ------------------------------------------------------
    def classify(self, input_scale: float) -> InputClassRule:
        """Map an input scale to its class (the first whose bound covers it)."""
        if not 0.0 < input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        for rule in self.classes:
            if input_scale <= rule.max_scale:
                return rule
        return self.classes[-1]

    def configuration_for(self, request: RequestArrival) -> WorkflowConfiguration:
        """Configuration to use for one request (classified by input scale)."""
        if not self.prepared:
            raise RuntimeError("InputAwareEngine.prepare() must run before dispatching")
        rule = self.classify(request.input_scale)
        self._dispatch_counts[rule.name] = self._dispatch_counts.get(rule.name, 0) + 1
        return self._configurations[rule.name]

    def dispatcher(self) -> Callable[[RequestArrival], WorkflowConfiguration]:
        """A per-arrival callback for the request-stream and serving simulators."""
        return self.configuration_for

    def dispatch_counts(self) -> Mapping[str, int]:
        """Requests dispatched per input class since construction (or reset)."""
        return dict(self._dispatch_counts)

    def reset_dispatch_counts(self) -> None:
        """Zero the per-class dispatch counters (between serving runs)."""
        self._dispatch_counts.clear()
