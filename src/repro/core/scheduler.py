"""Graph-Centric Scheduler — Algorithm 1 of the paper.

The scheduler orchestrates the whole configuration search for a workflow:

1. assign every function an over-provisioned *base* configuration;
2. execute the workflow once to measure per-function runtimes and build the
   weighted DAG;
3. extract the critical path and hand it, together with the end-to-end SLO,
   to the Priority Configurator;
4. derive detour sub-paths and their sub-SLOs from the (now configured)
   critical path and configure each of them in turn, without ever letting the
   end-to-end SLO be violated;
5. return the final per-function configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.config_space import ConfigurationSpace
from repro.core.configurator import PriorityConfigurator, PriorityConfiguratorOptions
from repro.core.critical_path import find_critical_path, find_detour_subpaths, runtime_sum
from repro.core.objective import EvaluationResult, SearchResult, WorkflowObjective
from repro.utils.logging import get_logger
from repro.utils.ranges import Range, check_fields
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = ["SchedulerOptions", "GraphCentricScheduler"]

_LOG = get_logger("core.scheduler")


@dataclass(frozen=True)
class SchedulerOptions:
    """Tunables of the Overall Scheduling algorithm.

    Attributes
    ----------
    base_config:
        Over-provisioned starting configuration applied to every function
        (Algorithm 1, lines 2–4).  Defaults to the configuration space's
        :meth:`ConfigurationSpace.default_base_config`.
    base_configuration:
        Optional per-function override of the base configuration (takes
        precedence over ``base_config`` for the functions it covers).
    minimum_subpath_budget_seconds:
        Detour sub-paths whose derived budget falls below this value are left
        at the base configuration rather than squeezed (a degenerate budget
        means the detour runs in parallel with almost nothing).  ``math.inf``
        configures the critical path only.
    """

    base_config: Optional[ResourceConfig] = None
    base_configuration: Optional[WorkflowConfiguration] = None
    minimum_subpath_budget_seconds: float = Range(0.0, math.inf, lo_open=True).field(1e-3)

    def __post_init__(self) -> None:
        check_fields(self)


class GraphCentricScheduler:
    """Critical-path driven workflow configuration (Algorithm 1)."""

    def __init__(
        self,
        config_space: Optional[ConfigurationSpace] = None,
        configurator_options: Optional[PriorityConfiguratorOptions] = None,
        options: Optional[SchedulerOptions] = None,
    ) -> None:
        self.config_space = config_space if config_space is not None else ConfigurationSpace()
        self.configurator = PriorityConfigurator(self.config_space, configurator_options)
        self.options = options if options is not None else SchedulerOptions()

    # -- public API ---------------------------------------------------------------
    def schedule(self, objective: WorkflowObjective) -> SearchResult:
        """Run the full scheduling pipeline against an objective."""
        workflow = objective.workflow
        slo = objective.slo

        base_configuration = self._base_configuration(objective)
        profiling_eval = objective.evaluate(base_configuration, phase="profiling")
        if not profiling_eval.succeeded:
            raise RuntimeError(
                "base configuration failed to execute the workflow; "
                f"failed functions: {profiling_eval.trace.failed_functions}"
            )
        if not profiling_eval.slo_met:
            _LOG.warning(
                "base configuration misses the SLO (%.2fs > %.2fs); "
                "the search will keep the base configuration if nothing better is found",
                profiling_eval.runtime_seconds,
                slo.latency_limit,
            )

        runtimes = profiling_eval.trace.runtimes()
        critical_path, critical_runtime = find_critical_path(workflow, runtimes)
        _LOG.debug(
            "critical path of %s: %s (%.2fs)", workflow.name, critical_path, critical_runtime
        )

        current_config, current_eval = self.configurator.configure_path(
            objective,
            critical_path,
            path_slo=slo,
            configuration=base_configuration,
            baseline=profiling_eval,
            enforce_workflow_slo=True,
            phase="critical-path",
        )
        scheduled: Set[str] = set(critical_path)

        subpaths = find_detour_subpaths(workflow, critical_path)
        for subpath in subpaths:
            unscheduled = [name for name in subpath.nodes if name not in scheduled]
            if not unscheduled:
                continue
            budget = self._subpath_budget(
                critical_path, subpath.start, subpath.end, subpath.nodes,
                current_eval, scheduled,
            )
            if budget < self.options.minimum_subpath_budget_seconds:
                _LOG.debug(
                    "sub-path %s has no usable budget (%.4fs); keeping base configuration",
                    subpath.nodes,
                    budget,
                )
                scheduled.update(unscheduled)
                continue
            sub_slo = slo.derive(budget, name=f"{slo.name}/sub:{subpath.start}->{subpath.end}")
            current_config, current_eval = self.configurator.configure_path(
                objective,
                unscheduled,
                path_slo=sub_slo,
                configuration=current_config,
                baseline=current_eval,
                enforce_workflow_slo=True,
                phase="sub-path",
            )
            scheduled.update(unscheduled)

        best = self._pick_result(profiling_eval, current_eval)
        return objective.make_result("AARC", best)

    # -- helpers ---------------------------------------------------------------------
    def _base_configuration(self, objective: WorkflowObjective) -> WorkflowConfiguration:
        base_config = (
            self.options.base_config
            if self.options.base_config is not None
            else self.config_space.default_base_config()
        )
        base_config = self.config_space.snap(base_config)
        configs: Dict[str, ResourceConfig] = {
            name: base_config for name in objective.function_names
        }
        if self.options.base_configuration is not None:
            for name, config in self.options.base_configuration.items():
                if name in configs:
                    configs[name] = self.config_space.snap(config)
        return WorkflowConfiguration(configs)

    def _subpath_budget(
        self,
        critical_path: List[str],
        start: str,
        end: str,
        subpath_nodes,
        current_eval: EvaluationResult,
        scheduled: Set[str],
    ) -> float:
        """Derive the sub-SLO for a detour (Algorithm 1, lines 12–18).

        The budget starts as the critical path's runtime between the detour's
        endpoints (inclusive) and is reduced by the runtime of every already
        scheduled function on the detour — the endpoints themselves plus any
        interior functions configured by an earlier sub-path.
        """
        runtimes = current_eval.trace.runtimes()
        budget = runtime_sum(critical_path, runtimes, start, end)
        for name in subpath_nodes:
            if name in scheduled:
                budget -= runtimes[name]
        return budget

    @staticmethod
    def _pick_result(
        profiling_eval: EvaluationResult, final_eval: EvaluationResult
    ) -> Optional[EvaluationResult]:
        """Choose the evaluation reported as the search outcome.

        The final configuration is feasible by construction whenever the base
        configuration was; if even the base configuration violates the SLO the
        cheaper of the two is reported (and flagged infeasible by the caller
        via ``SearchResult.found_feasible``).
        """
        if final_eval.feasible:
            return final_eval
        if profiling_eval.feasible:
            return profiling_eval
        return None
