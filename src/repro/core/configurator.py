"""Priority Configurator — Algorithm 2 of the paper.

Given a sequential path of functions and a latency budget (the end-to-end SLO
for the critical path, or a derived sub-SLO for a detour sub-path), the
configurator repeatedly tries to *deallocate* a step of CPU or memory from
one of the path's functions.  Every trial executes the workflow once (one
sample) and is accepted only if

* the path still finishes within its budget,
* the whole workflow still meets the end-to-end SLO (critical-path
  consistency), and
* the execution cost actually decreased,
* no function failed (e.g. OOM).

Rejected trials are reverted and the responsible operation backs off
exponentially (smaller step, one fewer remaining trial); accepted trials
re-queue the operation with the achieved cost reduction as its priority so
the most profitable resource knobs are revisited first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.config_space import ConfigurationSpace
from repro.core.objective import EvaluationResult, WorkflowObjective
from repro.core.operations import AdjustmentOperation, OperationQueue, ResourceType
from repro.utils.logging import get_logger
from repro.utils.ranges import AT_LEAST_1, NON_NEGATIVE, Range, check_fields
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = ["PriorityConfiguratorOptions", "PriorityConfigurator"]

_LOG = get_logger("core.configurator")


@dataclass(frozen=True)
class PriorityConfiguratorOptions:
    """Tunables of the Priority Configuration algorithm.

    Attributes
    ----------
    initial_step_fraction:
        Fraction of the current allocation removed by a fresh operation's
        first deallocation attempt.
    func_trial:
        ``FUNC_TRIAL`` — how many rejected attempts an operation survives
        before retiring.
    max_trials:
        ``MAX_TRIAL`` — hard cap on deallocation trials (samples) per path.
    backoff_decay:
        Multiplier applied to the step size after each rejection.
    min_cost_improvement:
        A trial must reduce cost by at least this amount to be accepted
        (guards against oscillating on simulator noise).
    slo_safety_margin:
        Fractional latency head-room kept below every SLO when accepting a
        deallocation (e.g. 0.1 accepts only path runtimes below 90 % of the
        budget).  Real platforms jitter run-to-run, so squeezing exactly to
        the SLO during the search would violate it at deployment time.
    max_trail:
        Deprecated misspelling of ``max_trials``; passing it warns and
        overrides ``max_trials``.  Consumed at construction (it reads back
        as ``None``) so ``dataclasses.replace`` round-trips cleanly.
    """

    initial_step_fraction: float = Range(0.0, 1.0, lo_open=True).field(0.5)
    func_trial: int = AT_LEAST_1.field(3)
    max_trials: int = AT_LEAST_1.field(64)
    backoff_decay: float = Range(0.0, 1.0, True, True).field(0.5)
    min_cost_improvement: float = NON_NEGATIVE.field(1e-9)
    slo_safety_margin: float = Range(0.0, 1.0, hi_open=True).field(0.08)
    max_trail: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_trail is not None:
            warnings.warn(
                "PriorityConfiguratorOptions.max_trail is deprecated; "
                "use max_trials instead",
                DeprecationWarning,
                stacklevel=3,
            )
            object.__setattr__(self, "max_trials", self.max_trail)
            # Reset the alias once consumed: a lingering value would override
            # max_trials again on every dataclasses.replace() round-trip.
            object.__setattr__(self, "max_trail", None)
        check_fields(self)


class PriorityConfigurator:
    """Priority-scheduling resource configurator (Algorithm 2)."""

    def __init__(
        self,
        config_space: ConfigurationSpace,
        options: Optional[PriorityConfiguratorOptions] = None,
    ) -> None:
        self.config_space = config_space
        self.options = options if options is not None else PriorityConfiguratorOptions()

    # -- public API -----------------------------------------------------------------
    def configure_path(
        self,
        objective: WorkflowObjective,
        path: Sequence[str],
        path_slo: SLO,
        configuration: WorkflowConfiguration,
        baseline: Optional[EvaluationResult] = None,
        enforce_workflow_slo: bool = True,
        phase: str = "configure",
    ) -> Tuple[WorkflowConfiguration, EvaluationResult]:
        """Optimise the functions along ``path`` under ``path_slo``.

        Parameters
        ----------
        objective:
            The sample-counting workflow objective.
        path:
            Function names forming a sequential path (critical path or the
            unscheduled interior of a detour sub-path).
        path_slo:
            Latency budget for the summed runtime of ``path``.
        configuration:
            Current full-workflow configuration; only ``path`` functions are
            modified, everything else is left untouched.
        baseline:
            Evaluation of ``configuration`` if the caller already has one
            (saves a sample); evaluated here otherwise.  With a
            :class:`~repro.execution.backend.CachingBackend` behind the
            objective, a previously seen baseline is served from the cache
            instead of being re-simulated.
        enforce_workflow_slo:
            Also require the end-to-end SLO of the objective to hold for a
            trial to be accepted.
        phase:
            Label recorded on the samples taken by this call.

        Returns
        -------
        (configuration, evaluation)
            The best configuration found (full workflow) and its evaluation.
        """
        path = list(path)
        if not path:
            raise ValueError("path must contain at least one function")
        missing = [name for name in path if name not in configuration]
        if missing:
            raise KeyError(f"configuration is missing path functions: {missing}")

        current_config = configuration
        current_eval = (
            baseline
            if baseline is not None
            else objective.evaluate(current_config, phase=phase)
        )

        queue = self._build_queue(path)
        trial_count = 0
        while queue and trial_count < self.options.max_trials:
            operation, _ = queue.pop()
            candidate_fn_config = self._deallocate(
                current_config[operation.function_name], operation
            )
            if candidate_fn_config is None:
                # Resource already at its floor: retire the operation without
                # spending a sample.
                continue
            trial_count += 1
            operation.record_attempt()
            candidate_config = current_config.updated(
                operation.function_name, candidate_fn_config
            )
            result = objective.evaluate(candidate_config, phase=phase)

            if self._acceptable(
                result,
                path,
                path_slo,
                current_eval,
                enforce_workflow_slo,
                workflow_slo=objective.slo,
            ):
                reduced_cost = current_eval.cost - result.cost
                operation.record_acceptance()
                current_config = candidate_config
                current_eval = result
                queue.push(operation, priority=max(reduced_cost, 0.0))
                _LOG.debug(
                    "accepted %s (cost -%.3f)", operation.describe(), reduced_cost
                )
            else:
                # Revert: the candidate is simply not adopted.  Back off and
                # re-queue at the lowest priority while budget remains.
                operation.back_off(self.options.backoff_decay)
                if not operation.exhausted:
                    queue.push(operation, priority=0.0)
                _LOG.debug("rejected %s", operation.describe())

        return current_config, current_eval

    # -- internals -------------------------------------------------------------------
    def _build_queue(self, path: Sequence[str]) -> OperationQueue:
        queue = OperationQueue()
        for function_name in path:
            for resource_type in (ResourceType.CPU, ResourceType.MEMORY):
                queue.push(
                    AdjustmentOperation(
                        function_name=function_name,
                        resource_type=resource_type,
                        step_fraction=self.options.initial_step_fraction,
                        trials_remaining=self.options.func_trial,
                    ),
                    priority=math.inf,
                )
        return queue

    def _deallocate(
        self, config: ResourceConfig, operation: AdjustmentOperation
    ) -> Optional[ResourceConfig]:
        """Apply one deallocation step; ``None`` when already at the floor."""
        if operation.resource_type is ResourceType.CPU:
            if self.config_space.at_vcpu_floor(config):
                return None
            candidate = self.config_space.decrease_vcpu(config, operation.step_fraction)
        else:
            if self.config_space.at_memory_floor(config):
                return None
            candidate = self.config_space.decrease_memory(config, operation.step_fraction)
        if candidate == config:
            return None
        return candidate

    def _acceptable(
        self,
        result: EvaluationResult,
        path: Sequence[str],
        path_slo: SLO,
        current_eval: EvaluationResult,
        enforce_workflow_slo: bool,
        workflow_slo: Optional[SLO] = None,
    ) -> bool:
        """Algorithm 2's acceptance test: SLO kept, no error, cost reduced."""
        if not result.succeeded:
            return False
        headroom = 1.0 - self.options.slo_safety_margin
        if result.path_runtime(path) > path_slo.latency_limit * headroom:
            return False
        if enforce_workflow_slo and workflow_slo is not None:
            if result.runtime_seconds > workflow_slo.latency_limit * headroom:
                return False
        if result.cost >= current_eval.cost - self.options.min_cost_improvement:
            return False
        return True
