"""Trace templates: one evaluation per (configuration, input scale) per run.

A serving engine replays each request's service trace on its own timeline
(warm pool, cluster, interference), and a noise-free trace depends only on
the configuration and the input scale.  So every request sharing those two
can share one evaluated trace: a :class:`TraceMemo` evaluates each key once
through the run's backend with ``rng=None`` and hands each request the
key's :class:`TraceTemplate`, the per-function values the launch paths
read, resolved once.

A memo belongs to one run.  It is keyed by configuration *identity* and the
exact input scale, and its templates hold every configuration it keyed so
that no object id is recycled while the run lasts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.execution.backend import EvaluationBackend
from repro.execution.trace import ExecutionStatus, ExecutionTrace
from repro.pricing.model import PricingModel
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration

__all__ = ["TraceTemplate", "TraceMemo"]


class TraceTemplate:
    """Per-(configuration, input-scale) service-trace template.

    The per-function values a launch path reads from the evaluated trace —
    status, runtime, config and cold-start billing delta — resolved once.
    Each list is aligned with the workflow plan's ``names``, so a
    function's position is its index in the topological order.
    ``configuration`` is the workflow configuration the trace ran under,
    and ``base_invocations`` counts its functions that are not skipped:
    the attempts a fault-free request makes.
    """

    __slots__ = (
        "configuration",
        "trace",
        "statuses",
        "runtimes",
        "configs",
        "deltas",
        "base_cost",
        "succeeded",
        "base_invocations",
    )

    def __init__(
        self,
        configuration: WorkflowConfiguration,
        trace: ExecutionTrace,
        names: Sequence[str],
        pricing: PricingModel,
        cold_latency: Sequence[float],
    ) -> None:
        records = [trace.records[name] for name in names]
        self.configuration = configuration
        self.trace = trace
        self.statuses = [record.status for record in records]
        self.runtimes = [record.runtime_seconds for record in records]
        self.configs = [record.config for record in records]
        # Cold-start billing is deterministic per (runtime, penalty, config):
        # the invocation-cost difference a cold start adds, computed once.
        self.deltas = [
            pricing.invocation_cost(runtime + penalty, config)
            - pricing.invocation_cost(runtime, config)
            for runtime, penalty, config in zip(self.runtimes, cold_latency, self.configs)
        ]
        self.base_cost = trace.total_cost
        self.succeeded = trace.succeeded
        self.base_invocations = sum(
            status is not ExecutionStatus.SKIPPED for status in self.statuses
        )


class TraceMemo:
    """One run's trace templates, each key evaluated once through ``backend``.

    ``cold_latency`` is aligned with ``workflow.plan.names``.  ``templates``
    lists the templates in first-evaluation order; a key is
    ``(id(configuration), input_scale)``.
    """

    def __init__(
        self,
        backend: EvaluationBackend,
        workflow: Workflow,
        pricing: PricingModel,
        cold_latency: Sequence[float],
    ) -> None:
        self.backend = backend
        self.workflow = workflow
        self.pricing = pricing
        self.cold_latency = cold_latency
        self.templates: List[TraceTemplate] = []
        self._index: Dict[Tuple[int, float], int] = {}

    def _position(self, configuration: WorkflowConfiguration, input_scale: float) -> int:
        """The key's template position, evaluated when the key is first seen."""
        key = (id(configuration), input_scale)
        position = self._index.get(key)
        if position is None:
            trace = self.backend.evaluate(
                self.workflow, configuration, input_scale=input_scale, rng=None
            )
            position = len(self.templates)
            self.templates.append(
                TraceTemplate(
                    configuration,
                    trace,
                    self.workflow.plan.names,
                    self.pricing,
                    self.cold_latency,
                )
            )
            self._index[key] = position
        return position

    def get(self, configuration: WorkflowConfiguration, input_scale: float) -> TraceTemplate:
        """The key's template, evaluated when the key is first seen."""
        return self.templates[self._position(configuration, input_scale)]

    def group(
        self,
        configurations: Sequence[WorkflowConfiguration],
        input_scales: np.ndarray,
    ) -> np.ndarray:
        """Each request's template position, evaluating new keys in arrival order.

        ``configurations[i]`` and ``input_scales[i]`` are request ``i``'s.
        The keys are grouped in arrays, and each new key is evaluated at
        its first request, in arrival order: the order in which a memoizing
        backend sees misses from a run that evaluates request by request.
        """
        count = len(configurations)
        if not count:
            return np.zeros(0, dtype=np.intp)
        ids = np.fromiter(map(id, configurations), dtype=np.uint64, count=count)
        _, id_codes = np.unique(ids, return_inverse=True)
        scales, scale_codes = np.unique(input_scales, return_inverse=True)
        _, first, key_codes = np.unique(
            id_codes * scales.size + scale_codes, return_index=True, return_inverse=True
        )
        positions = np.empty(first.size, dtype=np.intp)
        for key in np.argsort(first).tolist():
            i = int(first[key])
            positions[key] = self._position(configurations[i], float(input_scales[i]))
        return positions[key_codes]
