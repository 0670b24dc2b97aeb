"""Vectorized execution substrate: whole batches in one array pass.

The scalar :class:`~repro.execution.executor.WorkflowExecutor` walks the DAG
once per configuration; a 4 096-point grid sweep therefore walks the DAG and
re-estimates every function 4 096 times.  The
:class:`VectorizedBackend` here replays the exact same simulation semantics —
dependency-ordered start times, OOM kills, downstream skips, failed-invocation
billing and decoupled pricing — but over *all* submitted configurations at
once: per-function runtimes come from the
:mod:`repro.perfmodel.vectorized` batch kernels, and start/finish times, costs
and failure propagation are computed with array reductions over the DAG's
topological order.

The vectorized path is bit-identical to the scalar executor (same IEEE
operations in the same order), so searches observe exactly the same traces
regardless of which substrate serves them.  Entries that cannot be vectorized
stay on the scalar executor:

* evaluations carrying an :class:`~repro.utils.rng.RngStream` (noise draws are
  inherently per-invocation),
* substrates with ``simulate_cold_starts`` (the warm pool is stateful),
* ``fail_fast_on_oom`` (the scalar path's mid-batch exception semantics),
* workflows whose functions use non-analytic performance models.

Mixed batches split transparently: vectorizable rows go through the array
engine, the rest through the executor, and traces come back in submission
order either way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.execution.backend import BackendStats, EvaluationBackend
from repro.execution.executor import WorkflowExecutor
from repro.execution.trace import ExecutionStatus, ExecutionTrace, FunctionExecution
from repro.perfmodel.vectorized import (
    VectorizedFunctionKernel,
    batch_estimates,
    vectorize_function_model,
)
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import WorkflowConfiguration

__all__ = [
    "BatchOutcome",
    "LazyExecutionTrace",
    "VectorizedWorkflowEngine",
    "VectorizedBackend",
]

#: Integer status codes used in :class:`BatchOutcome` arrays.
_SUCCESS, _OOM, _SKIPPED = 0, 1, 2

_STATUS_BY_CODE = {
    _SUCCESS: ExecutionStatus.SUCCESS,
    _OOM: ExecutionStatus.OOM,
    _SKIPPED: ExecutionStatus.SKIPPED,
}


@dataclass(frozen=True)
class _WorkflowPlan:
    """A workflow with the batch kernels of its functions."""

    workflow: Workflow
    #: Batch kernel of each function, aligned with ``workflow.plan.names``.
    kernels: Tuple[VectorizedFunctionKernel, ...]


@dataclass(frozen=True)
class BatchOutcome:
    """Array view of one evaluated batch (N configurations × F functions)."""

    #: ``(N, F)`` per-function start / finish timestamps and billed runtimes.
    start: np.ndarray
    finish: np.ndarray
    runtime: np.ndarray
    #: ``(N, F)`` per-invocation costs.
    cost: np.ndarray
    #: ``(N, F)`` status codes (0 success, 1 OOM, 2 skipped).
    status: np.ndarray
    #: ``(N,)`` end-to-end latency, total cost and all-functions-succeeded mask.
    latency: np.ndarray
    total_cost: np.ndarray
    succeeded: np.ndarray


class LazyExecutionTrace(ExecutionTrace):
    """An :class:`ExecutionTrace` whose records materialize on first access.

    A 4 096-configuration sweep would otherwise allocate tens of thousands of
    :class:`FunctionExecution` dataclasses that the hot consumers (grid
    search, heat maps, random designs) never read — they only look at the
    end-to-end latency, total cost and success flag, which the batch engine
    has already computed as array reductions.  Those aggregates are served
    from pre-computed scalars here; the full per-function record dict is
    built lazily (and cached) the first time ``records`` is touched, yielding
    values bit-identical to an eagerly built trace.

    Each trace owns plain-float copies of its own row (O(F) values) rather
    than a reference into the batch arrays, so a long-lived trace — e.g. one
    retained by a shared :class:`~repro.execution.backend.CachingBackend` —
    never pins its whole batch's ``(N, F)`` arrays in memory.
    """

    def __init__(
        self,
        workflow_name: str,
        input_scale: float,
        names: Sequence[str],
        configuration: WorkflowConfiguration,
        start_row: Sequence[float],
        finish_row: Sequence[float],
        runtime_row: Sequence[float],
        cost_row: Sequence[float],
        status_row: Sequence[int],
        latency: float,
        total_cost: float,
        succeeded: bool,
    ) -> None:
        # Deliberately does not call the dataclass __init__: ``records`` is a
        # property on this subclass and is populated on demand.
        self.workflow_name = workflow_name
        self.input_scale = input_scale
        self._names = names
        self._configuration = configuration
        self._start_row = start_row
        self._finish_row = finish_row
        self._runtime_row = runtime_row
        self._cost_row = cost_row
        self._status_row = status_row
        self._records: Optional[Dict[str, FunctionExecution]] = None
        self._latency = latency
        self._total_cost = total_cost
        self._succeeded = succeeded

    @property
    def records(self) -> Dict[str, FunctionExecution]:  # type: ignore[override]
        if self._records is None:
            self._records = {
                name: FunctionExecution(
                    function_name=name,
                    config=self._configuration[name],
                    start_time=self._start_row[j],
                    finish_time=self._finish_row[j],
                    runtime_seconds=self._runtime_row[j],
                    cost=self._cost_row[j],
                    status=_STATUS_BY_CODE[self._status_row[j]],
                    input_scale=self.input_scale,
                )
                for j, name in enumerate(self._names)
            }
        return self._records

    # Aggregates the batch engine already reduced; identical to iterating the
    # materialized records.
    @property
    def end_to_end_latency(self) -> float:
        return self._latency

    @property
    def total_cost(self) -> float:
        return self._total_cost

    @property
    def succeeded(self) -> bool:
        return self._succeeded


class VectorizedWorkflowEngine:
    """Batch evaluator sharing one executor's models, pricing and options."""

    def __init__(self, executor: WorkflowExecutor) -> None:
        self.executor = executor
        # Plans are cached per workflow name; the workflow object is kept so a
        # *different* workflow reusing a name rebuilds instead of matching.
        self._plans: Dict[str, Tuple[Workflow, Optional[_WorkflowPlan]]] = {}
        self._lock = threading.Lock()

    # -- planning ---------------------------------------------------------------
    def plan_for(self, workflow: Workflow) -> Optional[_WorkflowPlan]:
        """Resolve (and cache) the batch plan; ``None`` if not vectorizable."""
        with self._lock:
            cached = self._plans.get(workflow.name)
            if cached is not None and cached[0] is workflow:
                return cached[1]
        plan = self._build_plan(workflow)
        with self._lock:
            self._plans[workflow.name] = (workflow, plan)
        return plan

    def _build_plan(self, workflow: Workflow) -> Optional[_WorkflowPlan]:
        kernels: List[VectorizedFunctionKernel] = []
        for name in workflow.plan.names:
            spec = workflow.function(name)
            try:
                model = self.executor.performance_model.function_model(spec.profile_name)
            except KeyError:
                return None
            kernel = vectorize_function_model(model)
            if kernel is None:
                return None
            kernels.append(kernel)
        return _WorkflowPlan(workflow=workflow, kernels=tuple(kernels))

    # -- batch evaluation -------------------------------------------------------
    def evaluate_allocations(
        self,
        plan: _WorkflowPlan,
        allocations: np.ndarray,
        input_scale: float = 1.0,
    ) -> BatchOutcome:
        """Evaluate an ``(N, F, 2)`` allocation array against one workflow.

        Reproduces the scalar executor semantics column by column in
        topological order: OOM detection per function, skip propagation to
        dependents, billing of killed invocations at their minimum viable
        memory, and dependency-ordered start times.
        """
        allocations = np.asarray(allocations, dtype=float)
        estimates = batch_estimates(plan.kernels, allocations, input_scale=input_scale)
        n_configs, n_functions = allocations.shape[0], allocations.shape[1]
        pricing = self.executor.pricing
        charge_failed = self.executor.options.charge_failed_invocations
        predecessors = plan.workflow.plan.preds

        start = np.zeros((n_configs, n_functions))
        finish = np.zeros((n_configs, n_functions))
        runtime = np.zeros((n_configs, n_functions))
        cost = np.zeros((n_configs, n_functions))
        status = np.zeros((n_configs, n_functions), dtype=np.int8)
        failed = np.zeros((n_configs, n_functions), dtype=bool)
        total_cost = np.zeros(n_configs)

        for j in range(n_functions):
            estimate = estimates[j]
            vcpu = allocations[:, j, 0]
            memory = allocations[:, j, 1]
            # Same operation order as PricingModel.invocation_cost.
            rate = (
                pricing.price_per_vcpu_second * vcpu
                + pricing.price_per_mb_second * memory
            )

            preds = predecessors[j]
            if preds:
                start_j = finish[:, preds[0]].copy()
                for p in preds[1:]:
                    np.maximum(start_j, finish[:, p], out=start_j)
                skipped = failed[:, preds[0]].copy()
                for p in preds[1:]:
                    skipped |= failed[:, p]
            else:
                start_j = np.zeros(n_configs)
                skipped = np.zeros(n_configs, dtype=bool)

            oom = ~skipped & estimate.oom
            ok = ~skipped & ~estimate.oom

            runtime_j = np.where(ok, estimate.total_seconds, 0.0)
            cost_j = np.where(ok, estimate.total_seconds * rate + pricing.price_per_request, 0.0)
            if charge_failed and oom.any():
                runtime_j = np.where(oom, estimate.charged_seconds, runtime_j)
                cost_j = np.where(
                    oom,
                    estimate.charged_seconds * rate + pricing.price_per_request,
                    cost_j,
                )

            start[:, j] = start_j
            runtime[:, j] = runtime_j
            finish[:, j] = start_j + runtime_j
            cost[:, j] = cost_j
            status[:, j] = np.where(skipped, _SKIPPED, np.where(oom, _OOM, _SUCCESS))
            failed[:, j] = skipped | oom
            # Left-to-right accumulation in topological order matches the
            # scalar ``sum`` over the trace's insertion-ordered records.
            total_cost += cost_j

        latency = finish.max(axis=1)
        succeeded = ~failed.any(axis=1)
        return BatchOutcome(
            start=start,
            finish=finish,
            runtime=runtime,
            cost=cost,
            status=status,
            latency=latency,
            total_cost=total_cost,
            succeeded=succeeded,
        )

    # -- configuration plumbing -------------------------------------------------
    @staticmethod
    def allocation_array(
        plan: _WorkflowPlan, configurations: Sequence[WorkflowConfiguration]
    ) -> np.ndarray:
        """Stack configurations into the ``(N, F, 2)`` kernel input layout."""
        names = plan.workflow.plan.names
        allocations = np.empty((len(configurations), len(names), 2))
        try:
            # Column-wise fill with flat attribute comprehensions: this runs
            # N·F times per batch, and avoiding per-pair tuple allocation
            # measurably speeds up large sweeps.
            for j, name in enumerate(names):
                column = [configuration[name] for configuration in configurations]
                allocations[:, j, 0] = [config.vcpu for config in column]
                allocations[:, j, 1] = [config.memory_mb for config in column]
        except KeyError:
            # Report exactly as the scalar executor does.
            for configuration in configurations:
                missing = [
                    name for name in plan.workflow.function_names
                    if name not in configuration
                ]
                if missing:
                    raise KeyError(f"configuration is missing functions: {missing}")
            raise
        return allocations

    def traces(
        self,
        plan: _WorkflowPlan,
        configurations: Sequence[WorkflowConfiguration],
        outcome: BatchOutcome,
        input_scale: float = 1.0,
    ) -> List[ExecutionTrace]:
        """Wrap the outcome rows as (lazily materializing) execution traces."""
        workflow_name = plan.workflow.name
        # One whole-array tolist per field (C-speed) hands each trace its own
        # plain-float row, decoupling trace lifetime from the batch arrays.
        start = outcome.start.tolist()
        finish = outcome.finish.tolist()
        runtime = outcome.runtime.tolist()
        cost = outcome.cost.tolist()
        status = outcome.status.tolist()
        latency = outcome.latency.tolist()
        total_cost = outcome.total_cost.tolist()
        succeeded = outcome.succeeded.tolist()
        return [
            LazyExecutionTrace(
                workflow_name=workflow_name,
                input_scale=input_scale,
                names=plan.workflow.plan.names,
                configuration=configuration,
                start_row=start[i],
                finish_row=finish[i],
                runtime_row=runtime[i],
                cost_row=cost[i],
                status_row=status[i],
                latency=latency[i],
                total_cost=total_cost[i],
                succeeded=succeeded[i],
            )
            for i, configuration in enumerate(configurations)
        ]


class VectorizedBackend(EvaluationBackend):
    """Evaluation substrate serving whole batches from the array engine.

    Single ``evaluate`` calls delegate to the scalar executor (one
    configuration gains nothing from array form); ``evaluate_batch`` routes
    every rng-free entry through :class:`VectorizedWorkflowEngine` in one
    pass.  Composes with :class:`~repro.execution.backend.CachingBackend`
    exactly like the simulator substrate, and is selectable through
    ``build_backend(..., name="vectorized")`` / ``--backend vectorized``.
    """

    name = "vectorized"

    def __init__(self, executor: WorkflowExecutor) -> None:
        self.executor = executor
        self.engine = VectorizedWorkflowEngine(executor)
        self._lock = threading.Lock()
        self._stats = BackendStats()

    # -- scalar fallbacks -------------------------------------------------------
    def _must_use_scalar(self) -> bool:
        options = self.executor.options
        return options.simulate_cold_starts or options.fail_fast_on_oom

    def evaluate(
        self,
        workflow: Workflow,
        configuration: WorkflowConfiguration,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
    ) -> ExecutionTrace:
        trace = self.executor.execute(
            workflow, configuration, input_scale=input_scale, rng=rng
        )
        with self._lock:
            self._stats.evaluations += 1
            self._stats.simulations += 1
        return trace

    def evaluate_batch(
        self,
        workflow: Workflow,
        configurations: Sequence[WorkflowConfiguration],
        input_scale: float = 1.0,
        rngs: Optional[Sequence[Optional[RngStream]]] = None,
    ) -> List[ExecutionTrace]:
        configurations = list(configurations)
        rngs = self._check_rngs(configurations, rngs)
        plan = None if self._must_use_scalar() else self.engine.plan_for(workflow)

        vector_indices = (
            [i for i, rng in enumerate(rngs) if rng is None] if plan is not None else []
        )
        traces: List[Optional[ExecutionTrace]] = [None] * len(configurations)

        if vector_indices:
            batch = [configurations[i] for i in vector_indices]
            allocations = self.engine.allocation_array(plan, batch)
            outcome = self.engine.evaluate_allocations(
                plan, allocations, input_scale=input_scale
            )
            for index, trace in zip(
                vector_indices,
                self.engine.traces(plan, batch, outcome, input_scale=input_scale),
            ):
                traces[index] = trace

        scalar_count = 0
        for index, (configuration, rng) in enumerate(zip(configurations, rngs)):
            if traces[index] is None:
                traces[index] = self.executor.execute(
                    workflow, configuration, input_scale=input_scale, rng=rng
                )
                scalar_count += 1

        with self._lock:
            self._stats.evaluations += len(configurations)
            self._stats.simulations += scalar_count
            self._stats.vectorized += len(vector_indices)
            self._stats.batches += 1
        return traces  # type: ignore[return-value]

    # -- inspection -------------------------------------------------------------
    @property
    def stats(self) -> BackendStats:
        pool = self.executor.container_pool
        with self._lock:
            stats = BackendStats(**vars(self._stats))
        stats.cold_starts = pool.cold_starts
        stats.warm_hits = pool.warm_hits
        stats.evictions = pool.evictions
        stats.fault_kills = pool.fault_kills
        return stats

    @property
    def deterministic(self) -> bool:
        # Mirrors SimulatorBackend: a warm-container pool (scalar fallback
        # path) makes traces history-dependent.
        return not self.executor.options.simulate_cold_starts

    def describe(self) -> str:
        return "vectorized"
