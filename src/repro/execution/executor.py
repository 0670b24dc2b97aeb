"""Workflow executor: simulate one workflow invocation end to end.

The executor combines the workflow DAG, a performance model, a pricing model
and (optionally) a warm-container pool into a single call:
``execute(workflow, configuration)`` → :class:`ExecutionTrace`.  All search
algorithms in this reproduction observe the platform exclusively through this
call, exactly as the paper's methods only observe measured runtime and cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.execution.container import ContainerPool
from repro.execution.trace import ExecutionStatus, ExecutionTrace, FunctionExecution
from repro.perfmodel.base import OutOfMemoryError, PerformanceModel
from repro.pricing.model import PAPER_PRICING, PricingModel
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = ["ExecutorOptions", "WorkflowExecutor"]


@dataclass(frozen=True)
class ExecutorOptions:
    """Tunable behaviour of the simulator.

    Attributes
    ----------
    simulate_cold_starts:
        When True, invocations that miss the warm pool pay the profile's
        cold-start latency (and are billed for it).
    fail_fast_on_oom:
        When True, :class:`OutOfMemoryError` propagates to the caller instead
        of being recorded as a failed trace.  The configuration search
        algorithms prefer the recorded-trace behaviour (they must observe the
        error and revert), so this defaults to False.
    charge_failed_invocations:
        Whether an OOM-killed invocation is billed for the time it ran before
        being killed (platforms do bill these); modelled as the runtime the
        function would have had at its minimum viable memory.
    """

    simulate_cold_starts: bool = False
    fail_fast_on_oom: bool = False
    charge_failed_invocations: bool = True


class WorkflowExecutor:
    """Simulates workflow executions under per-function resource configs."""

    def __init__(
        self,
        performance_model: PerformanceModel,
        pricing: PricingModel = PAPER_PRICING,
        options: Optional[ExecutorOptions] = None,
        container_pool: Optional[ContainerPool] = None,
    ) -> None:
        self.performance_model = performance_model
        self.pricing = pricing
        self.options = options if options is not None else ExecutorOptions()
        self.container_pool = container_pool if container_pool is not None else ContainerPool()
        self._executions = 0
        # The parallel evaluation backend drives one executor from several
        # threads; the counter and the warm pool are the only shared state.
        self._lock = threading.Lock()

    @property
    def executions(self) -> int:
        """Number of workflow executions simulated so far."""
        return self._executions

    def execute(
        self,
        workflow: Workflow,
        configuration: WorkflowConfiguration,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
        trigger_time: float = 0.0,
    ) -> ExecutionTrace:
        """Simulate one execution of ``workflow`` under ``configuration``.

        Parameters
        ----------
        workflow:
            The DAG to execute.
        configuration:
            Per-function resource allocations; must cover every function.
        input_scale:
            Relative input size forwarded to the performance model.
        rng:
            Optional random stream enabling run-to-run noise.
        trigger_time:
            Simulated timestamp of the workflow trigger (used for the warm
            pool when cold starts are simulated).

        Returns
        -------
        ExecutionTrace
            Per-function records plus end-to-end latency and total cost.  If
            some function OOMs, its record carries ``ExecutionStatus.OOM`` and
            all dependent functions are marked ``SKIPPED`` (unless
            ``fail_fast_on_oom`` is set, in which case the error propagates).
        """
        missing = [name for name in workflow.function_names if name not in configuration]
        if missing:
            raise KeyError(f"configuration is missing functions: {missing}")

        trace = ExecutionTrace(workflow_name=workflow.name, input_scale=input_scale)
        # Indexed by position in the plan's topological order.
        finish_times: List[float] = []
        failed: List[bool] = []

        for function_name, predecessors in zip(workflow.plan.names, workflow.plan.preds):
            spec = workflow.function(function_name)
            config = configuration[function_name]
            start_time = max(
                (finish_times[p] for p in predecessors), default=float(trigger_time)
            )

            if any(failed[p] for p in predecessors):
                trace.add(
                    FunctionExecution(
                        function_name=function_name,
                        config=config,
                        start_time=start_time,
                        finish_time=start_time,
                        runtime_seconds=0.0,
                        cost=0.0,
                        status=ExecutionStatus.SKIPPED,
                        input_scale=input_scale,
                    )
                )
                finish_times.append(start_time)
                failed.append(True)
                continue

            record = self._invoke(
                spec.profile_name,
                function_name,
                config,
                start_time,
                input_scale,
                rng.child(function_name) if rng is not None else None,
            )
            trace.add(record)
            finish_times.append(record.finish_time)
            failed.append(not record.succeeded)

        with self._lock:
            self._executions += 1
        return trace

    # -- single invocation -------------------------------------------------------
    def _invoke(
        self,
        profile_name: str,
        function_name: str,
        config: ResourceConfig,
        start_time: float,
        input_scale: float,
        rng: Optional[RngStream],
    ) -> FunctionExecution:
        function_model = self.performance_model.function_model(profile_name)

        cold_start = False
        cold_start_seconds = 0.0
        if self.options.simulate_cold_starts:
            with self._lock:
                container, cold_start = self.container_pool.acquire(
                    function_name, config, start_time
                )
            if cold_start:
                cold_start_seconds = self.cold_start_latency(profile_name)
        else:
            container = None

        try:
            estimate = function_model.estimate(config, input_scale=input_scale, rng=rng)
        except OutOfMemoryError:
            # The OOM kill destroys the container.  Acquired containers are
            # checked out of the warm pool, so simply never releasing this
            # one keeps dead containers from serving future warm starts.
            if self.options.fail_fast_on_oom:
                raise
            runtime = 0.0
            cost = 0.0
            if self.options.charge_failed_invocations:
                # The container runs until the kernel OOM-kills it; approximate
                # the billed time with the runtime at the minimum viable memory.
                minimum_memory = function_model.minimum_memory_mb(input_scale)
                viable = config.with_memory(minimum_memory)
                runtime = function_model.estimate(viable, input_scale=input_scale).total_seconds
                cost = self.pricing.invocation_cost(runtime, config)
            finish_time = start_time + runtime + cold_start_seconds
            return FunctionExecution(
                function_name=function_name,
                config=config,
                start_time=start_time,
                finish_time=finish_time,
                runtime_seconds=runtime + cold_start_seconds,
                cost=cost,
                status=ExecutionStatus.OOM,
                cold_start=cold_start,
                cold_start_seconds=cold_start_seconds,
                input_scale=input_scale,
            )

        runtime = estimate.total_seconds + cold_start_seconds
        finish_time = start_time + runtime
        cost = self.pricing.invocation_cost(runtime, config)
        if container is not None:
            with self._lock:
                self.container_pool.release(container, finish_time)
        return FunctionExecution(
            function_name=function_name,
            config=config,
            start_time=start_time,
            finish_time=finish_time,
            runtime_seconds=runtime,
            cost=cost,
            status=ExecutionStatus.SUCCESS,
            cold_start=cold_start,
            cold_start_seconds=cold_start_seconds,
            input_scale=input_scale,
        )

    def cold_start_latency(self, profile_name: str) -> float:
        """Cold-start latency of a function profile (0 when unspecified).

        Exposed publicly because the serving layer overlays cold starts on
        memoized trigger-0 traces instead of paying them inside ``execute``.
        """
        function_model = self.performance_model.function_model(profile_name)
        profile = getattr(function_model, "profile", None)
        if profile is not None:
            return float(getattr(profile, "cold_start_seconds", 0.0))
        return 0.0

    def cold_latencies(self, workflow: Workflow) -> Tuple[float, ...]:
        """Cold-start latency of every function, aligned with ``workflow.plan.names``."""
        return tuple(
            self.cold_start_latency(workflow.function(name).profile_name)
            for name in workflow.plan.names
        )
