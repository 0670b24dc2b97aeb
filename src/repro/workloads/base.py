"""Workload specification: everything one benchmark application needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.execution.backend import EvaluationBackend, build_backend
from repro.execution.executor import ExecutorOptions, WorkflowExecutor
from repro.execution.faults import FaultPlan
from repro.perfmodel.analytic import FunctionProfile
from repro.workloads.arrivals import TrafficModel, TrafficProfile
from repro.workloads.inputs import InputClass
from repro.perfmodel.noise import NoiseModel
from repro.perfmodel.registry import PerformanceModelRegistry
from repro.pricing.model import PAPER_PRICING, PricingModel
from repro.core.objective import WorkflowObjective
from repro.utils.rng import RngStream
from repro.workflow.dag import Workflow
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = ["WorkloadSpec"]


@dataclass
class WorkloadSpec:
    """A benchmark application bundled with its simulation substrate.

    Attributes
    ----------
    name:
        Workload identifier (``"chatbot"``, ``"ml-pipeline"``, ``"video-analysis"``).
    workflow:
        The DAG of functions.
    profiles:
        Analytic performance profile of every function.
    slo:
        End-to-end latency objective used in the paper's evaluation.
    base_config:
        Over-provisioned starting configuration (Algorithm 1's base).
    description:
        Short description used by reports and examples.
    communication_pattern:
        ``"scatter"`` or ``"broadcast"`` as characterised in the paper.
    default_input_scale:
        Input scale representing the paper's standard input.
    input_classes:
        Input-size classes of an input-sensitive workload (``None`` means a
        single standard class).
    traffic:
        Default traffic profile for serving experiments (arrival process,
        rate, class mix); the `serve` CLI overrides it per run.
    faults:
        Default fault profile of the workload (what ``serve
        --faults default`` injects); ``None`` means the workload has no
        characteristic failure mode and ``default`` degrades to no faults.
    """

    name: str
    workflow: Workflow
    profiles: List[FunctionProfile]
    slo: SLO
    base_config: ResourceConfig
    description: str = ""
    communication_pattern: str = "scatter"
    default_input_scale: float = 1.0
    pricing: PricingModel = field(default_factory=lambda: PAPER_PRICING)
    input_classes: Optional[List[InputClass]] = None
    traffic: TrafficProfile = field(default_factory=TrafficProfile)
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        profile_names = {profile.name for profile in self.profiles}
        missing = [
            spec.profile_name
            for spec in self.workflow.functions
            if spec.profile_name not in profile_names
        ]
        if missing:
            raise ValueError(
                f"workload {self.name!r} lacks profiles for functions: {missing}"
            )

    # -- substrate builders -------------------------------------------------------
    def build_registry(self, noise: Optional[NoiseModel] = None) -> PerformanceModelRegistry:
        """Create the performance-model registry for this workload."""
        return PerformanceModelRegistry.from_profiles(self.profiles, noise=noise)

    def build_executor(
        self,
        noise: Optional[NoiseModel] = None,
        options: Optional[ExecutorOptions] = None,
        pricing: Optional[PricingModel] = None,
    ) -> WorkflowExecutor:
        """Create an execution simulator for this workload."""
        return WorkflowExecutor(
            performance_model=self.build_registry(noise=noise),
            pricing=pricing if pricing is not None else self.pricing,
            options=options,
        )

    def build_backend(
        self,
        executor: Optional[WorkflowExecutor] = None,
        noise: Optional[NoiseModel] = None,
        backend: str = "simulator",
        cache: bool = False,
    ) -> EvaluationBackend:
        """Create an evaluation backend stack over this workload's simulator."""
        if executor is None:
            executor = self.build_executor(noise=noise)
        return build_backend(executor, name=backend, cache=cache)

    def build_objective(
        self,
        executor: Optional[WorkflowExecutor] = None,
        input_scale: Optional[float] = None,
        rng: Optional[RngStream] = None,
        max_samples: Optional[int] = None,
        noise: Optional[NoiseModel] = None,
        backend: Optional[EvaluationBackend] = None,
    ) -> WorkflowObjective:
        """Create a fresh sample-counting objective for this workload.

        Passing a ``backend`` (e.g. a shared
        :class:`~repro.execution.backend.CachingBackend`) overrides the
        default simulator substrate; a backend shared between objectives
        shares its memoized evaluations.
        """
        if executor is None and backend is None:
            executor = self.build_executor(noise=noise)
        return WorkflowObjective(
            executor=executor,
            workflow=self.workflow,
            slo=self.slo,
            input_scale=input_scale if input_scale is not None else self.default_input_scale,
            rng=rng,
            max_samples=max_samples,
            backend=backend,
        )

    def traffic_model(
        self,
        arrival: Optional[str] = None,
        rate_rps: Optional[float] = None,
        profile: Optional[TrafficProfile] = None,
    ) -> TrafficModel:
        """Build the traffic model for a serving run.

        Starts from this workload's default :class:`TrafficProfile` (or an
        explicit ``profile``) and applies the per-run overrides.
        """
        base = profile if profile is not None else self.traffic
        return TrafficModel.from_profile(
            base.override(arrival=arrival, rate_rps=rate_rps),
            classes=self.input_classes,
        )

    def base_configuration(self) -> WorkflowConfiguration:
        """The base configuration applied to every function."""
        return WorkflowConfiguration.uniform(self.workflow.function_names, self.base_config)

    def profile_by_name(self, name: str) -> FunctionProfile:
        """Look up one function's profile."""
        for profile in self.profiles:
            if profile.name == name:
                return profile
        raise KeyError(f"workload {self.name!r} has no profile {name!r}")

    def affinities(self) -> Dict[str, str]:
        """Function → dominant affinity tag (for placement studies)."""
        tags: Dict[str, str] = {}
        for spec in self.workflow.functions:
            profile = self.profile_by_name(spec.profile_name)
            tags[spec.name] = profile.tags[0] if profile.tags else "balanced"
        return tags

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Workload {self.name!r}: {self.description}",
            f"  pattern: {self.communication_pattern}",
            f"  SLO: {self.slo.describe()}",
            f"  base config: {self.base_config.describe()}",
            self.workflow.describe(),
        ]
        return "\n".join(lines)
