"""Cost model for decoupled serverless resources.

The paper (§IV-A, Metrics) extends AWS Lambda's GB-second pricing to
decoupled resources:

    cost_ij = t_ij · (µ0 · cpu_j + µ1 · mem_j) + µ2

where ``t_ij`` is the runtime of function ``v_i`` under configuration
``(cpu_j, mem_j)``, ``µ0`` is the price per vCPU-second, ``µ1`` the price per
MB-second (the paper quotes GB-second pricing scaled so that µ1 = 0.001 per
MB-second matches its reported magnitudes), and ``µ2`` a flat per-request and
orchestration fee.  The paper sets µ0 = 0.512, µ1 = 0.001, µ2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.utils.ranges import NON_NEGATIVE, check_fields
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = [
    "PricingModel",
    "PAPER_PRICING",
    "aws_lambda_like_pricing",
    "coupled_memory_pricing",
]


@dataclass(frozen=True)
class PricingModel:
    """Linear decoupled pricing model.

    Attributes
    ----------
    price_per_vcpu_second:
        µ0 — cost of one vCPU for one second.
    price_per_mb_second:
        µ1 — cost of one MB of memory for one second.
    price_per_request:
        µ2 — flat fee per function invocation (includes orchestration).
    name:
        Identifier used in reports.
    """

    price_per_vcpu_second: float = NON_NEGATIVE.field(0.512)
    price_per_mb_second: float = NON_NEGATIVE.field(0.001)
    price_per_request: float = NON_NEGATIVE.field(0.0)
    name: str = "paper-decoupled"

    def __post_init__(self) -> None:
        check_fields(self)

    # -- costing -------------------------------------------------------------
    def invocation_cost(self, runtime_seconds: float, config: ResourceConfig) -> float:
        """Cost of one function invocation."""
        if runtime_seconds < 0:
            raise ValueError("runtime_seconds cannot be negative")
        rate = (
            self.price_per_vcpu_second * config.vcpu
            + self.price_per_mb_second * config.memory_mb
        )
        return runtime_seconds * rate + self.price_per_request

    def resource_rate(self, config: ResourceConfig) -> float:
        """Cost per second of holding a configuration (excludes µ2)."""
        return (
            self.price_per_vcpu_second * config.vcpu
            + self.price_per_mb_second * config.memory_mb
        )

    def workflow_cost(
        self,
        runtimes: Mapping[str, float],
        configuration: WorkflowConfiguration,
    ) -> float:
        """Total cost of one workflow execution.

        Parameters
        ----------
        runtimes:
            Per-function runtimes in seconds.
        configuration:
            Per-function resource allocations; every function appearing in
            ``runtimes`` must be present.
        """
        total = 0.0
        for function_name, runtime in runtimes.items():
            config = configuration.get(function_name)
            if config is None:
                raise KeyError(
                    f"configuration is missing function {function_name!r}"
                )
            total += self.invocation_cost(runtime, config)
        return total

    def describe(self) -> str:
        """Human-readable summary of the pricing constants."""
        return (
            f"PricingModel {self.name}: µ0={self.price_per_vcpu_second}/vCPU-s, "
            f"µ1={self.price_per_mb_second}/MB-s, µ2={self.price_per_request}/request"
        )


#: The exact constants used in the paper's evaluation.
PAPER_PRICING = PricingModel(
    price_per_vcpu_second=0.512,
    price_per_mb_second=0.001,
    price_per_request=0.0,
    name="paper-decoupled",
)


def aws_lambda_like_pricing(price_per_request: float = 0.0) -> PricingModel:
    """Pricing with the paper's µ0/µ1 but an explicit per-request fee."""
    return PricingModel(
        price_per_vcpu_second=0.512,
        price_per_mb_second=0.001,
        price_per_request=price_per_request,
        name="aws-lambda-like",
    )


def coupled_memory_pricing(price_per_mb_second: float = 0.0015) -> PricingModel:
    """Memory-centric pricing where CPU is free but implied by memory.

    Used for sanity checks of coupled baselines: platforms that only bill
    GB-seconds effectively fold the CPU price into the memory price.
    """
    return PricingModel(
        price_per_vcpu_second=0.0,
        price_per_mb_second=price_per_mb_second,
        price_per_request=0.0,
        name="coupled-memory-centric",
    )
