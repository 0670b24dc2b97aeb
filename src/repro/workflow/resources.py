"""Resource configuration containers.

The paper's central idea is *decoupling* CPU and memory: a function's
configuration is an independent pair ``(vcpu, memory_mb)`` rather than a
memory quota with CPU derived proportionally (the AWS Lambda model).  A
workflow configuration maps every function in a DAG to such a pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.utils.ranges import POSITIVE
from repro.utils.units import format_memory

__all__ = ["ResourceConfig", "WorkflowConfiguration", "coupled_cpu_for_memory"]

#: AWS-Lambda-style coupling ratio used by the MAFF baseline: one full vCPU
#: per 1024 MB of memory (see §IV-A of the paper).
DEFAULT_COUPLING_MB_PER_VCPU = 1024.0


def coupled_cpu_for_memory(
    memory_mb: float, mb_per_vcpu: float = DEFAULT_COUPLING_MB_PER_VCPU
) -> float:
    """CPU share implied by a memory quota under proportional coupling."""
    return POSITIVE.check(memory_mb, "memory_mb") / POSITIVE.check(mb_per_vcpu, "mb_per_vcpu")


@dataclass(frozen=True)
class ResourceConfig:
    """A decoupled (vCPU, memory) allocation for one serverless function.

    Attributes
    ----------
    vcpu:
        Number of virtual CPU cores (may be fractional, e.g. 0.5).
    memory_mb:
        Memory quota in MB.
    """

    vcpu: float
    memory_mb: float

    def __post_init__(self) -> None:
        # Checked inline rather than by ``check_fields``: a search builds
        # thousands of these per iteration.  NaN and ±inf fail both ranges.
        if not 0.0 < self.vcpu < math.inf:
            raise ValueError(f"vcpu must be positive and finite, got {self.vcpu}")
        if not 0.0 < self.memory_mb < math.inf:
            raise ValueError(f"memory_mb must be positive and finite, got {self.memory_mb}")

    @classmethod
    def coupled(
        cls, memory_mb: float, mb_per_vcpu: float = DEFAULT_COUPLING_MB_PER_VCPU
    ) -> "ResourceConfig":
        """Build a configuration with CPU proportional to memory."""
        return cls(vcpu=coupled_cpu_for_memory(memory_mb, mb_per_vcpu), memory_mb=memory_mb)

    def with_vcpu(self, vcpu: float) -> "ResourceConfig":
        """Return a copy with a different vCPU allocation."""
        return ResourceConfig(vcpu=vcpu, memory_mb=self.memory_mb)

    def with_memory(self, memory_mb: float) -> "ResourceConfig":
        """Return a copy with a different memory allocation."""
        return ResourceConfig(vcpu=self.vcpu, memory_mb=memory_mb)

    def scaled(self, cpu_factor: float = 1.0, memory_factor: float = 1.0) -> "ResourceConfig":
        """Return a copy with CPU and/or memory multiplied by a factor."""
        return ResourceConfig(
            vcpu=self.vcpu * cpu_factor, memory_mb=self.memory_mb * memory_factor
        )

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(vcpu, memory_mb)``."""
        return (self.vcpu, self.memory_mb)

    def describe(self) -> str:
        """Human-readable summary, e.g. ``'2.0 vCPU / 512MB'``."""
        return f"{self.vcpu:g} vCPU / {format_memory(self.memory_mb)}"


class WorkflowConfiguration:
    """Mapping from function name to :class:`ResourceConfig`.

    Instances are immutable from the caller's point of view: mutating
    operations return a new configuration, which keeps optimizer history
    snapshots trustworthy.
    """

    def __init__(self, configs: Optional[Mapping[str, ResourceConfig]] = None) -> None:
        self._configs: Dict[str, ResourceConfig] = dict(configs or {})

    # -- constructors ----------------------------------------------------
    @classmethod
    def uniform(
        cls, function_names: Iterable[str], config: ResourceConfig
    ) -> "WorkflowConfiguration":
        """Assign the same configuration to every function."""
        return cls({name: config for name in function_names})

    @classmethod
    def coupled_uniform(
        cls,
        function_names: Iterable[str],
        memory_mb: float,
        mb_per_vcpu: float = DEFAULT_COUPLING_MB_PER_VCPU,
    ) -> "WorkflowConfiguration":
        """Assign the same coupled configuration to every function."""
        return cls.uniform(function_names, ResourceConfig.coupled(memory_mb, mb_per_vcpu))

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, function_name: str) -> ResourceConfig:
        return self._configs[function_name]

    def __contains__(self, function_name: str) -> bool:
        return function_name in self._configs

    def __iter__(self) -> Iterator[str]:
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowConfiguration):
            return NotImplemented
        return self._configs == other._configs

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v.vcpu, v.memory_mb) for k, v in self._configs.items())))

    def items(self):
        """Iterate over (function name, config) pairs."""
        return self._configs.items()

    def keys(self):
        """Iterate over function names."""
        return self._configs.keys()

    def values(self):
        """Iterate over configs."""
        return self._configs.values()

    def get(self, function_name: str, default: Optional[ResourceConfig] = None):
        """Dictionary-style ``get``."""
        return self._configs.get(function_name, default)

    # -- functional updates ------------------------------------------------
    def updated(self, function_name: str, config: ResourceConfig) -> "WorkflowConfiguration":
        """Return a new configuration with one function's config replaced."""
        merged = dict(self._configs)
        merged[function_name] = config
        return WorkflowConfiguration(merged)

    def merged(self, other: "WorkflowConfiguration") -> "WorkflowConfiguration":
        """Return the union of two configurations; ``other`` wins conflicts."""
        merged = dict(self._configs)
        merged.update(other._configs)
        return WorkflowConfiguration(merged)

    def restricted_to(self, function_names: Iterable[str]) -> "WorkflowConfiguration":
        """Return a configuration containing only the requested functions."""
        names = set(function_names)
        return WorkflowConfiguration(
            {name: cfg for name, cfg in self._configs.items() if name in names}
        )

    def copy(self) -> "WorkflowConfiguration":
        """Return a shallow copy."""
        return WorkflowConfiguration(self._configs)

    # -- aggregate views ---------------------------------------------------
    def total_vcpu(self) -> float:
        """Sum of vCPU allocations across functions."""
        return sum(cfg.vcpu for cfg in self._configs.values())

    def total_memory_mb(self) -> float:
        """Sum of memory allocations across functions."""
        return sum(cfg.memory_mb for cfg in self._configs.values())

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"  {name}: {cfg.describe()}" for name, cfg in sorted(self._configs.items())
        ]
        return "WorkflowConfiguration(\n" + "\n".join(lines) + "\n)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkflowConfiguration({self._configs!r})"
