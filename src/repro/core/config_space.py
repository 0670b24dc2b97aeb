"""The decoupled resource configuration space.

The paper discretises the decoupled space exactly as its Bayesian
Optimization baseline does (§IV-A): memory from 128 MB to 10 240 MB in 64 MB
increments, and vCPU from 0.1 to 10 cores independently of memory.  This
module owns that grid: snapping arbitrary allocations onto it, clamping to
bounds, enumerating values, sampling random configurations, and converting
whole-workflow configurations to/from normalised vectors (the representation
Bayesian optimization works in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.utils.ranges import POSITIVE, check_fields
from repro.utils.rng import RngStream
from repro.workflow.resources import (
    DEFAULT_COUPLING_MB_PER_VCPU,
    ResourceConfig,
    WorkflowConfiguration,
)

__all__ = ["ConfigurationSpace"]


@dataclass(frozen=True)
class ConfigurationSpace:
    """A discretised decoupled (vCPU, memory) grid.

    Attributes
    ----------
    memory_min_mb / memory_max_mb / memory_step_mb:
        Memory grid (defaults follow the paper: 128–10 240 MB in 64 MB steps).
    vcpu_min / vcpu_max / vcpu_step:
        vCPU grid (defaults follow the paper: 0.1–10 cores, 0.1 granularity).
    coupling_mb_per_vcpu:
        Memory-to-CPU ratio used when emulating coupled (memory-centric)
        platforms, e.g. for the MAFF baseline.
    """

    memory_min_mb: float = POSITIVE.field(128.0)
    memory_max_mb: float = POSITIVE.field(10240.0)
    memory_step_mb: float = POSITIVE.field(64.0)
    vcpu_min: float = POSITIVE.field(0.1)
    vcpu_max: float = POSITIVE.field(10.0)
    vcpu_step: float = POSITIVE.field(0.1)
    coupling_mb_per_vcpu: float = POSITIVE.field(DEFAULT_COUPLING_MB_PER_VCPU)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.memory_max_mb < self.memory_min_mb:
            raise ValueError("memory_max_mb must be >= memory_min_mb")
        if self.vcpu_max < self.vcpu_min:
            raise ValueError("vcpu_max must be >= vcpu_min")

    # -- grid values -------------------------------------------------------------
    def memory_values(self) -> List[float]:
        """All memory grid points, ascending."""
        count = int(round((self.memory_max_mb - self.memory_min_mb) / self.memory_step_mb)) + 1
        return [self.memory_min_mb + i * self.memory_step_mb for i in range(count)]

    def vcpu_values(self) -> List[float]:
        """All vCPU grid points, ascending."""
        count = int(round((self.vcpu_max - self.vcpu_min) / self.vcpu_step)) + 1
        return [round(self.vcpu_min + i * self.vcpu_step, 6) for i in range(count)]

    @property
    def n_memory_values(self) -> int:
        """Number of memory grid points."""
        return len(self.memory_values())

    @property
    def n_vcpu_values(self) -> int:
        """Number of vCPU grid points."""
        return len(self.vcpu_values())

    def size_per_function(self) -> int:
        """Number of distinct (vCPU, memory) pairs per function."""
        return self.n_memory_values * self.n_vcpu_values

    def size_for_workflow(self, n_functions: int) -> float:
        """Total number of workflow configurations (combinatorial)."""
        return float(self.size_per_function()) ** int(n_functions)

    # -- snapping / validity -------------------------------------------------------
    def snap_memory(self, memory_mb: float) -> float:
        """Snap a memory amount to the nearest grid point within bounds."""
        clipped = min(max(memory_mb, self.memory_min_mb), self.memory_max_mb)
        steps = round((clipped - self.memory_min_mb) / self.memory_step_mb)
        return min(
            self.memory_max_mb,
            max(self.memory_min_mb, self.memory_min_mb + steps * self.memory_step_mb),
        )

    def snap_vcpu(self, vcpu: float) -> float:
        """Snap a vCPU amount to the nearest grid point within bounds."""
        clipped = min(max(vcpu, self.vcpu_min), self.vcpu_max)
        steps = round((clipped - self.vcpu_min) / self.vcpu_step)
        snapped = self.vcpu_min + steps * self.vcpu_step
        return round(min(self.vcpu_max, max(self.vcpu_min, snapped)), 6)

    def snap(self, config: ResourceConfig) -> ResourceConfig:
        """Snap a configuration onto the grid."""
        return ResourceConfig(
            vcpu=self.snap_vcpu(config.vcpu), memory_mb=self.snap_memory(config.memory_mb)
        )

    def snap_configuration(self, configuration: WorkflowConfiguration) -> WorkflowConfiguration:
        """Snap every function's configuration onto the grid."""
        return WorkflowConfiguration(
            {name: self.snap(cfg) for name, cfg in configuration.items()}
        )

    def contains(self, config: ResourceConfig) -> bool:
        """Whether a configuration lies exactly on the grid (within bounds)."""
        snapped = self.snap(config)
        return (
            abs(snapped.vcpu - config.vcpu) < 1e-9
            and abs(snapped.memory_mb - config.memory_mb) < 1e-9
        )

    # -- common configurations -------------------------------------------------------
    def max_config(self) -> ResourceConfig:
        """The most generous configuration in the space."""
        return ResourceConfig(vcpu=self.vcpu_max, memory_mb=self.memory_max_mb)

    def min_config(self) -> ResourceConfig:
        """The most frugal configuration in the space."""
        return ResourceConfig(vcpu=self.vcpu_min, memory_mb=self.memory_min_mb)

    def default_base_config(self) -> ResourceConfig:
        """A generously over-provisioned starting point (Algorithm 1, line 3).

        Four full cores and 4 GB of memory sit comfortably above the needs of
        the paper's workloads while leaving the configurator plenty of room to
        deallocate; workloads can override this per function.
        """
        return self.snap(ResourceConfig(vcpu=4.0, memory_mb=4096.0))

    def coupled_config(self, memory_mb: float) -> ResourceConfig:
        """Memory-centric configuration with CPU coupled to memory.

        The CPU share is clamped to the space's vCPU bounds, mirroring how
        coupled platforms cap the largest allocation.
        """
        memory = self.snap_memory(memory_mb)
        vcpu = self.snap_vcpu(memory / self.coupling_mb_per_vcpu)
        return ResourceConfig(vcpu=vcpu, memory_mb=memory)

    def random_config(self, rng: RngStream) -> ResourceConfig:
        """Draw one configuration uniformly from the grid."""
        memory = rng.choice(self.memory_values())
        vcpu = rng.choice(self.vcpu_values())
        return ResourceConfig(vcpu=float(vcpu), memory_mb=float(memory))

    def random_configuration(
        self, function_names: Sequence[str], rng: RngStream
    ) -> WorkflowConfiguration:
        """Draw an independent random configuration for every function."""
        return WorkflowConfiguration(
            {name: self.random_config(rng.child(name)) for name in function_names}
        )

    # -- neighbourhood moves (used by the Priority Configurator) ---------------------
    def decrease_memory(self, config: ResourceConfig, fraction: float) -> ResourceConfig:
        """Remove ``fraction`` of the current memory, snapping to the grid.

        Guaranteed to move at least one grid step down unless already at the
        minimum.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        target = config.memory_mb * (1.0 - fraction)
        snapped = self.snap_memory(target)
        if snapped >= config.memory_mb and config.memory_mb > self.memory_min_mb:
            snapped = self.snap_memory(config.memory_mb - self.memory_step_mb)
        return config.with_memory(snapped)

    def decrease_vcpu(self, config: ResourceConfig, fraction: float) -> ResourceConfig:
        """Remove ``fraction`` of the current vCPU, snapping to the grid."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        target = config.vcpu * (1.0 - fraction)
        snapped = self.snap_vcpu(target)
        if snapped >= config.vcpu and config.vcpu > self.vcpu_min:
            snapped = self.snap_vcpu(config.vcpu - self.vcpu_step)
        return config.with_vcpu(snapped)

    def at_memory_floor(self, config: ResourceConfig) -> bool:
        """Whether memory cannot be reduced further."""
        return config.memory_mb <= self.memory_min_mb + 1e-9

    def at_vcpu_floor(self, config: ResourceConfig) -> bool:
        """Whether vCPU cannot be reduced further."""
        return config.vcpu <= self.vcpu_min + 1e-9

    # -- vector encoding (used by Bayesian optimization) ------------------------------
    def encode(
        self, configuration: WorkflowConfiguration, function_names: Sequence[str]
    ) -> np.ndarray:
        """Encode a workflow configuration as a normalised vector in [0, 1]^2n.

        The layout is ``[cpu_0, mem_0, cpu_1, mem_1, ...]`` following
        ``function_names`` order.
        """
        values: List[float] = []
        for name in function_names:
            config = configuration[name]
            cpu_span = self.vcpu_max - self.vcpu_min
            mem_span = self.memory_max_mb - self.memory_min_mb
            cpu_norm = 0.0 if cpu_span == 0 else (config.vcpu - self.vcpu_min) / cpu_span
            mem_norm = 0.0 if mem_span == 0 else (config.memory_mb - self.memory_min_mb) / mem_span
            values.extend([cpu_norm, mem_norm])
        return np.asarray(values, dtype=float)

    def decode(
        self, vector: np.ndarray, function_names: Sequence[str]
    ) -> WorkflowConfiguration:
        """Decode a normalised vector back into a snapped configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (2 * len(function_names),):
            raise ValueError(
                f"expected a vector of length {2 * len(function_names)}, got shape {vector.shape}"
            )
        configs: Dict[str, ResourceConfig] = {}
        for index, name in enumerate(function_names):
            cpu_norm = float(np.clip(vector[2 * index], 0.0, 1.0))
            mem_norm = float(np.clip(vector[2 * index + 1], 0.0, 1.0))
            vcpu = self.vcpu_min + cpu_norm * (self.vcpu_max - self.vcpu_min)
            memory = self.memory_min_mb + mem_norm * (self.memory_max_mb - self.memory_min_mb)
            configs[name] = ResourceConfig(
                vcpu=self.snap_vcpu(vcpu), memory_mb=self.snap_memory(memory)
            )
        return WorkflowConfiguration(configs)

    def dimensionality(self, n_functions: int) -> int:
        """Length of the encoded vector for a workflow of ``n_functions``."""
        return 2 * int(n_functions)

    def describe(self) -> str:
        """Human-readable summary of the grid."""
        return (
            f"ConfigurationSpace(memory {self.memory_min_mb:.0f}-{self.memory_max_mb:.0f} MB "
            f"step {self.memory_step_mb:.0f}, vCPU {self.vcpu_min}-{self.vcpu_max} "
            f"step {self.vcpu_step}, {self.size_per_function()} configs/function)"
        )
