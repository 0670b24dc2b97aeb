"""Analytic per-function performance model.

The model predicts the runtime of one serverless function invocation from its
decoupled (vCPU, memory) allocation and relative input size.  It combines
three well-established effects:

* **Amdahl-style CPU scaling** — a function has ``cpu_seconds`` of
  computational work (measured at 1 vCPU).  A fraction ``parallel_fraction``
  of that work scales with extra cores (up to ``max_parallelism``); the rest
  is serial and only suffers when the allocation drops below one full core.
* **Memory working set and pressure** — below ``working_set_mb`` the function
  OOMs; between the working set and ``comfortable_memory_mb`` it pays a
  paging/GC penalty that grows linearly as memory shrinks.
* **Fixed I/O time** — remote storage access and orchestration overhead that
  no resource knob accelerates.

Input size rescales the work terms via power-law exponents, which is how the
input-aware engine (paper §IV-D) sees light/middle/heavy inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.perfmodel.base import FunctionPerformanceModel, OutOfMemoryError, RuntimeEstimate
from repro.perfmodel.noise import NoNoise, NoiseModel
from repro.utils.ranges import (
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    UNIT,
    check_fields,
)
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig

__all__ = ["FunctionProfile", "AnalyticFunctionModel"]


@dataclass(frozen=True)
class FunctionProfile:
    """Parameters of the analytic model for one function.

    Attributes
    ----------
    name:
        Profile identifier (usually the function name).
    cpu_seconds:
        CPU work of the profiling input, measured at exactly 1 vCPU.
    io_seconds:
        Resource-independent time (network, remote storage, orchestration).
    parallel_fraction:
        Fraction of the CPU work that benefits from additional cores
        (0 = fully serial, 1 = embarrassingly parallel).
    max_parallelism:
        Largest effective core count; cores beyond this are wasted.
    working_set_mb:
        Minimum memory below which the invocation OOMs.
    comfortable_memory_mb:
        Memory above which no pressure penalty applies.  Must be at least the
        working set.
    memory_pressure_penalty:
        Maximum multiplicative slowdown incurred right at the working-set
        boundary (e.g. 0.35 means up to 35 % slower).
    cpu_input_exponent / io_input_exponent / memory_input_exponent:
        Power-law exponents describing how CPU work, I/O time and the memory
        footprint grow with the relative input scale.
    cold_start_seconds:
        Container cold-start latency (charged by the execution simulator when
        an invocation does not hit a warm container).
    """

    name: str
    cpu_seconds: float = NON_NEGATIVE.field()
    io_seconds: float = NON_NEGATIVE.field(0.0)
    parallel_fraction: float = UNIT.field(0.7)
    max_parallelism: float = AT_LEAST_1.field(8.0)
    working_set_mb: float = POSITIVE.field(128.0)
    comfortable_memory_mb: float = POSITIVE.field(256.0)
    memory_pressure_penalty: float = NON_NEGATIVE.field(0.3)
    cpu_input_exponent: float = FINITE.field(1.0)
    io_input_exponent: float = FINITE.field(1.0)
    memory_input_exponent: float = FINITE.field(0.0)
    cold_start_seconds: float = NON_NEGATIVE.field(0.5)
    tags: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cpu_seconds == 0 and self.io_seconds == 0:
            raise ValueError("a function must take some time (cpu or io)")
        if self.comfortable_memory_mb < self.working_set_mb:
            raise ValueError("comfortable_memory_mb must be >= working_set_mb")

    def with_updates(self, **kwargs) -> "FunctionProfile":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    # -- input scaling -------------------------------------------------------
    def scaled_cpu_seconds(self, input_scale: float) -> float:
        """CPU work for a given relative input size."""
        return self.cpu_seconds * float(input_scale) ** self.cpu_input_exponent

    def scaled_io_seconds(self, input_scale: float) -> float:
        """I/O time for a given relative input size."""
        return self.io_seconds * float(input_scale) ** self.io_input_exponent

    def scaled_working_set_mb(self, input_scale: float) -> float:
        """Working set for a given relative input size."""
        return self.working_set_mb * float(input_scale) ** self.memory_input_exponent

    def scaled_comfortable_memory_mb(self, input_scale: float) -> float:
        """Pressure-free memory level for a given relative input size."""
        return self.comfortable_memory_mb * float(input_scale) ** self.memory_input_exponent


class AnalyticFunctionModel(FunctionPerformanceModel):
    """Analytic performance model of one function (see module docstring)."""

    def __init__(self, profile: FunctionProfile, noise: Optional[NoiseModel] = None) -> None:
        self.profile = profile
        self.noise = noise if noise is not None else NoNoise()

    # -- FunctionPerformanceModel interface -----------------------------------
    def minimum_memory_mb(self, input_scale: float = 1.0) -> float:
        if not 0.0 < input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        return self.profile.scaled_working_set_mb(input_scale)

    def estimate(
        self,
        config: ResourceConfig,
        input_scale: float = 1.0,
        rng: Optional[RngStream] = None,
    ) -> RuntimeEstimate:
        if not 0.0 < input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        profile = self.profile

        working_set = profile.scaled_working_set_mb(input_scale)
        if config.memory_mb < working_set:
            raise OutOfMemoryError(profile.name, config.memory_mb, working_set)

        cpu_seconds = self._cpu_time(config.vcpu, input_scale)
        io_seconds = profile.scaled_io_seconds(input_scale)
        memory_penalty = self._memory_penalty(config.memory_mb, input_scale)
        noise_factor = self.noise.sample(rng)
        total = (cpu_seconds + io_seconds) * memory_penalty * noise_factor
        return RuntimeEstimate(
            total_seconds=total,
            cpu_seconds=cpu_seconds,
            io_seconds=io_seconds,
            memory_penalty=memory_penalty,
            noise_factor=noise_factor,
        )

    # -- model components -----------------------------------------------------
    def _cpu_time(self, vcpu: float, input_scale: float) -> float:
        """Amdahl-style CPU time for a given core allocation."""
        profile = self.profile
        work = profile.scaled_cpu_seconds(input_scale)
        if work == 0:
            return 0.0
        serial_work = work * (1.0 - profile.parallel_fraction)
        parallel_work = work * profile.parallel_fraction
        # The serial portion runs on at most one core; sub-core allocations
        # throttle it proportionally (cgroup cpu.cfs_quota behaviour).
        serial_speed = min(vcpu, 1.0)
        parallel_speed = min(vcpu, profile.max_parallelism)
        return serial_work / serial_speed + parallel_work / parallel_speed

    def _memory_penalty(self, memory_mb: float, input_scale: float) -> float:
        """Linear pressure penalty between the working set and comfort level."""
        profile = self.profile
        working_set = profile.scaled_working_set_mb(input_scale)
        comfortable = profile.scaled_comfortable_memory_mb(input_scale)
        if memory_mb >= comfortable or comfortable <= working_set:
            return 1.0
        shortage = (comfortable - memory_mb) / (comfortable - working_set)
        shortage = min(max(shortage, 0.0), 1.0)
        return 1.0 + profile.memory_pressure_penalty * shortage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnalyticFunctionModel(profile={self.profile.name!r}, noise={self.noise!r})"
