"""NumPy batch kernels mirroring the analytic performance model.

:class:`~repro.perfmodel.analytic.AnalyticFunctionModel` predicts one
invocation per call; every full-grid sweep, random design and BO candidate
batch in the reproduction therefore pays one Python call per (function,
configuration) pair.  This module provides the batch twin: a
:class:`VectorizedFunctionKernel` evaluates *all* candidate allocations of one
function in a single pass of array arithmetic, and :func:`batch_estimates`
stacks the kernels of a whole workflow over an ``(N, F, 2)`` allocation array.

The kernels are engineered to be **bit-identical** to the scalar model, not
merely close: the input-scale power laws are folded into per-batch Python
scalars first (one ``**`` per profile, exactly as the scalar path computes
them), and the remaining per-configuration arithmetic — Amdahl scaling,
memory-pressure penalty, OOM masking and the failed-invocation billing rule —
uses the same elementwise IEEE operations in the same order as
``AnalyticFunctionModel.estimate``.  The parity property test in
``tests/properties/test_vectorized_parity.py`` pins this down.

Noise is the one inherently scalar ingredient (each invocation draws from its
own derived stream), so kernels model the *deterministic* expectation; noisy
evaluations stay on the scalar path (see
:class:`~repro.execution.vectorized.VectorizedBackend`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.perfmodel.analytic import AnalyticFunctionModel, FunctionProfile
from repro.perfmodel.base import FunctionPerformanceModel
from repro.perfmodel.noise import GaussianNoise, LognormalNoise, NoNoise

__all__ = [
    "BatchEstimate",
    "VectorizedFunctionKernel",
    "vectorize_function_model",
    "batch_estimates",
]


@dataclass(frozen=True)
class BatchEstimate:
    """Batched runtime prediction for one function.

    Attributes
    ----------
    total_seconds:
        ``(N,)`` deterministic runtimes — the value the scalar model returns
        for allocations that hold the working set.  Rows flagged ``oom`` carry
        the runtime the allocation *would* have had ignoring the OOM (callers
        must consult the mask).
    oom:
        ``(N,)`` boolean mask: the allocation's memory is below the function's
        (input-scaled) working set and the invocation is killed.
    charged_seconds:
        ``(N,)`` billed runtime of an OOM-killed invocation — the runtime at
        the minimum viable memory, mirroring
        ``ExecutorOptions.charge_failed_invocations``.
    """

    total_seconds: np.ndarray
    oom: np.ndarray
    charged_seconds: np.ndarray


class VectorizedFunctionKernel:
    """Batch twin of :class:`AnalyticFunctionModel` for one profile.

    ``estimate_batch`` takes parallel ``(N,)`` arrays of vCPU and memory
    allocations and returns a :class:`BatchEstimate` covering all N
    configurations in one pass.
    """

    def __init__(self, profile: FunctionProfile) -> None:
        self.profile = profile

    # -- scalar pre-computation -------------------------------------------------
    def _scaled_terms(self, input_scale: float) -> Tuple[float, float, float, float]:
        """(cpu work, io time, working set, comfortable memory) at one scale.

        Computed with the profile's own scalar methods so the power laws are
        evaluated with exactly the floating-point operations the scalar model
        uses.
        """
        profile = self.profile
        return (
            profile.scaled_cpu_seconds(input_scale),
            profile.scaled_io_seconds(input_scale),
            profile.scaled_working_set_mb(input_scale),
            profile.scaled_comfortable_memory_mb(input_scale),
        )

    # -- batch kernel -----------------------------------------------------------
    def estimate_batch(
        self,
        vcpu: np.ndarray,
        memory_mb: np.ndarray,
        input_scale: float = 1.0,
    ) -> BatchEstimate:
        """Predict all N allocations of this function in one array pass."""
        if not 0.0 < input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        vcpu = np.asarray(vcpu, dtype=float)
        memory_mb = np.asarray(memory_mb, dtype=float)
        profile = self.profile
        work, io_seconds, working_set, comfortable = self._scaled_terms(input_scale)

        cpu_seconds = self._cpu_time_batch(vcpu, work)
        penalty = self._memory_penalty_batch(memory_mb, working_set, comfortable)
        # Scalar path: (cpu + io) * penalty * noise_factor with noise 1.0;
        # multiplying by 1.0 is exact, so it is elided here.
        total = (cpu_seconds + io_seconds) * penalty

        oom = memory_mb < working_set
        # Billing rule for OOM kills: runtime at the minimum viable memory.
        # At memory == working_set the scalar penalty is exactly
        # 1 + memory_pressure_penalty (shortage == 1.0) unless the profile has
        # no pressure band at all.
        if comfortable <= working_set:
            charged_penalty = 1.0
        else:
            charged_penalty = 1.0 + profile.memory_pressure_penalty * 1.0
        charged = (cpu_seconds + io_seconds) * charged_penalty
        return BatchEstimate(total_seconds=total, oom=oom, charged_seconds=charged)

    def minimum_memory_mb(self, input_scale: float = 1.0) -> float:
        """Smallest allocation that avoids an OOM (same as the scalar model)."""
        if not 0.0 < input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        return self.profile.scaled_working_set_mb(input_scale)

    # -- model components -------------------------------------------------------
    def _cpu_time_batch(self, vcpu: np.ndarray, work: float) -> np.ndarray:
        """Amdahl-style CPU time, elementwise over the vCPU column."""
        profile = self.profile
        if work == 0:
            return np.zeros_like(vcpu)
        serial_work = work * (1.0 - profile.parallel_fraction)
        parallel_work = work * profile.parallel_fraction
        serial_speed = np.minimum(vcpu, 1.0)
        parallel_speed = np.minimum(vcpu, profile.max_parallelism)
        return serial_work / serial_speed + parallel_work / parallel_speed

    def _memory_penalty_batch(
        self, memory_mb: np.ndarray, working_set: float, comfortable: float
    ) -> np.ndarray:
        """Linear pressure penalty, elementwise over the memory column."""
        profile = self.profile
        if comfortable <= working_set:
            return np.ones_like(memory_mb)
        shortage = (comfortable - memory_mb) / (comfortable - working_set)
        shortage = np.minimum(np.maximum(shortage, 0.0), 1.0)
        penalty = 1.0 + profile.memory_pressure_penalty * shortage
        return np.where(memory_mb >= comfortable, 1.0, penalty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VectorizedFunctionKernel(profile={self.profile.name!r})"


#: Noise models whose rng-free sample is exactly 1.0, i.e. whose deterministic
#: expectation matches the noiseless prediction bit-for-bit.
_DETERMINISTIC_NOISE = (NoNoise, LognormalNoise, GaussianNoise)


def vectorize_function_model(
    model: FunctionPerformanceModel,
) -> Optional[VectorizedFunctionKernel]:
    """Build the batch kernel of a scalar function model, if one exists.

    Returns ``None`` when the model cannot be vectorized faithfully: only
    :class:`AnalyticFunctionModel` instances whose noise model is a known
    deterministic-expectation type (``NoNoise``, ``LognormalNoise``,
    ``GaussianNoise`` — all return exactly 1.0 without an rng) qualify.
    Callers fall back to the scalar path for anything else, so custom model
    stubs keep working.
    """
    if not isinstance(model, AnalyticFunctionModel):
        return None
    if not isinstance(model.noise, _DETERMINISTIC_NOISE):
        return None
    return VectorizedFunctionKernel(model.profile)


def batch_estimates(
    kernels: Sequence[VectorizedFunctionKernel],
    allocations: np.ndarray,
    input_scale: float = 1.0,
) -> List[BatchEstimate]:
    """Evaluate a whole workflow's functions over an ``(N, F, 2)`` array.

    ``allocations[i, j]`` is the ``(vcpu, memory_mb)`` pair of function ``j``
    in candidate configuration ``i``; ``kernels[j]`` is that function's batch
    kernel.  Returns one :class:`BatchEstimate` per function, each covering
    all N configurations.
    """
    allocations = np.asarray(allocations, dtype=float)
    if allocations.ndim != 3 or allocations.shape[2] != 2:
        raise ValueError(
            f"allocations must have shape (N, F, 2), got {allocations.shape}"
        )
    if allocations.shape[1] != len(kernels):
        raise ValueError(
            f"allocations cover {allocations.shape[1]} functions "
            f"but {len(kernels)} kernels were given"
        )
    return [
        kernel.estimate_batch(
            allocations[:, j, 0], allocations[:, j, 1], input_scale=input_scale
        )
        for j, kernel in enumerate(kernels)
    ]
