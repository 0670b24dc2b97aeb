"""Tests for the NumPy batch kernels of the analytic model."""

import numpy as np
import pytest

from repro.perfmodel.analytic import AnalyticFunctionModel, FunctionProfile
from repro.perfmodel.base import FunctionPerformanceModel, OutOfMemoryError, RuntimeEstimate
from repro.perfmodel.noise import LognormalNoise, NoiseModel
from repro.perfmodel.vectorized import (
    VectorizedFunctionKernel,
    batch_estimates,
    vectorize_function_model,
)
from repro.workflow.resources import ResourceConfig

PROFILE = FunctionProfile(
    name="f",
    cpu_seconds=8.0,
    io_seconds=1.5,
    parallel_fraction=0.7,
    max_parallelism=6.0,
    working_set_mb=256.0,
    comfortable_memory_mb=512.0,
    memory_pressure_penalty=0.4,
    cpu_input_exponent=1.2,
    io_input_exponent=0.8,
    memory_input_exponent=0.5,
)


def scalar_runtime(profile, vcpu, memory, input_scale=1.0):
    model = AnalyticFunctionModel(profile)
    return model.estimate(
        ResourceConfig(vcpu=vcpu, memory_mb=memory), input_scale=input_scale
    ).total_seconds


class TestKernelParity:
    @pytest.mark.parametrize("input_scale", [0.25, 1.0, 3.7])
    def test_bitwise_equal_to_scalar_model(self, input_scale):
        kernel = VectorizedFunctionKernel(PROFILE)
        vcpus = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0])
        memories = np.array([300.0, 400.0, 512.0, 1024.0, 4096.0, 450.0, 600.0])
        batch = kernel.estimate_batch(vcpus, memories, input_scale=input_scale)
        for i, (vcpu, memory) in enumerate(zip(vcpus, memories)):
            if batch.oom[i]:
                continue
            expected = scalar_runtime(PROFILE, vcpu, memory, input_scale)
            assert batch.total_seconds[i] == expected

    def test_oom_mask_matches_scalar_exception(self):
        kernel = VectorizedFunctionKernel(PROFILE)
        model = AnalyticFunctionModel(PROFILE)
        memories = np.array([100.0, 255.9, 256.0, 256.1, 2048.0])
        batch = kernel.estimate_batch(np.full(len(memories), 2.0), memories)
        for i, memory in enumerate(memories):
            config = ResourceConfig(vcpu=2.0, memory_mb=memory)
            try:
                model.estimate(config)
                scalar_oom = False
            except OutOfMemoryError:
                scalar_oom = True
            assert bool(batch.oom[i]) == scalar_oom

    def test_charged_runtime_matches_minimum_viable_memory(self):
        kernel = VectorizedFunctionKernel(PROFILE)
        model = AnalyticFunctionModel(PROFILE)
        scale = 1.3
        vcpus = np.array([0.4, 1.0, 3.0])
        batch = kernel.estimate_batch(vcpus, np.full(3, 64.0), input_scale=scale)
        assert batch.oom.all()
        minimum = model.minimum_memory_mb(scale)
        for i, vcpu in enumerate(vcpus):
            viable = ResourceConfig(vcpu=vcpu, memory_mb=minimum)
            expected = model.estimate(viable, input_scale=scale).total_seconds
            assert batch.charged_seconds[i] == expected

    def test_no_pressure_band_profile(self):
        flat = FunctionProfile(
            name="flat", cpu_seconds=2.0, working_set_mb=128.0, comfortable_memory_mb=128.0
        )
        kernel = VectorizedFunctionKernel(flat)
        batch = kernel.estimate_batch(np.array([1.0]), np.array([128.0]))
        assert batch.total_seconds[0] == scalar_runtime(flat, 1.0, 128.0)
        assert batch.charged_seconds[0] == batch.total_seconds[0]

    def test_io_only_profile_ignores_vcpu(self):
        io_only = FunctionProfile(name="io", cpu_seconds=0.0, io_seconds=3.0)
        kernel = VectorizedFunctionKernel(io_only)
        batch = kernel.estimate_batch(np.array([0.1, 8.0]), np.array([512.0, 512.0]))
        assert batch.total_seconds[0] == batch.total_seconds[1]
        assert batch.total_seconds[0] == scalar_runtime(io_only, 0.1, 512.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_rejects_invalid_input_scale(self, scale):
        kernel = VectorizedFunctionKernel(PROFILE)
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            kernel.estimate_batch(np.array([1.0]), np.array([512.0]), input_scale=scale)
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            kernel.minimum_memory_mb(scale)

    def test_minimum_memory_matches_scalar(self):
        kernel = VectorizedFunctionKernel(PROFILE)
        model = AnalyticFunctionModel(PROFILE)
        assert kernel.minimum_memory_mb(2.0) == model.minimum_memory_mb(2.0)


class TestVectorizeFunctionModel:
    def test_analytic_model_vectorizes(self):
        kernel = vectorize_function_model(AnalyticFunctionModel(PROFILE))
        assert isinstance(kernel, VectorizedFunctionKernel)
        assert kernel.profile is PROFILE

    def test_known_noise_models_vectorize(self):
        model = AnalyticFunctionModel(PROFILE, noise=LognormalNoise(0.02))
        assert vectorize_function_model(model) is not None

    def test_custom_noise_model_rejected(self):
        class WeirdNoise(NoiseModel):
            def sample(self, rng):
                return 1.1  # biased even without an rng

        model = AnalyticFunctionModel(PROFILE, noise=WeirdNoise())
        assert vectorize_function_model(model) is None

    def test_non_analytic_model_rejected(self):
        class Stub(FunctionPerformanceModel):
            def estimate(self, config, input_scale=1.0, rng=None):
                return RuntimeEstimate(total_seconds=1.0, cpu_seconds=1.0, io_seconds=0.0)

            def minimum_memory_mb(self, input_scale=1.0):
                return 64.0

        assert vectorize_function_model(Stub()) is None


class TestBatchEstimates:
    def test_shape_validation(self):
        kernels = [VectorizedFunctionKernel(PROFILE)]
        with pytest.raises(ValueError):
            batch_estimates(kernels, np.zeros((4, 1)))
        with pytest.raises(ValueError):
            batch_estimates(kernels, np.zeros((4, 2, 2)))

    def test_per_function_columns(self):
        other = PROFILE.with_updates(name="g", cpu_seconds=1.0)
        kernels = [VectorizedFunctionKernel(PROFILE), VectorizedFunctionKernel(other)]
        allocations = np.array(
            [[[2.0, 1024.0], [1.0, 512.0]], [[4.0, 2048.0], [0.5, 700.0]]]
        )
        estimates = batch_estimates(kernels, allocations)
        assert len(estimates) == 2
        assert estimates[0].total_seconds[0] == scalar_runtime(PROFILE, 2.0, 1024.0)
        assert estimates[1].total_seconds[1] == scalar_runtime(other, 0.5, 700.0)
