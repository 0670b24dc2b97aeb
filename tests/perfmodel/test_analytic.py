"""Tests for the analytic per-function performance model."""

import pytest

from repro.perfmodel.analytic import AnalyticFunctionModel, FunctionProfile
from repro.perfmodel.base import OutOfMemoryError
from repro.perfmodel.noise import LognormalNoise
from repro.utils.rng import RngStream
from repro.workflow.resources import ResourceConfig


def make_profile(**overrides) -> FunctionProfile:
    defaults = dict(
        name="fn",
        cpu_seconds=10.0,
        io_seconds=2.0,
        parallel_fraction=0.8,
        max_parallelism=4.0,
        working_set_mb=256.0,
        comfortable_memory_mb=512.0,
        memory_pressure_penalty=0.5,
    )
    defaults.update(overrides)
    return FunctionProfile(**defaults)


class TestProfileValidation:
    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            make_profile(cpu_seconds=-1)

    def test_zero_work_rejected(self):
        with pytest.raises(ValueError):
            make_profile(cpu_seconds=0, io_seconds=0)

    def test_parallel_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_profile(parallel_fraction=1.5)

    def test_max_parallelism_minimum(self):
        with pytest.raises(ValueError):
            make_profile(max_parallelism=0.5)

    def test_comfortable_below_working_set_rejected(self):
        with pytest.raises(ValueError):
            make_profile(working_set_mb=512, comfortable_memory_mb=256)

    def test_with_updates(self):
        profile = make_profile()
        updated = profile.with_updates(cpu_seconds=99.0)
        assert updated.cpu_seconds == 99.0
        assert profile.cpu_seconds == 10.0


class TestInputScaling:
    def test_cpu_scales_with_exponent(self):
        profile = make_profile(cpu_input_exponent=1.0)
        assert profile.scaled_cpu_seconds(2.0) == pytest.approx(20.0)

    def test_sublinear_io_scaling(self):
        profile = make_profile(io_input_exponent=0.5)
        assert profile.scaled_io_seconds(4.0) == pytest.approx(4.0)

    def test_memory_scaling(self):
        profile = make_profile(memory_input_exponent=1.0)
        assert profile.scaled_working_set_mb(2.0) == pytest.approx(512.0)
        assert profile.scaled_comfortable_memory_mb(2.0) == pytest.approx(1024.0)

    def test_zero_exponent_means_constant(self):
        profile = make_profile(memory_input_exponent=0.0)
        assert profile.scaled_working_set_mb(3.0) == profile.working_set_mb


class TestCpuScaling:
    def test_more_cores_reduce_runtime(self):
        model = AnalyticFunctionModel(make_profile())
        slow = model.runtime(ResourceConfig(vcpu=1, memory_mb=1024))
        fast = model.runtime(ResourceConfig(vcpu=4, memory_mb=1024))
        assert fast < slow

    def test_cores_beyond_max_parallelism_do_not_help(self):
        model = AnalyticFunctionModel(make_profile(max_parallelism=2.0))
        at_max = model.runtime(ResourceConfig(vcpu=2, memory_mb=1024))
        beyond = model.runtime(ResourceConfig(vcpu=8, memory_mb=1024))
        assert beyond == pytest.approx(at_max)

    def test_serial_work_obeys_amdahl(self):
        profile = make_profile(parallel_fraction=0.5, io_seconds=0.0)
        model = AnalyticFunctionModel(profile)
        infinite_cores = model.runtime(ResourceConfig(vcpu=4, memory_mb=1024))
        # serial half cannot shrink below 5 seconds
        assert infinite_cores >= 5.0

    def test_sub_core_allocation_slows_serial_part(self):
        profile = make_profile(parallel_fraction=0.0, io_seconds=0.0)
        model = AnalyticFunctionModel(profile)
        half_core = model.runtime(ResourceConfig(vcpu=0.5, memory_mb=1024))
        full_core = model.runtime(ResourceConfig(vcpu=1.0, memory_mb=1024))
        assert half_core == pytest.approx(2 * full_core)

    def test_io_not_affected_by_cpu(self):
        profile = make_profile(cpu_seconds=0.0, io_seconds=7.0, working_set_mb=64,
                               comfortable_memory_mb=64)
        model = AnalyticFunctionModel(profile)
        assert model.runtime(ResourceConfig(vcpu=0.1, memory_mb=128)) == pytest.approx(7.0)
        assert model.runtime(ResourceConfig(vcpu=8, memory_mb=128)) == pytest.approx(7.0)


class TestMemoryBehaviour:
    def test_oom_below_working_set(self):
        model = AnalyticFunctionModel(make_profile())
        with pytest.raises(OutOfMemoryError):
            model.estimate(ResourceConfig(vcpu=1, memory_mb=128))

    def test_oom_error_carries_details(self):
        model = AnalyticFunctionModel(make_profile())
        try:
            model.estimate(ResourceConfig(vcpu=1, memory_mb=100))
        except OutOfMemoryError as error:
            assert error.function_name == "fn"
            assert error.memory_mb == 100
            assert error.working_set_mb == 256

    def test_minimum_memory_tracks_input_scale(self):
        model = AnalyticFunctionModel(make_profile(memory_input_exponent=1.0))
        assert model.minimum_memory_mb(2.0) == pytest.approx(512.0)

    def test_pressure_penalty_between_working_set_and_comfortable(self):
        model = AnalyticFunctionModel(make_profile())
        tight = model.estimate(ResourceConfig(vcpu=2, memory_mb=256))
        comfy = model.estimate(ResourceConfig(vcpu=2, memory_mb=512))
        assert tight.memory_penalty == pytest.approx(1.5)
        assert comfy.memory_penalty == 1.0
        assert tight.total_seconds > comfy.total_seconds

    def test_more_memory_never_slower(self):
        model = AnalyticFunctionModel(make_profile())
        runtimes = [
            model.runtime(ResourceConfig(vcpu=2, memory_mb=m))
            for m in (256, 320, 384, 512, 1024, 4096)
        ]
        assert runtimes == sorted(runtimes, reverse=True)


class TestNoiseAndEstimate:
    def test_estimate_breakdown_consistent(self):
        model = AnalyticFunctionModel(make_profile())
        estimate = model.estimate(ResourceConfig(vcpu=2, memory_mb=1024))
        expected = (estimate.cpu_seconds + estimate.io_seconds) * estimate.memory_penalty
        assert estimate.total_seconds == pytest.approx(expected)
        assert estimate.noise_factor == 1.0

    def test_noise_requires_rng(self):
        model = AnalyticFunctionModel(make_profile(), noise=LognormalNoise(0.1))
        deterministic = model.runtime(ResourceConfig(vcpu=2, memory_mb=1024))
        noisy = model.runtime(ResourceConfig(vcpu=2, memory_mb=1024), rng=RngStream(1))
        assert deterministic != noisy

    def test_noise_reproducible_with_same_seed(self):
        model = AnalyticFunctionModel(make_profile(), noise=LognormalNoise(0.1))
        a = model.runtime(ResourceConfig(vcpu=2, memory_mb=1024), rng=RngStream(5))
        b = model.runtime(ResourceConfig(vcpu=2, memory_mb=1024), rng=RngStream(5))
        assert a == b

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf"), 0, -1])
    def test_invalid_input_scale(self, scale):
        model = AnalyticFunctionModel(make_profile())
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            model.estimate(ResourceConfig(vcpu=1, memory_mb=512), input_scale=scale)
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            model.runtime(ResourceConfig(vcpu=1, memory_mb=1024), input_scale=scale)
        with pytest.raises(ValueError, match="input_scale must be positive and finite"):
            model.minimum_memory_mb(scale)
