"""Tests for the noise models."""

import numpy as np
import pytest

from repro.perfmodel.noise import GaussianNoise, LognormalNoise, NoNoise
from repro.utils.rng import RngStream


class TestNoNoise:
    def test_always_one(self):
        noise = NoNoise()
        assert noise.sample(None) == 1.0
        assert noise.sample(RngStream(1)) == 1.0


class TestLognormalNoise:
    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            LognormalNoise(-0.1)

    @pytest.mark.parametrize("cv", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cv_rejected(self, cv):
        with pytest.raises(ValueError, match="non-negative and finite"):
            LognormalNoise(cv)

    def test_without_rng_returns_one(self):
        assert LognormalNoise(0.1).sample(None) == 1.0

    def test_zero_cv_returns_one(self):
        assert LognormalNoise(0.0).sample(RngStream(1)) == 1.0

    def test_samples_positive(self):
        noise = LognormalNoise(0.2)
        stream = RngStream(3)
        assert all(noise.sample(stream) > 0 for _ in range(1000))

    def test_mean_close_to_one(self):
        noise = LognormalNoise(0.05)
        stream = RngStream(7)
        samples = [noise.sample(stream) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.01)


class TestGaussianNoise:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianNoise(std=-0.1)
        with pytest.raises(ValueError):
            GaussianNoise(min_factor=0.0)
        with pytest.raises(ValueError):
            GaussianNoise(min_factor=1.5)

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_std_rejected(self, std):
        with pytest.raises(ValueError, match="non-negative and finite"):
            GaussianNoise(std=std)

    def test_without_rng_returns_one(self):
        assert GaussianNoise(0.1).sample(None) == 1.0

    def test_clipped_at_min_factor(self):
        noise = GaussianNoise(std=5.0, min_factor=0.5)
        stream = RngStream(11)
        assert min(noise.sample(stream) for _ in range(500)) >= 0.5

    def test_repr_mentions_parameters(self):
        assert "0.02" in repr(GaussianNoise(std=0.02))
        assert "cv=0.05" in repr(LognormalNoise(0.05))
        assert repr(NoNoise()) == "NoNoise()"
