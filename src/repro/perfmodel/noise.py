"""Run-to-run variability models.

Real serverless invocations show modest runtime variance (the paper's
Table II reports standard deviations of roughly 1-3 % of the mean).  Noise
models are pluggable so experiments can run fully deterministically (default
for searches) or with calibrated noise (for the Table II robustness study).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.utils.ranges import NON_NEGATIVE, Range
from repro.utils.rng import RngStream

__all__ = ["NoiseModel", "NoNoise", "LognormalNoise", "GaussianNoise"]


class NoiseModel(abc.ABC):
    """Produces a multiplicative noise factor applied to predicted runtimes."""

    @abc.abstractmethod
    def sample(self, rng: Optional[RngStream]) -> float:
        """Draw one noise factor; must be strictly positive with mean ≈ 1."""


class NoNoise(NoiseModel):
    """Always returns 1.0 — fully deterministic predictions."""

    def sample(self, rng: Optional[RngStream]) -> float:
        return 1.0

    def __repr__(self) -> str:
        return "NoNoise()"


class LognormalNoise(NoiseModel):
    """Log-normal multiplicative noise with a given coefficient of variation.

    The factor has mean 1.0, is always positive and its relative spread is
    controlled by ``coefficient_of_variation`` (e.g. 0.02 for ±2 % typical).
    """

    def __init__(self, coefficient_of_variation: float = 0.02) -> None:
        self.coefficient_of_variation = float(
            NON_NEGATIVE.check(coefficient_of_variation, "coefficient_of_variation")
        )

    def sample(self, rng: Optional[RngStream]) -> float:
        if rng is None or self.coefficient_of_variation == 0:
            return 1.0
        return rng.multiplicative_noise(self.coefficient_of_variation)

    def __repr__(self) -> str:
        return f"LognormalNoise(cv={self.coefficient_of_variation})"


class GaussianNoise(NoiseModel):
    """Truncated Gaussian multiplicative noise.

    Provided for completeness / sensitivity studies; samples are clipped to a
    minimum factor so predicted runtimes never become non-positive.
    """

    def __init__(self, std: float = 0.02, min_factor: float = 0.5) -> None:
        self.std = float(NON_NEGATIVE.check(std, "std"))
        self.min_factor = float(Range(0.0, 1.0, lo_open=True).check(min_factor, "min_factor"))

    def sample(self, rng: Optional[RngStream]) -> float:
        if rng is None or self.std == 0:
            return 1.0
        factor = rng.normal(1.0, self.std)
        return max(self.min_factor, factor)

    def __repr__(self) -> str:
        return f"GaussianNoise(std={self.std}, min_factor={self.min_factor})"
