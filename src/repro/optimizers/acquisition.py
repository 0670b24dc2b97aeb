"""Acquisition functions for Bayesian optimisation (minimisation convention).

All acquisition values are defined so that *larger is better*: the optimizer
evaluates candidates, scores them with the acquisition function and samples
the arg-max next.

The normal CDF is ``scipy.special.ndtr``, imported inside the scoring methods
that call it, and the PDF is written out: both are the expressions
``scipy.stats.norm`` evaluates, so scores match it bit for bit without the
start-up cost of importing ``scipy.stats``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.optimizers.gp import GaussianProcessRegressor
from repro.utils.ranges import NON_NEGATIVE

__all__ = [
    "AcquisitionFunction",
    "ExpectedImprovement",
    "ProbabilityOfImprovement",
    "LowerConfidenceBound",
]


class AcquisitionFunction(abc.ABC):
    """Scores candidate points given a fitted GP surrogate."""

    @abc.abstractmethod
    def score(
        self, model: GaussianProcessRegressor, candidates: np.ndarray, best_observed: float
    ) -> np.ndarray:
        """Return one score per candidate row (higher = more promising)."""


class ExpectedImprovement(AcquisitionFunction):
    """Expected improvement over the incumbent for a minimisation problem."""

    def __init__(self, xi: float = 0.01) -> None:
        self.xi = float(NON_NEGATIVE.check(xi, "xi"))

    def score(
        self, model: GaussianProcessRegressor, candidates: np.ndarray, best_observed: float
    ) -> np.ndarray:
        from scipy.special import ndtr

        mean, std = model.predict(candidates, return_std=True)
        std = np.maximum(std, 1e-12)
        improvement = best_observed - mean - self.xi
        z = improvement / std
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        ei = improvement * ndtr(z) + std * pdf
        return np.maximum(ei, 0.0)

    def __repr__(self) -> str:
        return f"ExpectedImprovement(xi={self.xi})"


class ProbabilityOfImprovement(AcquisitionFunction):
    """Probability of improving on the incumbent (minimisation)."""

    def __init__(self, xi: float = 0.01) -> None:
        self.xi = float(NON_NEGATIVE.check(xi, "xi"))

    def score(
        self, model: GaussianProcessRegressor, candidates: np.ndarray, best_observed: float
    ) -> np.ndarray:
        from scipy.special import ndtr

        mean, std = model.predict(candidates, return_std=True)
        std = np.maximum(std, 1e-12)
        z = (best_observed - mean - self.xi) / std
        return ndtr(z)

    def __repr__(self) -> str:
        return f"ProbabilityOfImprovement(xi={self.xi})"


class LowerConfidenceBound(AcquisitionFunction):
    """Negative lower confidence bound (minimisation): ``-(mean - κ·std)``."""

    def __init__(self, kappa: float = 2.0) -> None:
        self.kappa = float(NON_NEGATIVE.check(kappa, "kappa"))

    def score(
        self, model: GaussianProcessRegressor, candidates: np.ndarray, best_observed: float
    ) -> np.ndarray:
        mean, std = model.predict(candidates, return_std=True)
        return -(mean - self.kappa * std)

    def __repr__(self) -> str:
        return f"LowerConfidenceBound(kappa={self.kappa})"
