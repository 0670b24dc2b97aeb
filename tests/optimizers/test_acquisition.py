"""Tests for the acquisition functions."""

import numpy as np
import pytest
from scipy import stats

from repro.optimizers.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
)
from repro.optimizers.gp import GaussianProcessRegressor, RBFKernel


@pytest.fixture
def fitted_model():
    x = np.array([[0.1], [0.4], [0.9]])
    y = np.array([5.0, 2.0, 8.0])
    model = GaussianProcessRegressor(kernel=RBFKernel(0.2))
    return model.fit(x, y)


class _FixedPosterior:
    """Stands in for a fitted GP: returns a preset posterior mean and std."""

    def __init__(self, mean, std):
        self.mean, self.std = mean, std

    def predict(self, candidates, return_std=True):
        return self.mean, self.std


def _posterior_sweep():
    """Seeded posteriors whose z spans ±0.0, ±inf, NaN and |z| up to 40.

    With ``best_observed`` 0.0, ``xi`` 0.0 and unit std, ``mean = -z`` gives
    exactly ``z``; ``best_observed = -0.0`` minus a mean of +0.0 gives -0.0.
    """
    rng = np.random.default_rng(2025)
    z = np.concatenate([
        [0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 1e-300, -1e-300],
        rng.uniform(-40.0, 40.0, 4000),
        rng.normal(0.0, 3.0, 4000),
    ])
    mean = -z
    mean[0] = 0.0
    unit = _FixedPosterior(mean, np.ones_like(z))
    spread = _FixedPosterior(rng.uniform(-5.0, 5.0, 2000), rng.uniform(0.0, 0.2, 2000))
    spread.std[:10] = 0.0  # floored at 1e-12 by the score
    return [(unit, 0.0), (unit, -0.0), (spread, 0.3)]


def _assert_bit_identical(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


class TestMatchesScipyStatsNorm:
    """The scores equal the ``scipy.stats.norm`` formulas bit for bit."""

    @pytest.mark.parametrize("xi", [0.0, 0.01])
    def test_expected_improvement(self, xi):
        for model, best in _posterior_sweep():
            std = np.maximum(model.std, 1e-12)
            improvement = best - model.mean - xi
            z = improvement / std
            with np.errstate(invalid="ignore"):  # -inf * 0 at z = -inf
                expected = np.maximum(
                    improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z), 0.0
                )
                actual = ExpectedImprovement(xi=xi).score(model, None, best)
            _assert_bit_identical(actual, expected)

    @pytest.mark.parametrize("xi", [0.0, 0.01])
    def test_probability_of_improvement(self, xi):
        for model, best in _posterior_sweep():
            z = (best - model.mean - xi) / np.maximum(model.std, 1e-12)
            actual = ProbabilityOfImprovement(xi=xi).score(model, None, best)
            _assert_bit_identical(actual, stats.norm.cdf(z))

    def test_sweep_reaches_the_special_values(self):
        _, (signed, best), _ = _posterior_sweep()
        z = best - signed.mean
        assert np.signbit(z[0]) and z[0] == 0.0
        assert np.isposinf(z[1]) and np.isneginf(z[2]) and np.isnan(z[3])
        assert np.nanmax(np.abs(z[np.isfinite(z)])) == 40.0


class TestExpectedImprovement:
    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            ExpectedImprovement(xi=-0.1)

    def test_non_negative_scores(self, fitted_model):
        scores = ExpectedImprovement().score(
            fitted_model, np.linspace(0, 1, 20).reshape(-1, 1), best_observed=2.0
        )
        assert np.all(scores >= 0)

    def test_prefers_promising_region(self, fitted_model):
        ei = ExpectedImprovement()
        candidates = np.array([[0.4], [0.9]])
        scores = ei.score(fitted_model, candidates, best_observed=2.0)
        # Region near the observed minimum (0.4) should beat the known-bad 0.9.
        assert scores[0] >= scores[1]

    def test_unexplored_region_has_positive_ei(self, fitted_model):
        scores = ExpectedImprovement().score(
            fitted_model, np.array([[0.65]]), best_observed=2.0
        )
        assert scores[0] > 0


class TestProbabilityOfImprovement:
    def test_scores_are_probabilities(self, fitted_model):
        scores = ProbabilityOfImprovement().score(
            fitted_model, np.linspace(0, 1, 15).reshape(-1, 1), best_observed=2.0
        )
        assert np.all((scores >= 0) & (scores <= 1))

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityOfImprovement(xi=-1)


class TestLowerConfidenceBound:
    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            LowerConfidenceBound(kappa=-1)

    def test_higher_kappa_rewards_uncertainty(self, fitted_model):
        candidates = np.array([[0.65]])  # far from observations
        cautious = LowerConfidenceBound(kappa=0.0).score(fitted_model, candidates, 2.0)
        exploratory = LowerConfidenceBound(kappa=5.0).score(fitted_model, candidates, 2.0)
        assert exploratory[0] > cautious[0]

    def test_prefers_low_mean_when_kappa_zero(self, fitted_model):
        scores = LowerConfidenceBound(kappa=0.0).score(
            fitted_model, np.array([[0.4], [0.9]]), best_observed=2.0
        )
        assert scores[0] > scores[1]
