"""Tests for the Gaussian-process regression implementation."""

import numpy as np
import pytest

from repro.optimizers.gp import GaussianProcessRegressor, Matern52Kernel, RBFKernel


class TestKernels:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            RBFKernel(length_scale=0)
        with pytest.raises(ValueError):
            Matern52Kernel(signal_variance=-1)

    @pytest.mark.parametrize("kernel", [RBFKernel(0.3, 2.0), Matern52Kernel(0.3, 2.0)])
    def test_diagonal_equals_signal_variance(self, kernel):
        x = np.array([[0.1, 0.2], [0.5, 0.5]])
        gram = kernel(x, x)
        assert np.allclose(np.diag(gram), 2.0)

    @pytest.mark.parametrize("kernel", [RBFKernel(0.3), Matern52Kernel(0.3)])
    def test_symmetry_and_decay(self, kernel):
        x = np.array([[0.0], [0.1], [1.0]])
        gram = kernel(x, x)
        assert np.allclose(gram, gram.T)
        assert gram[0, 1] > gram[0, 2]

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(20, 3))
        gram = Matern52Kernel(0.4)(x, x)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-8


class TestGaussianProcess:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_fit_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 1)), np.zeros(0))

    def test_interpolates_training_points(self):
        x = np.linspace(0, 1, 8).reshape(-1, 1)
        y = np.sin(4 * x).ravel()
        gp = GaussianProcessRegressor(kernel=RBFKernel(0.2), noise_variance=1e-8)
        gp.fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.4], [0.5], [0.6]])
        y = np.array([1.0, 1.1, 0.9])
        gp = GaussianProcessRegressor(kernel=RBFKernel(0.1))
        gp.fit(x, y)
        _, near_std = gp.predict(np.array([[0.5]]))
        _, far_std = gp.predict(np.array([[0.0]]))
        assert far_std[0] > near_std[0]

    def test_output_normalisation_handles_large_scales(self):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        y = 1e6 + 1e5 * np.sin(3 * x).ravel()
        gp = GaussianProcessRegressor(kernel=Matern52Kernel(0.3))
        gp.fit(x, y)
        mean, _ = gp.predict(x)
        assert np.allclose(mean, y, rtol=0.02)

    def test_constant_targets_do_not_crash(self):
        x = np.linspace(0, 1, 5).reshape(-1, 1)
        y = np.full(5, 7.0)
        gp = GaussianProcessRegressor()
        gp.fit(x, y)
        mean, _ = gp.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(7.0, abs=0.1)

    def test_log_marginal_likelihood_finite(self):
        x = np.linspace(0, 1, 6).reshape(-1, 1)
        y = np.cos(x).ravel()
        gp = GaussianProcessRegressor()
        gp.fit(x, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(noise_variance=-1)

    def test_is_fitted_flag(self):
        gp = GaussianProcessRegressor()
        assert not gp.is_fitted
        gp.fit(np.zeros((1, 1)), np.ones(1))
        assert gp.is_fitted


class TestJitterFallbacks:
    """Without observation noise a duplicated input makes the Gram matrix
    exactly singular, which drives both of the GP's fallback paths."""

    X = np.array([[0.2, 0.3], [0.2, 0.3], [0.5, 0.5]])
    Y = np.array([1.0, 1.2, 3.0])
    QUERY = np.array([[0.3, 0.3], [0.2, 0.3], [0.9, 0.1]])

    def assert_finite_predictions(self, gp):
        mean, std = gp.predict(self.QUERY)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_fit_raises_the_jitter_after_a_failed_cholesky(self):
        gp = GaussianProcessRegressor(noise_variance=0.0)
        gp.fit(self.X, self.Y)
        assert gp._jitter == 1e-10
        self.assert_finite_predictions(gp)

    def test_update_refits_when_the_schur_complement_is_not_positive(self):
        gp = GaussianProcessRegressor(noise_variance=0.0)
        gp.fit(self.X[[0, 2]], self.Y[[0, 2]])
        assert gp._jitter == 0.0
        gp.update(self.X[1:2], self.Y[1:2])
        # Extending the factor keeps the jitter; only the refit raises it.
        assert gp._jitter == 1e-10
        assert len(gp._x_train) == 3
        self.assert_finite_predictions(gp)
