"""Gaussian-process regression used by the Bayesian Optimization baseline.

A small, dependency-light implementation (numpy + scipy linear algebra is all
it needs): stationary kernels (RBF and Matérn 5/2), exact GP posterior with a
jitter-stabilised Cholesky factorisation, and input/output normalisation so
hyper-parameters behave across very differently scaled objectives (workflow
costs span several orders of magnitude).

``scipy.linalg`` is imported inside the methods that call it, so importing
this module (and ``repro``) does not load it; the first fit does.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.utils.ranges import NON_NEGATIVE, POSITIVE

__all__ = ["RBFKernel", "Matern52Kernel", "GaussianProcessRegressor"]


class Kernel(abc.ABC):
    """Stationary covariance function interface."""

    @abc.abstractmethod
    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row-stacked inputs ``a`` and ``b``."""

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Prior variance at each row of ``x`` (the Gram matrix diagonal).

        The generic fallback builds the full m×m Gram matrix; stationary
        kernels override this with a constant, which turns the prior-variance
        term of :meth:`GaussianProcessRegressor.predict` from O(m²) kernel
        evaluations into O(m).
        """
        return np.diag(self(x, x))


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    a_sq = np.sum(a**2, axis=1)[:, None]
    b_sq = np.sum(b**2, axis=1)[None, :]
    sq = a_sq + b_sq - 2.0 * a @ b.T
    return np.maximum(sq, 0.0)


class RBFKernel(Kernel):
    """Squared-exponential kernel ``σ² · exp(-d² / 2ℓ²)``."""

    def __init__(self, length_scale: float = 0.2, signal_variance: float = 1.0) -> None:
        self.length_scale = float(POSITIVE.check(length_scale, "length_scale"))
        self.signal_variance = float(POSITIVE.check(signal_variance, "signal_variance"))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = _pairwise_sq_dists(a, b)
        return self.signal_variance * np.exp(-0.5 * sq / self.length_scale**2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(x)), self.signal_variance)

    def __repr__(self) -> str:
        return f"RBFKernel(length_scale={self.length_scale}, signal_variance={self.signal_variance})"


class Matern52Kernel(Kernel):
    """Matérn 5/2 kernel, a common default for noisy black-box optimisation."""

    def __init__(self, length_scale: float = 0.2, signal_variance: float = 1.0) -> None:
        self.length_scale = float(POSITIVE.check(length_scale, "length_scale"))
        self.signal_variance = float(POSITIVE.check(signal_variance, "signal_variance"))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        dists = np.sqrt(_pairwise_sq_dists(a, b))
        scaled = np.sqrt(5.0) * dists / self.length_scale
        return self.signal_variance * (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(np.atleast_2d(x)), self.signal_variance)

    def __repr__(self) -> str:
        return (
            f"Matern52Kernel(length_scale={self.length_scale}, "
            f"signal_variance={self.signal_variance})"
        )


class GaussianProcessRegressor:
    """Exact GP regression with observation noise and output normalisation."""

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise_variance: float = 1e-6,
        normalize_y: bool = True,
    ) -> None:
        self.kernel = kernel if kernel is not None else Matern52Kernel()
        self.noise_variance = float(NON_NEGATIVE.check(noise_variance, "noise_variance"))
        self.normalize_y = bool(normalize_y)
        self._x_train: Optional[np.ndarray] = None
        self._y_train: Optional[np.ndarray] = None
        self._y_raw: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._cholesky: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._jitter = self.noise_variance

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with at least one sample."""
        return self._x_train is not None and len(self._x_train) > 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Condition the GP on observations ``(x, y)``.

        Parameters
        ----------
        x:
            Array of shape ``(n, d)`` of normalised inputs.
        y:
            Array of shape ``(n,)`` of observed objective values.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError("x and y must have matching first dimensions")
        if len(x) == 0:
            raise ValueError("cannot fit a GP on zero observations")
        from scipy import linalg

        self._x_train = x
        self._y_raw = y
        self._refresh_targets()

        gram = self.kernel(x, x)
        jitter = self.noise_variance
        identity = np.eye(len(x))
        for _ in range(8):
            try:
                self._cholesky = linalg.cholesky(gram + jitter * identity, lower=True)
                break
            except np.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-10)
        else:  # pragma: no cover - pathological conditioning
            raise np.linalg.LinAlgError("could not factorise the GP covariance matrix")
        self._jitter = jitter
        self._alpha = linalg.cho_solve((self._cholesky, True), self._y_train)
        return self

    def update(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Condition on additional observations without a full refit.

        The Gram matrix of the enlarged training set shares its leading block
        with the current one, so the Cholesky factor is *extended* — one
        triangular solve and one row append per new observation, O(n²)
        instead of the O(n³) factorisation :meth:`fit` performs.  Output
        normalisation and ``alpha`` are recomputed over all targets (O(n²)),
        so the resulting posterior is the same as refitting from scratch.
        This is what drops the per-iteration surrogate cost of Bayesian
        optimization from cubic to quadratic in the sample count.

        Falls back to a full :meth:`fit` (with its jitter escalation) when
        the extension is numerically unsafe — e.g. a near-duplicate input
        making the Schur complement non-positive — or when the model has not
        been fitted yet.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError("x and y must have matching first dimensions")
        if len(x) == 0:
            return self
        if not self.is_fitted:
            return self.fit(x, y)
        from scipy import linalg

        new_y = np.concatenate([self._y_raw, y])
        known = self._x_train
        cholesky = self._cholesky
        for row in x:
            extended = self._extend_cholesky(cholesky, known, row)
            if extended is None:
                return self.fit(np.vstack([self._x_train, x]), new_y)
            cholesky = extended
            known = np.vstack([known, row[None, :]])
        self._cholesky = cholesky
        self._x_train = known
        self._y_raw = new_y
        self._refresh_targets()
        self._alpha = linalg.cho_solve((self._cholesky, True), self._y_train)
        return self

    def _extend_cholesky(
        self, cholesky: np.ndarray, known: np.ndarray, row: np.ndarray
    ) -> Optional[np.ndarray]:
        """Append one observation's row to a lower Cholesky factor, or None."""
        from scipy import linalg

        cross = self.kernel(known, row[None, :]).ravel()
        prior = float(self.kernel(row[None, :], row[None, :])[0, 0]) + self._jitter
        solved = linalg.solve_triangular(cholesky, cross, lower=True)
        pivot_sq = prior - float(solved @ solved)
        if not pivot_sq > 0.0 or not np.isfinite(pivot_sq):
            return None
        n = len(cholesky)
        extended = np.zeros((n + 1, n + 1))
        extended[:n, :n] = cholesky
        extended[n, :n] = solved
        extended[n, n] = np.sqrt(pivot_sq)
        return extended

    def _refresh_targets(self) -> None:
        """Recompute output normalisation and normalised targets (O(n))."""
        y = self._y_raw
        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            self._y_std = float(np.std(y))
            if self._y_std < 1e-12:
                self._y_std = 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y_train = (y - self._y_mean) / self._y_std

    def predict(self, x: np.ndarray, return_std: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and standard deviation) at query points ``x``."""
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cross = self.kernel(x, self._x_train)
        mean = cross @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean, np.zeros_like(mean)
        from scipy import linalg

        v = linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        prior_var = self.kernel.diag(x)
        variance = np.maximum(prior_var - np.sum(v**2, axis=0), 1e-12)
        std = np.sqrt(variance) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the training data (model-fit diagnostic)."""
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() called before fit()")
        n = len(self._y_train)
        data_fit = -0.5 * float(self._y_train @ self._alpha)
        complexity = -float(np.sum(np.log(np.diag(self._cholesky))))
        normaliser = -0.5 * n * float(np.log(2.0 * np.pi))
        return data_fit + complexity + normaliser
