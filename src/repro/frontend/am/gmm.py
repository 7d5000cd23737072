"""Diagonal-covariance Gaussian mixture models with EM training.

Used as the emission model of the "GMM-HMM" recognizers (paper §4.1c: 32
Gaussians per tied state) and as the building block of the Gaussian score
backend.  All likelihood evaluation is vectorized over frames *and*
components; training is classic EM with k-means++-style mean init and
variance flooring.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive

__all__ = ["DiagonalGMM"]

_LOG_2PI = float(np.log(2.0 * np.pi))


class DiagonalGMM:
    """A diagonal-covariance GMM.

    Attributes (after :meth:`fit` or direct construction)
    ----------
    means:
        Component means, shape ``(M, D)``.
    variances:
        Diagonal variances, shape ``(M, D)``; floored at ``var_floor``.
    log_weights:
        Log mixture weights, shape ``(M,)``.
    """

    def __init__(
        self,
        n_components: int,
        *,
        var_floor: float = 1e-3,
    ) -> None:
        check_positive("n_components", n_components)
        check_positive("var_floor", var_floor)
        self.n_components = int(n_components)
        self.var_floor = float(var_floor)
        self.means: np.ndarray | None = None
        self.variances: np.ndarray | None = None
        self.log_weights: np.ndarray | None = None

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.means is None:
            raise RuntimeError("GMM is not fitted")

    def component_log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """Per-component log density, shape ``(T, M)`` for input ``(T, D)``."""
        self._check_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        # (T, M): sum over D of the diagonal Gaussian log density.
        diff = x[:, None, :] - self.means[None, :, :]
        quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        log_det = np.sum(np.log(self.variances), axis=1)
        d = x.shape[1]
        return -0.5 * (quad + log_det[None, :] + d * _LOG_2PI)

    def log_likelihood(self, x: np.ndarray) -> np.ndarray:
        """Frame log likelihoods ``log p(x_t)``, shape ``(T,)``."""
        comp = self.component_log_likelihood(x) + self.log_weights[None, :]
        m = comp.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(comp - m).sum(axis=1, keepdims=True)))[:, 0]

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component responsibilities, shape ``(T, M)``."""
        comp = self.component_log_likelihood(x) + self.log_weights[None, :]
        comp -= comp.max(axis=1, keepdims=True)
        post = np.exp(comp)
        post /= post.sum(axis=1, keepdims=True)
        return post

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _init_params(self, x: np.ndarray, rng: np.random.Generator) -> None:
        t, d = x.shape
        m = self.n_components
        # k-means++-style spread-out mean init.
        means = np.empty((m, d))
        first = int(rng.integers(t))
        means[0] = x[first]
        min_sq = np.sum((x - means[0]) ** 2, axis=1)
        for k in range(1, m):
            total = min_sq.sum()
            if total <= 0:
                means[k] = x[int(rng.integers(t))]
            else:
                probs = min_sq / total
                means[k] = x[int(rng.choice(t, p=probs))]
            min_sq = np.minimum(min_sq, np.sum((x - means[k]) ** 2, axis=1))
        global_var = np.maximum(x.var(axis=0), self.var_floor)
        self.means = means
        self.variances = np.tile(global_var, (m, 1))
        self.log_weights = np.full(m, -np.log(m))

    def fit(
        self,
        x: np.ndarray,
        *,
        n_iter: int = 10,
        rng: np.random.Generator | int | None = 0,
        weights: np.ndarray | None = None,
        tol: float = 1e-5,
    ) -> "DiagonalGMM":
        """Fit by (weighted) EM.

        Parameters
        ----------
        x:
            Training frames, shape ``(T, D)``.
        weights:
            Optional per-frame weights (e.g. state occupation posteriors
            from an HMM E-step).
        tol:
            Relative log-likelihood improvement for early stopping.
        """
        rng = ensure_rng(rng)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        t = x.shape[0]
        if t < self.n_components:
            raise ValueError(
                f"need >= {self.n_components} frames to fit, got {t}"
            )
        w = (
            np.ones(t)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if w.shape != (t,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._init_params(x, rng)
        prev_ll = -np.inf
        for _ in range(max(1, n_iter)):
            # E-step.
            comp = self.component_log_likelihood(x) + self.log_weights[None, :]
            m = comp.max(axis=1, keepdims=True)
            log_norm = m[:, 0] + np.log(np.exp(comp - m).sum(axis=1))
            ll = float(w @ log_norm) / w.sum()
            post = np.exp(comp - log_norm[:, None]) * w[:, None]
            # M-step.
            occ = post.sum(axis=0)
            occ = np.maximum(occ, 1e-10)
            self.means = (post.T @ x) / occ[:, None]
            sq = (post.T @ (x * x)) / occ[:, None] - self.means**2
            self.variances = np.maximum(sq, self.var_floor)
            self.log_weights = np.log(occ / occ.sum())
            if ll - prev_ll < tol * max(1.0, abs(prev_ll)) and np.isfinite(prev_ll):
                break
            prev_ll = ll
        return self

    @classmethod
    def from_parameters(
        cls,
        means: np.ndarray,
        variances: np.ndarray,
        weights: np.ndarray,
        *,
        var_floor: float = 1e-3,
    ) -> "DiagonalGMM":
        """Construct a fitted GMM from explicit parameters."""
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        variances = np.atleast_2d(np.asarray(variances, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64)
        if variances.shape != means.shape or weights.shape != (means.shape[0],):
            raise ValueError("inconsistent parameter shapes")
        # |sum - 1| <= np.isclose's atol + rtol * 1.0; NaN and inf fail it.
        if np.any(weights <= 0) or not abs(weights.sum() - 1.0) <= 1e-6 + 1e-5:
            raise ValueError("weights must be a positive distribution")
        gmm = cls(means.shape[0], var_floor=var_floor)
        gmm.means = means
        gmm.variances = np.maximum(variances, var_floor)
        gmm.log_weights = np.log(weights)
        return gmm
