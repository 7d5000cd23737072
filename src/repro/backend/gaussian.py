"""Gaussian class-conditional score backend.

Models the (LDA-projected) score vectors of each language with a Gaussian
sharing a diagonal covariance across classes — the ``p(x | λ_j)`` of the
paper's Eq. 14.  ML fitting here; discriminative (MMI) refinement of the
means lives in :mod:`repro.backend.mmi`.

Outputs are class log-posterior-ratio scores
``log P(k|x) − log((1 − P(k|x)) / (K − 1))`` so that a decision threshold
of 0 corresponds to the NIST detection task's flat-prior operating point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["GaussianBackend"]


@lru_cache(maxsize=None)
def _others(k: int) -> np.ndarray:
    """``(K, K-1)`` column indices: row ``c`` lists every class but ``c``."""
    idx = np.array(
        [[j for j in range(k) if j != c] for c in range(k)], dtype=np.intp
    )
    idx.setflags(write=False)
    return idx


class GaussianBackend:
    """Shared-diagonal-covariance Gaussian classifier over score vectors."""

    def __init__(self, *, var_floor: float = 1e-6) -> None:
        self.var_floor = float(var_floor)
        self.means_: np.ndarray | None = None
        self.variance_: np.ndarray | None = None
        self.log_priors_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.means_ is not None

    @property
    def n_classes(self) -> int:
        if self.means_ is None:
            raise RuntimeError("backend is not fitted")
        return int(self.means_.shape[0])

    def fit(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        *,
        n_classes: int | None = None,
        uniform_priors: bool = True,
    ) -> "GaussianBackend":
        """ML-fit class means and the shared diagonal covariance."""
        x = check_matrix("x", x)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (x.shape[0],):
            raise ValueError("labels must align with rows")
        k = int(n_classes or labels.max() + 1)
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError("label out of range")
        d = x.shape[1]
        means = np.zeros((k, d))
        counts = np.zeros(k)
        grand_mean = x.mean(axis=0)
        for c in range(k):
            rows = x[labels == c]
            counts[c] = rows.shape[0]
            means[c] = rows.mean(axis=0) if rows.shape[0] else grand_mean
        centred = x - means[labels]
        variance = np.maximum(centred.var(axis=0), self.var_floor)
        self.means_ = means
        self.variance_ = variance
        if uniform_priors:
            self.log_priors_ = np.full(k, -np.log(k))
        else:
            priors = (counts + 1.0) / (counts.sum() + k)
            self.log_priors_ = np.log(priors)
        return self

    # ------------------------------------------------------------------
    # persistence (repro.serve artifacts)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted class models as plain arrays/scalars."""
        if not self.is_fitted:
            raise RuntimeError("cannot serialise an unfitted backend")
        return {
            "var_floor": self.var_floor,
            "means": self.means_,
            "variance": self.variance_,
            "log_priors": self.log_priors_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "GaussianBackend":
        """Rebuild a fitted backend from :meth:`state_dict` output."""
        backend = cls(var_floor=float(state["var_floor"]))
        backend.means_ = np.asarray(state["means"], dtype=np.float64)
        backend.variance_ = np.asarray(state["variance"], dtype=np.float64)
        backend.log_priors_ = np.asarray(
            state["log_priors"], dtype=np.float64
        )
        return backend

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def log_likelihoods(self, x: np.ndarray) -> np.ndarray:
        """``log p(x | λ_k)`` matrix, shape ``(n, K)``."""
        if self.means_ is None or self.variance_ is None:
            raise RuntimeError("backend is not fitted")
        x = check_matrix("x", x, n_cols=self.means_.shape[1])
        diff = x[:, None, :] - self.means_[None, :, :]
        quad = np.sum(diff * diff / self.variance_[None, None, :], axis=2)
        log_det = float(np.sum(np.log(self.variance_)))
        d = x.shape[1]
        return -0.5 * (quad + log_det + d * np.log(2.0 * np.pi))

    def class_log_posteriors(self, x: np.ndarray) -> np.ndarray:
        """``log P(k | x)`` under the fitted priors."""
        joint = self.log_likelihoods(x) + self.log_priors_[None, :]
        m = joint.max(axis=1, keepdims=True)
        log_norm = m + np.log(np.exp(joint - m).sum(axis=1, keepdims=True))
        return joint - log_norm

    def detection_scores(self, x: np.ndarray) -> np.ndarray:
        """Calibrated detection log-odds per language.

        ``log p(x|λ_k) − logsumexp_{j≠k}(log p(x|λ_j) − log(K−1))``: the
        log-likelihood ratio of "language k" against the average of the
        others, which is the LRE detection statistic (threshold at 0).
        """
        ll = self.log_likelihoods(x)
        n, k = ll.shape
        out = np.empty_like(ll)
        # ``take`` gathers into a fresh C-ordered block, the layout an
        # ``np.delete`` copy has, so the row reductions keep their bits
        # (``ll[:, idx]`` comes back F-ordered and sums differently).
        index = _others(k)
        for c in range(k):
            others = ll.take(index[c], axis=1)
            m = others.max(axis=1, keepdims=True)
            denom = m[:, 0] + np.log(
                np.exp(others - m).sum(axis=1) / (k - 1)
            )
            out[:, c] = ll[:, c] - denom
        return out
