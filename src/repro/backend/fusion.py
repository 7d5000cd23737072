"""LDA-MMI score calibration and fusion (paper §3g, Eq. 14–15).

The fusion backend stacks the per-subsystem score vectors

.. math::  x = [w_1 f_1(φ(x)), w_2 f_2(φ(x)), …, w_N f_N(φ(x))]

(Eq. 15, with subsystem weights :math:`w_n, Σ w_n = 1`), projects with
LDA, models classes with shared-covariance Gaussians, refines the means by
MMI gradient ascent (Eq. 14), and emits calibrated detection log-odds.
The same machinery with N = 1 calibrates a single subsystem's scores —
which is how every per-frontend EER/C_avg in Tables 2–4 is produced.
"""

from __future__ import annotations

import numpy as np

from repro.backend.gaussian import GaussianBackend
from repro.backend.lda import LDA
from repro.backend.mmi import MMITrainer
from repro.utils.validation import check_matrix

__all__ = [
    "LdaMmiFusion",
    "linear_fusion",
    "stack_scores",
    "subsystem_weights",
]


def subsystem_weights(fit_counts: np.ndarray | list[float]) -> np.ndarray:
    """Weights :math:`w_n = M_n / Σ_m M_m` (paper, below Eq. 15).

    ``fit_counts`` are the per-subsystem counts of test utterances that
    met the vote criterion (``M_n``); uniform if all zero.
    """
    counts = np.asarray(fit_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("fit_counts must be a non-empty vector")
    if np.any(counts < 0):
        raise ValueError("fit_counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        return np.full(counts.size, 1.0 / counts.size)
    return counts / total


def linear_fusion(
    score_matrices: list[np.ndarray], weights: np.ndarray | list[float]
) -> np.ndarray:
    """Eq. 20 linear fusion :math:`Σ_n w_n s_n` of ``(m, K)`` scores.

    ``weights`` (one non-negative weight per matrix) are renormalised by
    :func:`subsystem_weights`, so they need not sum to one and fall back
    to uniform when all are zero.  This is the fallback when subsystems
    are missing and the LDA-MMI backend cannot run: serving passes the
    live subsystems' fitted fusion weights, a degraded campaign the
    survivors' DBA fit counts.
    """
    weights = subsystem_weights(weights)
    if weights.size != len(score_matrices):
        raise ValueError("one weight per subsystem required")
    fused = np.zeros(np.shape(score_matrices[0]), dtype=np.float64)
    for w, scores in zip(weights, score_matrices):
        fused += w * scores
    return fused


def stack_scores(
    score_matrices: list[np.ndarray], weights: np.ndarray | None = None
) -> np.ndarray:
    """Concatenate N ``(m, K)`` score matrices into ``(m, N*K)`` features."""
    if not score_matrices:
        raise ValueError("need at least one score matrix")
    mats = [check_matrix(f"scores[{i}]", s) for i, s in enumerate(score_matrices)]
    m, k = mats[0].shape
    for s in mats[1:]:
        if s.shape != (m, k):
            raise ValueError("all score matrices must share a shape")
    if weights is None:
        weights = np.full(len(mats), 1.0 / len(mats))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(mats),):
        raise ValueError("one weight per subsystem required")
    return np.hstack([w * s for w, s in zip(weights, mats)])


class LdaMmiFusion:
    """Calibration/fusion backend: stack → LDA → Gaussian → MMI.

    Parameters
    ----------
    use_lda:
        Disable to feed stacked scores straight to the Gaussian backend
        (useful for ablations).
    mmi_iterations:
        Gradient steps of the MMI refinement; 0 keeps the ML backend.
    """

    def __init__(
        self,
        *,
        use_lda: bool = True,
        lda_components: int | None = None,
        mmi_iterations: int = 50,
        mmi_learning_rate: float = 0.1,
    ) -> None:
        self.use_lda = bool(use_lda)
        self.lda = LDA(lda_components) if use_lda else None
        self.backend = GaussianBackend()
        self.mmi_iterations = int(mmi_iterations)
        self.mmi_learning_rate = float(mmi_learning_rate)
        self.weights_: np.ndarray | None = None
        self.n_classes_: int | None = None

    @property
    def is_fitted(self) -> bool:
        return self.backend.is_fitted

    def fit(
        self,
        score_matrices: list[np.ndarray],
        labels: np.ndarray,
        *,
        weights: np.ndarray | None = None,
    ) -> "LdaMmiFusion":
        """Fit on development score matrices with true labels."""
        labels = np.asarray(labels, dtype=np.int64)
        self.n_classes_ = int(score_matrices[0].shape[1])
        self.weights_ = (
            np.asarray(weights, dtype=np.float64)
            if weights is not None
            else np.full(len(score_matrices), 1.0 / len(score_matrices))
        )
        x = stack_scores(score_matrices, self.weights_)
        if self.lda is not None:
            x = self.lda.fit_transform(x, labels)
        self.backend.fit(x, labels, n_classes=self.n_classes_)
        if self.mmi_iterations > 0:
            MMITrainer(
                n_iter=self.mmi_iterations,
                learning_rate=self.mmi_learning_rate,
            ).refine(self.backend, x, labels)
        return self

    # ------------------------------------------------------------------
    # persistence (repro.serve artifacts)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted calibration state (weights + LDA + Gaussian models).

        Flat mapping of arrays/scalars (nested components use dotted key
        prefixes) so a saved system can persist it as one flat
        :mod:`repro.utils.payload` file; :meth:`from_state` restores a
        backend whose :meth:`transform` output is bitwise identical.
        """
        if not self.is_fitted:
            raise RuntimeError("cannot serialise an unfitted fusion backend")
        state = {
            "use_lda": self.use_lda,
            "mmi_iterations": self.mmi_iterations,
            "mmi_learning_rate": self.mmi_learning_rate,
            "weights": self.weights_,
            "n_classes": self.n_classes_,
        }
        if self.lda is not None:
            for key, value in self.lda.state_dict().items():
                state[f"lda.{key}"] = value
        for key, value in self.backend.state_dict().items():
            state[f"gaussian.{key}"] = value
        return state

    @classmethod
    def from_state(cls, state: dict) -> "LdaMmiFusion":
        """Rebuild a fitted backend from :meth:`state_dict` output."""
        fusion = cls(
            use_lda=bool(state["use_lda"]),
            mmi_iterations=int(state["mmi_iterations"]),
            mmi_learning_rate=float(state["mmi_learning_rate"]),
        )
        fusion.weights_ = np.asarray(state["weights"], dtype=np.float64)
        fusion.n_classes_ = int(state["n_classes"])
        if fusion.use_lda:
            fusion.lda = LDA.from_state(
                {
                    key[len("lda.") :]: value
                    for key, value in state.items()
                    if key.startswith("lda.")
                }
            )
        fusion.backend = GaussianBackend.from_state(
            {
                key[len("gaussian.") :]: value
                for key, value in state.items()
                if key.startswith("gaussian.")
            }
        )
        return fusion

    def transform(self, score_matrices: list[np.ndarray]) -> np.ndarray:
        """Calibrated detection log-odds, shape ``(m, K)``."""
        if not self.is_fitted:
            raise RuntimeError("fusion backend is not fitted")
        x = stack_scores(score_matrices, self.weights_)
        if self.lda is not None:
            x = self.lda.transform(x)
        return self.backend.detection_scores(x)

    def fit_transform(
        self,
        dev_scores: list[np.ndarray],
        dev_labels: np.ndarray,
        test_scores: list[np.ndarray],
        *,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fit on dev scores, return calibrated test scores."""
        self.fit(dev_scores, dev_labels, weights=weights)
        return self.transform(test_scores)
