"""Vector space modeling: supervectors → TFLLR map → one-vs-rest SVM.

One :class:`VSM` is one *subsystem* of the paper's architecture (Fig. 1):
everything between a recognizer's sausages and the score matrix
:math:`F_q` (Eq. 9).  Supervector extraction is the expensive part and is
independent of the training labels, so the VSM accepts either sausages or
pre-extracted raw supervector matrices — the DBA loop extracts each
utterance once and retrains on cached matrices (this is exactly why the
paper's cost analysis finds DBA ≈ free, Eq. 18–19).
"""

from __future__ import annotations

import numpy as np

from repro.frontend.lattice import Sausage
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from repro.svm.ovr import OneVsRestSVM
from repro.utils.sparse import SparseMatrix

__all__ = ["VSM"]


class VSM:
    """A single-frontend vector-space-model language classifier.

    Parameters
    ----------
    n_phones:
        Recognizer inventory size.
    n_classes:
        Number of target languages K.
    orders:
        N-gram orders of the supervector.
    C, loss, max_epochs:
        SVM hyper-parameters (forwarded).
    """

    def __init__(
        self,
        n_phones: int,
        n_classes: int,
        *,
        orders: tuple[int, ...] = (1, 2, 3),
        C: float = 1.0,
        loss: str = "l1",
        max_epochs: int = 60,
        tfllr: bool = True,
        min_prob: float = 1e-5,
        seed: int = 0,
    ) -> None:
        self.extractor = SupervectorExtractor(n_phones, orders)
        self.n_classes = int(n_classes)
        self.tfllr = bool(tfllr)
        self.scaler = TFLLRScaler(min_prob=min_prob) if tfllr else None
        self.ovr = OneVsRestSVM(
            n_classes, C=C, loss=loss, max_epochs=max_epochs, seed=seed
        )

    # ------------------------------------------------------------------
    # feature extraction (cacheable)
    # ------------------------------------------------------------------
    def extract(self, sausages: list[Sausage]) -> SparseMatrix:
        """Raw (unscaled) supervector matrix for a batch of sausages."""
        return self.extractor.extract_matrix(sausages)

    # ------------------------------------------------------------------
    # training / scoring on raw supervectors
    # ------------------------------------------------------------------
    def fit_matrix(self, raw: SparseMatrix, labels: np.ndarray) -> "VSM":
        """Fit the TFLLR map and the OvR SVMs on raw supervectors."""
        if self.scaler is not None:
            scaled = self.scaler.fit_transform(raw)
        else:
            scaled = raw
        self.ovr.fit(scaled, labels)
        return self

    def score_matrix(self, raw: SparseMatrix) -> np.ndarray:
        """Score raw supervectors: the subsystem's ``(m, K)`` matrix F_q."""
        scaled = self.scaler.transform(raw) if self.scaler is not None else raw
        return self.ovr.decision_matrix(scaled)

    # ------------------------------------------------------------------
    # persistence (repro.serve artifacts)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted subsystem state (TFLLR scaling + OvR weights).

        The returned mapping contains only arrays, scalars and strings,
        so it can be persisted as one flat :mod:`repro.utils.payload`
        file by the artifact store and a saved system;
        :meth:`from_state` restores a scorer whose :meth:`score_matrix`
        output is bitwise identical.
        """
        state = {
            "n_phones": self.extractor.layout.n_phones,
            "n_classes": self.n_classes,
            "orders": np.asarray(self.extractor.orders, dtype=np.int64),
            "tfllr": self.tfllr,
        }
        if self.scaler is not None:
            if not self.scaler.is_fitted:
                raise RuntimeError("cannot serialise an unfitted VSM")
            state["min_prob"] = self.scaler.min_prob
            # Sparse persisted form: only training-observed columns carry
            # an explicit scale; everything else is 1/sqrt(min_prob).
            state["scale_indices"] = self.scaler.scale_indices_
            state["scale_values"] = self.scaler.scale_values_
        for key, value in self.ovr.state_dict().items():
            state[f"ovr.{key}"] = value
        return state

    @classmethod
    def from_state(cls, state: dict) -> "VSM":
        """Rebuild a fitted :class:`VSM` from :meth:`state_dict` output."""
        tfllr = bool(state["tfllr"])
        vsm = cls(
            int(state["n_phones"]),
            int(state["n_classes"]),
            orders=tuple(int(o) for o in state["orders"]),
            C=float(state["ovr.C"]),
            loss=str(state["ovr.loss"]),
            max_epochs=int(state["ovr.max_epochs"]),
            tfllr=tfllr,
            min_prob=float(state["min_prob"]) if tfllr else 1e-5,
            seed=int(state["ovr.seed"]),
        )
        if vsm.scaler is not None:
            vsm.scaler.load_scale(
                vsm.extractor.dim,
                state["scale_indices"],
                state["scale_values"],
            )
        vsm.ovr = OneVsRestSVM.from_state(
            {
                key[len("ovr.") :]: value
                for key, value in state.items()
                if key.startswith("ovr.")
            }
        )
        return vsm

    # ------------------------------------------------------------------
    # convenience: straight from sausages
    # ------------------------------------------------------------------
    def fit(self, sausages: list[Sausage], labels: np.ndarray) -> "VSM":
        """Extract supervectors and fit."""
        return self.fit_matrix(self.extract(sausages), np.asarray(labels))

    def score(self, sausages: list[Sausage]) -> np.ndarray:
        """Extract supervectors and score."""
        return self.score_matrix(self.extract(sausages))

    def predict(self, sausages: list[Sausage]) -> np.ndarray:
        """Arg-max language decisions."""
        return np.argmax(self.score(sausages), axis=1)
