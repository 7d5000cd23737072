"""One-versus-rest multiclass wrapper (paper Eq. 6–7).

The paper trains the VSM "with a one-versus-rest strategy": for target
language k every training utterance gets label +1 if it belongs to k and
-1 otherwise (Eq. 6), producing one SVM — one column of the language-model
matrix **M** (Eq. 7) — per language.
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace
from repro.svm.linear import LinearSVC, use_gram_form
from repro.utils.sparse import SparseMatrix
from repro.utils.validation import check_positive

__all__ = ["OneVsRestSVM"]


class OneVsRestSVM:
    """K binary SVMs, one per language.

    Parameters are forwarded to each :class:`~repro.svm.linear.LinearSVC`;
    per-class models get distinct RNG seeds for their coordinate orders.
    """

    def __init__(
        self,
        n_classes: int,
        *,
        C: float = 1.0,
        loss: str = "l1",
        max_epochs: int = 60,
        tol: float = 1e-3,
        seed: int = 0,
    ) -> None:
        check_positive("n_classes", n_classes)
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        self.n_classes = int(n_classes)
        self._svm_kwargs = dict(C=C, loss=loss, max_epochs=max_epochs, tol=tol)
        self.seed = seed
        self.models_: list[LinearSVC] = []

    @property
    def is_fitted(self) -> bool:
        return bool(self.models_)

    def fit(self, x: SparseMatrix, labels: np.ndarray) -> "OneVsRestSVM":
        """Train all K binary models.

        ``labels`` are integer class ids in ``[0, n_classes)``; classes
        absent from the training set still get a model (trained against
        everything, i.e. all -1 plus no positives is degenerate, so such a
        class yields a constant negative scorer — flagged by a warning-free
        fallback of an untrained weight of zeros with bias -1).

        When :func:`~repro.svm.linear.use_gram_form` holds, all classes
        share one ``x.gram()`` (an ``svm.gram`` span with ``rows`` and
        ``dim`` under an active trace); otherwise each trains by rows and
        no Gram is built.  Each real binary fit
        is one ``svm.fit`` span carrying its class (``target``), row count
        and the epochs it ran (``n_epochs``).
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (x.n_rows,):
            raise ValueError("labels must align with rows")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("label out of range")
        self.models_ = []
        gram = None
        if use_gram_form(x):
            with trace.span("svm.gram", rows=x.n_rows, dim=x.dim):
                gram = x.gram()
        for k in range(self.n_classes):
            y = np.where(labels == k, 1.0, -1.0)
            model = LinearSVC(seed=self.seed + k, **self._svm_kwargs)
            if np.all(y == -1.0) or np.all(y == 1.0):
                # Degenerate one-vs-rest split: constant scorer.
                model.weight_ = np.zeros(x.dim)
                model.bias_ = -1.0 if np.all(y == -1.0) else 1.0
                model.alpha_ = np.zeros(x.n_rows)
            else:
                with trace.span("svm.fit", target=k, rows=x.n_rows) as sp:
                    model.fit(x, y, gram=gram)
                    sp.set_attrs(n_epochs=model.n_epochs_)
            self.models_.append(model)
        return self

    # ------------------------------------------------------------------
    # persistence (repro.serve artifacts)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Fitted scoring state as plain arrays/scalars.

        Only what :meth:`decision_matrix` needs is captured — the dual
        variables (``alpha_``) are training-time state and are dropped,
        so a restored model scores identically but cannot resume
        training.
        """
        if not self.is_fitted:
            raise RuntimeError("cannot serialise an unfitted OneVsRestSVM")
        return {
            "n_classes": self.n_classes,
            "seed": self.seed,
            "C": self._svm_kwargs["C"],
            "loss": self._svm_kwargs["loss"],
            "max_epochs": self._svm_kwargs["max_epochs"],
            "tol": self._svm_kwargs["tol"],
            "weights": np.stack([m.weight_ for m in self.models_]),
            "biases": np.array([m.bias_ for m in self.models_]),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OneVsRestSVM":
        """Rebuild a fitted scorer from :meth:`state_dict` output."""
        ovr = cls(
            int(state["n_classes"]),
            C=float(state["C"]),
            loss=str(state["loss"]),
            max_epochs=int(state["max_epochs"]),
            tol=float(state["tol"]),
            seed=int(state["seed"]),
        )
        weights = np.asarray(state["weights"], dtype=np.float64)
        biases = np.asarray(state["biases"], dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != ovr.n_classes:
            raise ValueError("weights must be (n_classes, dim)")
        if biases.shape != (ovr.n_classes,):
            raise ValueError("biases must align with n_classes")
        for k in range(ovr.n_classes):
            model = LinearSVC(seed=ovr.seed + k, **ovr._svm_kwargs)
            # A view, not a copy: when ``weights`` is a read-only memmap
            # (mmap-loaded artifacts) every per-class row must keep
            # referencing the mapped pages so N server processes share
            # one physical copy.  decision_function only reads weight_.
            model.weight_ = weights[k]
            model.bias_ = float(biases[k])
            ovr.models_.append(model)
        return ovr

    def decision_matrix(self, x: SparseMatrix) -> np.ndarray:
        """Score matrix ``(n_rows, n_classes)`` — one subsystem's F_q (Eq. 9)."""
        if not self.is_fitted:
            raise RuntimeError("OneVsRestSVM is not fitted")
        out = np.empty((x.n_rows, self.n_classes))
        for k, model in enumerate(self.models_):
            out[:, k] = model.decision_function(x)
        return out

    def predict(self, x: SparseMatrix) -> np.ndarray:
        """Arg-max language decisions."""
        return np.argmax(self.decision_matrix(x), axis=1)
