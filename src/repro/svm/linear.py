r"""L2-regularized linear SVM trained by dual coordinate descent.

This is the algorithm inside LIBLINEAR (Hsieh et al., *A Dual Coordinate
Descent Method for Large-scale Linear SVM*, ICML 2008), which the paper
uses as its VSM classifier (§4.1).  The primal problem

.. math::  \min_w \tfrac12 w^T w + C \sum_i \xi(w; x_i, y_i)

with hinge (L1) or squared-hinge (L2) loss is solved in the dual by
coordinate-wise Newton steps over the α's, in one of two forms that run
the same steps in the same order and differ only in what they keep:

* Gram form: one kernel ``K = X Xᵀ + bias_scale²`` per one-vs-rest fit,
  margins ``m_j = w·x_j + bias_scale·b`` updated by one length-n axpy per
  step, ``w = Σ α_i y_i x_i`` recovered once at the end; a step costs O(n).
* Row form: ``w`` kept explicitly, each step gathers and scatters the
  row's nonzeros; an epoch costs O(nnz).

Building K costs about n² × (shared nonzeros) and stores n² floats, so
:func:`use_gram_form` picks it only while K has no more entries than X
has nonzeros (n² ≤ nnz), which holds for campaign-sized fits.

A bias is handled LIBLINEAR-style by augmenting each example with a
constant component ``bias_scale``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.sparse import SparseMatrix
from repro.utils.validation import check_in, check_positive

__all__ = ["LinearSVC", "use_gram_form"]


def use_gram_form(x: SparseMatrix) -> bool:
    """Whether to train on ``x`` in Gram form (n² ≤ nnz), not by rows.

    On bench-scale DBA matrices (~800 nonzeros a row) Gram form was
    faster up to n² ≈ 1.7·nnz and slower beyond it, its Gram build then
    costing more than the whole row-form fit.
    """
    return x.n_rows**2 <= x.values.size


class LinearSVC:
    """Binary linear SVM (dual coordinate descent).

    Parameters
    ----------
    C:
        Inverse regularisation strength.
    loss:
        ``"l1"`` (hinge, the paper's setting) or ``"l2"`` (squared hinge).
    max_epochs:
        Maximum passes over the training set.
    tol:
        Stop when the maximal projected-gradient violation in an epoch
        falls below this.
    bias_scale:
        Value of the augmented bias component; 0 disables the bias.
    """

    def __init__(
        self,
        C: float = 1.0,
        *,
        loss: str = "l1",
        max_epochs: int = 60,
        tol: float = 1e-3,
        bias_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        check_positive("C", C)
        check_in("loss", loss, ["l1", "l2"])
        check_positive("max_epochs", max_epochs)
        check_positive("tol", tol)
        self.C = float(C)
        self.loss = loss
        self.max_epochs = int(max_epochs)
        self.tol = float(tol)
        self.bias_scale = float(bias_scale)
        self.seed = seed
        self.weight_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.alpha_: np.ndarray | None = None
        self.n_epochs_: int = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self, x: SparseMatrix, y: np.ndarray, *, gram: np.ndarray | None = None
    ) -> "LinearSVC":
        """Fit on sparse rows ``x`` with labels ``y`` in {-1, +1}.

        ``gram`` may pass in ``x.gram()``, e.g. one shared by several fits;
        it must be ``(n_rows, n_rows)`` and selects the Gram form.  Without
        it :func:`use_gram_form` chooses the form.
        """
        y = np.asarray(y, dtype=np.float64)
        n = x.n_rows
        if y.shape != (n,):
            raise ValueError("y must have one label per row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if n == 0:
            raise ValueError("cannot fit on an empty training set")
        if gram is None and use_gram_form(x):
            gram = x.gram()
        if gram is not None and gram.shape != (n, n):
            raise ValueError(f"gram must be ({n}, {n}), got {gram.shape}")
        rng = ensure_rng(self.seed)
        # L2 loss turns the box constraint into [0, inf) with a diagonal
        # D_ii = 1/(2C) added to Q.
        if self.loss == "l1":
            upper = self.C
            diag_add = 0.0
        else:
            upper = np.inf
            diag_add = 1.0 / (2.0 * self.C)

        # Per-row squared norms (Q_ii), including the bias component.
        q_diag = x.row_norms() ** 2 + self.bias_scale**2 + diag_add
        # Guard all-zero rows (empty supervectors).
        q_diag = np.maximum(q_diag, 1e-12)

        by_rows = gram is None
        bias_scale = self.bias_scale
        if by_rows:
            w = np.zeros(x.dim)
            b = 0.0
            # Plain indptr slices: the matrix validated its rows on
            # construction, so no per-row SparseVector is built.
            indptr, xi, xv = x.indptr, x.indices, x.values
            row_idx = [xi[indptr[i] : indptr[i + 1]] for i in range(n)]
            row_val = [xv[indptr[i] : indptr[i + 1]] for i in range(n)]
        else:
            kernel_rows = list(gram + bias_scale**2)
            margins = np.zeros(n)
        # Scalar state lives in python floats: extracting numpy 0-d
        # scalars (y[i], alpha[i], q_diag[i]) every iteration costs more
        # than the arithmetic they feed.
        y_list = y.tolist()
        q_list = q_diag.tolist()
        alpha_list = [0.0] * n
        for epoch in range(self.max_epochs):
            order = rng.permutation(n).tolist()
            max_violation = 0.0
            for i in order:
                y_i = y_list[i]
                a_i = alpha_list[i]
                if by_rows:
                    idx = row_idx[i]
                    val = row_val[i]
                    # One gather serves the margin and the update below.
                    g = w[idx]
                    margin = float(g.dot(val)) + bias_scale * b
                else:
                    margin = margins.item(i)
                grad = y_i * margin - 1.0 + diag_add * a_i
                # Projected gradient for the box constraint.
                if a_i <= 0.0:
                    pg = min(grad, 0.0)
                elif a_i >= upper:
                    pg = max(grad, 0.0)
                else:
                    pg = grad
                if pg != 0.0:
                    max_violation = max(max_violation, abs(pg))
                    new_alpha = min(max(a_i - grad / q_list[i], 0.0), upper)
                    delta = (new_alpha - a_i) * y_i
                    if delta != 0.0:
                        if by_rows:
                            g += delta * val
                            w[idx] = g
                            b += delta * bias_scale
                        else:
                            # numpy, not a BLAS axpy: an axpy kernel may
                            # fuse the multiply-add, which would make the
                            # bits depend on the host's CPU.
                            margins += delta * kernel_rows[i]
                        alpha_list[i] = new_alpha
            self.n_epochs_ = epoch + 1
            if max_violation < self.tol:
                break
        self.alpha_ = np.asarray(alpha_list)
        if by_rows:
            self.weight_ = w
            self.bias_ = b * bias_scale
            return self
        coef = self.alpha_ * y
        self.weight_ = np.bincount(
            x.indices,
            weights=x.values * np.repeat(coef, np.diff(x.indptr)),
            minlength=x.dim,
        )
        self.bias_ = float(coef.sum()) * bias_scale**2
        return self

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def decision_function(self, x: SparseMatrix) -> np.ndarray:
        """Signed distances ``w·x + b`` for every row (paper Eq. 4)."""
        if self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        if x.dim != self.weight_.shape[0]:
            raise ValueError("dimension mismatch with fitted model")
        return x.matvec_dense(self.weight_) + self.bias_

    def predict(self, x: SparseMatrix) -> np.ndarray:
        """Hard ±1 decisions."""
        return np.where(self.decision_function(x) >= 0.0, 1, -1)

    def dual_objective(self, x: SparseMatrix, y: np.ndarray) -> float:
        """Dual objective value (for optimisation tests)."""
        if self.alpha_ is None or self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        w_norm_sq = float(self.weight_ @ self.weight_) + (
            (self.bias_ / self.bias_scale) ** 2 if self.bias_scale else 0.0
        )
        diag_add = 0.0 if self.loss == "l1" else 1.0 / (2.0 * self.C)
        return (
            0.5 * w_norm_sq
            + 0.5 * diag_add * float(self.alpha_ @ self.alpha_)
            - float(self.alpha_.sum())
        )

    def primal_objective(self, x: SparseMatrix, y: np.ndarray) -> float:
        """Primal objective value (for duality-gap tests)."""
        if self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        margins = 1.0 - np.asarray(y) * self.decision_function(x)
        hinge = np.maximum(margins, 0.0)
        loss = hinge.sum() if self.loss == "l1" else float(hinge @ hinge)
        w_norm_sq = float(self.weight_ @ self.weight_) + (
            (self.bias_ / self.bias_scale) ** 2 if self.bias_scale else 0.0
        )
        return 0.5 * w_norm_sq + self.C * float(loss)
