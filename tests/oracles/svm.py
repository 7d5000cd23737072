"""Reference dual coordinate descent for :class:`repro.svm.linear.LinearSVC`.

The training loop as :meth:`LinearSVC.fit` first implemented it, over
supervector rows: ``w`` is kept explicitly, every coordinate step
gathers ``w[idx]`` for the margin and gathers it again inside the
``w[idx] += delta * val`` update.  In Gram form :meth:`LinearSVC.fit`
runs the same coordinate order and steps, so given the same estimator
settings it must reproduce ``n_epochs_`` exactly and ``weight_``,
``bias_`` and ``alpha_`` to rounding (the tolerance is stated in
``tests/svm/test_linear_oracle.py``); its row form is this loop and must
match it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.svm.linear import LinearSVC
from repro.utils.rng import ensure_rng
from repro.utils.sparse import SparseMatrix

__all__ = ["fit_reference"]


def fit_reference(svc: LinearSVC, x: SparseMatrix, y: np.ndarray) -> LinearSVC:
    """Fit ``svc`` in place with the row-gather loop; returns ``svc``."""
    self = svc
    y = np.asarray(y, dtype=np.float64)
    n = x.n_rows
    if y.shape != (n,):
        raise ValueError("y must have one label per row")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if n == 0:
        raise ValueError("cannot fit on an empty training set")
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

    w = np.zeros(x.dim)
    b = 0.0
    # Pre-split the CSR rows once (plain indptr slices — the matrix
    # validated its rows on construction, so per-row SparseVector
    # re-validation would be pure overhead).  The dot below is exactly
    # SparseVector.dot_dense (same gather, same reduction order) with
    # the per-call method and dimension-check overhead stripped —
    # this loop runs n_rows × epochs × classes times per campaign.
    indptr, xi, xv = x.indptr, x.indices, x.values
    row_idx = [xi[indptr[i] : indptr[i + 1]] for i in range(n)]
    row_val = [xv[indptr[i] : indptr[i + 1]] for i in range(n)]
    bias_scale = self.bias_scale
    # Scalar state lives in python floats: extracting numpy 0-d
    # scalars (y[i], alpha[i], q_diag[i]) every iteration costs more
    # than the arithmetic they feed, and float64 <-> python float is
    # exact, so the update sequence is bit-for-bit unchanged.
    y_list = y.tolist()
    q_list = q_diag.tolist()
    alpha_list = [0.0] * n
    for epoch in range(self.max_epochs):
        order = rng.permutation(n).tolist()
        max_violation = 0.0
        for i in order:
            idx = row_idx[i]
            val = row_val[i]
            y_i = y_list[i]
            a_i = alpha_list[i]
            margin = float(w[idx] @ val) + bias_scale * b
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
                    w[idx] += delta * val
                    b += delta * bias_scale
                    alpha_list[i] = new_alpha
        self.n_epochs_ = epoch + 1
        if max_violation < self.tol:
            break
    self.weight_ = w
    self.bias_ = b * self.bias_scale
    self.alpha_ = np.asarray(alpha_list)
    return self
