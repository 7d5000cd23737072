"""Tests for the dual coordinate descent linear SVM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.svm.linear import LinearSVC
from repro.utils.sparse import SparseMatrix, SparseVector


def to_sparse(x: np.ndarray) -> SparseMatrix:
    rows = []
    for row in x:
        idx = np.flatnonzero(row)
        rows.append(SparseVector(x.shape[1], idx.astype(np.int64), row[idx]))
    return SparseMatrix.from_rows(rows, dim=x.shape[1])


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 4))
    w_true = np.array([1.0, -2.0, 0.5, 0.0])
    margin = x @ w_true + 0.3
    # Keep a real margin so a finite-C SVM can separate perfectly.
    x = x[np.abs(margin) > 0.4][:150]
    margin = margin[np.abs(margin) > 0.4][:150]
    y = np.where(margin > 0, 1.0, -1.0)
    return to_sparse(x), y


@pytest.fixture(scope="module")
def noisy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 6))
    w_true = rng.normal(size=6)
    y = np.where(x @ w_true + rng.normal(0, 0.8, 200) > 0, 1.0, -1.0)
    return to_sparse(x), y


class TestFitting:
    def test_perfect_on_separable(self, separable):
        x, y = separable
        svc = LinearSVC(C=10.0, max_epochs=100).fit(x, y)
        assert np.mean(svc.predict(x) == y) == 1.0

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    def test_both_losses_train(self, noisy, loss):
        x, y = noisy
        svc = LinearSVC(C=1.0, loss=loss).fit(x, y)
        assert np.mean(svc.predict(x) == y) > 0.85

    def test_weak_duality(self, noisy):
        """primal >= -dual always; gap small after convergence."""
        x, y = noisy
        svc = LinearSVC(C=1.0, max_epochs=200, tol=1e-5).fit(x, y)
        primal = svc.primal_objective(x, y)
        dual = -svc.dual_objective(x, y)
        assert primal >= dual - 1e-9
        assert primal - dual < 0.05 * abs(primal)

    def test_alpha_box_constraint_l1(self, noisy):
        x, y = noisy
        svc = LinearSVC(C=0.7, loss="l1").fit(x, y)
        assert np.all(svc.alpha_ >= -1e-12)
        assert np.all(svc.alpha_ <= 0.7 + 1e-12)

    def test_w_is_support_vector_expansion(self, noisy):
        x, y = noisy
        svc = LinearSVC(C=1.0).fit(x, y)
        w_rebuilt = np.zeros(x.dim)
        for i in range(x.n_rows):
            row = x.row(i)
            w_rebuilt[row.indices] += svc.alpha_[i] * y[i] * row.values
        np.testing.assert_allclose(svc.weight_, w_rebuilt, atol=1e-9)

    def test_larger_C_lowers_training_hinge_loss(self, noisy):
        x, y = noisy

        def hinge(svc):
            return np.maximum(
                0.0, 1.0 - y * svc.decision_function(x)
            ).mean()

        loose = LinearSVC(C=0.01, max_epochs=300, tol=1e-4).fit(x, y)
        tight = LinearSVC(C=10.0, max_epochs=300, tol=1e-4).fit(x, y)
        assert hinge(tight) < hinge(loose)

    def test_deterministic(self, noisy):
        x, y = noisy
        a = LinearSVC(C=1.0, seed=3).fit(x, y)
        b = LinearSVC(C=1.0, seed=3).fit(x, y)
        np.testing.assert_allclose(a.weight_, b.weight_)

    def test_handles_empty_rows(self):
        x = to_sparse(np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]))
        y = np.array([1.0, 1.0, -1.0])
        svc = LinearSVC().fit(x, y)
        assert np.isfinite(svc.weight_).all()

    def test_bias_learned(self):
        # All-positive data shifted away from the origin needs a bias.
        x = to_sparse(np.array([[3.0], [4.0], [1.0], [2.0]]))
        y = np.array([1.0, 1.0, -1.0, -1.0])
        svc = LinearSVC(C=10.0, max_epochs=200).fit(x, y)
        assert np.mean(svc.predict(x) == y) == 1.0
        assert svc.bias_ != 0.0


class TestValidation:
    def test_bad_labels(self, separable):
        x, _ = separable
        with pytest.raises(ValueError, match="-1 or \\+1"):
            LinearSVC().fit(x, np.zeros(x.n_rows))

    def test_label_length(self, separable):
        x, _ = separable
        with pytest.raises(ValueError):
            LinearSVC().fit(x, np.ones(3))

    def test_empty_training(self):
        with pytest.raises(ValueError):
            LinearSVC().fit(SparseMatrix.from_rows([], dim=2), np.empty(0))

    def test_gram_shape(self, separable):
        x, y = separable
        with pytest.raises(ValueError, match="gram must be"):
            LinearSVC().fit(x, y, gram=np.zeros((x.n_rows + 1, x.n_rows)))

    def test_unfitted_scoring(self, separable):
        x, _ = separable
        with pytest.raises(RuntimeError):
            LinearSVC().decision_function(x)

    def test_dim_mismatch(self, separable):
        x, y = separable
        svc = LinearSVC().fit(x, y)
        with pytest.raises(ValueError):
            svc.decision_function(to_sparse(np.zeros((2, 9))))

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            LinearSVC(C=0.0)
        with pytest.raises(ValueError):
            LinearSVC(loss="hinge2")
