"""Differential test: ``LinearSVC.fit`` against the row-gather reference loop.

In Gram form the trainer keeps the margins as a vector (one length-n
axpy per update); :func:`fit_reference` keeps ``w`` and re-gathers it at
every step.  The iterates agree in exact arithmetic, so in float64 every
fitted quantity must agree to rounding: ``|Δ| ≤ RTOL · max(1, max
|reference|)`` on ``alpha_``, ``weight_`` and ``bias_``, and
``n_epochs_`` must be equal.  The trainer's row form, which it picks
when ``n² > nnz``, is the reference loop and must match it byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.svm.linear import LinearSVC, use_gram_form
from repro.utils.sparse import SparseMatrix, SparseVector
from tests.oracles.svm import fit_reference

#: Relative agreement required of every fitted array and of the bias.
RTOL = 1e-11


def _to_sparse(x: np.ndarray) -> SparseMatrix:
    rows = []
    for row in x:
        idx = np.flatnonzero(row)
        rows.append(SparseVector(x.shape[1], idx.astype(np.int64), row[idx]))
    return SparseMatrix.from_rows(rows, dim=x.shape[1])


@st.composite
def problems(draw):
    """Small sparse binary problems with the awkward shapes forced in."""
    n = draw(st.integers(2, 14))
    dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < 0.5)
    if draw(st.booleans()):  # all-zero rows (empty supervectors)
        x[rng.random(n) < 0.3] = 0.0
    if draw(st.booleans()):  # duplicate rows
        x[rng.integers(n)] = x[rng.integers(n)]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    lone = draw(st.sampled_from([None, 1.0, -1.0]))
    if lone is not None:  # one class holds a single row
        y[:] = -lone
        y[rng.integers(n)] = lone
    elif np.all(y == y[0]):
        y[0] = -y[0]
    kwargs = dict(
        C=draw(st.sampled_from([0.05, 1.0, 20.0])),
        loss=draw(st.sampled_from(["l1", "l2"])),
        max_epochs=draw(st.sampled_from([1, 4, 40])),
        bias_scale=draw(st.sampled_from([0.0, 1.0, 2.5])),
        seed=draw(st.integers(0, 50)),
    )
    return _to_sparse(x), y, kwargs


def assert_agrees(fast: LinearSVC, ref: LinearSVC) -> None:
    """The stated contract: rounding-level agreement, equal epochs."""
    assert fast.n_epochs_ == ref.n_epochs_
    for got, want in (
        (fast.alpha_, ref.alpha_),
        (fast.weight_, ref.weight_),
        (np.array([fast.bias_]), np.array([ref.bias_])),
    ):
        assert got.shape == want.shape
        bound = RTOL * max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= bound


def _campaign_shaped(seed: int, n: int = 20, dim: int = 3000):
    """n = 20 supervector rows at ~40% density, as one campaign fit sees."""
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=(n, dim)) * (rng.random((n, dim)) < 0.4)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.arange(n) % 5
    return x, labels


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(case=problems())
    def test_within_tolerance(self, case):
        x, y, kwargs = case
        fast = LinearSVC(**kwargs).fit(x, y, gram=x.gram())
        ref = fit_reference(LinearSVC(**kwargs), x, y)
        assert_agrees(fast, ref)

    @settings(max_examples=100, deadline=None)
    @given(case=problems())
    def test_chosen_form(self, case):
        x, y, kwargs = case
        fit = LinearSVC(**kwargs).fit(x, y)
        ref = fit_reference(LinearSVC(**kwargs), x, y)
        if use_gram_form(x):
            assert_agrees(fit, ref)
            return
        assert fit.n_epochs_ == ref.n_epochs_
        assert fit.alpha_.tobytes() == ref.alpha_.tobytes()
        assert fit.weight_.tobytes() == ref.weight_.tobytes()
        assert fit.bias_ == ref.bias_

    def test_form_follows_size(self):
        wide = _to_sparse(np.ones((3, 3)))  # n² = nnz
        tall = _to_sparse(np.ones((4, 3)))
        assert use_gram_form(wide) and not use_gram_form(tall)

    @pytest.mark.parametrize("loss", ["l1", "l2"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_campaign_shaped_classes_share_one_gram(self, loss, seed):
        dense, labels = _campaign_shaped(seed)
        x = _to_sparse(dense)
        gram = x.gram()
        for k in range(5):
            y = np.where(labels == k, 1.0, -1.0)
            kwargs = dict(C=1.0, loss=loss, max_epochs=20, seed=seed + k)
            fast = LinearSVC(**kwargs).fit(x, y, gram=gram)
            ref = fit_reference(LinearSVC(**kwargs), x, y)
            assert fast.n_epochs_ > 1  # the fit ran past its first epoch
            assert_agrees(fast, ref)

    @pytest.mark.parametrize("bias_scale", [0.0, 1.0])
    def test_zero_and_duplicate_rows(self, bias_scale):
        dense, labels = _campaign_shaped(7, n=12, dim=200)
        dense[[2, 9]] = 0.0  # empty supervectors, one of them positive
        dense[5] = dense[4]  # a duplicate with the opposite label
        y = np.where(labels == 4, 1.0, -1.0)
        x = _to_sparse(dense)
        for loss in ("l1", "l2"):
            kwargs = dict(C=5.0, loss=loss, bias_scale=bias_scale, seed=3)
            assert_agrees(
                LinearSVC(**kwargs).fit(x, y, gram=x.gram()),
                fit_reference(LinearSVC(**kwargs), x, y),
            )
