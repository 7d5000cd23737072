"""Differential test: ``LinearSVC.fit`` against the row-gather reference loop.

In Gram form the trainer keeps the margins as a vector (one length-n
axpy per update); :func:`fit_reference` keeps ``w`` and re-gathers it at
every step.  The iterates agree in exact arithmetic, so in float64 every
fitted quantity must agree to rounding at the same epoch budget: ``|Δ| ≤
RTOL · max(1, max |reference|)`` on ``alpha_``, ``weight_`` and
``bias_``.  The stop epochs may differ by one: the gradient projection
jumps at the box bounds, so an α of exactly 0.0 in one form and 1.4e-17
in the other can put one epoch's largest violation on either side of
``tol``.  The trainer's row form, which it picks when ``n² > nnz``, is
the reference loop and must match it byte for byte.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _problem(n, dim, data_seed, zero_rows, duplicate, lone, **kwargs):
    """One binary problem from :func:`problems`' draws."""
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < 0.5)
    if zero_rows:  # all-zero rows (empty supervectors)
        x[rng.random(n) < 0.3] = 0.0
    if duplicate:  # duplicate rows
        x[rng.integers(n)] = x[rng.integers(n)]
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if lone is not None:  # one class holds a single row
        y[:] = -lone
        y[rng.integers(n)] = lone
    elif np.all(y == y[0]):
        y[0] = -y[0]
    return _to_sparse(x), y, kwargs


@st.composite
def problems(draw):
    """Small sparse binary problems with the awkward shapes forced in."""
    return _problem(
        n=draw(st.integers(2, 14)),
        dim=draw(st.integers(1, 9)),
        data_seed=draw(st.integers(0, 2**32 - 1)),
        zero_rows=draw(st.booleans()),
        duplicate=draw(st.booleans()),
        lone=draw(st.sampled_from([None, 1.0, -1.0])),
        C=draw(st.sampled_from([0.05, 1.0, 20.0])),
        loss=draw(st.sampled_from(["l1", "l2"])),
        max_epochs=draw(st.sampled_from([1, 4, 40])),
        bias_scale=draw(st.sampled_from([0.0, 1.0, 2.5])),
        seed=draw(st.integers(0, 50)),
    )


#: n = 8, dim 6, 26 nonzeros: after epoch 26 one α is exactly 0.0 in
#: Gram form and 1.4e-17 in the reference, so Gram form projects its
#: gradient onto the bound, reads epoch 27's largest violation below
#: ``tol`` and stops one epoch before the reference.
AT_THE_BOUND = _problem(
    n=8, dim=6, data_seed=30, zero_rows=False, duplicate=True, lone=1.0,
    C=0.05, loss="l1", max_epochs=40, bias_scale=2.5, seed=21,
)


def assert_agrees(
    fit: Callable[[dict], LinearSVC], x: SparseMatrix, y, kwargs: dict
) -> LinearSVC:
    """The stated contract, per epoch budget; returns the fast fit.

    ``fit(kwargs)`` fits the form under test.  Its stop epoch and the
    reference's differ by at most one; the longer of the two is refit
    for the shorter one's epochs, and then α, w and b agree to rounding.
    """
    fast = fit(kwargs)
    ref = fit_reference(LinearSVC(**kwargs), x, y)
    assert abs(fast.n_epochs_ - ref.n_epochs_) <= 1
    budget = {**kwargs, "max_epochs": min(fast.n_epochs_, ref.n_epochs_)}
    same = fit(budget) if fast.n_epochs_ > ref.n_epochs_ else fast
    if ref.n_epochs_ > fast.n_epochs_:
        ref = fit_reference(LinearSVC(**budget), x, y)
    assert same.n_epochs_ == ref.n_epochs_
    for got, want in (
        (same.alpha_, ref.alpha_),
        (same.weight_, ref.weight_),
        (np.array([same.bias_]), np.array([ref.bias_])),
    ):
        assert got.shape == want.shape
        bound = RTOL * max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= bound
    return fast


def _gram_fit(x: SparseMatrix, y, gram=None) -> Callable[[dict], LinearSVC]:
    gram = x.gram() if gram is None else gram
    return lambda kwargs: LinearSVC(**kwargs).fit(x, y, gram=gram)


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
    @example(case=AT_THE_BOUND)
    def test_within_tolerance(self, case):
        x, y, kwargs = case
        assert_agrees(_gram_fit(x, y), x, y, kwargs)

    @settings(max_examples=100, deadline=None)
    @given(case=problems())
    @example(case=AT_THE_BOUND)
    def test_chosen_form(self, case):
        x, y, kwargs = case
        if use_gram_form(x):
            assert_agrees(
                lambda kw: LinearSVC(**kw).fit(x, y), x, y, kwargs
            )
            return
        fit = LinearSVC(**kwargs).fit(x, y)
        ref = fit_reference(LinearSVC(**kwargs), x, y)
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
            fast = assert_agrees(_gram_fit(x, y, gram), x, y, kwargs)
            assert fast.n_epochs_ > 1  # the fit ran past its first epoch

    @pytest.mark.parametrize("bias_scale", [0.0, 1.0])
    def test_zero_and_duplicate_rows(self, bias_scale):
        dense, labels = _campaign_shaped(7, n=12, dim=200)
        dense[[2, 9]] = 0.0  # empty supervectors, one of them positive
        dense[5] = dense[4]  # a duplicate with the opposite label
        y = np.where(labels == 4, 1.0, -1.0)
        x = _to_sparse(dense)
        for loss in ("l1", "l2"):
            kwargs = dict(C=5.0, loss=loss, bias_scale=bias_scale, seed=3)
            assert_agrees(_gram_fit(x, y), x, y, kwargs)
