"""Differential test: ``LinearSVC.fit`` against the two-gather reference loop."""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.svm.linear import LinearSVC
from repro.utils.sparse import SparseMatrix, SparseVector
from tests.oracles.svm import fit_reference


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


def _fitted_bytes(svc: LinearSVC) -> tuple:
    return (
        svc.weight_.tobytes(),
        struct.pack("<d", svc.bias_),
        svc.alpha_.tobytes(),
        svc.n_epochs_,
    )


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(case=problems())
    def test_bitwise_equal(self, case):
        x, y, kwargs = case
        fast = LinearSVC(**kwargs).fit(x, y)
        slow = fit_reference(LinearSVC(**kwargs), x, y)
        assert _fitted_bytes(fast) == _fitted_bytes(slow)
