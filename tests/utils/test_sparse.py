"""Tests for the sparse vector/matrix containers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ngram.supervector import SupervectorLayout
from repro.utils.sparse import SparseMatrix, SparseVector


def dense_to_sparse(vec: np.ndarray) -> SparseVector:
    idx = np.flatnonzero(vec)
    return SparseVector(vec.size, idx.astype(np.int64), vec[idx])


@st.composite
def sparse_vectors(draw, dim: int = 12):
    """Strategy: a random sparse vector of fixed dim."""
    n = draw(st.integers(0, dim))
    indices = draw(
        st.lists(
            st.integers(0, dim - 1), min_size=n, max_size=n, unique=True
        )
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, width=32),
            min_size=n,
            max_size=n,
        )
    )
    order = np.argsort(indices) if indices else []
    return SparseVector(
        dim,
        np.array(sorted(indices), dtype=np.int64),
        np.array(values, dtype=np.float64)[order] if n else np.empty(0),
    )


class TestSparseVector:
    def test_from_dict_orders_indices(self):
        v = SparseVector.from_dict(10, {7: 1.0, 2: 3.0})
        np.testing.assert_array_equal(v.indices, [2, 7])
        np.testing.assert_array_equal(v.values, [3.0, 1.0])

    def test_to_dense_roundtrip(self):
        v = SparseVector.from_dict(6, {0: 1.5, 5: -2.0})
        np.testing.assert_array_equal(v.to_dense(), [1.5, 0, 0, 0, 0, -2.0])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseVector(3, np.array([3]), np.array([1.0]))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVector(5, np.array([3, 1]), np.array([1.0, 2.0]))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVector(5, np.array([1, 1]), np.array([1.0, 2.0]))

    @given(sparse_vectors(), sparse_vectors())
    @settings(max_examples=60, deadline=None)
    def test_dot_matches_dense(self, a: SparseVector, b: SparseVector):
        expected = float(a.to_dense() @ b.to_dense())
        assert a.dot(b) == pytest.approx(expected, abs=1e-9)

    @given(sparse_vectors())
    @settings(max_examples=60, deadline=None)
    def test_dot_dense_matches(self, v: SparseVector):
        w = np.linspace(-1.0, 1.0, v.dim)
        assert v.dot_dense(w) == pytest.approx(
            float(v.to_dense() @ w), abs=1e-9
        )

    @given(sparse_vectors())
    @settings(max_examples=40, deadline=None)
    def test_norms_match_dense(self, v: SparseVector):
        dense = v.to_dense()
        assert v.l2_norm() == pytest.approx(np.linalg.norm(dense), abs=1e-9)
        assert v.l1_norm() == pytest.approx(np.abs(dense).sum(), abs=1e-9)

    def test_scale(self):
        v = SparseVector.from_dict(4, {1: 2.0})
        np.testing.assert_array_equal(v.scale(3.0).values, [6.0])

    def test_componentwise_scale(self):
        v = SparseVector.from_dict(4, {1: 2.0, 3: 5.0})
        diag = np.array([0.0, 10.0, 0.0, 2.0])
        scaled = v.componentwise_scale(diag)
        np.testing.assert_array_equal(scaled.values, [20.0, 10.0])

    def test_dimension_mismatch_raises(self):
        a = SparseVector.from_dict(4, {1: 1.0})
        b = SparseVector.from_dict(5, {1: 1.0})
        with pytest.raises(ValueError):
            a.dot(b)


class TestSparseMatrix:
    def _matrix(self) -> tuple[SparseMatrix, np.ndarray]:
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(5, 9))
        dense[dense < 0.3] = 0.0
        rows = [dense_to_sparse(dense[i]) for i in range(5)]
        return SparseMatrix.from_rows(rows), dense

    def test_shapes(self):
        m, dense = self._matrix()
        assert m.n_rows == 5
        assert m.dim == 9
        assert m.nnz == np.count_nonzero(dense)

    def test_to_dense_roundtrip(self):
        m, dense = self._matrix()
        np.testing.assert_allclose(m.to_dense(), dense)

    def test_matvec_matches_dense(self):
        m, dense = self._matrix()
        w = np.arange(9.0)
        np.testing.assert_allclose(m.matvec_dense(w), dense @ w)

    def test_matvec_with_empty_rows(self):
        rows = [
            SparseVector.from_dict(4, {}),
            SparseVector.from_dict(4, {2: 3.0}),
            SparseVector.from_dict(4, {}),
        ]
        m = SparseMatrix.from_rows(rows)
        np.testing.assert_allclose(
            m.matvec_dense(np.ones(4)), [0.0, 3.0, 0.0]
        )

    def test_row_roundtrip(self):
        m, dense = self._matrix()
        for i in range(m.n_rows):
            np.testing.assert_allclose(m.row(i).to_dense(), dense[i])

    def test_row_norms(self):
        m, dense = self._matrix()
        np.testing.assert_allclose(
            m.row_norms(), np.linalg.norm(dense, axis=1)
        )

    def test_select_rows(self):
        m, dense = self._matrix()
        sel = m.select_rows(np.array([4, 0]))
        np.testing.assert_allclose(sel.to_dense(), dense[[4, 0]])

    def test_vstack(self):
        m, dense = self._matrix()
        stacked = m.vstack(m)
        assert stacked.n_rows == 10
        np.testing.assert_allclose(stacked.to_dense(), np.vstack([dense, dense]))

    def test_gram_matches_dense(self):
        m, dense = self._matrix()
        np.testing.assert_allclose(m.gram(), dense @ dense.T)

    def test_empty_matrix_needs_dim(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_rows([])
        m = SparseMatrix.from_rows([], dim=7)
        assert m.n_rows == 0 and m.dim == 7

    def test_inconsistent_dims_rejected(self):
        rows = [SparseVector.from_dict(4, {}), SparseVector.from_dict(5, {})]
        with pytest.raises(ValueError):
            SparseMatrix.from_rows(rows)

    def test_vstack_dim_mismatch(self):
        a = SparseMatrix.from_rows([], dim=3)
        b = SparseMatrix.from_rows([], dim=4)
        with pytest.raises(ValueError):
            a.vstack(b)


def _random_rows(rng, n_rows: int, dim: int, nnz: int) -> SparseMatrix:
    """Rows of ``nnz`` random entries each; every third row is empty."""
    rows = []
    for i in range(n_rows):
        k = 0 if i % 3 == 1 else nnz
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        rows.append(SparseVector(dim, idx, rng.exponential(size=k)))
    return SparseMatrix.from_rows(rows, dim=dim)


def _pairwise_dots(m: SparseMatrix) -> np.ndarray:
    rows = list(m.iter_rows())
    return np.array([[a.dot(b) for b in rows] for a in rows])


class TestGram:
    """``gram`` is the SVM trainer's kernel: X Xᵀ from the CSR arrays."""

    def test_orders_one_to_three_without_densifying(self):
        import tracemalloc

        # A trigram-order supervector space over 64 phones: 266,304 dims.
        dim = SupervectorLayout.build(64, (1, 2, 3)).dim
        m = _random_rows(np.random.default_rng(0), 20, dim, 1500)
        tracemalloc.start()
        try:
            gram = m.gram()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(gram, _pairwise_dots(m), rtol=1e-12)
        assert np.array_equal(gram, gram.T)
        # An n × dim float64 array would take 42.6 MB.
        assert peak < m.n_rows * dim * 8 / 4

    def test_empty_shapes(self):
        assert SparseMatrix.from_rows([], dim=5).gram().shape == (0, 0)
        empty_rows = SparseMatrix.from_rows(
            [SparseVector.from_dict(5, {})] * 3
        )
        assert np.array_equal(empty_rows.gram(), np.zeros((3, 3)))


class TestSegmentSums:
    """``row_norms`` and ``matvec_dense`` keep the bits of ``np.add.at``."""

    @staticmethod
    def _add_at(m: SparseMatrix, per_entry: np.ndarray) -> np.ndarray:
        out = np.zeros(m.n_rows, dtype=np.float64)
        rows = np.repeat(np.arange(m.n_rows), np.diff(m.indptr))
        np.add.at(out, rows, per_entry)
        return out

    # 0 rows; one row; empty rows inside; an empty last row (n_rows=8).
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 8])
    def test_bytes_equal_add_at(self, n_rows):
        rng = np.random.default_rng(n_rows)
        m = _random_rows(rng, n_rows, 500, 60)
        w = rng.normal(size=m.dim)
        assert m.row_norms().tobytes() == np.sqrt(
            self._add_at(m, m.values**2)
        ).tobytes()
        assert m.matvec_dense(w).tobytes() == self._add_at(
            m, m.values * w[m.indices]
        ).tobytes()
        assert m.row_norms().shape == m.matvec_dense(w).shape == (n_rows,)
