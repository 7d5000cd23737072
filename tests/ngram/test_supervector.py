"""Tests for supervector extraction and TFLLR scaling (Eqs. 3, 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.phoneset import PhoneSet
from repro.frontend.lattice import Sausage
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from repro.utils.sparse import SparseMatrix
from tests.oracles.phi import dense_scale

PS = PhoneSet("t", tuple("abcd"))


def hard(seq):
    return Sausage.from_hard_sequence(np.array(seq), PS)


class TestSupervectorExtractor:
    def test_dim_layout(self):
        ex = SupervectorExtractor(4, orders=(1, 2, 3))
        assert ex.dim == 4 + 16 + 64

    def test_blocks_normalised_separately(self):
        ex = SupervectorExtractor(4, orders=(1, 2))
        v = ex.extract(hard([0, 1, 2])).to_dense()
        # Unigram block sums to 1; bigram block sums to 1.
        assert v[:4].sum() == pytest.approx(1.0)
        assert v[4:].sum() == pytest.approx(1.0)

    def test_probabilities_match_counts(self):
        ex = SupervectorExtractor(4, orders=(2,))
        v = ex.extract(hard([0, 1, 0, 1])).to_dense()
        # Bigrams: (0,1) x2, (1,0) x1 over 3 windows.
        assert v[0 * 4 + 1] == pytest.approx(2 / 3)
        assert v[1 * 4 + 0] == pytest.approx(1 / 3)

    def test_short_sausage_missing_block(self):
        ex = SupervectorExtractor(4, orders=(1, 3))
        v = ex.extract(hard([0, 1]))  # too short for trigrams
        dense = v.to_dense()
        assert dense[:4].sum() == pytest.approx(1.0)
        assert dense[4:].sum() == 0.0

    def test_wrong_phone_set_rejected(self):
        ex = SupervectorExtractor(9, orders=(1,))
        with pytest.raises(ValueError):
            ex.extract(hard([0]))

    def test_extract_matrix(self):
        ex = SupervectorExtractor(4, orders=(1, 2))
        m = ex.extract_matrix([hard([0, 1]), hard([2, 3, 2])])
        assert m.n_rows == 2
        assert m.dim == ex.dim

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            SupervectorExtractor(4, orders=())
        with pytest.raises(ValueError):
            SupervectorExtractor(4, orders=(2, 1))
        with pytest.raises(ValueError):
            SupervectorExtractor(4, orders=(0,))


class TestTFLLRScaler:
    def _train_matrix(self) -> SparseMatrix:
        ex = SupervectorExtractor(4, orders=(1,))
        return ex.extract_matrix(
            [hard([0, 0, 1]), hard([0, 1, 1]), hard([2, 0, 1])]
        )

    def test_scaling_is_inverse_sqrt(self):
        m = self._train_matrix()
        scaler = TFLLRScaler(min_prob=1e-12).fit(m)
        p_all = m.to_dense().sum(axis=0) / m.n_rows
        nonzero = p_all > 0
        np.testing.assert_allclose(
            dense_scale(scaler)[nonzero], 1.0 / np.sqrt(p_all[nonzero])
        )

    def test_kernel_equals_scaled_inner_product(self):
        """Eq. 5: K(x_i, x_j) = Σ p_i p_j / p_all."""
        m = self._train_matrix()
        scaler = TFLLRScaler(min_prob=1e-12).fit(m)
        scaled = scaler.transform(m)
        dense = m.to_dense()
        p_all = dense.sum(axis=0) / m.n_rows
        safe = np.where(p_all > 0, p_all, np.inf)
        expected = (dense / np.sqrt(safe)) @ (dense / np.sqrt(safe)).T
        np.testing.assert_allclose(
            scaled.to_dense() @ scaled.to_dense().T, expected, atol=1e-9
        )

    def test_min_prob_floors_rare_terms(self):
        m = self._train_matrix()
        scaler = TFLLRScaler(min_prob=0.5).fit(m)
        assert dense_scale(scaler).max() <= 1.0 / np.sqrt(0.5) + 1e-12

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TFLLRScaler().transform(self._train_matrix())

    def test_dim_mismatch_rejected(self):
        scaler = TFLLRScaler().fit(self._train_matrix())
        other = SupervectorExtractor(5, orders=(1,)).extract_matrix(
            [Sausage.from_hard_sequence(np.array([0]), PhoneSet("u", tuple("vwxyz")))]
        )
        with pytest.raises(ValueError):
            scaler.transform(other)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            TFLLRScaler().fit(SparseMatrix.from_rows([], dim=3))

    def test_fit_transform_idempotent_shape(self):
        m = self._train_matrix()
        out = TFLLRScaler().fit_transform(m)
        assert out.n_rows == m.n_rows and out.dim == m.dim
