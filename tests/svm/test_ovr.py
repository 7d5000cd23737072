"""Tests for one-vs-rest multiclass SVM (Eqs. 6-7) and the VSM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend.lattice import Sausage
from repro.corpus.phoneset import PhoneSet
from repro.svm.ovr import OneVsRestSVM
from repro.svm.vsm import VSM
from repro.utils.sparse import SparseMatrix, SparseVector


def to_sparse(x: np.ndarray) -> SparseMatrix:
    rows = []
    for row in x:
        idx = np.flatnonzero(row)
        rows.append(SparseVector(x.shape[1], idx.astype(np.int64), row[idx]))
    return SparseMatrix.from_rows(rows, dim=x.shape[1])


@pytest.fixture(scope="module")
def three_blobs():
    rng = np.random.default_rng(5)
    centers = np.array([[0, 0], [6, 0], [0, 6]], dtype=float)
    x = np.vstack([rng.normal(c, 1.0, size=(60, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 60)
    return to_sparse(x), labels


@pytest.fixture(scope="module")
def wide_blobs():
    """Few dense rows (n² ≤ nnz), shaped like a campaign fit: Gram form."""
    rng = np.random.default_rng(6)
    centers = rng.normal(0.0, 3.0, size=(3, 40))
    x = np.vstack([rng.normal(c, 1.0, size=(8, 40)) for c in centers])
    return to_sparse(x), np.repeat(np.arange(3), 8)


class TestOneVsRest:
    def test_accuracy(self, three_blobs):
        x, labels = three_blobs
        ovr = OneVsRestSVM(3, C=5.0).fit(x, labels)
        assert np.mean(ovr.predict(x) == labels) > 0.95

    def test_decision_matrix_shape(self, three_blobs):
        x, labels = three_blobs
        ovr = OneVsRestSVM(3).fit(x, labels)
        assert ovr.decision_matrix(x).shape == (x.n_rows, 3)

    def test_own_class_scores_higher(self, three_blobs):
        x, labels = three_blobs
        scores = OneVsRestSVM(3, C=5.0).fit(x, labels).decision_matrix(x)
        mean_target = scores[np.arange(len(labels)), labels].mean()
        mask = np.ones_like(scores, dtype=bool)
        mask[np.arange(len(labels)), labels] = False
        assert mean_target > scores[mask].mean()

    def test_absent_class_constant_negative(self, three_blobs):
        x, labels = three_blobs
        # Train a 4-class model where class 3 never occurs.
        ovr = OneVsRestSVM(4).fit(x, labels)
        scores = ovr.decision_matrix(x)
        np.testing.assert_allclose(scores[:, 3], -1.0)

    def test_label_range_checked(self, three_blobs):
        x, _ = three_blobs
        with pytest.raises(ValueError):
            OneVsRestSVM(2).fit(x, np.full(x.n_rows, 5))

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            OneVsRestSVM(1)

    def test_unfitted_raises(self, three_blobs):
        x, _ = three_blobs
        with pytest.raises(RuntimeError):
            OneVsRestSVM(3).decision_matrix(x)


class TestVSM:
    PS = PhoneSet("v", tuple("abcdef"))

    def _sausages_and_labels(self, n_per=12):
        """Two 'languages' with disjoint characteristic bigrams."""
        rng = np.random.default_rng(0)
        sausages, labels = [], []
        for lang, pair in enumerate([(0, 1), (2, 3)]):
            for _ in range(n_per):
                seq = []
                for _ in range(20):
                    seq.extend(pair if rng.random() < 0.8 else (4, 5))
                sausages.append(
                    Sausage.from_hard_sequence(np.array(seq), self.PS)
                )
                labels.append(lang)
        return sausages, np.array(labels)

    def test_fit_score_separates_languages(self):
        sausages, labels = self._sausages_and_labels()
        vsm = VSM(6, 2, orders=(1, 2), max_epochs=30)
        vsm.fit(sausages, labels)
        assert np.mean(vsm.predict(sausages) == labels) == 1.0

    def test_fit_matrix_equivalent_to_fit(self):
        sausages, labels = self._sausages_and_labels()
        a = VSM(6, 2, orders=(1, 2), seed=1)
        b = VSM(6, 2, orders=(1, 2), seed=1)
        a.fit(sausages, labels)
        raw = b.extract(sausages)
        b.fit_matrix(raw, labels)
        np.testing.assert_allclose(
            a.score(sausages), b.score_matrix(raw), atol=1e-12
        )

    def test_tfllr_disabled_still_works(self):
        sausages, labels = self._sausages_and_labels()
        vsm = VSM(6, 2, orders=(1, 2), tfllr=False)
        vsm.fit(sausages, labels)
        assert np.mean(vsm.predict(sausages) == labels) > 0.9

    def test_score_shape(self):
        sausages, labels = self._sausages_and_labels(n_per=5)
        vsm = VSM(6, 2, orders=(1,)).fit(sausages, labels)
        assert vsm.score(sausages).shape == (10, 2)


class TestFitSpans:
    """One ``svm.gram`` span (Gram form only), then one ``svm.fit`` per fit."""

    def test_one_span_per_class_with_epochs(self, wide_blobs):
        from repro.obs import trace

        x, labels = wide_blobs
        trace.stop_trace()
        trace.start_trace("svm")
        try:
            with trace.span("svm_training"):
                ovr = OneVsRestSVM(3, max_epochs=25, seed=4).fit(x, labels)
        finally:
            root = trace.stop_trace()
        (training,) = root.children
        gram, *fits = training.children
        assert gram.name == "svm.gram"
        assert gram.attrs == {"rows": x.n_rows, "dim": x.dim}
        assert [sp.name for sp in fits] == ["svm.fit"] * 3
        for k, (sp, model) in enumerate(zip(fits, ovr.models_)):
            assert sp.attrs == {
                "target": k,
                "rows": x.n_rows,
                "n_epochs": model.n_epochs_,
            }
            assert 1 <= sp.attrs["n_epochs"] <= 25
            assert sp.children == []

    def test_degenerate_class_opens_no_span(self, wide_blobs):
        from repro.obs import trace

        x, labels = wide_blobs
        trace.stop_trace()
        trace.start_trace("svm")
        try:
            # Class 3 has no rows: a constant scorer, not a fit.
            OneVsRestSVM(4, max_epochs=5).fit(x, labels)
        finally:
            root = trace.stop_trace()
        gram, *fits = root.children
        assert gram.name == "svm.gram"
        assert [sp.attrs["target"] for sp in fits] == [0, 1, 2]

    def test_tall_matrix_trains_by_rows(self, three_blobs):
        from repro.obs import trace
        from repro.svm.linear import LinearSVC

        x, labels = three_blobs  # 180 rows of 2 nonzeros: n² > nnz
        trace.stop_trace()
        trace.start_trace("svm")
        try:
            ovr = OneVsRestSVM(3, max_epochs=25, seed=4).fit(x, labels)
        finally:
            root = trace.stop_trace()
        assert [sp.name for sp in root.children] == ["svm.fit"] * 3
        y = np.where(labels == 1, 1.0, -1.0)
        in_gram_form = LinearSVC(max_epochs=25, seed=5).fit(x, y, gram=x.gram())
        assert ovr.models_[1].n_epochs_ == in_gram_form.n_epochs_
        np.testing.assert_allclose(
            ovr.models_[1].weight_, in_gram_form.weight_, rtol=1e-11, atol=1e-11
        )

    def test_untraced_fit_records_nothing(self, three_blobs):
        from repro.obs import trace

        x, labels = three_blobs
        trace.stop_trace()
        assert trace.span("svm.fit") is trace.NULL_SPAN
        OneVsRestSVM(3, max_epochs=5).fit(x, labels)
        assert trace.get_tracer() is None
