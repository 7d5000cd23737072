"""Tests for the Gaussian score backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.gaussian import GaussianBackend
from tests.oracles.gaussian import detection_scores_reference


def blobs(rng, k=3, dim=4, n_per=60, sep=4.0):
    centers = rng.normal(0, sep, size=(k, dim))
    x = np.vstack([rng.normal(c, 1.0, size=(n_per, dim)) for c in centers])
    labels = np.repeat(np.arange(k), n_per)
    return x, labels, centers


class TestFit:
    def test_means_recovered(self, rng):
        x, labels, centers = blobs(rng)
        gb = GaussianBackend().fit(x, labels)
        np.testing.assert_allclose(gb.means_, centers, atol=0.5)

    def test_shared_variance_near_one(self, rng):
        x, labels, _ = blobs(rng)
        gb = GaussianBackend().fit(x, labels)
        np.testing.assert_allclose(gb.variance_, 1.0, atol=0.3)

    def test_empty_class_falls_back_to_grand_mean(self, rng):
        x, labels, _ = blobs(rng, k=2)
        gb = GaussianBackend().fit(x, labels, n_classes=3)
        np.testing.assert_allclose(gb.means_[2], x.mean(axis=0))

    def test_priors(self, rng):
        x, labels, _ = blobs(rng, k=2)
        uniform = GaussianBackend().fit(x, labels)
        np.testing.assert_allclose(
            np.exp(uniform.log_priors_), [0.5, 0.5]
        )
        counted = GaussianBackend().fit(x, labels, uniform_priors=False)
        assert np.exp(counted.log_priors_).sum() == pytest.approx(1.0)

    def test_label_alignment_checked(self, rng):
        x, labels, _ = blobs(rng)
        with pytest.raises(ValueError):
            GaussianBackend().fit(x, labels[:-1])


class TestScoring:
    def test_posteriors_normalised(self, rng):
        x, labels, _ = blobs(rng)
        gb = GaussianBackend().fit(x, labels)
        post = np.exp(gb.class_log_posteriors(x[:20]))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_classification_accuracy(self, rng):
        x, labels, _ = blobs(rng, sep=6.0)
        gb = GaussianBackend().fit(x, labels)
        pred = np.argmax(gb.class_log_posteriors(x), axis=1)
        assert np.mean(pred == labels) > 0.95

    def test_detection_scores_sign(self, rng):
        x, labels, _ = blobs(rng, sep=8.0)
        gb = GaussianBackend().fit(x, labels)
        det = gb.detection_scores(x)
        target = det[np.arange(len(labels)), labels]
        assert np.mean(target > 0) > 0.9  # targets accepted at threshold 0

    def test_detection_scores_shape(self, rng):
        x, labels, _ = blobs(rng, k=4)
        gb = GaussianBackend().fit(x, labels)
        assert gb.detection_scores(x[:7]).shape == (7, 4)

    def test_unfitted_raises(self, rng):
        with pytest.raises(RuntimeError):
            GaussianBackend().log_likelihoods(rng.normal(size=(2, 3)))

    def test_likelihood_matches_manual(self, rng):
        gb = GaussianBackend()
        gb.means_ = np.array([[0.0, 0.0]])
        gb.variance_ = np.array([1.0, 4.0])
        gb.log_priors_ = np.array([0.0])
        x = np.array([[1.0, 2.0]])
        expected = -0.5 * (
            1.0 / 1.0 + 4.0 / 4.0 + np.log(4.0) + 2 * np.log(2 * np.pi)
        )
        assert gb.log_likelihoods(x)[0, 0] == pytest.approx(expected)


class TestDetectionScoresOracle:
    """The ``take`` gather reproduces the ``np.delete`` loop's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(2, 33),
        n=st.integers(1, 100),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        neg_inf=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_delete_loop(self, k, n, scale, neg_inf, seed):
        rng = np.random.default_rng(seed)
        ll = rng.normal(0.0, scale, size=(n, k)) - scale
        ll[rng.random((n, k)) < neg_inf] = -np.inf
        gb = GaussianBackend()
        gb.log_likelihoods = lambda x: ll  # score this exact matrix
        with np.errstate(invalid="ignore"):  # rows of all -inf give NaN
            got = gb.detection_scores(np.zeros((n, 1)))
            expected = detection_scores_reference(ll)
        assert got.tobytes() == expected.tobytes()

    def test_fitted_backend_matches_the_delete_loop(self, rng):
        x, labels, _ = blobs(rng, k=9, dim=8)
        gb = GaussianBackend().fit(x, labels)
        expected = detection_scores_reference(gb.log_likelihoods(x))
        assert gb.detection_scores(x).tobytes() == expected.tobytes()
