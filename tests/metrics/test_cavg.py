"""Tests for NIST LRE 2009 C_avg."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cavg import cavg, min_cavg
from tests.oracles.metrics import cavg_reference, min_cavg_reference


class TestCavg:
    def test_perfect_system_zero_cost(self):
        scores = np.array([[5.0, -5.0], [-5.0, 5.0]])
        assert cavg(scores, np.array([0, 1])) == pytest.approx(0.0)

    def test_all_rejected_cost_half_p_target(self):
        # Everything below threshold: every target missed, no false alarms.
        scores = -np.ones((4, 2))
        labels = np.array([0, 0, 1, 1])
        assert cavg(scores, labels) == pytest.approx(0.5)

    def test_all_accepted_cost(self):
        # Everything accepted: no misses, all false alarms.
        scores = np.ones((4, 2))
        labels = np.array([0, 0, 1, 1])
        # (1 - P_tar)/(K-1) * 1 summed over K-1 others = 0.5.
        assert cavg(scores, labels) == pytest.approx(0.5)

    def test_hand_computed_case(self):
        # K=2; language 0: 1 of 2 targets missed; language 1 perfect;
        # one false alarm of lang-1 utterance on detector 0.
        scores = np.array(
            [
                [1.0, -1.0],   # lang 0, accepted by 0 only: correct
                [-1.0, -1.0],  # lang 0, rejected by both: miss for 0
                [1.0, 1.0],    # lang 1, accepted by both: FA on 0
                [-1.0, 1.0],   # lang 1, correct
            ]
        )
        labels = np.array([0, 0, 1, 1])
        # Detector 0: P_miss = 1/2, P_fa(0,1) = 1/2.
        # Detector 1: P_miss = 0,  P_fa(1,0) = 0.
        expected = 0.5 * (0.5 * 0.5 + 0.5 * 0.5)  # only detector 0 costs
        assert cavg(scores, labels) == pytest.approx(expected)

    def test_threshold_shifts_decisions(self):
        scores = np.array([[0.4, -1.0], [-1.0, 0.4]])
        labels = np.array([0, 1])
        assert cavg(scores, labels, threshold=0.0) == pytest.approx(0.0)
        assert cavg(scores, labels, threshold=0.5) == pytest.approx(0.5)

    def test_custom_costs_and_priors(self):
        scores = -np.ones((2, 2))
        labels = np.array([0, 1])
        # All missed: cost = C_miss * P_tar.
        assert cavg(
            scores, labels, p_target=0.3, c_miss=2.0
        ) == pytest.approx(0.6)

    def test_needs_two_languages(self):
        with pytest.raises(ValueError):
            cavg(np.ones((2, 1)), np.array([0, 0]))

    def test_alignment_checked(self):
        with pytest.raises(ValueError):
            cavg(np.ones((3, 2)), np.array([0, 1]))


class TestMinCavg:
    def test_min_leq_actual(self, rng):
        scores = rng.normal(size=(100, 4))
        labels = rng.integers(0, 4, 100)
        scores[np.arange(100), labels] += 2.0
        assert min_cavg(scores, labels) <= cavg(scores, labels) + 1e-12

    def test_miscalibrated_scores_recovered(self):
        # Perfect ranking but a huge offset: actual C_avg is bad, min is 0.
        scores = np.array([[9.0, 5.0], [5.0, 9.0]]) + 100.0
        labels = np.array([0, 1])
        assert cavg(scores, labels) == pytest.approx(0.5)  # all accepted
        assert min_cavg(scores, labels) == pytest.approx(0.0)


class TestCountMatrixOracle:
    """C_avg from the count matrix reproduces the K² loop's bits."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 12),
        m=st.integers(1, 80),
        empty=st.integers(0, 3),
        threshold=st.sampled_from([0.0, -0.3, 0.5, 1.2]),
        p_target=st.sampled_from([0.5, 0.3, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_loop(self, k, m, empty, threshold, p_target, seed):
        rng = np.random.default_rng(seed)
        # Scores on a 0.1 grid put trials exactly on the thresholds.
        scores = np.round(rng.normal(0.0, 1.0, size=(m, k)), 1)
        # Draw labels from all but ``empty`` classes, so some languages
        # have no utterances.
        present = rng.permutation(k)[: max(1, k - empty)]
        labels = rng.choice(present, size=m)
        scores[np.arange(m), labels] += rng.choice([0.0, 1.0], size=m)
        got = cavg(scores, labels, threshold=threshold, p_target=p_target)
        expected = cavg_reference(
            scores, labels, threshold=threshold, p_target=p_target
        )
        assert got.hex() == expected.hex()
        got_min = min_cavg(scores, labels, p_target=p_target, n_grid=40)
        expected_min = min_cavg_reference(
            scores, labels, p_target=p_target, n_grid=40
        )
        assert got_min.hex() == expected_min.hex()
