"""Tests for phone HMM sets, alignments and emission models."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.frontend.am.gmm import DiagonalGMM
from repro.frontend.am.hmm import (
    EMISSION_BLOCK_ELEMENTS,
    GMMEmission,
    NeuralEmission,
    PhoneHMMSet,
    uniform_state_alignment,
)
from repro.frontend.am.mlp import MLPConfig


class TestUniformStateAlignment:
    def test_two_state_split(self):
        labels = uniform_state_alignment(
            np.array([0, 1]), np.array([4, 2]), states_per_phone=2
        )
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 2, 3])

    def test_short_segment_uses_early_states(self):
        labels = uniform_state_alignment(
            np.array([1]), np.array([1]), states_per_phone=3
        )
        np.testing.assert_array_equal(labels, [3])  # phone 1, state 0

    def test_three_state_balanced(self):
        labels = uniform_state_alignment(
            np.array([0]), np.array([9]), states_per_phone=3
        )
        counts = np.bincount(labels, minlength=3)
        assert tuple(counts) == (3, 3, 3)

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            uniform_state_alignment(np.array([0]), np.array([1, 2]), 2)


def make_emission(n_states: int, rng) -> GMMEmission:
    gmms = [
        DiagonalGMM.from_parameters(
            means=rng.normal(size=(1, 3)) * 3,
            variances=np.ones((1, 3)),
            weights=np.array([1.0]),
        )
        for _ in range(n_states)
    ]
    return GMMEmission(gmms)


class TestEmissions:
    def test_gmm_emission_shape(self, rng):
        em = make_emission(6, rng)
        out = em.frame_log_likelihood(rng.normal(size=(7, 3)))
        assert out.shape == (7, 6)

    def test_gmm_emission_train_separates_states(self, rng):
        # Two states at distinct means.
        frames = np.vstack(
            [rng.normal(0, 1, (100, 2)), rng.normal(8, 1, (100, 2))]
        )
        labels = np.repeat([0, 1], 100)
        em = GMMEmission.train(frames, labels, 2, n_components=2, seed=0)
        ll = em.frame_log_likelihood(np.array([[0.0, 0.0], [8.0, 8.0]]))
        assert ll[0, 0] > ll[0, 1]
        assert ll[1, 1] > ll[1, 0]

    def test_gmm_emission_handles_empty_state(self, rng):
        frames = rng.normal(size=(50, 2))
        labels = np.zeros(50, dtype=int)
        em = GMMEmission.train(frames, labels, 3, seed=0)  # states 1,2 empty
        out = em.frame_log_likelihood(frames[:5])
        assert np.all(np.isfinite(out))

    def test_neural_emission_train_and_score(self, rng):
        frames = np.vstack(
            [rng.normal(0, 1, (120, 3)), rng.normal(6, 1, (120, 3))]
        )
        labels = np.repeat([0, 1], 120)
        em = NeuralEmission.train(
            frames, labels, 2,
            config=MLPConfig(hidden_sizes=(12,), n_epochs=4), seed=0,
        )
        ll = em.frame_log_likelihood(np.array([[0.0] * 3, [6.0] * 3]))
        assert ll[0, 0] > ll[0, 1]
        assert ll[1, 1] > ll[1, 0]

    def test_neural_emission_covers_all_states(self, rng):
        # The tail state never occurs in training data.
        frames = rng.normal(size=(60, 3))
        labels = np.zeros(60, dtype=int)
        em = NeuralEmission.train(
            frames, labels, 4,
            config=MLPConfig(hidden_sizes=(8,), n_epochs=2), seed=0,
        )
        assert em.n_states == 4
        assert em.frame_log_likelihood(frames[:3]).shape == (3, 4)


def mixed_emission(rng, dims=13) -> GMMEmission:
    """EM-fitted 4-component states next to 1-component fallbacks.

    States 0-9 get 40 frames each (EM fit), 10-13 get 3 frames (a
    single Gaussian on their own statistics) and 14-15 none (the global
    single-Gaussian fallback).
    """
    counts = [40] * 10 + [3] * 4
    frames = np.vstack(
        [rng.normal(s, 1.0 + s / 10, size=(n, dims)) for s, n in enumerate(counts)]
    )
    labels = np.repeat(np.arange(len(counts)), counts)
    return GMMEmission.train(frames, labels, 16, n_components=4, seed=3)


def per_state_log_likelihood(em: GMMEmission, frames: np.ndarray) -> np.ndarray:
    """The reference: one DiagonalGMM.log_likelihood call per state."""
    out = np.empty((frames.shape[0], em.n_states))
    for s, gmm in enumerate(em._gmms):
        out[:, s] = gmm.log_likelihood(frames)
    return out


class TestStackedEmission:
    """GMMEmission scores states stacked; every value must equal the
    per-state DiagonalGMM call byte for byte."""

    def test_mixed_component_counts_are_grouped(self, rng):
        em = mixed_emission(rng)
        components = sorted(g.means.shape[1] for g in em._groups)
        assert components == [1, 4]

    @pytest.mark.parametrize("offset", [-1, 0, 1, 3])
    def test_block_boundary_bitwise(self, rng, offset):
        em = mixed_emission(rng)
        # The 10 EM-fitted states form the group with the smallest blocks.
        block = EMISSION_BLOCK_ELEMENTS // (10 * 4 * 13)
        frames = rng.normal(4.0, 3.0, size=(block + offset, 13))
        assert (
            em.frame_log_likelihood(frames).tobytes()
            == per_state_log_likelihood(em, frames).tobytes()
        )

    def test_several_blocks_bitwise(self, rng, monkeypatch):
        monkeypatch.setattr(
            "repro.frontend.am.hmm.EMISSION_BLOCK_ELEMENTS", 10 * 4 * 13 * 5
        )
        em = mixed_emission(rng)
        frames = rng.normal(4.0, 3.0, size=(23, 13))
        assert (
            em.frame_log_likelihood(frames).tobytes()
            == per_state_log_likelihood(em, frames).tobytes()
        )

    @pytest.mark.parametrize("n_frames", [0, 1])
    def test_degenerate_lengths_bitwise(self, rng, n_frames):
        em = mixed_emission(rng)
        frames = rng.normal(size=(n_frames, 13))
        out = em.frame_log_likelihood(frames)
        assert out.shape == (n_frames, 16)
        assert out.tobytes() == per_state_log_likelihood(em, frames).tobytes()

    def test_peak_memory_bounded(self, rng):
        # 600 frames of 39-dim features against 111 4-component states:
        # one unblocked broadcast would need ~80 MB per temporary.
        gmms = [
            DiagonalGMM.from_parameters(
                rng.normal(size=(4, 39)),
                rng.uniform(0.5, 2.0, size=(4, 39)),
                np.full(4, 0.25),
            )
            for _ in range(111)
        ]
        em = GMMEmission(gmms)
        frames = rng.normal(size=(600, 39))
        tracemalloc.start()
        try:
            em.frame_log_likelihood(frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPhoneHMMSet:
    def test_state_space_helpers(self, rng):
        hmms = PhoneHMMSet(4, 2, make_emission(8, rng))
        np.testing.assert_array_equal(hmms.entry_states(), [0, 2, 4, 6])
        np.testing.assert_array_equal(hmms.exit_states(), [1, 3, 5, 7])
        np.testing.assert_array_equal(
            hmms.state_phone(), [0, 0, 1, 1, 2, 2, 3, 3]
        )

    def test_initial_log_probs(self, rng):
        hmms = PhoneHMMSet(4, 2, make_emission(8, rng))
        init = hmms.initial_log_probs()
        probs = np.exp(init[np.isfinite(init)])
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.isneginf(init[1::2]))  # non-entry states

    def test_transition_blocks_normalised(self, rng):
        hmms = PhoneHMMSet(3, 2, make_emission(6, rng), self_loop=0.6)
        log_self, log_leave, cross = hmms.transition_blocks()
        assert np.exp(log_self) == pytest.approx(0.6)
        # Leaving mass spread over the bigram must total 1 - self_loop.
        total_leave = np.exp(cross).sum(axis=1)
        np.testing.assert_allclose(total_leave, 0.4, atol=1e-9)

    def test_emission_size_checked(self, rng):
        with pytest.raises(ValueError, match="emission"):
            PhoneHMMSet(4, 3, make_emission(8, rng))

    def test_bigram_shape_checked(self, rng):
        with pytest.raises(ValueError, match="bigram"):
            PhoneHMMSet(
                4, 2, make_emission(8, rng),
                phone_log_bigram=np.zeros((3, 3)),
            )
