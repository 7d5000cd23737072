"""Tests for the confusion-channel recognizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import UtteranceGenerator
from repro.corpus.language import make_language
from repro.corpus.phoneset import universal_phone_set
from repro.corpus.speaker import SessionSampler
from repro.frontend.confusion import ConfusionChannelRecognizer, ConfusionModel
from tests.budget import examples
from tests.oracles.phi import decode_reference


@pytest.fixture(scope="module")
def space():
    return AcousticSpace(universal_phone_set(), seed=4)


@pytest.fixture(scope="module")
def utterance(space):
    lang = make_language("l", space.phone_set, 0, inventory_size=24)
    gen = UtteranceGenerator(SessionSampler(13, seed=2), frame_rate=20.0)
    return gen.sample_utterance("u", lang, 10.0, 3)


class TestProjection:
    def test_rows_are_distributions(self, space):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        proj = fe.projection
        assert proj.shape == (len(space.phone_set), 30)
        np.testing.assert_allclose(proj.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proj >= 0)

    def test_prototype_phones_map_to_themselves(self, space):
        fe = ConfusionChannelRecognizer(
            "X", space, 30, ConfusionModel(tau=0.3), seed=1
        )
        # A universal phone that IS a prototype should peak on its own
        # local id.
        for local, universal in enumerate(fe._local_universal_ids[:10]):
            assert int(np.argmax(fe.projection[universal])) == local

    def test_sharper_tau_more_peaked(self, space):
        sharp = ConfusionChannelRecognizer(
            "A", space, 30, ConfusionModel(tau=0.2), seed=1
        )
        flat = ConfusionChannelRecognizer(
            "A", space, 30, ConfusionModel(tau=1.5), seed=1
        )
        assert sharp.projection.max(axis=1).mean() > flat.projection.max(
            axis=1
        ).mean()

    def test_different_seeds_different_inventories(self, space):
        a = ConfusionChannelRecognizer("A", space, 30, seed=1)
        b = ConfusionChannelRecognizer("B", space, 30, seed=2)
        assert not np.array_equal(
            a._local_universal_ids, b._local_universal_ids
        )

    def test_session_projection_differs_from_clean(self, space, utterance):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        shifted = fe.session_projection(utterance.session)
        assert shifted.shape == fe.projection.shape
        assert not np.allclose(shifted, fe.projection)
        np.testing.assert_allclose(shifted.sum(axis=1), 1.0, atol=1e-9)


class TestDecode:
    def test_output_structure(self, space, utterance):
        fe = ConfusionChannelRecognizer(
            "X", space, 30, ConfusionModel(top_k=4), seed=1
        )
        sausage = fe.decode(utterance, 0)
        assert len(sausage) > 0
        for slot in sausage.slots:
            assert 1 <= slot.phones.size <= 4
            assert slot.probs.sum() == pytest.approx(1.0)

    def test_deterministic_given_rng(self, space, utterance):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        a = fe.decode(utterance, 9)
        b = fe.decode(utterance, 9)
        np.testing.assert_array_equal(a.best_phones(), b.best_phones())

    def test_slot_count_tracks_utterance_length(self, space, utterance):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        n_slots = len(fe.decode(utterance, 0))
        # Deletions/insertions keep the count within a sane band.
        assert 0.6 * utterance.n_phones <= n_slots <= 1.4 * utterance.n_phones

    def test_better_model_more_accurate(self, space, utterance):
        good = ConfusionChannelRecognizer(
            "G", space, 40, ConfusionModel(tau=0.25, base_error=0.02,
                                           insertion_rate=0.0,
                                           deletion_rate=0.0),
            seed=1,
        )
        bad = ConfusionChannelRecognizer(
            "B", space, 40, ConfusionModel(tau=1.2, base_error=0.5,
                                           insertion_rate=0.0,
                                           deletion_rate=0.0),
            seed=1,
        )

        def top1_match(fe):
            sausage = fe.decode(utterance, 0)
            # Compare decoded local phones to the projected truth.
            proj_truth = np.argmax(fe.projection[utterance.phones], axis=1)
            decoded = sausage.best_phones()
            n = min(decoded.size, proj_truth.size)
            return np.mean(decoded[:n] == proj_truth[:n])

        assert top1_match(good) > top1_match(bad)

    def test_decode_empty_phones_is_safe(self, space, utterance):
        fe = ConfusionChannelRecognizer(
            "X", space, 30, ConfusionModel(deletion_rate=0.0), seed=1
        )
        sausage = fe.decode(utterance, 0)
        assert len(sausage) >= utterance.n_phones  # only insertions


class TestDecodeBatch:
    """decode_batch is a pure speed switch: bitwise equal to the loop."""

    @pytest.fixture(scope="class")
    def corpus(self, space):
        lang = make_language("l", space.phone_set, 0, inventory_size=24)
        gen = UtteranceGenerator(SessionSampler(13, seed=7), frame_rate=20.0)
        return [
            gen.sample_utterance(f"u{i}", lang, 4.0 + i, 3) for i in range(6)
        ]

    @staticmethod
    def _assert_bitwise_equal(batch, looped):
        assert len(batch) == len(looped)
        for got, want in zip(batch, looped):
            assert len(got) == len(want)
            for gs, ws in zip(got.slots, want.slots):
                np.testing.assert_array_equal(gs.phones, ws.phones)
                assert gs.probs.tobytes() == ws.probs.tobytes()

    def test_batch_matches_scalar_loop_bitwise(self, space, corpus):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        looped = [fe.decode(u) for u in corpus]
        self._assert_bitwise_equal(fe.decode_batch(corpus), looped)

    def test_batch_matches_reference_bitwise(self, space, corpus):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        batch = fe.decode_batch(corpus)
        reference = [decode_reference(fe, u) for u in corpus]
        self._assert_bitwise_equal(batch, reference)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 5, 40]),
    )
    @settings(max_examples=examples(20), deadline=None)
    def test_random_batches_match_reference(
        self, space, corpus, picks, seed, top_k
    ):
        """Repeated utterances (one session decoded twice) included."""
        fe = ConfusionChannelRecognizer(
            "X", space, 30, ConfusionModel(top_k=top_k), seed=1
        )
        utts = [corpus[i] for i in picks]
        rngs = [np.random.default_rng([seed, i]) for i in range(len(utts))]
        reference = [
            decode_reference(fe, u, np.random.default_rng([seed, i]))
            for i, u in enumerate(utts)
        ]
        self._assert_bitwise_equal(fe.decode_batch(utts, rngs), reference)

    def test_empty_batch(self, space):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        assert fe.decode_batch([]) == []

    def test_rng_length_mismatch_raises(self, space, corpus):
        fe = ConfusionChannelRecognizer("X", space, 30, seed=1)
        with pytest.raises(ValueError):
            fe.decode_batch(corpus, rngs=[np.random.default_rng(0)])
