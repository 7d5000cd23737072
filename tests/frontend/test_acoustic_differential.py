"""Batched acoustic set-up and segmentation against their loop oracles.

Rendering, state alignment, the speaker/channel pools, the per-state
frame split and the decoder's slot segmentation each run in one pass in
``src/``; the per-item loops they replaced live in ``tests/oracles``.
Every comparison is byte for byte, shapes included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import build_system
from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import Utterance
from repro.corpus.phoneset import PhoneSet, universal_phone_set
from repro.corpus.speaker import SessionSampler
from repro.frontend.am.hmm import GMMEmission, PhoneHMMSet, uniform_state_alignment
from repro.frontend.decoder import DecoderConfig, ViterbiDecoder
from repro.frontend.lattice import Sausage
from repro.frontend.recognizer import AcousticPhoneRecognizer
from tests.budget import examples
from tests.core.test_golden import acoustic_config
from tests.oracles.acoustics import (
    draw_pool_reference,
    emit_reference,
    gmm_emission_reference,
    train_reference,
    uniform_state_alignment_reference,
)
from tests.oracles.decoder import ScalarDecoder
from tests.frontend.test_hmm import make_emission

SPACE = AcousticSpace(universal_phone_set(), feature_dim=5, seed=3)


def _same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def utterances(draw) -> Utterance:
    """0 to 4 phones of 1 to 4 frames: 0-, 1- and 2-frame utterances."""
    n = draw(st.integers(0, 4))
    phones = draw(st.lists(st.integers(0, len(SPACE.phone_set) - 1), min_size=n, max_size=n))
    frames = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    sampler = SessionSampler(5, n_speakers=draw(st.integers(1, 12)), seed=draw(st.integers(0, 99)))
    return Utterance(
        "u", "l", 1.0, np.array(phones, dtype=np.int64),
        np.array(frames, dtype=np.int64), sampler.sample(draw(st.integers(0, 99))), 20.0,
    )


@given(st.lists(utterances(), min_size=1, max_size=5), st.integers(0, 2**32))
@settings(max_examples=examples(60), deadline=None)
def test_emit_batch_matches_per_utterance_loop(batch, seed):
    got = SPACE.emit_batch(batch, [seed + i for i in range(len(batch))])
    for i, (utt, frames) in enumerate(zip(batch, got)):
        _same(frames, emit_reference(SPACE, utt, seed + i))
        _same(SPACE.emit(utt, seed + i), frames)


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=8),
    st.integers(1, 4),
)
@settings(max_examples=examples(100), deadline=None)
def test_alignment_matches_per_phone_loop(segments, states):
    phones = np.array([p for p, _ in segments], dtype=np.int64)
    frames = np.array([n for _, n in segments], dtype=np.int64)
    _same(
        uniform_state_alignment(phones, frames, states),
        uniform_state_alignment_reference(phones, frames, states),
    )


@given(st.integers(1, 16), st.integers(1, 60), st.floats(0.01, 2.0), st.integers(0, 999))
@settings(max_examples=examples(40), deadline=None)
def test_pools_match_per_speaker_draws(dim, n_speakers, scale, seed):
    sampler = SessionSampler(
        dim, n_speakers=n_speakers, speaker_scale=scale, channel_scale=scale / 2, seed=seed
    )
    speakers, channels = sampler._draw_pool()
    ref_speakers, ref_channels = draw_pool_reference(sampler)
    assert [s.rate for s in speakers] == [s.rate for s in ref_speakers]
    assert [c.gain for c in channels] == [c.gain for c in ref_channels]
    assert len(channels) == len(ref_channels)
    for a, b in zip(speakers, ref_speakers):
        _same(a.offset, b.offset)
    for a, b in zip(channels, ref_channels):
        _same(a.tilt, b.tilt)


def test_state_split_matches_masks():
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(70, 2))
    labels = rng.choice([0, 1, 1, 3, 3, 3, 4], size=70)
    labels[:3] = 5
    got = GMMEmission.train(frames, labels, 7, n_components=2, n_iter=3, seed=1)
    want = gmm_emission_reference(frames, labels, 7, n_components=2, n_iter=3, seed=1)
    for a, b in zip(got._gmms, want._gmms):
        for name in ("means", "variances", "log_weights"):
            _same(getattr(a, name), getattr(b, name))


@st.composite
def segmentations(draw):
    """Paths, cross flags and phone posteriors of a ragged batch."""
    n_phones = draw(st.integers(1, 6))
    s = draw(st.integers(1, 2))
    dtype = draw(st.sampled_from(["float64", "float32"]))
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    t_max = max(lengths)
    values = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    post = np.array(
        draw(st.lists(values, min_size=len(lengths) * t_max * n_phones,
                      max_size=len(lengths) * t_max * n_phones)),
        dtype=dtype,
    ).reshape(len(lengths), t_max, n_phones)
    # Runs of up to 4 equal states give segments of 3+ frames.
    paths = []
    for n in lengths:
        states = draw(st.lists(st.integers(0, n_phones * s - 1), min_size=n, max_size=n))
        run = draw(st.integers(1, 4))
        paths.append(np.array(states, dtype=np.int64)[np.arange(n) // run])
    crossed = [
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        for n in lengths
    ]
    top_k = draw(st.integers(1, n_phones + 1))
    return n_phones, s, dtype, top_k, paths, crossed, post, np.array(lengths)


@given(segmentations())
@settings(max_examples=examples(150), deadline=None)
def test_batched_segmentation_matches_per_segment_loop(case):
    n_phones, s, dtype, top_k, paths, crossed, post, lengths = case
    hmms = PhoneHMMSet(n_phones, s, make_emission(n_phones * s, np.random.default_rng(0)))
    phone_set = PhoneSet("t", tuple(f"p{i}" for i in range(n_phones)))
    decoder = ViterbiDecoder(hmms, phone_set, DecoderConfig(top_k=top_k, dtype=dtype))
    got = decoder._sausages(paths, crossed, post, lengths)
    oracle = ScalarDecoder(decoder)
    for i, (path, cross) in enumerate(zip(paths, crossed)):
        if path.size == 0:
            want = Sausage([], phone_set)
        else:
            want = Sausage(
                oracle._segment_slots(path // s, cross, post[i, : path.size]), phone_set
            )
        for a, b in zip(got[i].slot_arrays(), want.slot_arrays()):
            _same(a, b)


@pytest.mark.parametrize("seed", [3, 4])
def test_trained_models_match_oracle_training(seed, monkeypatch):
    """Each recognizer's emission and bigram equal the loop-trained ones."""
    corpora = {}
    train = AcousticPhoneRecognizer.train

    def capture(self, corpus, *, seed=None):
        corpora[self.name] = (list(corpus), self.seed if seed is None else seed)
        return train(self, corpus, seed=seed)

    monkeypatch.setattr(AcousticPhoneRecognizer, "train", capture)
    system = build_system(acoustic_config(seed))
    for fe in system.frontends:
        hmms = fe._decoder.hmms
        emission, bigram = train_reference(fe, *corpora[fe.name])
        _same(hmms.phone_log_bigram, bigram)
        if isinstance(emission, GMMEmission):
            pairs = [
                (getattr(a, n), getattr(b, n))
                for a, b in zip(hmms.emission._gmms, emission._gmms)
                for n in ("means", "variances", "log_weights")
            ]
        else:
            got, want = hmms.emission, emission
            pairs = list(zip(got._mlp.weights + got._mlp.biases, want._mlp.weights + want._mlp.biases))
            pairs.append((got._log_priors, want._log_priors))
        assert pairs
        for a, b in pairs:
            _same(a, b)
