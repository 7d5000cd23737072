"""Reference acoustic set-up: the per-item loops the batched code replaced.

One utterance, phone, speaker or state at a time, as the repository
first implemented them.  Each batched path in ``src/`` must reproduce
its oracle byte for byte:

- :func:`emit_reference` ↔ :meth:`~repro.corpus.acoustics.AcousticSpace.emit`
  and ``emit_batch`` (one AR(1) step per frame of one utterance);
- :func:`uniform_state_alignment_reference` ↔
  :func:`~repro.frontend.am.hmm.uniform_state_alignment` (one phone
  segment at a time);
- :func:`draw_pool_reference` ↔
  :meth:`~repro.corpus.speaker.SessionSampler._draw_pool` (one
  ``Generator.normal`` call per speaker and channel field);
- :func:`gmm_emission_reference` ↔
  :meth:`~repro.frontend.am.hmm.GMMEmission.train` (one boolean mask
  per state);
- :func:`train_reference` ↔
  :meth:`~repro.frontend.recognizer.AcousticPhoneRecognizer.train`,
  built on the four above.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import Utterance
from repro.corpus.speaker import Channel, SessionSampler, Speaker
from repro.frontend.am.gmm import DiagonalGMM
from repro.frontend.am.hmm import GMMEmission, NeuralEmission
from repro.frontend.am.mlp import MLPConfig
from repro.frontend.decoder import estimate_phone_bigram
from repro.utils.rng import child_rng, ensure_rng

__all__ = [
    "emit_reference",
    "uniform_state_alignment_reference",
    "draw_pool_reference",
    "gmm_emission_reference",
    "train_reference",
]


def emit_reference(
    space: AcousticSpace,
    utterance: Utterance,
    rng: np.random.Generator | int | None,
) -> np.ndarray:
    """Render one utterance, one AR(1) step per frame."""
    rng = ensure_rng(rng)
    means = space.frame_means(utterance)
    stds = np.repeat(
        space.phone_stds[utterance.phones], utterance.phone_frames, axis=0
    )
    t = means.shape[0]
    innov_scale = np.sqrt(1.0 - space.ar_coeff**2)
    innovations = rng.normal(0.0, 1.0, size=(t, space.feature_dim))
    deviation = np.empty_like(innovations)
    if t > 0:
        deviation[0] = innovations[0]
        for i in range(1, t):
            deviation[i] = (
                space.ar_coeff * deviation[i - 1] + innov_scale * innovations[i]
            )
    frames = means + stds * deviation
    return utterance.session.transform_frames(frames, rng)


def uniform_state_alignment_reference(
    local_phones: np.ndarray,
    phone_frames: np.ndarray,
    states_per_phone: int,
) -> np.ndarray:
    """Composite-state labels, one phone segment at a time."""
    local_phones = np.asarray(local_phones, dtype=np.int64)
    phone_frames = np.asarray(phone_frames, dtype=np.int64)
    if local_phones.shape != phone_frames.shape:
        raise ValueError("phones and frames must align")
    labels = np.empty(int(phone_frames.sum()), dtype=np.int64)
    pos = 0
    for phone, length in zip(local_phones, phone_frames):
        length = int(length)
        states = (
            np.arange(length) * states_per_phone // max(length, 1)
        ).clip(max=states_per_phone - 1)
        labels[pos : pos + length] = phone * states_per_phone + states
        pos += length
    return labels


def draw_pool_reference(
    sampler: SessionSampler,
) -> tuple[list[Speaker], list[Channel]]:
    """The speaker and channel pools, one draw per field."""
    rng = ensure_rng(sampler.seed)
    dim = sampler.feature_dim
    speakers = [
        Speaker(
            speaker_id=i,
            offset=rng.normal(0.0, sampler.speaker_scale, size=dim),
            rate=float(np.clip(rng.normal(1.0, 0.12), 0.6, 1.6)),
        )
        for i in range(sampler.n_speakers)
    ]
    n_channels = max(4, sampler.n_speakers // 10)
    channels = [
        Channel(
            channel_id=i,
            tilt=rng.normal(0.0, sampler.channel_scale, size=dim)
            * np.linspace(1.0, 0.3, dim),
            gain=float(np.clip(rng.normal(1.0, 0.08), 0.7, 1.4)),
        )
        for i in range(n_channels)
    ]
    return speakers, channels


def gmm_emission_reference(
    frames: np.ndarray,
    state_labels: np.ndarray,
    n_states: int,
    *,
    n_components: int = 4,
    n_iter: int = 8,
    seed: int = 0,
) -> GMMEmission:
    """One GMM per state, its frames picked by a boolean mask."""
    frames = np.atleast_2d(frames)
    global_mean = frames.mean(axis=0, keepdims=True)
    global_var = np.maximum(frames.var(axis=0, keepdims=True), 1e-3)
    gmms: list[DiagonalGMM] = []
    for s in range(n_states):
        sel = frames[state_labels == s]
        if sel.shape[0] >= 2 * n_components:
            gmm = DiagonalGMM(n_components).fit(
                sel, n_iter=n_iter, rng=child_rng(seed, f"state/{s}")
            )
        elif sel.shape[0] >= 2:
            gmm = DiagonalGMM.from_parameters(
                sel.mean(axis=0, keepdims=True),
                np.maximum(sel.var(axis=0, keepdims=True), 1e-3),
                np.array([1.0]),
            )
        else:
            gmm = DiagonalGMM.from_parameters(
                global_mean, global_var, np.array([1.0])
            )
        gmms.append(gmm)
    return GMMEmission(gmms)


def train_reference(recognizer, utterances: list[Utterance], seed: int):
    """``(emission, phone log-bigram)`` the recognizer's ``train`` fits.

    One :func:`emit_reference` and one alignment per utterance, as the
    seed trainer ran them.  Covers the additive bigram and no
    realignment, the settings every built-in battery trains with.
    """
    if recognizer.realign_iterations or recognizer.lm_smoothing != "additive":
        raise NotImplementedError("reference covers the default trainer")
    s = recognizer.states_per_phone
    n_phones = len(recognizer.phone_set)
    frames, labels, sequences = [], [], []
    for i, utt in enumerate(utterances):
        rng = child_rng(seed, f"emit/{recognizer.name}/{i}")
        frames.append(
            recognizer.features(emit_reference(recognizer.acoustics, utt, rng))
        )
        local = np.array(
            [recognizer._local_index[int(p)] for p in utt.phones],
            dtype=np.int64,
        )
        labels.append(
            uniform_state_alignment_reference(local, utt.phone_frames, s)
        )
        sequences.append(local)
    x, y = np.vstack(frames), np.concatenate(labels)
    if recognizer.am_family == "gmm":
        emission = gmm_emission_reference(
            x,
            y,
            n_phones * s,
            n_components=recognizer.gmm_components,
            seed=seed,
        )
    else:
        hidden = (96,) if recognizer.am_family == "ann" else (96, 96, 96)
        emission = NeuralEmission.train(
            x,
            y,
            n_phones * s,
            config=MLPConfig(hidden_sizes=hidden, n_epochs=6),
            seed=seed,
        )
    return emission, estimate_phone_bigram(sequences, n_phones)
