"""Tests for session variability models."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.corpus.speaker import Channel, Session, SessionSampler, Speaker


def _session(dim=8, snr=20.0, spk_scale=0.3, tilt_scale=0.1) -> Session:
    rng = np.random.default_rng(0)
    return Session(
        speaker=Speaker(0, rng.normal(0, spk_scale, dim), 1.0),
        channel=Channel(0, rng.normal(0, tilt_scale, dim), 1.0),
        snr_db=snr,
    )


class TestSession:
    def test_noise_std_from_snr(self):
        s = _session(snr=20.0)
        assert s.noise_std() == pytest.approx(0.1)
        assert _session(snr=0.0).noise_std() == pytest.approx(1.0)

    def test_distortion_in_range_and_monotone_in_noise(self):
        clean = _session(snr=30.0)
        noisy = _session(snr=3.0)
        assert 0.0 <= clean.distortion() < 1.0
        assert noisy.distortion() > clean.distortion()

    def test_distortion_is_kept_after_the_first_call(self):
        session = _session(snr=10.0)
        first = session.distortion()
        assert session.distortion() is first
        # A fresh, equal session computes the same value.
        assert _session(snr=10.0).distortion() == first
        # A copy made from the fields computes it afresh, equally.
        assert dataclasses.replace(session).distortion() == first

    def test_transform_applies_offset_and_gain(self):
        dim = 4
        s = Session(
            speaker=Speaker(0, np.ones(dim), 1.0),
            channel=Channel(0, np.zeros(dim), 2.0),
            snr_db=200.0,  # effectively noiseless
        )
        frames = np.zeros((3, dim))
        out = s.transform_frames(frames, 0)
        np.testing.assert_allclose(out, 2.0, atol=1e-6)

    def test_speaker_rate_validated(self):
        with pytest.raises(ValueError):
            Speaker(0, np.zeros(3), rate=5.0)

    def test_channel_gain_validated(self):
        with pytest.raises(ValueError):
            Channel(0, np.zeros(3), gain=0.0)


class TestSessionSampler:
    def test_deterministic_pools(self):
        a = SessionSampler(8, seed=5)
        b = SessionSampler(8, seed=5)
        sa, sb = a.sample(1), b.sample(1)
        np.testing.assert_allclose(sa.speaker.offset, sb.speaker.offset)
        assert sa.snr_db == sb.snr_db

    def test_finite_speaker_pool_repeats(self):
        sampler = SessionSampler(4, n_speakers=3, seed=0)
        ids = {sampler.sample(i).speaker.speaker_id for i in range(40)}
        assert ids <= {0, 1, 2}
        assert len(ids) == 3

    def test_wider_condition_is_more_distorted(self):
        train = SessionSampler(8, speaker_scale=0.2, snr_mean_db=20, seed=0)
        test = SessionSampler(8, speaker_scale=0.5, snr_mean_db=8, seed=0)
        d_train = np.mean([train.sample(i).distortion() for i in range(50)])
        d_test = np.mean([test.sample(i).distortion() for i in range(50)])
        assert d_test > d_train

    def test_snr_floor(self):
        sampler = SessionSampler(4, snr_mean_db=0.0, snr_spread_db=10, seed=0)
        assert all(sampler.sample(i).snr_db >= 0.0 for i in range(20))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SessionSampler(0)
        with pytest.raises(ValueError):
            SessionSampler(4, n_speakers=0)
