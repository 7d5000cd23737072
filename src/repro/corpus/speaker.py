"""Session variability: speakers, channels and noise.

The paper motivates DBA by the mismatch between training and test
conditions — "the training and test data are variable in speakers,
background noise, channel conditions" (§1).  This module models those three
nuisance factors for the synthetic corpus:

- a **speaker** shifts every acoustic frame by a fixed offset vector and
  scales phone durations (speaking rate);
- a **channel** applies a linear spectral tilt across feature dimensions
  plus a gain;
- **noise** adds i.i.d. Gaussian energy at a per-session SNR.

The combined :class:`Session` also exposes a scalar :meth:`distortion`
summarising how adverse the condition is; the fast confusion-channel
recognizer maps it to extra phone-error probability, so both the acoustic
and the symbolic decoding paths respond to the same nuisance variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["Speaker", "Channel", "Session", "SessionSampler"]


@dataclass(frozen=True)
class Speaker:
    """A speaker: acoustic offset plus speaking-rate multiplier."""

    speaker_id: int
    offset: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if not 0.3 <= self.rate <= 3.0:
            raise ValueError(f"implausible speaking rate {self.rate!r}")


@dataclass(frozen=True)
class Channel:
    """A transmission channel: spectral tilt vector and gain."""

    channel_id: int
    tilt: np.ndarray
    gain: float

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ValueError(f"gain must be positive, got {self.gain!r}")


@dataclass(frozen=True)
class Session:
    """One recording session: a speaker, a channel, and a noise level."""

    speaker: Speaker
    channel: Channel
    snr_db: float

    def noise_std(self, signal_std: float = 1.0) -> float:
        """Per-dimension noise standard deviation for the session SNR."""
        return signal_std * 10.0 ** (-self.snr_db / 20.0)

    def distortion(self) -> float:
        """Scalar adversity in [0, ~1): larger means harder conditions.

        Combines speaker shift magnitude, channel tilt magnitude and noise
        level with fixed weights.  Used by the confusion-channel recognizer
        to scale its error rates; calibrated so typical sessions land
        around 0.1–0.4.  Computed on the first call and kept: every
        recognizer of a battery decodes the same session.
        """
        cached = self.__dict__.get("_distortion")
        if cached is not None:
            return cached
        spk = float(np.linalg.norm(self.speaker.offset)) / (
            1.0 + np.sqrt(self.speaker.offset.size)
        )
        chn = float(np.linalg.norm(self.channel.tilt)) / (
            1.0 + np.sqrt(self.channel.tilt.size)
        )
        noise = self.noise_std()
        raw = 0.5 * spk + 0.5 * chn + 0.6 * noise
        value = float(raw / (1.0 + raw))
        object.__setattr__(self, "_distortion", value)
        return value

    def transform_frames(
        self, frames: np.ndarray, rng: np.random.Generator | int | None
    ) -> np.ndarray:
        """Apply speaker offset, channel tilt/gain and additive noise."""
        rng = ensure_rng(rng)
        out = frames + self.speaker.offset[None, :]
        out = self.channel.gain * (out + self.channel.tilt[None, :])
        out = out + rng.normal(0.0, self.noise_std(), size=out.shape)
        return out


class SessionSampler:
    """Draws sessions from a train- or test-condition distribution.

    The test condition is sampled *wider* than the training condition
    (larger speaker/channel spread, lower SNR floor), reproducing the
    train/test mismatch that motivates DBA.  A finite speaker pool per
    condition gives repeated speakers across utterances, as in
    conversation-sided corpora.
    """

    def __init__(
        self,
        feature_dim: int,
        *,
        n_speakers: int = 200,
        speaker_scale: float = 0.25,
        channel_scale: float = 0.15,
        snr_mean_db: float = 18.0,
        snr_spread_db: float = 5.0,
        seed: int = 0,
        tag: str = "train",
    ) -> None:
        if feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if n_speakers <= 0:
            raise ValueError("n_speakers must be positive")
        self.feature_dim = feature_dim
        self.n_speakers = n_speakers
        self.speaker_scale = speaker_scale
        self.channel_scale = channel_scale
        self.snr_mean_db = snr_mean_db
        self.snr_spread_db = snr_spread_db
        self.tag = tag
        self.seed = seed
        self._pool: tuple[list[Speaker], list[Channel]] | None = None

    def _draw_pool(self) -> tuple[list[Speaker], list[Channel]]:
        """The speaker and channel pools, drawn from ``seed`` on first use.

        Only sampling reads them, so a corpus bundle whose utterances are
        never sampled never draws them.  The draw is a pure function of
        the constructor arguments: two threads racing here build equal
        pools, and either one may win.

        Each speaker reads ``D`` offset normals and then one rate normal
        from the stream, and each channel ``D`` tilt normals and one gain
        normal, so one ``(n, D + 1)`` standard-normal draw per pool reads
        the stream in the same order.  ``Generator.normal(loc, scale)``
        is ``loc + scale * z``, which the rows repeat bit for bit.
        """
        pool = self._pool
        if pool is None:
            rng = ensure_rng(self.seed)
            dim = self.feature_dim
            z = rng.standard_normal((self.n_speakers, dim + 1))
            offsets = 0.0 + self.speaker_scale * z[:, :dim]
            rates = (1.0 + 0.12 * z[:, dim]).tolist()
            speakers = [
                Speaker(
                    speaker_id=i,
                    offset=offsets[i],
                    rate=min(max(rates[i], 0.6), 1.6),
                )
                for i in range(self.n_speakers)
            ]
            z = rng.standard_normal((max(4, self.n_speakers // 10), dim + 1))
            tilts = (0.0 + self.channel_scale * z[:, :dim]) * np.linspace(
                1.0, 0.3, dim
            )
            gains = (1.0 + 0.08 * z[:, dim]).tolist()
            channels = [
                Channel(
                    channel_id=i, tilt=tilts[i], gain=min(max(g, 0.7), 1.4)
                )
                for i, g in enumerate(gains)
            ]
            pool = self._pool = (speakers, channels)
        return pool

    def sample(self, rng: np.random.Generator | int | None) -> Session:
        """Draw one session (speaker × channel × SNR)."""
        rng = ensure_rng(rng)
        speakers, channels = self._draw_pool()
        speaker = speakers[int(rng.integers(len(speakers)))]
        channel = channels[int(rng.integers(len(channels)))]
        snr = float(rng.normal(self.snr_mean_db, self.snr_spread_db))
        return Session(speaker=speaker, channel=channel, snr_db=max(snr, 0.0))
