"""Synthetic acoustic feature space.

The acoustic decoding path needs frame-level feature vectors.  Real systems
extract PLP/MFCC frames from audio; the synthetic substitute places every
*universal phone* at a fixed mean in a ``D``-dimensional feature space
(analogous to a 13-dim PLP + deltas layout, default ``D = 13``) and emits
frames as that mean plus within-phone AR(1)-correlated deviation, then
applies the session transform (speaker offset, channel tilt/gain, additive
noise).

Because phone means are shared across languages, a recognizer trained on
language A's data can decode language B's utterances — exactly the
"language-independent acoustic model, language-specific phonotactics"
premise of PPRVSM.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.generator import Utterance
from repro.corpus.phoneset import PhoneSet
from repro.utils.rng import child_rng, ensure_rng
from repro.utils.validation import check_positive

__all__ = ["AcousticSpace"]


class AcousticSpace:
    """Maps phones to synthetic feature-frame distributions.

    Parameters
    ----------
    phone_set:
        Universal phone inventory; one mean vector is created per phone.
    feature_dim:
        Dimensionality of the feature frames.
    separation:
        Scale of phone means; relative to the within-phone deviation
        (fixed at 1.0) this sets intrinsic phone confusability.
    ar_coeff:
        AR(1) coefficient of the within-phone deviation process, giving
        frames realistic temporal correlation.
    seed:
        Seed fixing the phone means (a corpus-level constant).
    """

    def __init__(
        self,
        phone_set: PhoneSet,
        *,
        feature_dim: int = 13,
        separation: float = 2.2,
        ar_coeff: float = 0.55,
        seed: int = 0,
    ) -> None:
        check_positive("feature_dim", feature_dim)
        check_positive("separation", separation)
        if not 0.0 <= ar_coeff < 1.0:
            raise ValueError("ar_coeff must be in [0, 1)")
        self.phone_set = phone_set
        self.feature_dim = int(feature_dim)
        self.separation = separation
        self.ar_coeff = ar_coeff
        rng = child_rng(seed, "acoustics/means")
        self.phone_means = rng.normal(
            0.0, separation / np.sqrt(feature_dim), size=(len(phone_set), feature_dim)
        ) * np.sqrt(feature_dim)
        # Mild per-phone anisotropy: each phone has its own diagonal std.
        self.phone_stds = 1.0 + 0.2 * rng.random((len(phone_set), feature_dim))

    def n_phones(self) -> int:
        """Number of phones with emission models."""
        return len(self.phone_set)

    def frame_means(self, utterance: Utterance) -> np.ndarray:
        """Clean per-frame means, shape ``(n_frames, D)`` (no session/noise)."""
        reps = utterance.phone_frames
        return np.repeat(self.phone_means[utterance.phones], reps, axis=0)

    def frame_labels(self, utterance: Utterance) -> np.ndarray:
        """True universal phone id of every frame, shape ``(n_frames,)``."""
        return np.repeat(utterance.phones, utterance.phone_frames)

    def emit(
        self, utterance: Utterance, rng: np.random.Generator | int | None
    ) -> np.ndarray:
        """Render an utterance to feature frames, shape ``(n_frames, D)``.

        Deviation within each phone follows an AR(1) process so adjacent
        frames are correlated, as in real speech features; the session's
        speaker/channel/noise transform is applied last.  A batch of one
        through :meth:`emit_batch`.
        """
        return self.emit_batch([utterance], [rng])[0]

    def emit_batch(
        self,
        utterances: list[Utterance],
        rngs: list[np.random.Generator | int | None],
    ) -> list[np.ndarray]:
        """Render many utterances, each exactly as :meth:`emit` alone.

        Every utterance draws its innovations and then its noise from its
        own generator.  The AR(1) recurrence advances all of them one
        frame index at a time over a padded ``(T_max, B, D)`` tensor, with
        the elementwise operations of a one-utterance run, so each
        rendering is bitwise independent of the batch.
        """
        if len(rngs) != len(utterances):
            raise ValueError("rngs must match utterances in length")
        rngs = [ensure_rng(rng) for rng in rngs]
        lengths = [int(u.phone_frames.sum()) for u in utterances]
        d = self.feature_dim
        deviation = np.zeros((max(lengths, default=0), len(utterances), d))
        for i, (rng, t) in enumerate(zip(rngs, lengths)):
            deviation[:t, i] = rng.normal(0.0, 1.0, size=(t, d))
        # deviation[0] is the first innovation; later frames add the
        # scaled innovation to the damped previous deviation.
        deviation[1:] *= np.sqrt(1.0 - self.ar_coeff**2)
        for i in range(1, deviation.shape[0]):
            deviation[i] += self.ar_coeff * deviation[i - 1]
        out = []
        for i, (utt, rng, t) in enumerate(zip(utterances, rngs, lengths)):
            stds = np.repeat(self.phone_stds[utt.phones], utt.phone_frames, axis=0)
            frames = self.frame_means(utt) + stds * deviation[:t, i]
            out.append(utt.session.transform_frames(frames, rng))
        return out
