"""Wire format of the scoring service: utterances as JSON, plus digests.

The online service scores :class:`~repro.corpus.generator.Utterance`
objects that arrive from outside the process, so the full utterance —
phone sequence, per-phone frame counts and the recording session's
nuisance parameters — must round-trip through JSON losslessly.
:func:`utterance_to_json` / :func:`utterance_from_json` define that
contract, and :func:`utterance_digest` derives the cache key used by
:class:`repro.serve.cache.ScoreCache`.

The digest covers everything decoding depends on: the utterance content
(phones, frame counts, session, frame rate) *and* the ``utt_id``,
because the pipeline's deterministic decode RNG is keyed by the
utterance id (see :func:`repro.frontend.registry.decode_utterances`) — two
identical signals under different ids legitimately produce different
sausages.  The true ``language`` label is deliberately excluded: it is
evaluation metadata, invisible to the recognizers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.corpus.generator import Utterance
from repro.corpus.speaker import Channel, Session, Speaker

__all__ = [
    "utterance_to_json",
    "utterance_from_json",
    "utterance_digest",
    "UNLABELLED",
]

#: Placeholder language for utterances submitted without a true label
#: (the normal case for online scoring requests).
UNLABELLED = "unlabelled"


def utterance_to_json(utterance: Utterance) -> dict:
    """Serialise an utterance (with its session) to a JSON-able dict."""
    session = utterance.session
    return {
        "utt_id": utterance.utt_id,
        "language": utterance.language,
        "nominal_duration": float(utterance.nominal_duration),
        "frame_rate": float(utterance.frame_rate),
        "phones": utterance.phones.tolist(),
        "phone_frames": utterance.phone_frames.tolist(),
        "session": {
            "speaker_id": int(session.speaker.speaker_id),
            "speaker_offset": session.speaker.offset.tolist(),
            "speaker_rate": float(session.speaker.rate),
            "channel_id": int(session.channel.channel_id),
            "channel_tilt": session.channel.tilt.tolist(),
            "channel_gain": float(session.channel.gain),
            "snr_db": float(session.snr_db),
        },
    }


def _finite_scalar(name: str, value) -> float:
    """Parse a float field, rejecting NaN/inf (JSON admits them)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"utterance field {name!r} must be finite")
    return value


def _finite_vector(name: str, value) -> np.ndarray:
    """Parse a float-vector field, rejecting NaN/inf elements."""
    array = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"utterance field {name!r} must be finite")
    return array


def utterance_from_json(payload: dict) -> Utterance:
    """Rebuild an :class:`Utterance` from :func:`utterance_to_json` output.

    ``language`` is optional (defaults to :data:`UNLABELLED`) since
    scoring requests normally do not know the true label.

    Float fields are validated to be finite: the wire format reaches
    this parser from untrusted clients, and a smuggled NaN/infinity in
    a session parameter would flow through decode → supervectors →
    scores and be *cached* under the utterance's digest — one poisoned
    request corrupting every warm repeat.  Bad values fail here with
    ``ValueError`` (HTTP 400), before they touch the scoring path.
    """
    try:
        sess = payload["session"]
        session = Session(
            speaker=Speaker(
                speaker_id=int(sess["speaker_id"]),
                offset=_finite_vector(
                    "speaker_offset", sess["speaker_offset"]
                ),
                rate=_finite_scalar("speaker_rate", sess["speaker_rate"]),
            ),
            channel=Channel(
                channel_id=int(sess["channel_id"]),
                tilt=_finite_vector("channel_tilt", sess["channel_tilt"]),
                gain=_finite_scalar("channel_gain", sess["channel_gain"]),
            ),
            snr_db=_finite_scalar("snr_db", sess["snr_db"]),
        )
        return Utterance(
            utt_id=str(payload["utt_id"]),
            language=str(payload.get("language", UNLABELLED)),
            nominal_duration=_finite_scalar(
                "nominal_duration", payload["nominal_duration"]
            ),
            phones=np.asarray(payload["phones"], dtype=np.int64),
            phone_frames=np.asarray(payload["phone_frames"], dtype=np.int64),
            session=session,
            frame_rate=_finite_scalar("frame_rate", payload["frame_rate"]),
        )
    except KeyError as exc:
        raise ValueError(f"utterance payload missing field {exc}") from None


def utterance_digest(utterance: Utterance) -> str:
    """Content digest of an utterance — the scoring-cache key.

    SHA-256 over the id, phones, frame counts, session parameters and
    frame rate; equal digests guarantee bitwise-equal scores under a
    fixed trained system.
    """
    session = utterance.session
    h = hashlib.sha256()
    h.update(utterance.utt_id.encode())
    h.update(np.ascontiguousarray(utterance.phones).tobytes())
    h.update(np.ascontiguousarray(utterance.phone_frames).tobytes())
    h.update(np.ascontiguousarray(session.speaker.offset).tobytes())
    h.update(np.float64(session.speaker.rate).tobytes())
    h.update(np.ascontiguousarray(session.channel.tilt).tobytes())
    h.update(np.float64(session.channel.gain).tobytes())
    h.update(np.float64(session.snr_db).tobytes())
    h.update(np.float64(utterance.frame_rate).tobytes())
    return h.hexdigest()
