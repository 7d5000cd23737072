"""Confusion-channel phone recognizer: the sweep-scale decoding substitute.

Running six trained acoustic recognizers over every utterance of every
duration for every threshold sweep is exactly the cost the paper calls
"the dominant part" — fine for their cluster, not for a laptop-scale
reproduction.  This module provides a calibrated *symbolic* recognizer
that skips the frame level but preserves what the downstream DBA pipeline
actually consumes:

- each recognizer has its **own inventory** (the paper's 43–64 phone sets)
  projected from the universal inventory by **acoustic similarity** in the
  shared :class:`~repro.corpus.acoustics.AcousticSpace`, so confusions are
  structured, recognizer-specific and mutually diverse — the "diversified
  front-end" premise;
- recognition errors (substitution sharpness, insertions, deletions) scale
  with the utterance's **session distortion**, reproducing the train/test
  condition mismatch;
- the output is a :class:`~repro.frontend.lattice.Sausage` with genuine
  posterior mass spread over alternatives, so expected-count supervectors
  (paper Eq. 2–3) behave like lattice statistics, not like 1-best strings.

The acoustic path (:class:`~repro.frontend.recognizer.AcousticPhoneRecognizer`)
exercises the same downstream code with real Viterbi decoding; equivalence
of the two paths at small scale is covered by integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import Utterance
from repro.corpus.phoneset import PhoneSet, sample_inventory
from repro.frontend.lattice import Sausage
from repro.utils.rng import child_rng, ensure_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["ConfusionModel", "ConfusionChannelRecognizer"]


@dataclass(frozen=True)
class ConfusionModel:
    """Error-behaviour parameters of a simulated recognizer.

    Attributes
    ----------
    tau:
        Similarity temperature of the universal→local projection, relative
        to the median inter-phone distance in acoustic space.  Smaller is
        sharper (a better recognizer).
    base_error:
        Substitution-noise floor in clean conditions.
    distortion_gain:
        How strongly session distortion inflates the error rate.
    insertion_rate / deletion_rate:
        Per-phone insertion/deletion probabilities in clean conditions.
    top_k:
        Alternatives kept per sausage slot.
    """

    tau: float = 0.6
    base_error: float = 0.12
    distortion_gain: float = 0.5
    insertion_rate: float = 0.03
    deletion_rate: float = 0.05
    top_k: int = 5

    def __post_init__(self) -> None:
        check_positive("tau", self.tau)
        check_probability("base_error", self.base_error)
        check_probability("insertion_rate", self.insertion_rate)
        check_probability("deletion_rate", self.deletion_rate)
        check_positive("top_k", self.top_k)


class ConfusionChannelRecognizer:
    """A phone recognizer simulated at the symbol level.

    Parameters
    ----------
    name:
        Frontend name (``"HU"``, ``"EN_DNN"``, …).
    acoustics:
        The shared acoustic space; defines phone similarity.
    inventory_size:
        Size of this recognizer's phone set (sampled from the universal
        inventory with a recognizer-specific seed — recognizers trained on
        different languages have different inventories).
    model:
        Error-behaviour parameters.
    seed:
        Recognizer identity seed (fixes inventory and projection).
    """

    def __init__(
        self,
        name: str,
        acoustics: AcousticSpace,
        inventory_size: int,
        model: ConfusionModel | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.acoustics = acoustics
        self.model = model or ConfusionModel()
        rng = child_rng(seed, f"confusion/{name}")
        universal = acoustics.phone_set
        self._local_universal_ids = sample_inventory(
            universal, inventory_size, rng, core_fraction=0.5
        )
        self.phone_set = universal.subset(name, self._local_universal_ids)
        self._scale = self._distance_scale()
        # Prototype means and their squared row norms are fixed by the
        # inventory; hoisting them out of _projection_for_means matters
        # because session shifts force a fresh projection per utterance.
        self._protos = acoustics.phone_means[self._local_universal_ids]
        self._protos_sq = np.sum(self._protos**2, axis=1)
        self._projection = self._build_projection()

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def _distance_scale(self) -> float:
        """Median inter-prototype squared distance (tau normaliser)."""
        protos = self.acoustics.phone_means[self._local_universal_ids]
        proto_d2 = (
            np.sum(protos**2, axis=1)[:, None]
            - 2.0 * protos @ protos.T
            + np.sum(protos**2, axis=1)[None, :]
        )
        off_diag = proto_d2[~np.eye(proto_d2.shape[0], dtype=bool)]
        return float(np.median(off_diag)) if off_diag.size else 1.0

    def _projection_for_means(self, means: np.ndarray) -> np.ndarray:
        """Soft assignment p(local phone | universal phone), shape (U, L).

        Based on squared distances between the given universal phone means
        and the *clean* means of the local inventory's prototype phones,
        tempered by ``tau`` times the median inter-prototype distance.
        """
        protos = self._protos
        d2 = (
            np.sum(means**2, axis=1)[:, None]
            - 2.0 * means @ protos.T
            + self._protos_sq[None, :]
        )
        d2 = np.maximum(d2, 0.0)
        logits = -d2 / max(self.model.tau * self._scale, 1e-9)
        logits -= logits.max(axis=1, keepdims=True)
        proj = np.exp(logits)
        proj /= proj.sum(axis=1, keepdims=True)
        return proj

    def _build_projection(self) -> np.ndarray:
        """Clean-condition projection (no session shift)."""
        return self._projection_for_means(self.acoustics.phone_means)

    def session_projection(self, session) -> np.ndarray:
        """Projection under a session's systematic acoustic shift.

        The session's speaker offset and channel tilt/gain translate and
        scale every universal phone mean (exactly as
        :meth:`~repro.corpus.speaker.Session.transform_frames` does to the
        frames) while the recognizer's prototypes stay at their clean
        training positions — so a shifted condition produces *biased*,
        consistent misrecognitions, not just flatter posteriors.  This is
        the mechanism that makes the test-condition statistics learnable
        and DBA's transductive retraining worthwhile.
        """
        shifted = session.channel.gain * (
            self.acoustics.phone_means
            + session.speaker.offset[None, :]
            + session.channel.tilt[None, :]
        )
        return self._projection_for_means(shifted)

    @property
    def projection(self) -> np.ndarray:
        """The ``(n_universal, n_local)`` soft projection matrix."""
        return self._projection

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _session_error(self, utterance: Utterance) -> float:
        m = self.model
        e = m.base_error + m.distortion_gain * utterance.session.distortion()
        return float(np.clip(e, 0.0, 0.85))

    def stage_params(self) -> dict[str, object]:
        """No decode knobs beyond the model itself (→ memoisation keys)."""
        return {}

    def decode(
        self, utterance: Utterance, rng: np.random.Generator | int | None = None
    ) -> Sausage:
        """Decode an utterance into a posterior sausage.

        The true universal phone string passes through (a) sampled
        insertions/deletions, (b) the similarity projection, (c) an
        error-rate-dependent flattening toward the local unigram, and
        (d) per-slot Dirichlet jitter that plays the role of per-utterance
        acoustic variability.

        All slots are built in one batch of whole-array operations that
        consume the identical RNG bitstream as a per-slot loop (the
        oracle in ``tests/oracles/phi.py``, tested bitwise-equal), so
        tables are unchanged while decode drops off the campaign profile.
        """
        rng = ensure_rng(
            rng if rng is not None else child_rng(0, f"decode/{utterance.utt_id}")
        )
        noisy = self._jittered_slots(utterance, rng)
        if noisy is None:
            return Sausage([], self.phone_set)
        slot_phones, slot_probs = self._rank_slots(noisy)
        return Sausage.from_slot_arrays(slot_phones, slot_probs, self.phone_set)

    def decode_batch(
        self,
        utterances: list[Utterance],
        rngs: list[np.random.Generator] | None = None,
    ) -> list[Sausage]:
        """Decode many utterances, amortising slot post-processing.

        Every utterance consumes exactly the RNG bitstream :meth:`decode`
        would (sampling stays per utterance), but top-k selection,
        renormalisation and slot-array validation run once over the
        vertical concatenation of all slot matrices.  Those operations
        are row-wise, so each row of the contiguous concatenation is
        computed exactly as in the per-utterance call — the sausages are
        bitwise identical to looping :meth:`decode`.
        """
        if rngs is None:
            rngs = [
                child_rng(0, f"decode/{u.utt_id}") for u in utterances
            ]
        if len(rngs) != len(utterances):
            raise ValueError("rngs must match utterances in length")
        noisies = [
            self._jittered_slots(u, ensure_rng(r))
            for u, r in zip(utterances, rngs)
        ]
        stacked = [n for n in noisies if n is not None]
        if not stacked:
            return [Sausage([], self.phone_set) for _ in noisies]
        slot_phones, slot_probs = self._rank_slots(np.concatenate(stacked))
        Sausage._validate_slot_arrays(slot_phones, slot_probs, self.phone_set)
        sausages: list[Sausage] = []
        start = 0
        for noisy in noisies:
            if noisy is None:
                sausages.append(Sausage([], self.phone_set))
                continue
            end = start + noisy.shape[0]
            sausages.append(
                Sausage._from_validated_arrays(
                    slot_phones[start:end],
                    slot_probs[start:end],
                    self.phone_set,
                )
            )
            start = end
        return sausages

    def _jittered_slots(
        self, utterance: Utterance, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Sample the utterance's gamma-jittered slot matrix.

        Consumes the identical bitstream as the per-slot reference loop;
        returns ``None`` when the utterance decodes to an empty sausage.
        """
        m = self.model
        err = self._session_error(utterance)
        phones = utterance.phones
        n_local = len(self.phone_set)
        # --- insertions / deletions on the symbol stream -------------
        del_rate = min(0.9, m.deletion_rate * (1.0 + 2.0 * err))
        ins_rate = min(0.9, m.insertion_rate * (1.0 + 2.0 * err))
        keep = rng.random(phones.size) >= del_rate
        kept = phones[keep]
        # One uniform per kept phone decides an insertion after it — the
        # same draws, in the same order, as the scalar reference loop.
        inserted = rng.random(kept.size) < ins_rate
        n_slots = int(kept.size + inserted.sum())
        # Universal id per slot; -1 marks a spurious (inserted) slot.
        u_ids = np.full(max(n_slots, 0), -1, dtype=np.int64)
        if kept.size:
            offsets = np.zeros(kept.size, dtype=np.int64)
            np.cumsum(inserted[:-1], out=offsets[1:])
            u_ids[np.arange(kept.size) + offsets] = kept
        if n_slots == 0:
            if not phones.size:
                return None
            u_ids = phones[:1].astype(np.int64)
        uniform = np.full(n_local, 1.0 / n_local)
        projection = self.session_projection(utterance.session)
        # Dirichlet jitter concentration: high when clean, low when noisy.
        jitter_conc = 60.0 * (1.0 - err) + 4.0
        base = projection[np.maximum(u_ids, 0)]
        base[u_ids < 0] = uniform
        probs = (1.0 - err) * base + err * uniform[None, :]
        # Per-utterance decoding noise (same bitstream as per-slot draws).
        return rng.gamma(np.maximum(probs * jitter_conc, 1e-3))

    def _rank_slots(
        self, noisy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalise + top-k + phone-order the jittered slot matrix.

        Strictly row-wise, so it may be handed one utterance's matrix or
        a concatenation of many — each row comes out bitwise the same.
        """
        m = self.model
        n_local = noisy.shape[1]
        uniform = np.full(n_local, 1.0 / n_local)
        totals = noisy.sum(axis=1)
        ok = totals > 0
        probs = np.where(
            ok[:, None], noisy / np.where(ok, totals, 1.0)[:, None], uniform
        )
        top = np.argsort(probs, axis=1)[:, ::-1][:, : m.top_k]
        top_probs = np.take_along_axis(probs, top, axis=1)
        top_probs /= top_probs.sum(axis=1, keepdims=True)
        order = np.argsort(top, axis=1)
        slot_phones = np.take_along_axis(top, order, axis=1)
        slot_probs = np.take_along_axis(top_probs, order, axis=1)
        return slot_phones, slot_probs
