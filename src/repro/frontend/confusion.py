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

import dataclasses
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
        rng = child_rng(seed, f"confusion/{name}")
        local_ids = sample_inventory(
            acoustics.phone_set, inventory_size, rng, core_fraction=0.5
        )
        self._attach(name, acoustics, model or ConfusionModel(), local_ids)

    def _attach(
        self,
        name: str,
        acoustics: AcousticSpace,
        model: ConfusionModel,
        local_ids: np.ndarray,
        scale: float | None = None,
    ) -> None:
        """Set the recognizer up over its local inventory; ``scale`` is
        the distance scale, computed when not given."""
        self.name = name
        self.acoustics = acoustics
        self.model = model
        self._local_universal_ids = local_ids
        self.phone_set = acoustics.phone_set.subset(name, local_ids)
        # Prototype means and their squared row norms are fixed by the
        # inventory; hoisting them out of _projection_for_means matters
        # because session shifts force a fresh projection per utterance.
        self._protos = acoustics.phone_means[local_ids]
        self._protos_sq = np.sum(self._protos**2, axis=1)
        self._scale = self._distance_scale() if scale is None else scale

    # ------------------------------------------------------------------
    # persistence (the ``world`` store stage)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The recognizer as named arrays for one flat
        :mod:`repro.utils.payload` file: its name, error model, local
        inventory (universal ids) and distance scale.  The acoustic
        space is shared by the battery and not part of the state."""
        state = {
            "name": np.str_(self.name),
            "local_universal_ids": self._local_universal_ids,
            "scale": np.float64(self._scale),
        }
        for field in dataclasses.fields(ConfusionModel):
            state[f"model.{field.name}"] = np.asarray(
                getattr(self.model, field.name)
            )
        return state

    @classmethod
    def from_state(
        cls, state: dict, acoustics: AcousticSpace
    ) -> "ConfusionChannelRecognizer":
        """Rebuild a recognizer over ``acoustics`` from :meth:`state_dict`
        output; it decodes bitwise as the recognizer it was taken from
        (given the same acoustic space), with no inventory draw and no
        distance-scale computation."""
        model = ConfusionModel(
            **{
                field.name: state[f"model.{field.name}"].item()
                for field in dataclasses.fields(ConfusionModel)
            }
        )
        recognizer = cls.__new__(cls)
        recognizer._attach(
            str(state["name"]),
            acoustics,
            model,
            state["local_universal_ids"],
            float(state["scale"]),
        )
        return recognizer

    # ------------------------------------------------------------------
    # projection
    # ------------------------------------------------------------------
    def _distance_scale(self) -> float:
        """Median inter-prototype squared distance (tau normaliser)."""
        protos = self._protos
        proto_d2 = (
            np.sum(protos**2, axis=1)[:, None]
            - 2.0 * protos @ protos.T
            + np.sum(protos**2, axis=1)[None, :]
        )
        off_diag = proto_d2[~np.eye(proto_d2.shape[0], dtype=bool)]
        return float(np.median(off_diag)) if off_diag.size else 1.0

    def _projection_for_means(
        self, means: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Soft assignment p(local phone | universal phone), shape (..., U, L).

        Based on squared distances between the given universal phone means
        and the *clean* means of the local inventory's prototype phones,
        tempered by ``tau`` times the median inter-prototype distance.
        ``means`` may carry leading batch axes (one ``(U, D)`` matrix per
        session).  With ``rows`` (flat indices into the ``(..., U)``
        rows) only those rows are returned, shape ``(len(rows), L)``.
        The products with the prototypes are one ``(U, D)`` matmul per
        batch item either way, and every later step is row-wise, so a
        row comes out as it would in the full matrix of its item alone.
        """
        proj = 2.0 * means @ self._protos.T
        sq = np.sum(means**2, axis=-1)
        if rows is not None:
            proj = proj.reshape(-1, proj.shape[-1])[rows]
            sq = sq.reshape(-1)[rows]
        # In place, one buffer: each step is the elementwise
        # ``sq - 2·m·pᵀ + p², max 0, −d²/t, − row max, exp, / row sum``
        # (a quotient's sign is its operands' sign product, so −d²/t is
        # d²/−t exactly).
        np.subtract(sq[..., None], proj, out=proj)
        proj += self._protos_sq
        np.maximum(proj, 0.0, out=proj)
        proj /= -max(self.model.tau * self._scale, 1e-9)
        proj -= proj.max(axis=-1, keepdims=True)
        np.exp(proj, out=proj)
        proj /= proj.sum(axis=-1, keepdims=True)
        return proj

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
        return self._projection_for_means(self._shifted_means([session]))[0]

    def _shifted_means(self, sessions) -> np.ndarray:
        """Every universal phone mean under each session, ``(B, U, D)``."""
        offset = np.stack([s.speaker.offset for s in sessions])
        tilt = np.stack([s.channel.tilt for s in sessions])
        gain = np.array([s.channel.gain for s in sessions], dtype=np.float64)
        return gain[:, None, None] * (
            self.acoustics.phone_means + offset[:, None, :] + tilt[:, None, :]
        )

    @property
    def projection(self) -> np.ndarray:
        """The clean-condition ``(n_universal, n_local)`` projection.

        Decoding uses session projections only, so this one is computed
        on each read rather than kept.
        """
        return self._projection_for_means(self.acoustics.phone_means)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _session_error(self, utterance: Utterance) -> float:
        m = self.model
        e = m.base_error + m.distortion_gain * utterance.session.distortion()
        return min(max(e, 0.0), 0.85)

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

        A batch of one: :meth:`decode_batch` consumes the identical RNG
        bitstream as a per-slot loop (the oracle in
        ``tests/oracles/phi.py``, tested bitwise-equal).
        """
        if rng is None:
            rng = child_rng(0, f"decode/{utterance.utt_id}")
        return self.decode_batch([utterance], [rng])[0]

    def decode_batch(
        self,
        utterances: list[Utterance],
        rngs: list[np.random.Generator | int] | None = None,
    ) -> list[Sausage]:
        """Decode many utterances, each under its own RNG stream.

        Each utterance draws its deletions and insertions, then its
        gamma jitter, from its own generator, in the order of the
        per-slot reference loop.  Everything between and after the
        draws is computed once for the whole batch, with per-row
        scalars where the reference had per-utterance ones: the slot
        probabilities, their gamma shapes, top-k selection,
        renormalisation and validation.  These are elementwise or
        row-wise, so every sausage is bitwise identical to decoding
        its utterance alone.
        """
        if rngs is None:
            rngs = [
                child_rng(0, f"decode/{u.utt_id}") for u in utterances
            ]
        if len(rngs) != len(utterances):
            raise ValueError("rngs must match utterances in length")
        rngs = [ensure_rng(r) for r in rngs]
        slots = [self._slot_ids(u, r) for u, r in zip(utterances, rngs)]
        live = [i for i, ids in enumerate(slots) if ids is not None]
        if not live:
            return [Sausage([], self.phone_set) for _ in utterances]
        shape = self._gamma_shapes(
            [utterances[i] for i in live], [slots[i] for i in live]
        )
        bounds = np.cumsum([0] + [slots[i][0].size for i in live]).tolist()
        # ``standard_gamma`` is ``gamma`` at scale 1.0 (numpy multiplies
        # by the scale, exactly) without its two-parameter broadcast.
        noisy = np.empty_like(shape)
        for i, start, end in zip(live, bounds, bounds[1:]):
            rngs[i].standard_gamma(shape[start:end], out=noisy[start:end])
        slot_phones, slot_probs = self._rank_slots(noisy)
        Sausage._validate_slot_arrays(slot_phones, slot_probs, self.phone_set)
        sausages = [Sausage([], self.phone_set) for _ in utterances]
        for i, start, end in zip(live, bounds, bounds[1:]):
            sausages[i] = Sausage._from_validated_arrays(
                slot_phones[start:end], slot_probs[start:end], self.phone_set
            )
        return sausages

    def _slot_ids(
        self, utterance: Utterance, rng: np.random.Generator
    ) -> tuple[np.ndarray, float] | None:
        """Draw the utterance's deletions and insertions.

        Returns the universal phone id of every slot (``-1`` for an
        inserted one) and the session error rate, or ``None`` when the
        utterance decodes to an empty sausage.  Consumes the same
        uniforms, in the same order, as the per-slot reference loop.
        """
        m = self.model
        err = self._session_error(utterance)
        phones = utterance.phones
        del_rate = min(0.9, m.deletion_rate * (1.0 + 2.0 * err))
        ins_rate = min(0.9, m.insertion_rate * (1.0 + 2.0 * err))
        keep = rng.random(phones.size) >= del_rate
        kept = phones[keep]
        # One uniform per kept phone decides an insertion after it.
        inserted = rng.random(kept.size) < ins_rate
        n_slots = int(kept.size + inserted.sum())
        if n_slots == 0:
            if not phones.size:
                return None
            return phones[:1].astype(np.int64), err
        u_ids = np.full(n_slots, -1, dtype=np.int64)
        offsets = np.zeros(kept.size, dtype=np.int64)
        np.cumsum(inserted[:-1], out=offsets[1:])
        u_ids[np.arange(kept.size) + offsets] = kept
        return u_ids, err

    def _gamma_shapes(
        self,
        utterances: list[Utterance],
        slots: list[tuple[np.ndarray, float]],
    ) -> np.ndarray:
        """Gamma shapes of every slot of a batch, one row per slot.

        A slot's probabilities are its phone's row of the session
        projection (uniform for an inserted slot), flattened toward
        uniform by the session error; the Dirichlet jitter
        concentration is high when clean and low when noisy.  The
        shapes depend only on the utterance and the slot's universal
        phone, so they are computed once per (utterance, phone) pair
        that occurs — only those projection rows are formed — with the
        per-utterance scalars as per-row columns, and each slot gathers
        its pair's row.  Every entry is the reference's scalar
        arithmetic on the same operands.
        """
        n_universal = len(self.acoustics.phone_set)
        n_local = len(self.phone_set)
        uniform = np.full(n_local, 1.0 / n_local)
        u_ids = np.concatenate([ids for ids, _ in slots])
        utt = np.repeat(np.arange(len(slots)), [ids.size for ids, _ in slots])
        # Pair key utt·(U + 1) + phone, with phone U for an inserted slot.
        key = utt * (n_universal + 1) + np.where(u_ids < 0, n_universal, u_ids)
        used = np.zeros(len(slots) * (n_universal + 1), dtype=bool)
        used[key] = True
        pair_utt, pair_phone = np.divmod(np.flatnonzero(used), n_universal + 1)
        real = pair_phone < n_universal
        base = np.empty((pair_utt.size, n_local))
        base[real] = self._projection_for_means(
            self._shifted_means([u.session for u in utterances]),
            rows=pair_utt[real] * n_universal + pair_phone[real],
        )
        base[~real] = uniform
        err = np.array([e for _, e in slots])[pair_utt, None]
        base *= 1.0 - err
        base += err * uniform
        base *= 60.0 * (1.0 - err) + 4.0
        np.maximum(base, 1e-3, out=base)
        return base[(np.cumsum(used) - 1)[key]]

    def _rank_slots(
        self, noisy: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalise + top-k + phone-order the jittered slot matrix.

        Strictly row-wise, so it may be handed one utterance's matrix or
        a concatenation of many — each row comes out bitwise the same as
        ``np.argsort`` over the normalised row would rank it (the oracle
        in ``tests/oracles/phi.py``).  Normalising divides a row by its
        positive total, which keeps its order, so the ``k + 1`` largest
        entries are found on ``noisy`` by ``k + 1`` ``argmax`` passes
        and only those are divided.  A row whose ``k + 1`` quotients
        are not strictly decreasing, or whose total is 0 (the uniform
        fallback), is ranked by the full ``argsort`` instead, whose
        tie-breaking is the contract.
        """
        k = self.model.top_k
        n, n_local = noisy.shape
        totals = noisy.sum(axis=1)
        ok = totals > 0
        if k < n_local:
            top, values = _largest(noisy, k + 1)
            np.divide(values, totals, out=values, where=ok)
            full = ~ok | (values[1:] == values[:-1]).any(axis=0)
            top_probs = values[:k].T.copy()
            top = top[:k].T.copy()
        else:
            full = np.ones(n, dtype=bool)
            top = np.empty((n, n_local), dtype=np.int64)
            top_probs = np.empty((n, n_local))
        if full.any():
            rows = np.flatnonzero(full)
            uniform = np.full(n_local, 1.0 / n_local)
            probs = np.where(
                ok[rows, None],
                noisy[rows] / np.where(ok[rows], totals[rows], 1.0)[:, None],
                uniform,
            )
            ranked = np.argsort(probs, axis=1)[:, ::-1][:, :k]
            top[rows] = ranked
            top_probs[rows] = np.take_along_axis(probs, ranked, axis=1)
        top_probs /= top_probs.sum(axis=1, keepdims=True)
        order = np.argsort(top, axis=1)
        slot_phones = np.take_along_axis(top, order, axis=1)
        slot_probs = np.take_along_axis(top_probs, order, axis=1)
        return slot_phones, slot_probs


def _largest(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of each row's ``m`` largest entries, as ``(m, n)``.

    ``m`` row ``argmax`` passes over ``x``, each masking the maxima it
    found with ``-inf`` (restored before returning).  Among equal
    values the lowest column comes first.
    """
    n, width = x.shape
    x = np.ascontiguousarray(x)
    flat = x.reshape(-1)
    row_start = np.arange(n) * width
    cols = np.empty((m, n), dtype=np.int64)
    pos = np.empty((m, n), dtype=np.int64)
    values = np.empty((m, n))
    for j in range(m):
        x.argmax(axis=1, out=cols[j])
        np.add(row_start, cols[j], out=pos[j])
        values[j] = flat[pos[j]]
        flat[pos[j]] = -np.inf
    flat[pos] = values
    return cols, values
