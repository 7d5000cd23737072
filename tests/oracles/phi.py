"""Reference φ(x) pipeline: the seed implementations of the fast paths.

Per-slot confusion decoding, per-window expected counts, dict-based
supervector assembly and the dense TFLLR fit/transform, as the
repository first implemented them.  Each fast path in ``src/`` must
reproduce its oracle byte for byte in float64:

- :func:`decode_reference` ↔
  :meth:`~repro.frontend.confusion.ConfusionChannelRecognizer.decode`
  and ``decode_batch``, with :func:`session_projection_reference` ↔
  ``session_projection``;
- :func:`expected_counts_sausage_reference` ↔
  :func:`~repro.ngram.counts.expected_counts_sausage`;
- :func:`extract_reference` ↔
  :meth:`~repro.ngram.supervector.SupervectorExtractor.extract`, and
  :func:`extract_matrix_reference` ↔ ``extract_matrix``;
- :func:`tfllr_fit_reference` / :func:`tfllr_transform_reference` ↔
  :meth:`~repro.ngram.supervector.TFLLRScaler.fit` / ``transform``.

:func:`use_reference_phi` swaps all of them in through ``monkeypatch``,
so a whole campaign can run on the seed path.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.generator import Utterance
from repro.frontend.confusion import ConfusionChannelRecognizer
from repro.frontend.lattice import Sausage, SausageSlot
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from repro.utils.rng import child_rng, ensure_rng
from repro.utils.sparse import SparseMatrix, SparseVector
from repro.utils.validation import check_positive

__all__ = [
    "decode_reference",
    "decode_batch_reference",
    "session_projection_reference",
    "prune_slot_reference",
    "expected_counts_sausage_reference",
    "extract_reference",
    "extract_matrix_reference",
    "dense_scale",
    "tfllr_fit_reference",
    "tfllr_transform_reference",
    "use_reference_phi",
]


def decode_reference(
    recognizer: ConfusionChannelRecognizer,
    utterance: Utterance,
    rng: np.random.Generator | int | None = None,
) -> Sausage:
    """The per-slot decode loop: one gamma draw and one sort per slot."""
    rng = ensure_rng(
        rng if rng is not None else child_rng(0, f"decode/{utterance.utt_id}")
    )
    m = recognizer.model
    err = float(
        np.clip(
            m.base_error
            + m.distortion_gain * utterance.session.distortion(),
            0.0,
            0.85,
        )
    )
    phones = utterance.phones
    n_local = len(recognizer.phone_set)
    del_rate = min(0.9, m.deletion_rate * (1.0 + 2.0 * err))
    ins_rate = min(0.9, m.insertion_rate * (1.0 + 2.0 * err))
    keep = rng.random(phones.size) >= del_rate
    kept = phones[keep]
    slots_universal: list[int | None] = []
    for p in kept:
        slots_universal.append(int(p))
        if rng.random() < ins_rate:
            slots_universal.append(None)  # a spurious slot
    if not slots_universal:
        slots_universal = [int(phones[0])] if phones.size else []
    uniform = np.full(n_local, 1.0 / n_local)
    slots: list[SausageSlot] = []
    projection = session_projection_reference(recognizer, utterance.session)
    jitter_conc = 60.0 * (1.0 - err) + 4.0
    for u in slots_universal:
        base = uniform.copy() if u is None else projection[u]
        probs = (1.0 - err) * base + err * uniform
        noisy = rng.gamma(np.maximum(probs * jitter_conc, 1e-3))
        slots.append(prune_slot_reference(noisy, m.top_k))
    return Sausage(slots, recognizer.phone_set)


def session_projection_reference(
    recognizer: ConfusionChannelRecognizer, session
) -> np.ndarray:
    """One session's ``(U, L)`` projection, computed on its own."""
    means = session.channel.gain * (
        recognizer.acoustics.phone_means
        + session.speaker.offset[None, :]
        + session.channel.tilt[None, :]
    )
    protos = recognizer._protos
    d2 = (
        np.sum(means**2, axis=1)[:, None]
        - 2.0 * means @ protos.T
        + np.sum(protos**2, axis=1)[None, :]
    )
    d2 = np.maximum(d2, 0.0)
    logits = -d2 / max(recognizer.model.tau * recognizer._scale, 1e-9)
    logits -= logits.max(axis=1, keepdims=True)
    proj = np.exp(logits)
    proj /= proj.sum(axis=1, keepdims=True)
    return proj


def prune_slot_reference(noisy: np.ndarray, top_k: int) -> SausageSlot:
    """Normalise one jittered slot, keep its top-k, order by phone id."""
    n_local = noisy.shape[0]
    total = noisy.sum()
    probs = noisy / total if total > 0 else np.full(n_local, 1.0 / n_local)
    top = np.argsort(probs)[::-1][:top_k]
    top_probs = probs[top]
    top_probs /= top_probs.sum()
    order = np.argsort(top)
    return SausageSlot(top[order].astype(np.int64), top_probs[order])


def decode_batch_reference(
    recognizer: ConfusionChannelRecognizer,
    utterances: list[Utterance],
    rngs: list[np.random.Generator] | None = None,
) -> list[Sausage]:
    """``decode_batch`` as a loop of :func:`decode_reference` calls."""
    if rngs is None:
        rngs = [child_rng(0, f"decode/{u.utt_id}") for u in utterances]
    if len(rngs) != len(utterances):
        raise ValueError("rngs must match utterances in length")
    return [
        decode_reference(recognizer, u, r) for u, r in zip(utterances, rngs)
    ]


def expected_counts_sausage_reference(
    sausage: Sausage, order: int
) -> dict[int, float]:
    """One outer product per window, then a single ``np.add.at`` pass."""
    check_positive("order", order)
    n_phones = len(sausage.phone_set)
    slots = sausage.slots
    t = len(slots)
    if t < order:
        return {}
    all_codes: list[np.ndarray] = []
    all_probs: list[np.ndarray] = []
    for i in range(t - order + 1):
        codes = slots[i].phones.astype(np.int64)
        probs = slots[i].probs
        for j in range(1, order):
            nxt = slots[i + j]
            codes = (codes[:, None] * n_phones + nxt.phones[None, :]).ravel()
            probs = (probs[:, None] * nxt.probs[None, :]).ravel()
        all_codes.append(codes)
        all_probs.append(probs)
    codes = np.concatenate(all_codes)
    probs = np.concatenate(all_probs)
    uniq, inverse = np.unique(codes, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(sums, inverse, probs)
    return dict(zip(uniq.tolist(), sums.tolist()))


def extract_reference(
    extractor: SupervectorExtractor, sausage: Sausage
) -> SparseVector:
    """Dict-based supervector assembly over the reference counts."""
    if len(sausage.phone_set) != extractor.layout.n_phones:
        raise ValueError(
            "sausage phone set does not match extractor inventory"
        )
    items: dict[int, float] = {}
    layout = extractor.layout
    for order, offset in zip(layout.orders, layout.offsets):
        counts = expected_counts_sausage_reference(sausage, order)
        total = sum(counts.values())
        if total <= 0.0:
            continue
        inv_total = 1.0 / total
        for code, value in counts.items():
            items[offset + code] = value * inv_total
    return SparseVector.from_dict(layout.dim, items)


def extract_matrix_reference(
    extractor: SupervectorExtractor, sausages: list[Sausage]
) -> SparseMatrix:
    """:func:`extract_reference` rows, stacked."""
    return SparseMatrix.from_rows(
        [extract_reference(extractor, s) for s in sausages],
        dim=extractor.layout.dim,
    )


def dense_scale(scaler: TFLLRScaler) -> np.ndarray:
    """The fitted TFLLR scaling as a dense ``dim``-length vector."""
    out = np.full(scaler.dim_, scaler.default_scale, dtype=np.float64)
    out[scaler.scale_indices_] = scaler.scale_values_
    return out


def tfllr_fit_reference(
    scaler: TFLLRScaler, train: SparseMatrix
) -> TFLLRScaler:
    """Dense column sums over all ``dim`` columns, then the floor."""
    if train.n_rows == 0:
        raise ValueError("cannot fit TFLLR scaling on an empty matrix")
    column_sums = np.zeros(train.dim, dtype=np.float64)
    np.add.at(column_sums, train.indices, train.values)
    p_all = column_sums / train.n_rows
    dense = 1.0 / np.sqrt(np.maximum(p_all, scaler.min_prob))
    # Stored sparsely: a column at the unseen-column default needs no entry.
    observed = np.nonzero(dense != scaler.default_scale)[0]
    scaler.dim_ = int(train.dim)
    scaler.scale_indices_ = observed.astype(np.int64)
    scaler.scale_values_ = dense[observed]
    return scaler


def tfllr_transform_reference(
    scaler: TFLLRScaler, x: SparseMatrix
) -> SparseMatrix:
    """Multiply every stored entry by its column's dense scale."""
    if not scaler.is_fitted:
        raise RuntimeError("TFLLRScaler is not fitted")
    if x.dim != scaler.dim_:
        raise ValueError("dimension mismatch with fitted scaling")
    diag = dense_scale(scaler)
    return SparseMatrix(x.dim, x.indptr, x.indices, x.values * diag[x.indices])


def use_reference_phi(monkeypatch) -> None:
    """Route every φ fast path through its oracle for this test."""
    monkeypatch.setattr(
        ConfusionChannelRecognizer, "decode", decode_reference
    )
    monkeypatch.setattr(
        ConfusionChannelRecognizer, "decode_batch", decode_batch_reference
    )
    monkeypatch.setattr(SupervectorExtractor, "extract", extract_reference)
    monkeypatch.setattr(
        SupervectorExtractor, "extract_matrix", extract_matrix_reference
    )
    monkeypatch.setattr(TFLLRScaler, "fit", tfllr_fit_reference)
    monkeypatch.setattr(TFLLRScaler, "transform", tfllr_transform_reference)
