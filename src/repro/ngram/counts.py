r"""Expected phonetic n-gram counts over lattices (paper Eq. 2).

For a lattice ℓ the expected count of the n-gram :math:`h_i…h_{i+N-1}` is

.. math::

    c_E(h_i,…,h_{i+N-1}\mid ℓ) = \sum_{paths} α(e_i)\,β(e_{i+N-1})
        \prod_j ξ(e_j),

i.e. posterior-weighted occurrence counts summed over all n-edge path
segments.  Two implementations are provided and tested against each other:

- :func:`expected_counts_lattice` walks the general DAG with
  forward/backward scores — the literal Eq. 2;
- :func:`expected_counts_sausage` exploits the confusion-network structure
  (consecutive slots are independent given the sausage), reducing each
  window to an outer product over slot alternatives.

N-grams are encoded as integers in base ``n_phones`` (:func:`encode_ngram`)
so count tables are flat ``{int: float}`` dicts and supervector assembly is
a vectorized scatter.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.lattice import Lattice, Sausage
from repro.utils.validation import check_positive

__all__ = [
    "encode_ngram",
    "decode_ngram",
    "expected_count_batch",
    "expected_counts_sausage",
    "expected_counts_lattice",
]


def encode_ngram(phones: tuple[int, ...] | np.ndarray, n_phones: int) -> int:
    """Encode an n-gram as an integer in base ``n_phones``.

    The first phone is the most significant digit, so unigrams encode to
    their own phone id.
    """
    code = 0
    for p in phones:
        p = int(p)
        if not 0 <= p < n_phones:
            raise ValueError(f"phone id {p} out of range [0, {n_phones})")
        code = code * n_phones + p
    return code


def decode_ngram(code: int, n_phones: int, order: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_ngram` for a known order."""
    if code < 0:
        raise ValueError("code must be non-negative")
    phones = []
    for _ in range(order):
        phones.append(code % n_phones)
        code //= n_phones
    if code:
        raise ValueError("code out of range for this order")
    return tuple(reversed(phones))


def expected_counts_sausage(
    sausage: Sausage, order: int
) -> dict[int, float]:
    """Expected n-gram counts over a confusion network.

    In a sausage every path visits every slot, and slot choices are
    independent under the edge-posterior distribution, so the expected
    count of (p_1,…,p_n) starting at slot i is simply
    ``prod_j P(slot_{i+j} = p_j)``.

    A dict view of :func:`expected_count_batch` over one sausage.
    """
    _, codes, sums = expected_count_batch([sausage], order)
    return dict(zip(codes.tolist(), sums.tolist()))


#: Most (sausage, code) bins one pass of :func:`expected_count_batch`
#: sums densely; more sausages are taken in several passes.
MAX_BINS = 1 << 20


def expected_count_batch(
    sausages: list[Sausage], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected counts of many sausages: ``(rows, codes, sums)``.

    Entry ``i`` is the summed expected count of n-gram ``codes[i]`` in
    ``sausages[rows[i]]``, sorted by row then code; every n-gram that
    occurs is listed, also one whose count sums to exactly 0.0.

    One pass per chunk of sausages: n-gram windows run over the
    concatenated slot arrays, windows that cross a sausage boundary
    are left out, and one ``bincount`` over (sausage, code) bins sums
    the terms, at most :data:`MAX_BINS` bins per pass (a sausage whose
    codes alone exceed that is summed through ``np.unique`` and
    ``np.add.at``).  Either way each bin adds its terms in the order
    of a per-window outer-product loop (the oracle in
    ``tests/oracles/phi.py``), so the sums are bitwise identical to
    counting each sausage alone.
    """
    check_positive("order", order)
    sizes = {len(s.phone_set) for s in sausages}
    if len(sizes) > 1:
        raise ValueError("sausages must share one phone-set size")
    n_phones = sizes.pop() if sizes else 1
    n_codes = n_phones**order
    per_pass = max(1, MAX_BINS // n_codes)
    parts = []
    for first in range(0, len(sausages), per_pass):
        chunk = [s.slot_arrays() for s in sausages[first : first + per_pass]]
        lengths = [p.shape[0] for p, _ in chunk]
        row = np.repeat(np.arange(len(chunk)), lengths)
        # Windows that lie inside one sausage, by first slot.
        last = row.size - order + 1
        starts = np.flatnonzero(row[:last] == row[order - 1 :])
        if not starts.size:
            continue
        keys, terms = _window_terms(chunk, starts, row, order, n_phones)
        n_bins = len(chunk) * n_codes
        if n_bins <= MAX_BINS:
            # bincount adds each bin's terms in array order.
            seen = np.zeros(n_bins, dtype=bool)
            seen[keys] = True
            bins = np.flatnonzero(seen)
            sums = np.bincount(keys, weights=terms, minlength=n_bins)[bins]
        else:
            bins, inverse = np.unique(keys, return_inverse=True)
            sums = np.zeros(bins.size, dtype=np.float64)
            np.add.at(sums, inverse, terms)
        counts = np.diff(
            np.searchsorted(bins, np.arange(len(chunk) + 1) * n_codes)
        )
        rows = np.repeat(np.arange(len(chunk)), counts)
        parts.append((rows + first, bins - rows * n_codes, sums))
    if not parts:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.float64),
        )
    if len(parts) == 1:
        return parts[0]
    rows, codes, sums = (np.concatenate(column) for column in zip(*parts))
    return rows, codes, sums


def _window_terms(
    chunk: list[tuple[np.ndarray, np.ndarray]],
    starts: np.ndarray,
    row: np.ndarray,
    order: int,
    n_phones: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Keys and probability products of every window's alternatives.

    ``chunk`` holds padded ``(T, K)`` slot arrays, ``row`` the chunk
    row of every concatenated slot and ``starts`` the first slot of
    every window.  A window contributes one term per combination of
    its slots' alternatives: windows in order, combinations
    lexicographic, padded ones left out.  A term's key is
    ``row * f^order + code`` (the row rides in the first digit).  The
    slots are laid out transposed, ``(K, T)``, so every step runs
    along the windows rather than along ``K``.
    """
    width = max(p.shape[1] for p, _ in chunk)
    if all(p.shape[1] == width for p, _ in chunk):
        phones = np.concatenate([p for p, _ in chunk]).T
        probs = np.concatenate([q for _, q in chunk]).T
    else:
        # Ragged widths: pad on the right, as ``slot_arrays`` does.
        phones = np.full((width, row.size), -1, dtype=np.int64)
        probs = np.zeros((width, row.size), dtype=np.float64)
        start = 0
        for p, q in chunk:
            phones[: p.shape[1], start : start + p.shape[0]] = p.T
            probs[: q.shape[1], start : start + q.shape[0]] = q.T
            start += p.shape[0]
    valid = phones >= 0
    padded = not valid.all()
    if padded:
        phones = np.where(valid, phones, 0)
        ok = np.take(valid, starts, axis=1)
    keys = np.take(phones, starts, axis=1) + row[starts] * n_phones
    terms = np.take(probs, starts, axis=1)
    for j in range(1, order):
        nxt = starts + j
        keys = (
            keys[:, None, :] * n_phones + np.take(phones, nxt, axis=1)
        ).reshape(-1, starts.size)
        terms = (terms[:, None, :] * np.take(probs, nxt, axis=1)).reshape(
            -1, starts.size
        )
        if padded:
            ok = (ok[:, None, :] & np.take(valid, nxt, axis=1)).reshape(
                -1, starts.size
            )
    keys, terms = keys.T.ravel(), terms.T.ravel()
    if padded:
        keep = ok.T.ravel()
        keys, terms = keys[keep], terms[keep]
    return keys, terms


def expected_counts_lattice(
    lattice: Lattice, order: int
) -> dict[int, float]:
    """Expected n-gram counts over a general DAG lattice (literal Eq. 2).

    Walks every ``order``-edge connected segment, accumulating
    ``exp(α(start) + Σ log w + β(end) − log Z)``.
    """
    check_positive("order", order)
    n_phones = len(lattice.phone_set)
    counts: dict[int, float] = {}
    if lattice.n_edges == 0:
        return counts
    alpha = lattice.forward()
    beta = lattice.backward()
    z = lattice.total_log_weight()
    successors = lattice.successors()

    def extend(
        edge: int, depth: int, code: int, logw: float, seg_start: int
    ) -> None:
        code = code * n_phones + int(lattice.phones[edge])
        logw = logw + float(lattice.log_weights[edge])
        if depth == order:
            log_post = alpha[seg_start] + logw + beta[lattice.ends[edge]] - z
            counts[code] = counts.get(code, 0.0) + float(
                np.exp(min(log_post, 0.0))
            )
            return
        for nxt in successors.get(int(lattice.ends[edge]), []):
            extend(nxt, depth + 1, code, logw, seg_start)

    for first in range(lattice.n_edges):
        extend(first, 1, 0, 0.0, int(lattice.starts[first]))
    return counts
