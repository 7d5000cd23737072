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
    "expected_count_arrays",
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

    A dict view of the vectorized :func:`expected_count_arrays`.
    """
    codes, sums = expected_count_arrays(sausage, order)
    return dict(zip(codes.tolist(), sums.tolist()))


def expected_count_arrays(
    sausage: Sausage, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized expected counts: sorted unique codes and their sums.

    Works on the sausage's padded ``(T, K)`` slot arrays: every window's
    outer product over alternatives is one broadcast, padded combinations
    are masked out, and a single ``np.unique``/``np.add.at`` pass
    aggregates — accumulation order matches a per-window outer-product
    loop (the oracle in ``tests/oracles/phi.py``) exactly, so the sums
    are bitwise identical.
    """
    check_positive("order", order)
    n_phones = len(sausage.phone_set)
    t = len(sausage)
    if t < order:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    phones, probs = sausage.slot_arrays()
    valid = phones >= 0
    safe = np.where(valid, phones, 0)
    w = t - order + 1
    codes = safe[:w]
    prods = probs[:w]
    ok = valid[:w]
    for j in range(1, order):
        codes = (
            codes[:, :, None] * n_phones + safe[j : j + w][:, None, :]
        ).reshape(w, -1)
        prods = (prods[:, :, None] * probs[j : j + w][:, None, :]).reshape(w, -1)
        ok = (ok[:, :, None] & valid[j : j + w][:, None, :]).reshape(w, -1)
    mask = ok.ravel()
    if mask.all():
        flat_codes, flat_probs = codes.ravel(), prods.ravel()
    else:
        flat_codes, flat_probs = codes.ravel()[mask], prods.ravel()[mask]
    n_codes = n_phones**order
    if n_codes <= 1 << 20:
        # Dense aggregation: bincount walks the flat arrays once in
        # order, so each code's additions happen in exactly the same
        # sequence as np.add.at / the reference loop — bitwise equal —
        # without np.unique's internal argsort.  The occurrence pass
        # keeps codes whose expected count sums to exactly 0.0, which
        # the reference dict also records.
        occ = np.bincount(flat_codes, minlength=n_codes)
        sums = np.bincount(
            flat_codes, weights=flat_probs, minlength=n_codes
        )
        uniq = np.flatnonzero(occ)
        return uniq, sums[uniq]
    uniq, inverse = np.unique(flat_codes, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(sums, inverse, flat_probs)
    return uniq, sums


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
