r"""Phonotactic feature supervectors and the TFLLR kernel map.

Paper Eqs. 2–5: expected n-gram counts over an utterance's lattice are
normalised to probabilities within each order block,

.. math::  p(d_q\mid ℓ) = c_E(d_q\mid ℓ) / \sum_m c_E(d_m\mid ℓ),

stacked into the supervector φ(x) (Eq. 3), and compared through the
term-frequency log-likelihood-ratio kernel (Eq. 5), whose feature map
divides each component by :math:`\sqrt{p(d_q\mid ℓ_{all})}` — the observed
probability of the n-gram across *all* training lattices.  The scaled map
is what the linear SVM consumes, making the kernel exactly linear.

Layout: for orders ``(n_1 < n_2 < …)`` the supervector concatenates one
block per order; the block for order ``n`` has size ``f^n`` (``f`` =
recognizer inventory size) and is indexed by the base-``f`` n-gram code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frontend.lattice import Sausage
from repro.ngram.counts import expected_count_batch
from repro.obs.metrics import default_registry
from repro.utils.sparse import SparseMatrix, SparseVector
from repro.utils.validation import check_positive

__all__ = ["SupervectorExtractor", "TFLLRScaler"]

# Always-on accounting of supervector generation (Table 5's
# sv_generation stage): how many φ(x) maps were built and how dense
# they came out — density is what the SVM product's cost tracks.
_EXTRACTED = default_registry().counter("ngram.supervector.extracted")
_NNZ = default_registry().histogram("ngram.supervector.nnz", maxlen=512)


@dataclass(frozen=True)
class SupervectorLayout:
    """Block layout of a multi-order supervector."""

    n_phones: int
    orders: tuple[int, ...]
    offsets: tuple[int, ...]
    dim: int

    @classmethod
    def build(cls, n_phones: int, orders: tuple[int, ...]) -> "SupervectorLayout":
        """Validate orders and compute per-order block offsets."""
        if not orders:
            raise ValueError("at least one n-gram order is required")
        if list(orders) != sorted(set(orders)):
            raise ValueError("orders must be strictly increasing")
        if min(orders) < 1:
            raise ValueError("orders must be >= 1")
        check_positive("n_phones", n_phones)
        offsets = []
        total = 0
        for order in orders:
            offsets.append(total)
            total += n_phones**order
        return cls(n_phones, tuple(orders), tuple(offsets), total)


class SupervectorExtractor:
    """Builds φ(x) supervectors from sausages for one recognizer.

    Parameters
    ----------
    n_phones:
        Recognizer inventory size ``f``.
    orders:
        N-gram orders to stack; the paper's system uses all orders up to
        N (``d_i = h_i…h_{i+n-1}, n ≤ N`` under Eq. 3).  Default (1, 2, 3).
    """

    def __init__(
        self, n_phones: int, orders: tuple[int, ...] = (1, 2, 3)
    ) -> None:
        self.layout = SupervectorLayout.build(n_phones, tuple(orders))

    @property
    def dim(self) -> int:
        """Supervector dimensionality ``F = Σ f^n``."""
        return self.layout.dim

    @property
    def orders(self) -> tuple[int, ...]:
        return self.layout.orders

    def extract(self, sausage: Sausage) -> SparseVector:
        """Supervector of one utterance's sausage (Eqs. 2–3).

        A batch of one: row 0 of :meth:`extract_matrix`.
        """
        return self.extract_matrix([sausage]).row(0)

    def extract_matrix(self, sausages: list[Sausage]) -> SparseMatrix:
        """Stack supervectors for a batch of sausages (Eqs. 2–3).

        Per-order blocks stay sparse end to end: each order's counts
        arrive for the whole batch at once, sorted by (row, code), from
        :func:`~repro.ngram.counts.expected_count_batch`; each row's
        block is normalised by its total and offset, and one stable sort
        by row lays the blocks out as CSR rows — the ``f^n``-dimensional
        blocks are never densified and no intermediate dict is built.
        Block totals are sequential (``cumsum``) sums, so every row
        matches the dict-based oracle in ``tests/oracles/phi.py``
        bitwise, and the supervector counters advance once per sausage.
        """
        layout = self.layout
        for sausage in sausages:
            if len(sausage.phone_set) != layout.n_phones:
                raise ValueError(
                    "sausage phone set does not match extractor inventory"
                )
        n = len(sausages)
        blocks = [
            _normalised_block(sausages, order) for order in layout.orders
        ]
        # Each block is sorted by (row, code) and a later order's codes
        # lie above an earlier one's, so a stable sort by row lays every
        # row out in column order.
        rows = np.concatenate([rows for rows, _, _ in blocks])
        by_row = np.argsort(rows, kind="stable")
        indices = np.concatenate(
            [
                codes + offset
                for (_, codes, _), offset in zip(blocks, layout.offsets)
            ]
        )[by_row]
        values = np.concatenate([values for _, _, values in blocks])[by_row]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        _EXTRACTED.inc(n)
        for nnz in np.diff(indptr).tolist():
            _NNZ.observe(nnz)
        return SparseMatrix(layout.dim, indptr, indices, values)


def _normalised_block(
    sausages: list[Sausage], order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, codes, p(code | row))`` of one order's block (Eq. 3).

    A row whose counts sum to 0 keeps no entry in the block.
    """
    rows, codes, sums = expected_count_batch(sausages, order)
    bounds = np.searchsorted(rows, np.arange(len(sausages) + 1)).tolist()
    totals = np.array(
        [
            np.cumsum(sums[a:b])[-1] if b > a else 0.0
            for a, b in zip(bounds, bounds[1:])
        ]
    )
    positive = totals > 0.0
    values = sums * (1.0 / np.where(positive, totals, 1.0))[rows]
    if not positive[rows].all():
        keep = positive[rows]
        rows, codes, values = rows[keep], codes[keep], values[keep]
    return rows, codes, values


class TFLLRScaler:
    r"""The TFLLR kernel feature map (Eq. 5).

    :meth:`fit` estimates :math:`p(d_q\mid ℓ_{all})` as the average of the
    training supervectors' probability components within each order block;
    :meth:`transform` divides every component by
    :math:`\sqrt{\max(p_{all}, p_{min})}`, with the floor guarding unseen
    n-grams (which would otherwise get unbounded weight — the standard
    LIBLINEAR-era practice of clipping rare-term scaling).

    Storage is sparse: only the columns observed in training keep an
    explicit scale; every unseen column has :math:`p_{all} = 0`, which the
    floor maps to the constant :math:`1/\sqrt{p_{min}}`.  The fitted state
    is therefore ``O(nnz)`` instead of ``O(f^N)``, and :meth:`transform`
    never materialises a dense ``dim``-length vector.  The per-column
    sums accumulate entries in the same order as a dense ``np.add.at``
    over all columns (the oracle in ``tests/oracles/phi.py``), so the
    scales are bitwise identical.
    """

    def __init__(self, min_prob: float = 1e-5) -> None:
        check_positive("min_prob", min_prob)
        self.min_prob = float(min_prob)
        self.dim_: int | None = None
        self.scale_indices_: np.ndarray | None = None
        self.scale_values_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self.scale_indices_ is not None

    @property
    def default_scale(self) -> float:
        """Scale of every column unseen in training (floored at min_prob)."""
        return float(1.0 / np.sqrt(self.min_prob))

    def load_scale(
        self, dim: int, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Restore a fitted scaling from its sparse persisted form."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("scale indices/values must be matching 1-D arrays")
        if indices.size and (
            indices[0] < 0
            or indices[-1] >= dim
            or not np.all(np.diff(indices) > 0)
        ):
            raise ValueError(
                "scale indices must be strictly increasing and within dim"
            )
        self.dim_ = int(dim)
        self.scale_indices_ = indices
        self.scale_values_ = values

    def fit(self, train: SparseMatrix) -> "TFLLRScaler":
        """Estimate the per-component scaling from training supervectors."""
        if train.n_rows == 0:
            raise ValueError("cannot fit TFLLR scaling on an empty matrix")
        cols, inverse = np.unique(train.indices, return_inverse=True)
        sums = np.zeros(cols.size, dtype=np.float64)
        # Entry order matches a dense np.add.at over every column, so
        # each column's sum is bitwise equal to the dense oracle.
        np.add.at(sums, inverse, train.values)
        p_observed = sums / train.n_rows
        self.dim_ = train.dim
        self.scale_indices_ = cols
        self.scale_values_ = 1.0 / np.sqrt(
            np.maximum(p_observed, self.min_prob)
        )
        return self

    def transform(self, x: SparseMatrix) -> SparseMatrix:
        """Apply the fitted scaling to a batch of supervectors."""
        if not self.is_fitted:
            raise RuntimeError("TFLLRScaler is not fitted")
        if x.dim != self.dim_:
            raise ValueError("dimension mismatch with fitted scaling")
        if self.dim_ <= 1 << 22:
            # Dense per-column lookup: O(dim) to build, then one fancy
            # gather — same values as the searchsorted mapping below but
            # without the per-nnz binary searches.
            lut = np.full(self.dim_, self.default_scale, dtype=np.float64)
            lut[self.scale_indices_] = self.scale_values_
            diag_entries = lut[x.indices]
        elif self.scale_indices_.size == 0:
            diag_entries = np.full(
                x.indices.size, self.default_scale, dtype=np.float64
            )
        else:
            pos = np.searchsorted(self.scale_indices_, x.indices)
            pos = np.minimum(pos, self.scale_indices_.size - 1)
            hit = self.scale_indices_[pos] == x.indices
            diag_entries = np.where(
                hit, self.scale_values_[pos], self.default_scale
            )
        return SparseMatrix(
            x.dim, x.indptr, x.indices, x.values * diag_entries
        )

    def fit_transform(self, train: SparseMatrix) -> SparseMatrix:
        """Fit on ``train`` and return it scaled."""
        return self.fit(train).transform(train)
