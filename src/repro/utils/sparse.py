r"""Lightweight sparse vectors and batched sparse matrices.

Phonotactic supervectors (paper Eq. 3) live in :math:`F = f_n^N`
dimensions — e.g. a trigram supervector over the 64-phone Mandarin
recognizer has :math:`64^3 = 262\,144` components — but an individual
utterance only realises a few hundred distinct n-grams.  The classifier
stack therefore works on a CSR-like batch representation,
:class:`SparseMatrix`, with just the operations the SVM and kernel code
need.  A dedicated minimal structure keeps the dependency surface of the
hot path explicit; ``scipy.sparse`` serves only the SVM trainer's Gram
matrix, built straight from the CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse

__all__ = ["SparseVector", "SparseMatrix"]


@dataclass(frozen=True)
class SparseVector:
    """An immutable sparse vector: sorted unique ``indices`` and ``values``.

    Attributes
    ----------
    dim:
        Dimensionality of the ambient space.
    indices:
        ``int64`` array of strictly increasing component indices.
    values:
        ``float64`` array of the corresponding component values.
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-D and same length")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dim):
            raise ValueError("index out of range for dim")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def from_dict(cls, dim: int, items: Mapping[int, float]) -> "SparseVector":
        """Build from a ``{index: value}`` mapping (order-insensitive)."""
        if not items:
            return cls(dim, np.empty(0, np.int64), np.empty(0, np.float64))
        idx = np.fromiter(items.keys(), dtype=np.int64, count=len(items))
        val = np.fromiter(items.values(), dtype=np.float64, count=len(items))
        order = np.argsort(idx)
        return cls(dim, idx[order], val[order])

    @property
    def nnz(self) -> int:
        """Number of stored (possibly zero-valued) components."""
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        """Return the dense ``float64`` vector of length ``dim``."""
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def dot(self, other: "SparseVector") -> float:
        """Sparse–sparse inner product."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        # Intersect the two sorted index sets.
        common, ia, ib = np.intersect1d(
            self.indices, other.indices, assume_unique=True, return_indices=True
        )
        if common.size == 0:
            return 0.0
        return float(self.values[ia] @ other.values[ib])

    def dot_dense(self, w: np.ndarray) -> float:
        """Inner product with a dense vector ``w`` of length ``dim``."""
        if w.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        if self.indices.size == 0:
            return 0.0
        return float(w[self.indices] @ self.values)

    def scale(self, factor: float) -> "SparseVector":
        """Return ``factor * self``."""
        return SparseVector(self.dim, self.indices, self.values * factor)

    def l2_norm(self) -> float:
        """Euclidean norm."""
        return float(np.sqrt(self.values @ self.values))

    def l1_norm(self) -> float:
        """Sum of absolute component values."""
        return float(np.abs(self.values).sum())

    def componentwise_scale(self, diag: np.ndarray) -> "SparseVector":
        """Return ``diag * self`` where ``diag`` is a dense per-component scale."""
        if diag.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        return SparseVector(
            self.dim, self.indices, self.values * diag[self.indices]
        )


class SparseMatrix:
    """CSR-style batch of :class:`SparseVector` rows sharing one ``dim``.

    Stores ``indptr``/``indices``/``values`` contiguously so that dense
    matrix products and per-row access are both cheap.  Rows are the
    utterance supervectors; columns are n-gram components.
    """

    __slots__ = ("dim", "indptr", "indices", "values")

    def __init__(
        self,
        dim: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.dim = int(dim)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr/indices length mismatch")
        if self.indices.size != self.values.size:
            raise ValueError("indices/values length mismatch")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.dim
        ):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, rows: Iterable[SparseVector], dim: int | None = None
    ) -> "SparseMatrix":
        """Stack sparse vectors into a matrix.

        ``dim`` may be supplied to build an empty (0-row) matrix or to
        assert a common dimensionality.
        """
        rows = list(rows)
        if dim is None:
            if not rows:
                raise ValueError("dim required for an empty matrix")
            dim = rows[0].dim
        for r in rows:
            if r.dim != dim:
                raise ValueError("inconsistent row dimensionality")
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, r in enumerate(rows):
            indptr[i + 1] = indptr[i] + r.nnz
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int64)
        values = np.empty(total, dtype=np.float64)
        for i, r in enumerate(rows):
            indices[indptr[i] : indptr[i + 1]] = r.indices
            values[indptr[i] : indptr[i + 1]] = r.values
        return cls(dim, indptr, indices, values)

    # ------------------------------------------------------------------
    # shape & access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> SparseVector:
        """Return row ``i`` as a :class:`SparseVector` (views the buffers)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector(self.dim, self.indices[lo:hi], self.values[lo:hi])

    def iter_rows(self) -> Iterable[SparseVector]:
        """Yield every row as a :class:`SparseVector`."""
        for i in range(self.n_rows):
            yield self.row(i)

    def select_rows(self, which: np.ndarray) -> "SparseMatrix":
        """Return a new matrix with the rows in ``which`` (index array)."""
        which = np.asarray(which, dtype=np.int64)
        return SparseMatrix.from_rows([self.row(int(i)) for i in which], self.dim)

    def vstack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Row-wise concatenation with ``other``."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        indptr = np.concatenate(
            [self.indptr, self.indptr[-1] + other.indptr[1:]]
        )
        return SparseMatrix(
            self.dim,
            indptr,
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.values, other.values]),
        )

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matvec_dense(self, w: np.ndarray) -> np.ndarray:
        """Return ``X @ w`` for dense ``w`` of length ``dim``."""
        if w.shape[0] != self.dim:
            raise ValueError("dimension mismatch")
        return self._row_sums(self.values * w[self.indices])

    def _row_of_entry(self) -> np.ndarray:
        """Row id of every stored entry (repeat-encoded from indptr)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )

    def _row_sums(self, per_entry: np.ndarray) -> np.ndarray:
        """Sum ``per_entry`` within each row, in entry order from 0.0."""
        return np.bincount(
            self._row_of_entry(), weights=per_entry, minlength=self.n_rows
        )

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each row."""
        return np.sqrt(self._row_sums(self.values**2))

    def to_dense(self) -> np.ndarray:
        """Densify (test/debug aid; avoid on full supervector dims)."""
        out = np.zeros((self.n_rows, self.dim), dtype=np.float64)
        out[self._row_of_entry(), self.indices] = self.values
        return out

    def gram(self) -> np.ndarray:
        """Return the ``(n_rows, n_rows)`` Gram matrix ``X Xᵀ``.

        One sparse product over the CSR arrays (nothing ``n_rows × dim`` is
        densified); each entry sums over shared columns in column order, so
        the result is exactly symmetric and independent of the BLAS.
        """
        x = scipy.sparse.csr_matrix(
            (self.values, self.indices, self.indptr),
            shape=(self.n_rows, self.dim),
        )
        return (x @ x.T).toarray()
