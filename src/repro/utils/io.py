"""Persistence for experiment artifacts.

Long campaigns decode and extract supervectors once (the expensive φ(x)
work of Eqs. 16–19); these helpers let a run checkpoint that work to disk
and resume later, and let score matrices / results be exchanged between
processes:

- :func:`save_sparse` / :func:`load_sparse` — :class:`SparseMatrix` ↔ NPZ;
- :func:`save_scores` / :func:`load_scores` — named dense score matrices;
- :class:`MatrixCache` — a directory-backed memo for (frontend, corpus)
  supervector matrices, drop-in for
  :meth:`repro.core.pipeline.PhonotacticSystem.raw_matrix` workflows.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from repro.utils.lru import LruTracker
from repro.utils.sparse import SparseMatrix

__all__ = [
    "save_npz",
    "save_sparse",
    "load_sparse",
    "save_scores",
    "load_scores",
    "MatrixCache",
]


def save_npz(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays to a standard ``.npz`` (readable by ``np.load``).

    Identical on-disk format to :func:`numpy.savez_compressed` except
    for the deflate level: numpy hardwires zlib level 6, while level 1
    compresses float payloads ~4-5x faster for a few percent of size —
    the right trade for checkpoints that are written once and read back
    via ``np.load``.
    """
    path = Path(path)
    if path.suffix != ".npz":
        # Match numpy's savez behaviour so callers can pass bare names.
        path = path.with_name(path.name + ".npz")
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as zf:
        for name, arr in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(
                    f, np.asarray(arr), allow_pickle=False
                )


def save_sparse(path: str | Path, matrix: SparseMatrix) -> None:
    """Write a :class:`SparseMatrix` to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_npz(
        path,
        {
            "dim": np.int64(matrix.dim),
            "indptr": matrix.indptr,
            "indices": matrix.indices,
            "values": matrix.values,
        },
    )


def load_sparse(path: str | Path) -> SparseMatrix:
    """Read a :class:`SparseMatrix` written by :func:`save_sparse`."""
    with np.load(Path(path)) as data:
        return SparseMatrix(
            int(data["dim"]),
            data["indptr"],
            data["indices"],
            data["values"],
        )


def save_scores(path: str | Path, scores: dict[str, np.ndarray]) -> None:
    """Write named dense score matrices to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for name, matrix in scores.items():
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"score matrix {name!r} must be 2-D")
        arrays[name] = arr
    save_npz(path, arrays)


def load_scores(path: str | Path) -> dict[str, np.ndarray]:
    """Read named score matrices written by :func:`save_scores`."""
    with np.load(Path(path)) as data:
        return {name: data[name].copy() for name in data.files}


class MatrixCache:
    """Directory-backed, size-bounded cache of supervector matrices.

    Keys are ``(frontend_name, corpus_tag)``; values are sparse matrices.
    :meth:`get_or_compute` is the primary entry: it loads from disk when
    present, otherwise calls the supplied thunk and persists the result —
    so re-running an experiment skips the decode/extract stages entirely.

    Parameters
    ----------
    max_entries:
        Upper bound on the number of cached matrices.  When a
        :meth:`put` pushes the cache over the bound, the least recently
        *used* entries (reads count as uses) are deleted from disk.
        ``None`` (the default) keeps the historical unbounded behaviour.
        Entries already on disk when the cache is opened are adopted
        oldest-modified-first, so long-lived cache directories stay
        bounded too.
    """

    def __init__(
        self, directory: str | Path, *, max_entries: int | None = None
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lru = LruTracker(max_entries)
        existing = sorted(
            self.directory.glob("*.npz"), key=lambda p: p.stat().st_mtime
        )
        self._lru.seed(p.name for p in existing)
        self._evict_excess()

    @property
    def max_entries(self) -> int | None:
        """The configured size bound (``None`` = unbounded)."""
        return self._lru.max_entries

    def __len__(self) -> int:
        return len(self._lru)

    def _path(self, frontend_name: str, tag: str) -> Path:
        safe_tag = tag.replace("@", "_at_").replace("/", "_")
        return self.directory / f"{frontend_name}__{safe_tag}.npz"

    def _evict_excess(self) -> None:
        for name in self._lru.pop_excess():
            (self.directory / str(name)).unlink(missing_ok=True)

    def has(self, frontend_name: str, tag: str) -> bool:
        """Whether a cached matrix exists for the key."""
        return self._path(frontend_name, tag).exists()

    def put(
        self, frontend_name: str, tag: str, matrix: SparseMatrix
    ) -> None:
        """Persist a matrix under the key, evicting LRU entries if full."""
        path = self._path(frontend_name, tag)
        save_sparse(path, matrix)
        self._lru.touch(path.name)
        self._evict_excess()

    def get(self, frontend_name: str, tag: str) -> SparseMatrix:
        """Load the matrix for the key (raises if absent)."""
        path = self._path(frontend_name, tag)
        if not path.exists():
            self._lru.discard(path.name)
            raise KeyError(f"no cached matrix for {(frontend_name, tag)!r}")
        self._lru.touch(path.name)
        return load_sparse(path)

    def get_or_compute(
        self, frontend_name: str, tag: str, compute
    ) -> SparseMatrix:
        """Load if cached, else compute, persist and return."""
        if self.has(frontend_name, tag):
            return self.get(frontend_name, tag)
        matrix = compute()
        self.put(frontend_name, tag, matrix)
        return matrix
