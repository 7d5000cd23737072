"""Score-matrix exchange files.

:func:`save_scores` / :func:`load_scores` write and read named dense
score matrices as a standard ``.npz``, so results can be exchanged
between processes (``repro score -o``).  Stage products of a campaign
persist in :class:`repro.exec.store.ArtifactStore`, not here.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

__all__ = ["save_npz", "save_scores", "load_scores"]


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
