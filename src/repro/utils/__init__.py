"""Shared infrastructure: RNG streams, sparse containers, parallel map.

Also the Eq. 16–19 :class:`CostLedger`.  Stage timing is
:mod:`repro.obs.trace` spans; stage products persist in
:class:`repro.exec.store.ArtifactStore`.
"""

from repro.utils.io import load_scores, save_scores
from repro.utils.lru import LruTracker
from repro.utils.parallel import chunked, effective_workers, pmap
from repro.utils.rng import child_rng, ensure_rng, spawn_many
from repro.utils.sparse import SparseMatrix, SparseVector
from repro.utils.timing import CostLedger
from repro.utils.validation import (
    check_in,
    check_matrix,
    check_non_negative,
    check_positive,
    check_prob_vector,
    check_probability,
)

__all__ = [
    "LruTracker",
    "load_scores",
    "save_scores",
    "child_rng",
    "ensure_rng",
    "spawn_many",
    "SparseMatrix",
    "SparseVector",
    "CostLedger",
    "pmap",
    "chunked",
    "effective_workers",
    "check_in",
    "check_matrix",
    "check_non_negative",
    "check_positive",
    "check_prob_vector",
    "check_probability",
]
