"""Per-step reference sampler for :meth:`LanguageSpec.sample_phones`.

One ``np.searchsorted`` per phone against the current state's
cumulative transition row: the Markov-chain walk as the corpus
generator first implemented it.  Given the same generator state,
:meth:`~repro.corpus.language.LanguageSpec.sample_phones` must return
the same phones.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.language import LanguageSpec
from repro.utils.rng import ensure_rng

__all__ = ["sample_phones_reference"]


def sample_phones_reference(
    spec: LanguageSpec, n: int, rng: np.random.Generator | int | None
) -> np.ndarray:
    """Sample ``n`` universal phone ids, one search per step."""
    rng = ensure_rng(rng)
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    local = np.empty(n, dtype=np.int64)
    cum_init = np.cumsum(spec.initial)
    cum_trans = np.cumsum(spec.transition, axis=1)
    u = rng.random(n)
    local[0] = np.searchsorted(cum_init, u[0], side="right")
    for t in range(1, n):
        local[t] = np.searchsorted(
            cum_trans[local[t - 1]], u[t], side="right"
        )
    np.clip(local, 0, spec.n_phones - 1, out=local)
    return spec.inventory[local]
