"""Reference detection log-odds for :class:`repro.backend.gaussian.GaussianBackend`.

The loop as :meth:`GaussianBackend.detection_scores` first implemented
it: one ``np.delete`` copy of the log-likelihood matrix per class.  The
backend now gathers each class's competitors with ``take`` over index
arrays built once per class count; it must match this loop byte for
byte, since served rows and the golden tables are pinned to its bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["detection_scores_reference"]


def detection_scores_reference(ll: np.ndarray) -> np.ndarray:
    """Detection log-odds of an ``(n, K)`` log-likelihood matrix."""
    n, k = ll.shape
    out = np.empty_like(ll)
    for c in range(k):
        others = np.delete(ll, c, axis=1)
        m = others.max(axis=1, keepdims=True)
        denom = m[:, 0] + np.log(np.exp(others - m).sum(axis=1) / (k - 1))
        out[:, c] = ll[:, c] - denom
    return out
