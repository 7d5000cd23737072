"""Reference C_avg: the K² loop of the LRE 2009 definition.

:mod:`repro.metrics.cavg` first computed C_avg this way, re-masking the
decisions once per (detector, language) pair.  It now counts accepted
trials once into a K×K matrix and must match this loop bit for bit,
since every C_avg cell of Tables 2–4 is computed by it.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.eer import split_trials

__all__ = ["cavg_reference", "min_cavg_reference"]


def cavg_reference(
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float = 0.0,
    p_target: float = 0.5,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> float:
    """C_avg of an ``(m, K)`` score matrix at ``threshold``."""
    m, k = scores.shape
    decisions = scores >= threshold
    total = 0.0
    for tgt in range(k):
        is_tgt = labels == tgt
        n_tgt = int(is_tgt.sum())
        p_miss = (
            float((~decisions[is_tgt, tgt]).sum()) / n_tgt if n_tgt else 0.0
        )
        fa_sum = 0.0
        for other in range(k):
            if other == tgt:
                continue
            is_other = labels == other
            n_other = int(is_other.sum())
            p_fa = (
                float(decisions[is_other, tgt].sum()) / n_other
                if n_other
                else 0.0
            )
            fa_sum += p_fa
        total += c_miss * p_target * p_miss + (
            c_fa * (1.0 - p_target) / (k - 1)
        ) * fa_sum
    return total / k


def min_cavg_reference(
    scores: np.ndarray,
    labels: np.ndarray,
    p_target: float = 0.5,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
    n_grid: int = 200,
) -> float:
    """Minimum of :func:`cavg_reference` over the pooled-range grid and 0."""
    tar, non = split_trials(scores, labels)
    lo = float(min(tar.min(), non.min()))
    hi = float(max(tar.max(), non.max()))
    grid = np.append(np.linspace(lo, hi, max(2, n_grid)), 0.0)
    best = np.inf
    for threshold in grid:
        best = min(
            best,
            cavg_reference(
                scores, labels, float(threshold), p_target, c_miss, c_fa
            ),
        )
    return float(best)
