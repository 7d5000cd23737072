r"""NIST LRE 2009 average detection cost (C_avg).

Following the LRE 2009 evaluation plan (Martin & Greenberg 2010), the cost
of a closed-set system is averaged over target languages:

.. math::

    C_{avg} = \frac1K \sum_{k}\Big[ C_{miss} P_{tar} P_{miss}(k)
        + \sum_{j \ne k} \frac{C_{fa}(1 - P_{tar})}{K-1} P_{fa}(k, j) \Big]

with :math:`C_{miss} = C_{fa} = 1` and :math:`P_{tar} = 0.5`.
``P_miss(k)`` is the fraction of language-k utterances whose k-detector
score falls below the decision threshold; ``P_fa(k, j)`` the fraction of
language-j utterances accepted by the k-detector.  With well-calibrated
scores the natural threshold is 0; :func:`min_cavg` additionally reports
the threshold-optimised value (the calibration-free lower bound).
"""

from __future__ import annotations

import numpy as np

from repro.metrics.eer import split_trials
from repro.utils.validation import check_matrix

__all__ = ["cavg", "min_cavg"]


def _accepted_counts(
    decisions: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integer trial counts behind every ``P_miss`` and ``P_fa`` term.

    Returns the ``(K, K)`` matrix whose ``[j, t]`` cell counts the
    language-``j`` utterances the ``t``-detector accepts, and the ``(K,)``
    utterance count of each language.  Labels outside ``[0, K)`` belong
    to no language and count nowhere.
    """
    known = (labels >= 0) & (labels < k)
    rows = labels[known]
    cells = rows[:, None] * k + np.arange(k)
    accepted = np.bincount(
        cells[decisions[known]], minlength=k * k
    ).reshape(k, k)
    return accepted, np.bincount(rows, minlength=k)


def _cavg_at_threshold(
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float,
    p_target: float,
    c_miss: float,
    c_fa: float,
) -> float:
    """C_avg from one count matrix, in the definition's summation order.

    Each rate is an exact integer count over its class size, and the
    false-alarm rates of a detector are summed over the other languages
    in ascending order, then the per-detector costs in ascending order,
    so the value is the same float as the K² loop of the definition.
    """
    k = scores.shape[1]
    accepted, sizes = _accepted_counts(scores >= threshold, labels, k)
    # A language with no utterances has all-zero counts, so dividing by
    # 1 gives it the definition's rates of 0.
    denom = np.maximum(sizes, 1).astype(np.float64)
    p_miss = (sizes - np.diag(accepted)) / denom
    # p_fa[j, t]: the t-detector's false-alarm rate on language j; the
    # diagonal holds the hits, which no false-alarm sum includes.
    p_fa = accepted / denom[:, None]
    np.fill_diagonal(p_fa, 0.0)
    fa_sum = np.zeros(k)
    for row in p_fa:
        fa_sum += row
    costs = c_miss * p_target * p_miss + (
        c_fa * (1.0 - p_target) / (k - 1)
    ) * fa_sum
    total = 0.0
    for cost in costs.tolist():
        total += cost
    return total / k


def cavg(
    scores: np.ndarray,
    labels: np.ndarray,
    *,
    threshold: float = 0.0,
    p_target: float = 0.5,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> float:
    """C_avg of a ``(m, K)`` score matrix at a fixed decision threshold."""
    scores = check_matrix("scores", scores)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape[1] < 2:
        raise ValueError("C_avg needs at least 2 languages")
    if labels.shape != (scores.shape[0],):
        raise ValueError("labels must align with score rows")
    return _cavg_at_threshold(scores, labels, threshold, p_target, c_miss, c_fa)


def min_cavg(
    scores: np.ndarray,
    labels: np.ndarray,
    *,
    p_target: float = 0.5,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
    n_grid: int = 200,
) -> float:
    """Threshold-optimised C_avg (a calibration-independent summary).

    The threshold grid spans the pooled score range; the reported value is
    the minimum cost over the grid (plus the fixed-0 point).
    """
    scores = check_matrix("scores", scores)
    labels = np.asarray(labels, dtype=np.int64)
    tar, non = split_trials(scores, labels)
    lo = float(min(tar.min(), non.min()))
    hi = float(max(tar.max(), non.max()))
    grid = np.linspace(lo, hi, max(2, n_grid))
    grid = np.append(grid, 0.0)
    best = np.inf
    for threshold in grid:
        best = min(
            best,
            _cavg_at_threshold(
                scores, labels, float(threshold), p_target, c_miss, c_fa
            ),
        )
    return float(best)
