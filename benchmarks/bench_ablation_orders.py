"""Ablation — n-gram order: bigram (default) vs trigram supervectors.

The paper's systems stack orders up to N = 3 at 100 fps.  At this
reproduction's reduced frame rate, utterances carry ~5x fewer phones, and
trigram supervectors become so sparse that one-vs-rest test scores hug
the negative bias: the baseline stays strong (larger feature space), but
the Eq. 13 vote criterion almost never fires and DBA starves.  This bench
quantifies both effects — the reason `SystemConfig.orders` defaults to
(1, 2).
"""

from __future__ import annotations

import numpy as np

from repro.core import select_pseudo_labels, vote_count_matrix
from repro.core.pipeline import calibrate_scores, evaluate_scores
from repro.frontend.registry import decode_utterances
from repro.svm.vsm import VSM

THRESHOLD = 3


def _run_orders(lab, orders, duration):
    """Baseline EER (one frontend) + pooled vote-pool size for `orders`."""
    system = lab.system
    y_train = system.labels_for("train")
    pooled_scores = []
    frontend_eer = None
    for q, frontend in enumerate(system.frontends):
        vsm = VSM(
            len(frontend.phone_set),
            len(system.bundle.registry),
            orders=orders,
            max_epochs=system.system.svm_max_epochs,
            seed=system.system.seed + 300 + q,
        )
        # Extract at the requested orders (bypasses the lab's order cache).
        def sausages(tag):
            return decode_utterances(
                frontend, system.system.seed, system.corpus_for(tag).utterances
            )

        x_train = vsm.extract(sausages("train"))
        vsm.fit_matrix(x_train, y_train)
        pool = []
        for d in lab.durations:
            pool.append(vsm.score_matrix(vsm.extract(sausages(f"test@{d}"))))
        pooled_scores.append(np.vstack(pool))
        if q == 0:
            dev = vsm.score_matrix(vsm.extract(sausages("dev")))
            test = pool[list(lab.durations).index(duration)]
            calibrated = calibrate_scores(
                [dev], system.labels_for("dev"), [test], system=system.system
            )
            frontend_eer, _ = evaluate_scores(
                calibrated, system.labels_for(f"test@{duration}")
            )
    counts = vote_count_matrix(pooled_scores)
    pseudo = select_pseudo_labels(counts, THRESHOLD)
    return frontend_eer, len(pseudo), pseudo.error_rate(lab.pooled_labels())


def test_ablation_ngram_orders(lab, report, benchmark):
    duration = max(lab.durations)

    def run():
        return {
            "(1,2)": _run_orders(lab, (1, 2), duration),
            "(1,2,3)": _run_orders(lab, (1, 2, 3), duration),
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    total = lab.pooled_labels().size
    lines = [
        f"{'orders':<10}{'HU EER %':>10}{'pool@V=3':>10}{'of test':>9}"
        f"{'pool err':>10}"
    ]
    for name, (eer, pool, err) in rows.items():
        err_s = f"{100 * err:>9.2f}%" if np.isfinite(err) else "      n/a"
        lines.append(
            f"{name:<10}{eer:>10.2f}{pool:>10d}{100 * pool / total:>8.1f}%"
            f"{err_s}"
        )
    report("ablation_orders", "\n".join(lines))

    # The documented tradeoff: trigram must starve the vote pool relative
    # to bigram at this scale.
    assert rows["(1,2)"][1] > 2 * rows["(1,2,3)"][1]
