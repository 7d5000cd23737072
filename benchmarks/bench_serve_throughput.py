"""Serving throughput — micro-batching and score-cache economics.

The online service (:mod:`repro.serve`) claims two speed mechanisms on
top of the offline pipeline: matrix-level micro-batching of the SVM
product and an LRU cache of the calibrated row served per utterance.
This bench measures both over an exported baseline system:

- single-utterance p95 latency through the synchronous scoring path
  (the floor an interactive caller sees on a cold cache);
- batched throughput with a cold cache vs a warm cache.  A warm hit
  skips decode + φ(x) + SVM product (Table 5's dominant stages) and
  fusion, so the warm pass must be at least 5x faster and add no
  ``decoding`` or ``fusion`` stage call — asserted below, together with
  nonzero cache-hit accounting in the engine's ``stats()``.

Latency percentiles are reported **per path**: a blended p95 over both
passes is dominated by the single cold batch and says nothing about
either regime, so the cold-path and warm-path distributions are sliced
out of the engine's latency reservoir separately.  The cold-path
figures are the honest single-worker baseline the cluster scaling bench
(``bench_serve_scaling.py``) compares against.

Results land in ``benchmarks/results/serve_throughput.txt``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import ScoringEngine, export_trained

#: The engine's per-request latency histogram (seconds).
LATENCY_METRIC = "serve.request_latency_s"


def _percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p95) in milliseconds over one path's latency samples."""
    array = np.asarray(samples, dtype=np.float64) * 1e3
    return float(np.percentile(array, 50)), float(np.percentile(array, 95))

#: Cap on the utterance batch so the bench stays minutes-level at
#: bench scale (decoding dominates; see Table 5).
MAX_BATCH_UTTERANCES = 48


@pytest.fixture(scope="module")
def trained(lab):
    """The lab's baseline system in exported (score-ready) form."""
    return export_trained(lab.system, [lab.baseline()], lab.config)


@pytest.fixture(scope="module")
def batch(lab):
    """A fixed utterance batch from the longest-duration test corpus."""
    duration = max(lab.durations)
    corpus = lab.system.corpus_for(f"test@{duration}")
    return list(corpus.utterances)[:MAX_BATCH_UTTERANCES]


def test_serve_single_utterance_latency(trained, batch, benchmark):
    """p95 latency of one-at-a-time scoring on a cold cache."""
    engine = ScoringEngine(trained, cache_entries=0)
    queue = list(batch)

    def score_one():
        engine.score_utterances([queue.pop()])

    benchmark.pedantic(
        score_one, rounds=min(10, len(batch)), iterations=1
    )
    p95 = engine.stats()["latency_ms"]["p95"]
    benchmark.extra_info["p95_ms"] = p95
    assert p95 is not None and p95 > 0.0


def test_serve_batched_throughput_cold_vs_warm(
    trained, batch, report, benchmark
):
    """Cold vs warm batched throughput; warm must be >= 5x faster."""
    engine = ScoringEngine(trained, max_batch=32, cache_entries=None)

    def cold_then_warm():
        t0 = time.perf_counter()
        cold_scores = engine.score_utterances(batch)
        t1 = time.perf_counter()
        cold_n = len(
            engine.metrics.snapshot(include_samples=True)[LATENCY_METRIC][
                "samples"
            ]
        )
        cold_stages = engine.stats()["stages"]
        warm_scores = engine.score_utterances(batch)
        t2 = time.perf_counter()
        assert (cold_scores == warm_scores).all()
        return t1 - t0, t2 - t1, cold_n, cold_stages

    cold_s, warm_s, cold_n, cold_stages = benchmark.pedantic(
        cold_then_warm, rounds=1, iterations=1
    )
    stats = engine.stats()
    n = len(batch)
    speedup = cold_s / warm_s
    # Slice the latency reservoir per path: observations [0, cold_n)
    # landed during the cold pass, the rest during the warm pass.  (Two
    # passes of <= 48 utterances never overflow the 512-slot
    # reservoir, so the slice is exact, not sampled.)
    samples = engine.metrics.snapshot(include_samples=True)[LATENCY_METRIC][
        "samples"
    ]
    cold_p50, cold_p95 = _percentiles(samples[:cold_n])
    warm_p50, warm_p95 = _percentiles(samples[cold_n:])
    lines = [
        "Serving throughput (exported baseline, "
        f"{len(trained.subsystems)} subsystems, {n} utterances)",
        "",
        f"{'pass':<12}{'wall s':>10}{'utt/s':>10}{'p50 ms':>10}{'p95 ms':>10}",
        f"{'cold':<12}{cold_s:>10.3f}{n / cold_s:>10.1f}"
        f"{cold_p50:>10.2f}{cold_p95:>10.2f}",
        f"{'warm':<12}{warm_s:>10.3f}{n / warm_s:>10.1f}"
        f"{warm_p50:>10.2f}{warm_p95:>10.2f}",
        "",
        f"warm/cold speedup: {speedup:.1f}x",
        f"cache hits {stats['cache']['hits']}  "
        f"misses {stats['cache']['misses']}  "
        f"hit rate {stats['cache']['hit_rate']:.2f}",
    ]
    report("serve_throughput", "\n".join(lines))
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cold_p95_ms"] = cold_p95
    benchmark.extra_info["warm_p95_ms"] = warm_p95
    # The split is meaningful only if the paths actually separate.
    assert warm_p95 <= cold_p95
    # The acceptance bar: a warm cache skips Table 5's dominant stages.
    assert speedup >= 5.0
    assert stats["cache"]["hits"] == n
    assert stats["cache"]["misses"] == n
    # Every warm row comes from the cache: nothing decoded, nothing fused.
    for stage in ("decoding", "fusion"):
        assert stats["stages"][stage]["calls"] == cold_stages[stage]["calls"]
