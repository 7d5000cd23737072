"""Micro-batching, caching and telemetry of the scoring engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ScoringEngine
from repro.serve.engine import STAGE_NAMES
from tests.tracing import traced_stages


@pytest.fixture()
def dev_utterances(serve_system):
    """A handful of dev utterances to score."""
    return list(serve_system.bundle.dev.utterances)[:6]


class TestScoring:
    def test_matches_offline_pipeline(self, serve_trained, serve_system,
                                      serve_baseline):
        utterances = list(serve_system.bundle.test[3.0].utterances)
        with ScoringEngine(serve_trained) as engine:
            scores = engine.score_utterances(utterances)
        reference = serve_system.fused_scores([serve_baseline], 3.0)
        assert np.array_equal(scores, reference)

    def test_empty_batch(self, serve_trained):
        engine = ScoringEngine(serve_trained)
        scores = engine.score_utterances([])
        assert scores.shape == (0, len(engine.languages))

    def test_chunking_matches_single_batch(self, serve_trained,
                                           dev_utterances):
        small = ScoringEngine(serve_trained, max_batch=2, cache_entries=0)
        big = ScoringEngine(serve_trained, max_batch=64, cache_entries=0)
        assert np.array_equal(
            small.score_utterances(dev_utterances),
            big.score_utterances(dev_utterances),
        )
        assert small.stats()["batches"] == 3
        assert big.stats()["batches"] == 1

    def test_predict_languages(self, serve_trained):
        engine = ScoringEngine(serve_trained)
        scores = np.eye(len(engine.languages))
        assert engine.predict_languages(scores) == list(engine.languages)


class TestCacheBehaviour:
    def test_warm_pass_hits_cache_and_skips_decode(self, serve_trained,
                                                   dev_utterances):
        engine = ScoringEngine(serve_trained)
        cold = engine.score_utterances(dev_utterances)
        decode_calls_cold = engine.stats()["stages"]["decoding"]["calls"]
        warm = engine.score_utterances(dev_utterances)
        stats = engine.stats()
        assert np.array_equal(cold, warm)
        assert stats["cache"]["misses"] == len(dev_utterances)
        assert stats["cache"]["hits"] == len(dev_utterances)
        # Warm pass must not have decoded anything.
        assert stats["stages"]["decoding"]["calls"] == decode_calls_cold

    def test_partial_hits_mix_cleanly(self, serve_trained, dev_utterances):
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(dev_utterances)
        engine = ScoringEngine(serve_trained)
        engine.score_utterances(dev_utterances[:3])
        mixed = engine.score_utterances(dev_utterances)
        assert np.array_equal(mixed, reference)
        assert engine.stats()["cache"]["hits"] == 3

    def test_cache_disabled(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained, cache_entries=0)
        engine.score_utterances(dev_utterances[:2])
        engine.score_utterances(dev_utterances[:2])
        stats = engine.stats()["cache"]
        assert stats["hits"] == 0
        assert stats["entries"] == 0

    def test_bounded_cache_evicts(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained, cache_entries=2)
        engine.score_utterances(dev_utterances[:4])
        assert engine.stats()["cache"]["entries"] == 2


class TestMicroBatching:
    def test_window_coalesces_submissions(self, serve_trained,
                                          dev_utterances):
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(dev_utterances[:3])
        with ScoringEngine(
            serve_trained, batch_window=0.25, max_batch=64, cache_entries=0
        ) as engine:
            futures = [engine.submit(u) for u in dev_utterances[:3]]
            rows = [f.result(timeout=60) for f in futures]
            stats = engine.stats()
        assert stats["requests"] == 3
        assert stats["batches"] == 1  # all three fit in one window
        assert stats["mean_batch_size"] == pytest.approx(3.0)
        assert np.array_equal(np.vstack(rows), reference)

    def test_max_batch_flushes_before_window(self, serve_trained,
                                             dev_utterances):
        # With a 30 s window, only the max_batch trigger can flush the
        # first two requests this quickly.
        with ScoringEngine(
            serve_trained, batch_window=30.0, max_batch=2, cache_entries=0
        ) as engine:
            futures = [engine.submit(u) for u in dev_utterances[:2]]
            rows = [f.result(timeout=60) for f in futures]
            assert engine.stats()["batches"] >= 1
        assert all(row.shape == (len(engine.languages),) for row in rows)

    def test_close_drains_pending(self, serve_trained, dev_utterances):
        engine = ScoringEngine(
            serve_trained, batch_window=30.0, max_batch=64, cache_entries=0
        ).start()
        future = engine.submit(dev_utterances[0])
        engine.close()  # must flush the queued request, not drop it
        assert future.result(timeout=60).shape == (len(engine.languages),)

    def test_submit_after_close_raises(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained).start()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(dev_utterances[0])

    def test_invalid_knobs_rejected(self, serve_trained):
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, batch_window=-0.1)
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, max_batch=0)


class TestStats:
    def test_stats_shape(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained)
        engine.score_utterances(dev_utterances[:2])
        stats = engine.stats()
        assert stats["requests"] == 2
        assert set(stats["stages"]) == set(STAGE_NAMES)
        for entry in stats["stages"].values():
            assert entry["calls"] >= 1
            assert entry["p95_ms"] >= 0.0
        assert stats["latency_ms"]["p50"] >= 0.0
        assert stats["languages"] == list(engine.languages)

    def test_stage_stats_read_the_stage_histograms(
        self, serve_trained, dev_utterances
    ):
        engine = ScoringEngine(serve_trained, cache_entries=0)
        engine.score_utterances(dev_utterances[:2])
        engine.score_utterances(dev_utterances[2:4])
        stats = engine.stats()
        for name in STAGE_NAMES:
            hist = stats["metrics"][f"serve.stage.{name}.seconds"]
            assert stats["stages"][name]["calls"] == hist["count"]
            assert stats["stages"][name]["elapsed_s"] == hist["total"]
        n_frontends = len(serve_trained.frontends)
        assert stats["stages"]["decoding"]["calls"] == 2 * n_frontends
        assert stats["stages"]["fusion"]["calls"] == 2

    def test_stages_emit_spans_with_audio(self, serve_trained, dev_utterances):
        utts = dev_utterances[:2]
        engine = ScoringEngine(serve_trained, cache_entries=0)
        with traced_stages() as rollup:
            engine.score_utterances(utts)
        stages = rollup()
        n_frontends = len(serve_trained.frontends)
        audio = sum(u.duration for u in utts)
        for name in ("decoding", "sv_generation", "sv_product"):
            assert stages[name]["calls"] == n_frontends
            assert stages[name]["audio_s"] == pytest.approx(
                n_frontends * audio
            )
        assert stages["fusion"]["calls"] == 1
        assert "audio_s" not in stages["fusion"]

    def test_empty_stats_serialise_to_strict_json(self, serve_trained):
        import json

        stats = ScoringEngine(serve_trained).stats()
        decoded = json.loads(json.dumps(stats))
        # No samples yet: percentiles must be JSON null, never NaN.
        assert decoded["latency_ms"]["p50"] is None
        assert decoded["stages"]["decoding"]["p95_ms"] is None
