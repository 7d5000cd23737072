"""Micro-batching, caching and telemetry of the scoring engine."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro.faults import FaultPlan
from repro.serve import ScoringEngine
from repro.serve.engine import STAGE_NAMES, EngineClosedError, QueueFullError
from tests.serve.test_overload import _linear_reference
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

    @staticmethod
    def _spy_decodes(monkeypatch) -> list[str]:
        """Record the utt_id of every utterance the engine decodes."""
        decoded: list[str] = []
        real = engine_module.decode_utterances

        def spy(frontend, seed, utterances):
            decoded.extend(u.utt_id for u in utterances)
            return real(frontend, seed, utterances)

        monkeypatch.setattr(engine_module, "decode_utterances", spy)
        return decoded

    @pytest.mark.parametrize("cache_entries", [0, 512])
    def test_repeats_in_one_batch_decode_once(
        self, serve_trained, dev_utterances, monkeypatch, cache_entries
    ):
        a, b = dev_utterances[:2]
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances([a, b])
        decoded = self._spy_decodes(monkeypatch)
        engine = ScoringEngine(
            serve_trained, cache_entries=cache_entries, workers=1
        )
        rows = engine.score_utterances([a, b, a, a])
        n_frontends = len(serve_trained.frontends)
        assert sorted(decoded) == sorted([a.utt_id, b.utt_id] * n_frontends)
        assert rows.tobytes() == reference[[0, 1, 0, 0]].tobytes()
        cache = engine.stats()["cache"]
        if cache_entries:
            # One counted lookup per request, repeats included.
            assert (cache["hits"], cache["misses"]) == (0, 4)

    def test_queued_repeats_share_one_decode(
        self, serve_trained, dev_utterances, monkeypatch
    ):
        utt = dev_utterances[0]
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances([utt])
        decoded = self._spy_decodes(monkeypatch)
        with ScoringEngine(
            serve_trained, batch_window=0.25, max_batch=64, workers=1
        ) as engine:
            futures = [engine.submit(utt) for _ in range(2)]
            rows = [f.result(timeout=60) for f in futures]
            stats = engine.stats()
        assert stats["batches"] == 1
        assert decoded == [utt.utt_id] * len(serve_trained.frontends)
        for row in rows:
            assert row.tobytes() == reference[0].tobytes()
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (0, 2)


class TestAdmission:
    """Score-cache hits are answered in ``submit``, misses are batched."""

    def test_hit_resolves_before_the_window(
        self, serve_trained, dev_utterances
    ):
        hit, miss = dev_utterances[:2]
        engine = ScoringEngine(serve_trained, batch_window=30.0, max_batch=64)
        warm = engine.score_utterances([hit])
        try:
            future = engine.submit(hit)
            assert future.done()
            assert future.result(timeout=0).tobytes() == warm[0].tobytes()
            pending = engine.submit(miss)
            with pytest.raises(FutureTimeoutError):
                pending.result(timeout=0.5)  # waits for the 30 s window
        finally:
            engine.close()
        assert pending.result(timeout=60).shape == (len(engine.languages),)

    def test_closed_engine_refuses_a_hit(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained)
        engine.score_utterances(dev_utterances[:1])
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(dev_utterances[0])

    def test_full_queue_still_answers_a_hit(
        self, serve_trained, dev_utterances
    ):
        engine = ScoringEngine(
            serve_trained, batch_window=30.0, max_batch=64, max_queue=1
        )
        warm = engine.score_utterances(dev_utterances[:1])
        try:
            queued = engine.submit(dev_utterances[1])
            with pytest.raises(QueueFullError):
                engine.submit(dev_utterances[2])
            row = engine.submit(dev_utterances[0]).result(timeout=0)
            assert row.tobytes() == warm[0].tobytes()
        finally:
            engine.close()
        assert queued.result(timeout=60).shape == (len(engine.languages),)

    def test_stats_count_admitted_hits_outside_batches(
        self, serve_trained, dev_utterances
    ):
        utts = dev_utterances[:2]
        with ScoringEngine(serve_trained) as engine:
            engine.score_utterances(utts)  # one batch of two misses
            for u in utts:
                engine.submit(u).result(timeout=0)
            stats = engine.stats()
        assert stats["metrics"]["serve.cache.admitted"]["value"] == 2
        assert stats["requests"] == 4
        assert stats["batches"] == 1
        assert stats["mean_batch_size"] == pytest.approx(2.0)
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == 4
        # Only the batch fuses: admission hits serve their cached rows.
        assert stats["stages"]["fusion"]["calls"] == 1

    def test_concurrent_admission_counts_each_request_once(
        self, serve_trained, dev_utterances
    ):
        """More submitters than cores, fast thread switching."""
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(dev_utterances)
        engine = ScoringEngine(serve_trained, batch_window=0.005, max_batch=4)
        engine.score_utterances(dev_utterances[:3])  # half warm
        errors: list[str] = []

        def submitter():
            futures = [engine.submit(u) for u in dev_utterances * 2]
            for i, future in enumerate(futures):
                row = future.result(timeout=120)
                expected = reference[i % len(dev_utterances)]
                if row.tobytes() != expected.tobytes():
                    errors.append(f"row {i} diverged")

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
            engine.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        total = 3 + 8 * 2 * len(dev_utterances)
        stats = engine.stats()
        metrics = stats["metrics"]
        assert stats["requests"] == total
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == total
        assert (
            metrics["serve.cache.admitted"]["value"]
            + metrics["serve.batched_requests"]["value"]
            == total
        )

    def test_cache_disabled_queues_every_request(
        self, serve_trained, dev_utterances
    ):
        with ScoringEngine(
            serve_trained, batch_window=0.0, cache_entries=0
        ) as engine:
            for _ in range(2):
                engine.submit(dev_utterances[0]).result(timeout=60)
            stats = engine.stats()
        assert stats["metrics"]["serve.cache.admitted"]["value"] == 0
        assert stats["batches"] == 2


class TestCachedRows:
    """The cache holds served rows: hits are copied, only misses fuse."""

    @staticmethod
    def _spy_fusion(monkeypatch, trained) -> list[int]:
        """Record the row count of every ``fusion.transform`` call."""
        calls: list[int] = []
        real = trained.fusion.transform

        def spy(score_matrices):
            calls.append(len(score_matrices[0]))
            return real(score_matrices)

        monkeypatch.setattr(trained.fusion, "transform", spy)
        return calls

    def test_admission_hit_does_not_fuse(
        self, serve_trained, dev_utterances, monkeypatch
    ):
        engine = ScoringEngine(serve_trained)
        served = engine.score_utterances(dev_utterances[:1])
        calls = self._spy_fusion(monkeypatch, serve_trained)
        try:
            row = engine.submit(dev_utterances[0]).result(timeout=0)
        finally:
            engine.close()
        assert calls == []
        assert row.tobytes() == served[0].tobytes()
        assert engine.stats()["stages"]["fusion"]["calls"] == 1

    def test_hit_rows_are_caller_owned(self, serve_trained, dev_utterances):
        engine = ScoringEngine(serve_trained)
        served = engine.score_utterances(dev_utterances[:1])
        try:
            first = engine.submit(dev_utterances[0]).result(timeout=0)
            first[:] = np.nan
            second = engine.submit(dev_utterances[0]).result(timeout=0)
            again = engine.score_utterances(dev_utterances[:1])
        finally:
            engine.close()
        assert second.tobytes() == served[0].tobytes()
        assert again.tobytes() == served.tobytes()

    def test_mixed_batch_fuses_only_its_misses(
        self, serve_trained, dev_utterances, monkeypatch
    ):
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(dev_utterances)
        engine = ScoringEngine(serve_trained)
        engine.score_utterances(dev_utterances[:2])  # two hits-to-be
        calls = self._spy_fusion(monkeypatch, serve_trained)
        # Hits, misses and a repeated miss in one batch.
        order = [0, 2, 1, 3, 2, 4]
        rows = engine.score_utterances([dev_utterances[i] for i in order])
        assert calls == [3]  # the three distinct misses, nothing else
        assert rows.tobytes() == reference[order].tobytes()

    def test_degraded_batch_serves_cached_hits_in_full(
        self, serve_trained, dev_utterances
    ):
        hit, *misses = dev_utterances[:3]
        dead_fe = serve_trained.frontends[0].name
        engine = ScoringEngine(serve_trained)
        warm = engine.score_utterances([hit])
        engine.faults = FaultPlan.parse(f"error:{dead_fe}")
        rows = engine.score_utterances([misses[0], hit, misses[1]])
        assert engine.degraded_frontends() == [dead_fe]
        assert rows[1].tobytes() == warm[0].tobytes()
        expected = _linear_reference(serve_trained, misses, {dead_fe})
        assert rows[[0, 2]].tobytes() == expected.tobytes()
        # Partial rows are never cached: only the warm hit is stored.
        assert engine.stats()["cache"]["entries"] == 1


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
