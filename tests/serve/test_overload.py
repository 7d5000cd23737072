"""Overload and partial-failure behaviour of the scoring engine.

The headline regression here: a client cancelling a queued future used
to make the batcher's ``Future.set_result`` raise ``InvalidStateError``,
killing the (unsupervised) batcher thread and hanging every subsequent
``submit`` forever.  These tests pin the supervised behaviour — cancels
are absorbed, crashes restart the loop, queues are bounded, deadlines
expire, and circuit-broken frontends degrade fusion instead of failing
the service.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.backend.fusion import subsystem_weights
from repro.core.pipeline import BaselineResult
from repro.serve import ScoringEngine, export_trained
from repro.serve.engine import (
    AllFrontendsDownError,
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    _Request,
)
from repro.faults import FaultPlan, InjectedFault
from repro.utils.rng import child_rng


@pytest.fixture()
def dev_utterances(serve_system):
    """A handful of dev utterances to score."""
    return list(serve_system.bundle.dev.utterances)[:6]


def _wait_queue_empty(engine, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with engine._cv:
            if not engine._queue:
                return
        time.sleep(0.005)
    raise AssertionError("queue never drained")


def _linear_reference(trained, utterances, dead: set[str]) -> np.ndarray:
    """Eq. 20 linear fusion over surviving subsystems, from first principles."""
    seed = trained.config.system.seed
    extractors = {}
    for fe_name, vsm in trained.subsystems:
        extractors.setdefault(fe_name, vsm)
    raw = {}
    for frontend in trained.frontends:
        if frontend.name in dead or frontend.name not in extractors:
            continue
        sausages = [
            frontend.decode(
                u, child_rng(seed, f"decode/{frontend.name}/{u.utt_id}")
            )
            for u in utterances
        ]
        raw[frontend.name] = extractors[frontend.name].extract(sausages)
    live = [
        q
        for q, (fe_name, _) in enumerate(trained.subsystems)
        if fe_name not in dead
    ]
    # Renormalised over the survivors; uniform if none carries weight.
    weights = subsystem_weights(
        np.asarray(trained.fusion.weights_, dtype=np.float64)[live]
    )
    fused = np.zeros((len(utterances), trained.n_classes))
    for w, q in zip(weights, live):
        fe_name, vsm = trained.subsystems[q]
        fused += w * vsm.score_matrix(raw[fe_name])
    return fused


class TestBatcherSupervision:
    def test_cancelled_queued_request_does_not_wedge_engine(
        self, serve_trained, dev_utterances
    ):
        """The headline bug: cancel a queued future, engine keeps serving."""
        plan = FaultPlan.parse("stall:batcher:0.2")
        with ScoringEngine(
            serve_trained, batch_window=0.0, cache_entries=0, faults=plan
        ) as engine:
            doomed = engine.submit(dev_utterances[0])
            cancelled = doomed.cancel()
            # Pre-fix, the cancelled future killed the batcher thread and
            # this second request hung forever.
            follow_up = engine.submit(dev_utterances[1])
            row = follow_up.result(timeout=60)
            assert row.shape == (len(engine.languages),)
            if cancelled:
                assert engine.metrics.counter("serve.cancelled").value >= 1
            assert engine.metrics.counter("serve.batcher.restarts").value == 0

    def test_admit_drops_cancelled_and_expired(
        self, serve_trained, dev_utterances
    ):
        engine = ScoringEngine(serve_trained, cache_entries=0)
        good = _Request(dev_utterances[0])
        gone = _Request(dev_utterances[1])
        assert gone.future.cancel()
        late = _Request(dev_utterances[2], deadline=0.0)
        assert engine._admit([good, gone, late]) == [good]
        with pytest.raises(DeadlineExceededError):
            late.future.result(timeout=1)
        assert engine.metrics.counter("serve.cancelled").value == 1
        assert engine.metrics.counter("serve.expired").value == 1
        # The survivor is RUNNING: a late client cancel can no longer
        # race the batcher's set_result.
        assert not good.future.cancel()

    def test_batcher_survives_injected_crashes(
        self, serve_trained, dev_utterances
    ):
        plan = FaultPlan.parse("error:batcher:2")
        with ScoringEngine(
            serve_trained, batch_window=0.0, cache_entries=0, faults=plan
        ) as engine:
            for i in range(2):
                future = engine.submit(dev_utterances[i])
                with pytest.raises(InjectedFault):
                    future.result(timeout=60)
            # Third batch: fault budget spent, thread must still be alive.
            future = engine.submit(dev_utterances[2])
            assert future.result(timeout=60).shape == (
                len(engine.languages),
            )
            assert engine.stats()["batcher_restarts"] == 2


class TestAdmissionControl:
    def test_queue_bound_rejects_excess(self, serve_trained, dev_utterances):
        plan = FaultPlan.parse("stall:batcher:1.0")
        engine = ScoringEngine(
            serve_trained,
            batch_window=0.0,
            max_batch=1,
            max_queue=2,
            cache_entries=0,
            faults=plan,
        ).start()
        inflight = engine.submit(dev_utterances[0])
        _wait_queue_empty(engine)  # batcher picked it up and is stalling
        queued = [engine.submit(u) for u in dev_utterances[1:3]]
        with pytest.raises(QueueFullError):
            engine.submit(dev_utterances[3])
        assert engine.metrics.counter("serve.rejected").value == 1
        plan.clear()  # lift the stall so close() drains quickly
        engine.close()
        for future in [inflight, *queued]:
            assert future.result(timeout=60).shape == (
                len(engine.languages),
            )
        assert engine.stats()["rejected"] == 1

    def test_invalid_hardening_knobs_rejected(self, serve_trained):
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, max_queue=0)
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, deadline=0.0)
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, breaker_threshold=0)
        with pytest.raises(ValueError):
            ScoringEngine(serve_trained, breaker_cooldown=-1.0)


class TestDeadlines:
    def test_queued_request_past_deadline_fails_fast(
        self, serve_trained, dev_utterances
    ):
        plan = FaultPlan.parse("stall:batcher:0.4")
        with ScoringEngine(
            serve_trained, batch_window=0.0, cache_entries=0, faults=plan
        ) as engine:
            slowpoke = engine.submit(dev_utterances[0])
            urgent = engine.submit(dev_utterances[1], deadline=0.05)
            with pytest.raises(DeadlineExceededError):
                urgent.result(timeout=60)
            # Undeadlined requests are still served.
            assert slowpoke.result(timeout=60).shape == (
                len(engine.languages),
            )
            assert engine.stats()["expired"] == 1

    def test_engine_default_deadline_applies(
        self, serve_trained, dev_utterances
    ):
        plan = FaultPlan.parse("stall:batcher:0.4")
        with ScoringEngine(
            serve_trained,
            batch_window=0.0,
            cache_entries=0,
            deadline=0.05,
            faults=plan,
        ) as engine:
            future = engine.submit(dev_utterances[0])
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=60)


class TestCircuitBreaker:
    def test_degrades_then_recovers_bitwise(
        self, serve_trained, dev_utterances
    ):
        utts = dev_utterances[:3]
        dead_fe = serve_trained.frontends[0].name
        healthy = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(utts)
        expected_degraded = _linear_reference(serve_trained, utts, {dead_fe})
        # The fault errors exactly twice; the breaker (threshold 2) must
        # then keep the frontend out on its own until the cooldown.
        plan = FaultPlan.parse(f"error:{dead_fe}:2")
        engine = ScoringEngine(
            serve_trained,
            breaker_threshold=2,
            breaker_cooldown=2.0,
            faults=plan,
        )

        first = engine.score_utterances(utts)  # failure 1: degraded batch
        assert engine.degraded
        assert engine.degraded_frontends() == [dead_fe]
        assert engine.breaker_states()[dead_fe] == "closed"
        assert np.array_equal(first, expected_degraded)
        # Partial stacks must not be cached.
        assert engine.stats()["cache"]["entries"] == 0

        second = engine.score_utterances(utts)  # failure 2: breaker trips
        assert np.array_equal(second, expected_degraded)
        assert engine.breaker_states()[dead_fe] == "open"
        assert engine.metrics.counter("serve.breaker.trips").value == 1
        trip_time = time.monotonic()

        # Within the cooldown the frontend is skipped without being
        # called at all (the fault budget is spent — a call would now
        # succeed, so healthy output here would mean the breaker leaked).
        third = engine.score_utterances(utts)
        if time.monotonic() - trip_time < 2.0:
            assert np.array_equal(third, expected_degraded)
            assert engine.breaker_states()[dead_fe] == "open"

        time.sleep(2.1)
        recovered = engine.score_utterances(utts)  # half-open probe passes
        assert np.array_equal(recovered, healthy)
        assert not engine.degraded
        assert engine.breaker_states()[dead_fe] == "closed"
        assert engine.degraded_frontends() == []
        assert engine.metrics.gauge("serve.breaker.open").value == 0

    def test_all_frontends_down_raises(self, serve_trained, dev_utterances):
        spec = ",".join(f"error:{fe.name}" for fe in serve_trained.frontends)
        engine = ScoringEngine(
            serve_trained,
            cache_entries=0,
            breaker_threshold=1,
            breaker_cooldown=60.0,
            faults=FaultPlan.parse(spec),
        )
        with pytest.raises(AllFrontendsDownError):
            engine.score_utterances(dev_utterances[:2])
        # Breakers are now all open: the next pass fails without calling
        # any frontend.
        with pytest.raises(AllFrontendsDownError):
            engine.score_utterances(dev_utterances[:2])
        future = engine.submit(dev_utterances[0])
        with pytest.raises(AllFrontendsDownError):
            future.result(timeout=60)
        engine.close()

    def test_cached_hits_survive_total_frontend_outage(
        self, serve_trained, dev_utterances
    ):
        utts = dev_utterances[:3]
        engine = ScoringEngine(serve_trained, breaker_threshold=1)
        warm = engine.score_utterances(utts)
        engine.faults = FaultPlan.parse(
            ",".join(f"error:{fe.name}" for fe in serve_trained.frontends)
        )
        # Fully cached batches never touch a frontend: exact scores even
        # with every recognizer down, and no degradation flag.
        again = engine.score_utterances(utts)
        assert np.array_equal(again, warm)
        assert not engine.degraded


@pytest.fixture(scope="module")
def serve_dba(serve_system, serve_baseline):
    """One DBA-M2 pass over the shared baseline."""
    return serve_system.dba(2, "M2", serve_baseline)


class TestDegradedFusionWeights:
    def test_zero_weight_survivors_fall_back_to_uniform(
        self, serve_system, serve_baseline, serve_dba, serve_config
    ):
        """A baseline+DBA export whose live frontends had ``M_n = 0``.

        Only the first frontend's DBA subsystem met the vote criterion,
        so every other subsystem's fitted fusion weight is 0.  With that
        frontend down, renormalising the survivors' weights divided 0 by
        0 and served NaN rows; they must fall back to uniform weights.
        """
        counts = np.zeros_like(serve_dba.fit_counts)
        counts[0] = 15
        lopsided = dataclasses.replace(serve_dba, fit_counts=counts)
        trained = export_trained(
            serve_system, [serve_baseline, lopsided], serve_config
        )
        dead_fe = trained.frontends[0].name
        utts = list(serve_system.bundle.test[3.0].utterances)[:4]
        live = [
            w
            for (fe_name, _), w in zip(
                trained.subsystems, trained.fusion.weights_
            )
            if fe_name != dead_fe
        ]
        assert live and not any(live)  # every survivor weighs 0
        engine = ScoringEngine(
            trained, cache_entries=0, faults=FaultPlan.parse(f"error:{dead_fe}")
        )
        rows = engine.score_utterances(utts)
        assert engine.degraded_frontends() == [dead_fe]
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows, _linear_reference(trained, utts, {dead_fe}))

    def test_engine_rule_against_pipeline_rule(
        self, serve_system, serve_baseline, serve_dba, serve_config
    ):
        """Whether both tiers' Eq. 20 fallbacks give the same degraded rows.

        Same fitted baseline + DBA subsystems, same dead frontend, one
        function (:func:`~repro.backend.fusion.linear_fusion`) with
        different inputs.  The engine passes the survivors' exported
        ``fusion.weights_`` (fit counts normalised over *all*
        subsystems); a degraded campaign's ``fused_scores`` passes the
        survivors' raw fit counts.  Both renormalise to the same weights
        up to rounding, so the rows agree to 1e-12 but not bit for bit:
        ``(c/T)/Σ(c/T)`` and ``c/Σc`` round differently.  Equal rows
        would need the fit counts in the serve export, a schema change.
        """
        results = [serve_baseline, serve_dba]
        trained = export_trained(serve_system, results, serve_config)
        dead_fe = trained.frontends[0].name
        keep = [n != dead_fe for n in serve_baseline.names]
        survivors = [
            BaselineResult(
                [s for s, k in zip(serve_baseline.subsystems, keep) if k],
                serve_baseline.durations,
            ),
            dataclasses.replace(
                serve_dba,
                subsystems=[
                    s for s, k in zip(serve_dba.subsystems, keep) if k
                ],
                fit_counts=serve_dba.fit_counts[np.array(keep)],
            ),
        ]
        degraded = copy.copy(serve_system)
        degraded.degraded = {dead_fe: "dropped for the test"}
        offline = degraded.fused_scores(survivors, 3.0)
        engine = ScoringEngine(
            trained, cache_entries=0, faults=FaultPlan.parse(f"error:{dead_fe}")
        )
        served = engine.score_utterances(
            list(serve_system.bundle.test[3.0].utterances)
        )
        assert engine.degraded_frontends() == [dead_fe]
        np.testing.assert_allclose(served, offline, rtol=0, atol=1e-12)
        # The recorded finding (max |Δ| 3.3e-16 here).
        assert not np.array_equal(served, offline)


class TestCloseSemantics:
    def test_close_fails_orphaned_requests(
        self, serve_trained, dev_utterances
    ):
        # Simulate a request stranded behind a dead batcher: queued, but
        # no thread will ever drain it.  close() must fail it, not drop it.
        engine = ScoringEngine(serve_trained)
        orphan = _Request(dev_utterances[0])
        engine._queue.append(orphan)
        engine.close()
        with pytest.raises(EngineClosedError):
            orphan.future.result(timeout=1)

    def test_scoring_after_close_raises_consistently(
        self, serve_trained, dev_utterances
    ):
        engine = ScoringEngine(serve_trained)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.submit(dev_utterances[0])
        with pytest.raises(EngineClosedError):
            engine.score_utterances(dev_utterances[:1])
        with pytest.raises(EngineClosedError):
            engine.start()


class TestConcurrentTraffic:
    def test_sync_and_queued_paths_share_cache_without_races(
        self, serve_trained, dev_utterances
    ):
        """Thread hammer over one engine: exact counters, exact scores.

        The sync path (``score_utterances``) and the batcher both run
        ``_score_batch`` against one ``ScoreCache`` and one metrics
        registry (stage histograms included).  Audit result: every
        shared structure is individually locked (cache, LRU,
        instruments, breaker state), and concurrent misses of the same digest at worst
        recompute the same deterministic value — so the invariants below
        must hold exactly, not approximately.
        """
        utts = dev_utterances
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(utts)
        by_id = {u.utt_id: reference[i] for i, u in enumerate(utts)}
        engine = ScoringEngine(
            serve_trained, batch_window=0.005, max_batch=4
        ).start()
        errors: list[str] = []

        def sync_worker():
            for _ in range(2):
                rows = engine.score_utterances(utts)
                if not np.array_equal(rows, reference):
                    errors.append("sync scores diverged")

        def submit_worker():
            futures = [engine.submit(u) for u in utts]
            for u, future in zip(utts, futures):
                row = future.result(timeout=120)
                if not np.array_equal(row, by_id[u.utt_id]):
                    errors.append(f"queued score diverged for {u.utt_id}")

        threads = [threading.Thread(target=sync_worker) for _ in range(3)]
        threads += [threading.Thread(target=submit_worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        total = 3 * 2 * len(utts) + 3 * len(utts)
        stats = engine.stats()
        # No lost updates, no double counting: one serve.requests tick
        # and exactly one cache lookup per scored utterance.
        assert stats["requests"] == total
        assert stats["cache"]["hits"] + stats["cache"]["misses"] == total
        assert stats["metrics"]["serve.requests"]["value"] == total
        engine.close()
