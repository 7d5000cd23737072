"""Campaign fault tolerance: retries, quarantine and frontend degradation.

Exercises the offline escalation ladder end to end on the tiny corpus:
transient faults absorbed by retries reproduce the clean run exactly;
persistently failing utterances are quarantined (and their products
never persist under clean content keys); a persistently dead frontend
is dropped with the Eq. 20 fusion weights renormalized over the
survivors — the offline analogue of serve's circuit breakers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.fusion import subsystem_weights
from repro.core.campaign import run_campaign
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.pipeline import SVM_SOLVER, PhonotacticSystem
from repro.exec.store import ArtifactStore
from repro.faults import AllFrontendsFailedError, RetryPolicy
from repro.faults.injection import ENV_VAR, reset_ambient_plan
from repro.obs import trace
from repro.obs.metrics import default_registry


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Fresh metrics and no inherited fault plan around every test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_ambient_plan()
    default_registry().reset()
    yield
    reset_ambient_plan()
    default_registry().reset()


@pytest.fixture(scope="module")
def trio_frontends(tiny_bundle):
    """Three frontends, so dropping one leaves a real battery."""
    from repro.frontend import FrontendSpec, build_frontends

    specs = (
        FrontendSpec("FE_A", "dnn", 24, tau=0.5, base_error=0.10),
        FrontendSpec("FE_B", "gmm", 30, tau=0.55, base_error=0.12),
        FrontendSpec("FE_C", "dnn", 20, tau=0.6, base_error=0.15),
    )
    return build_frontends(tiny_bundle, specs=specs, top_k=3)


def _config() -> SystemConfig:
    return SystemConfig(orders=(1, 2), svm_max_epochs=10, mmi_iterations=5)


def _make(bundle, frontends, **kwargs) -> PhonotacticSystem:
    return PhonotacticSystem(bundle, list(frontends), _config(), **kwargs)


class _FlakyFrontend:
    """Delegating frontend whose decode fails for chosen utterances."""

    def __init__(self, inner, bad_ids):
        self._inner = inner
        self._bad = set(bad_ids)
        self.name = inner.name
        self.phone_set = inner.phone_set

    def decode(self, utterance, rng):
        if utterance.utt_id in self._bad:
            raise ValueError(f"undecodable utterance {utterance.utt_id}")
        return self._inner.decode(utterance, rng)


class TestRetry:
    def test_transient_faults_reproduce_clean_run(
        self, tiny_bundle, tiny_frontends, monkeypatch
    ):
        clean = _make(tiny_bundle, tiny_frontends).baseline()
        monkeypatch.setenv(ENV_VAR, "error:phi:2,error:svm_train:1")
        reset_ambient_plan()
        system = _make(
            tiny_bundle,
            tiny_frontends,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
        )
        faulted = system.baseline()
        assert faulted.names == clean.names
        for a, b in zip(clean.subsystems, faulted.subsystems):
            np.testing.assert_array_equal(a.dev, b.dev)
            for d in clean.durations:
                np.testing.assert_array_equal(a.test[d], b.test[d])
        assert (
            default_registry().counter("exec.retry.attempts").value >= 3
        )


class TestQuarantine:
    def test_bad_utterances_skipped_and_products_not_persisted(
        self, tiny_bundle, tiny_frontends, tmp_path
    ):
        bad_ids = [
            u.utt_id for u in tiny_bundle.train.utterances[:2]
        ]
        flaky = _FlakyFrontend(tiny_frontends[0], bad_ids)
        store = ArtifactStore(tmp_path / "store")
        system = _make(
            tiny_bundle,
            [flaky, tiny_frontends[1]],
            store=store,
            on_error="quarantine",
        )
        baseline = system.baseline()
        assert baseline.names == [flaky.name, tiny_frontends[1].name]
        assert system.quarantined[(flaky.name, "train")] == bad_ids
        # The flaky frontend's products are tainted (built from partial
        # decodes) and must not answer later runs under clean content
        # keys; the healthy frontend's products persist normally.
        phi_key = system._stage_key(
            "phi", frontend=flaky.name, corpus="train"
        )
        assert not store.has(phi_key)
        assert not store.has(
            system._stage_key(
                "svm_train",
                frontend=flaky.name,
                model="baseline",
                seed_offset=0,
                svm_solver=SVM_SOLVER,
            )
        )
        assert store.has(
            system._stage_key(
                "svm_train",
                frontend=tiny_frontends[1].name,
                model="baseline",
                seed_offset=1,
                svm_solver=SVM_SOLVER,
            )
        )

    def test_too_many_failures_abort(self, tiny_bundle, tiny_frontends):
        bad_ids = [u.utt_id for u in tiny_bundle.train.utterances[:8]]
        flaky = _FlakyFrontend(tiny_frontends[0], bad_ids)
        system = _make(
            tiny_bundle,
            [flaky, tiny_frontends[1]],
            on_error="quarantine",
            max_quarantine_fraction=0.1,
        )
        from repro.utils.parallel import QuarantineExceededError

        with pytest.raises(QuarantineExceededError):
            system.baseline()


class TestDegrade:
    def test_dead_frontend_dropped_and_fusion_renormalized(
        self, tiny_bundle, trio_frontends, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "error:phi/FE_C:100000")
        reset_ambient_plan()
        system = _make(
            tiny_bundle,
            trio_frontends,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_error="degrade",
        )
        trace.start_trace("campaign")
        try:
            baseline = system.baseline()
        finally:
            root = trace.stop_trace()
        assert set(system.degraded) == {"FE_C"}
        assert [fe.name for fe in system.frontends] == ["FE_A", "FE_B"]
        assert baseline.names == ["FE_A", "FE_B"]
        # The drop lands on the trace root, hence in runlog manifests.
        assert root is not None
        assert root.attrs["degraded_frontends"] == ["FE_C"]
        assert (
            default_registry().counter("exec.degraded.frontends").value
            == 1
        )
        # Baseline has no fit counts: Eq. 20 weights renormalize to
        # uniform over exactly the survivors.
        fused = system.fused_scores([baseline], 10.0)
        expected = 0.5 * (
            baseline.subsystems[0].test[10.0]
            + baseline.subsystems[1].test[10.0]
        )
        np.testing.assert_allclose(fused, expected)

    def test_degraded_dba_fusion_matches_eq20(
        self, tiny_bundle, trio_frontends, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "error:phi/FE_C:100000")
        reset_ambient_plan()
        system = _make(
            tiny_bundle,
            trio_frontends,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_error="degrade",
        )
        baseline = system.baseline()
        dba = system.dba(2, "M1", baseline)
        assert dba.names == ["FE_A", "FE_B"]
        assert dba.fit_counts.shape == (2,)
        weights = subsystem_weights(dba.fit_counts)
        expected = sum(
            w * sub.test[3.0]
            for w, sub in zip(weights, dba.subsystems)
        )
        np.testing.assert_allclose(
            system.fused_scores([dba], 3.0), expected
        )

    def test_full_campaign_finishes_degraded(
        self, tiny_bundle, trio_frontends, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "error:phi/FE_C:100000")
        reset_ambient_plan()
        system = _make(
            tiny_bundle,
            trio_frontends,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_error="degrade",
        )
        result = run_campaign(
            ExperimentConfig(vote_thresholds=(2,)),
            system=system,
            variants=("M1",),
            fusion_threshold=2,
        )
        assert result.frontends == ["FE_A", "FE_B"]
        assert set(result.degraded) == {"FE_C"}
        assert "InjectedFault" in result.degraded["FE_C"]
        text = result.to_text()
        assert "FE_A" in text and "FE_C" not in text
        result.table4_text()  # renders over the survivors only

    def test_losing_every_frontend_raises(
        self, tiny_bundle, tiny_frontends, monkeypatch
    ):
        monkeypatch.setenv(ENV_VAR, "error:phi:100000")
        reset_ambient_plan()
        system = _make(
            tiny_bundle, tiny_frontends, on_error="degrade"
        )
        with pytest.raises(AllFrontendsFailedError):
            system.baseline()

    def test_invalid_on_error_rejected(self, tiny_bundle, tiny_frontends):
        with pytest.raises(ValueError, match="on_error"):
            _make(tiny_bundle, tiny_frontends, on_error="explode")


class TestDegradedStore:
    def test_full_run_misses_a_degraded_battery_dba(
        self, tiny_bundle, trio_frontends, monkeypatch, tmp_path
    ):
        """DBA keys name the vote's battery: the survivors' DBA products
        a degraded run stored never answer for the full battery's."""
        store = tmp_path / "store"
        monkeypatch.setenv(ENV_VAR, "error:phi/FE_C:100000")
        reset_ambient_plan()
        faulted = _make(
            tiny_bundle,
            trio_frontends,
            store=ArtifactStore(store),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_error="degrade",
        )
        degraded = faulted.dba(1, "M1")
        durations = tiny_bundle.config.durations
        for d in durations:
            faulted.frontend_metrics(degraded, d)
        monkeypatch.delenv(ENV_VAR)
        reset_ambient_plan()

        full_system = _make(
            tiny_bundle, trio_frontends, store=ArtifactStore(store)
        )
        full = full_system.dba(1, "M1")
        clean_system = _make(tiny_bundle, trio_frontends)
        clean = clean_system.dba(1, "M1")
        assert len(degraded.pseudo) != len(clean.pseudo)
        assert degraded.names[0] == full.names[0] == "FE_A"
        assert any(
            degraded.subsystems[0].test[d].tobytes()
            != clean.subsystems[0].test[d].tobytes()
            for d in durations
        )
        for d in durations:
            assert (
                full.subsystems[0].test[d].tobytes()
                == clean.subsystems[0].test[d].tobytes()
            )
            assert full_system.frontend_metrics(
                full, d
            ) == clean_system.frontend_metrics(clean, d)
