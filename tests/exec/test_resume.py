"""Resume semantics: a warm store skips φ work and reproduces tables.

These tests are the acceptance proof for the exec layer: a campaign
re-run against a warm store performs **zero** decode/sv_generation stage
executions (shown by obs metrics and the Table 5 stage spans) and
regenerates every table bitwise identically.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.campaign import run_campaign
from repro.core.config import ExperimentConfig
from repro.exec.store import ArtifactStore
from repro.obs.metrics import default_registry
from tests.tracing import traced_stages


@pytest.fixture()
def tiny_experiment(tiny_config) -> ExperimentConfig:
    return replace(
        ExperimentConfig(corpus=tiny_config), vote_thresholds=(2, 1)
    )


def _campaign(system, config):
    return run_campaign(
        config,
        system=system,
        variants=("M1", "M2"),
        fusion_threshold=1,
    )


class TestWarmCampaign:
    def test_warm_run_skips_phi_and_reproduces_tables(
        self, tmp_path, make_system, tiny_experiment
    ):
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")

        cold_system = make_system(store=store)
        with traced_stages() as cold_stages:
            cold = _campaign(cold_system, tiny_experiment)
        assert registry.counter("exec.stage.phi.executed").value > 0
        assert registry.counter("parallel.pmap.calls").value > 0
        assert cold_stages()["decoding"]["calls"] > 0
        assert cold_stages()["sv_generation"]["calls"] > 0
        assert len(store) > 0

        registry.reset()
        warm_system = make_system(store=ArtifactStore(store.directory))
        with traced_stages() as warm_stages:
            warm = _campaign(warm_system, tiny_experiment)

        # Zero decode / supervector work on the warm run:
        assert registry.counter("exec.stage.phi.executed").value == 0
        assert registry.counter("parallel.pmap.calls").value == 0
        assert "decoding" not in warm_stages()
        assert "sv_generation" not in warm_stages()
        # … because every stage product came from the store:
        assert registry.counter("exec.store.hits").value > 0
        assert registry.counter("exec.stage.score.cached").value > 0
        assert registry.counter("exec.stage.vote.cached").value > 0
        assert registry.counter("exec.stage.fuse.cached").value > 0
        # … and the fitted models, which no table reads, stayed on disk:
        assert registry.counter("exec.stage.svm_train.cached").value == 0
        assert registry.counter("exec.stage.dba_train.cached").value == 0
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert registry.counter("exec.stage.dba_train.executed").value == 0

        # Tables are bitwise identical (exact float equality, not approx).
        assert warm.baseline_cells == cold.baseline_cells
        assert warm.sweep_cells == cold.sweep_cells
        assert warm.dba_cells == cold.dba_cells
        assert warm.baseline_fused == cold.baseline_fused
        assert warm.dba_fused == cold.dba_fused
        assert warm.table1 == cold.table1
        assert warm.to_text() == cold.to_text()

    def test_threshold_change_reexecutes_only_dba_stages(
        self, tmp_path, make_system
    ):
        """Changing only V re-runs vote/dba_train/score/fuse — nothing φ."""
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")

        cold = make_system(store=store)
        baseline = cold.baseline()
        cold.dba(1, "M2", baseline)

        registry.reset()
        warm = make_system(store=ArtifactStore(store.directory))
        with traced_stages() as warm_stages:
            warm_baseline = warm.baseline()  # fully cached
            warm.dba(2, "M2", warm_baseline)  # new operating point

        assert registry.counter("exec.stage.phi.executed").value == 0
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert "decoding" not in warm_stages()
        assert "sv_generation" not in warm_stages()
        # The DBA-and-later stages did run for the new threshold:
        assert registry.counter("exec.stage.vote.executed").value == 1
        assert registry.counter("exec.stage.dba_train.executed").value == len(
            warm.frontends
        )
        assert registry.counter("exec.stage.score.executed").value > 0

    def test_partial_store_resumes_midway(self, tmp_path, make_system):
        """A store holding only the baseline still spares the φ stages."""
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")
        make_system(store=store).baseline()  # simulate a killed campaign

        registry.reset()
        resumed = make_system(store=ArtifactStore(store.directory))
        with traced_stages() as resumed_stages:
            baseline = resumed.baseline()
            result = resumed.dba(1, "M2", baseline)
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert registry.counter("exec.stage.dba_train.executed").value == len(
            resumed.frontends
        )
        assert "decoding" not in resumed_stages()
        assert result.pseudo is not None and len(result.pseudo) >= 0

    def test_store_roundtrip_scores_identical(self, tmp_path, make_system):
        """Stored score matrices load bitwise equal to the computed ones."""
        import numpy as np

        store = ArtifactStore(tmp_path / "store")
        cold = make_system(store=store).baseline()
        warm = make_system(store=ArtifactStore(store.directory)).baseline()
        for a, b in zip(cold.subsystems, warm.subsystems):
            np.testing.assert_array_equal(a.dev, b.dev)
            for duration in a.test:
                np.testing.assert_array_equal(
                    a.test[duration], b.test[duration]
                )
            # and the reloaded VSM scores bitwise like the original
            np.testing.assert_array_equal(
                a.vsm.state_dict()["ovr.weights"],
                b.vsm.state_dict()["ovr.weights"],
            )
