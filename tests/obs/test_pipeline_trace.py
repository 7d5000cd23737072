"""End-to-end: a traced pipeline run writes a complete runlog.

This is the smoke test behind the PR's acceptance criterion: running
baseline + DBA + fusion under ``start_trace`` must produce a manifest
whose stage roll-up covers frontend decoding, supervector generation,
SVM training, the SVM product and fusion — the paper's Table 5 stage
set — plus the DBA pass itself.
"""

from __future__ import annotations

import pytest

from repro.core import PhonotacticSystem, SystemConfig
from repro.obs import read_runlog, render_runlog, trace, write_runlog
from repro.obs.metrics import default_registry

#: Every stage the acceptance criterion requires in the manifest.
REQUIRED_STAGES = (
    "decoding",
    "sv_generation",
    "svm_training",
    "sv_product",
    "fusion",
    "baseline",
    "dba",
    "dba_select",
)


@pytest.fixture(scope="module")
def traced_runlog(tiny_bundle, tiny_frontends, tmp_path_factory):
    """Run baseline + DBA + fused metrics under a trace; return the runlog."""
    trace.stop_trace()  # defend against leakage from other modules
    system = PhonotacticSystem(
        tiny_bundle,
        tiny_frontends,
        SystemConfig(orders=(1, 2), svm_max_epochs=15, mmi_iterations=10),
    )
    trace.start_trace("pipeline-smoke")
    trace.annotate_root(config_sha256="test-fingerprint")
    try:
        baseline = system.baseline()
        boosted = system.dba(2, "M2", baseline)
        system.fused_metrics([boosted], 10.0)
    finally:
        root = trace.stop_trace()
    directory = tmp_path_factory.mktemp("runlog") / "pipeline-smoke"
    path = write_runlog(
        directory, root, metrics=default_registry().snapshot()
    )
    return read_runlog(path)


class TestTracedPipeline:
    def test_manifest_covers_every_stage(self, traced_runlog):
        stages = traced_runlog.stage_names()
        for required in REQUIRED_STAGES:
            assert required in stages, f"stage {required!r} missing"

    def test_stage_rollup_has_time_and_audio(self, traced_runlog):
        stages = traced_runlog.manifest["stages"]
        assert stages["decoding"]["wall_s"] > 0.0
        assert stages["decoding"]["calls"] >= len(
            ("FE_A", "FE_B")
        ), "one decode pass per frontend at minimum"
        assert stages["decoding"].get("audio_s", 0.0) > 0.0

    def test_dba_span_carries_selection_counters(self, traced_runlog):
        dba_spans = [r for r in traced_runlog.spans if r["name"] == "dba"]
        assert len(dba_spans) == 1
        counters = dba_spans[0]["counters"]
        assert counters["candidates"] > 0
        assert "pool" in counters
        select = [r for r in traced_runlog.spans if r["name"] == "dba_select"]
        assert select and "margin_mean" in select[0]["attrs"]

    def test_manifest_carries_provenance(self, traced_runlog):
        manifest = traced_runlog.manifest
        assert manifest["attrs"]["config_sha256"] == "test-fingerprint"
        assert manifest["python"]
        assert manifest["wall_s"] > 0.0

    def test_metrics_snapshot_captured(self, traced_runlog):
        metrics = traced_runlog.manifest["metrics"]
        assert metrics["ngram.supervector.extracted"]["value"] > 0
        assert metrics["parallel.pmap.calls"]["value"] > 0

    def test_one_gram_per_svm_training(self, traced_runlog):
        """Each one-vs-rest fit builds its Gram once, under its
        ``svm_training`` span, so perfbench charges it to SVM training."""
        spans = traced_runlog.spans
        trainings = {r["id"] for r in spans if r["name"] == "svm_training"}
        grams = [r for r in spans if r["name"] == "svm.gram"]
        assert trainings
        assert sorted(r["parent"] for r in grams) == sorted(trainings)

    def test_render_covers_tree(self, traced_runlog):
        text = render_runlog(traced_runlog)
        for name in ("baseline", "dba", "decoding", "svm_training"):
            assert name in text


class TestDisabledIsSilent:
    def test_untraced_run_emits_zero_records(
        self, tiny_bundle, tiny_frontends
    ):
        """With tracing off the pipeline produces no spans at all."""
        assert not trace.enabled()
        system = PhonotacticSystem(
            tiny_bundle,
            tiny_frontends,
            SystemConfig(orders=(1, 2), svm_max_epochs=5, mmi_iterations=5),
        )
        system.raw_matrix(tiny_frontends[0], "dev")
        assert trace.stop_trace() is None
        assert trace.span("x") is trace.NULL_SPAN
