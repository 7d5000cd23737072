"""Artifact round-trip fidelity and load-time safety checks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backend.fusion import LdaMmiFusion
from repro.serve import (
    SCHEMA_VERSION,
    ArtifactError,
    ScoringEngine,
    TrainedSystem,
    config_fingerprint,
    export_trained,
    load_system,
    save_system,
)
from repro.serve.artifacts import _config_from_dict
from repro.svm.vsm import VSM

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestRoundTripFidelity:
    def test_loaded_test_scores_bitwise_identical(
        self, artifact_dir, serve_system, serve_baseline
    ):
        # The acceptance bar: export → load → score reproduces the
        # in-memory pipeline's fused test scores exactly.
        loaded = load_system(artifact_dir)
        utterances = list(serve_system.bundle.test[3.0].utterances)
        with ScoringEngine(loaded) as engine:
            scores = engine.score_utterances(utterances)
        reference = serve_system.fused_scores([serve_baseline], 3.0)
        assert np.array_equal(scores, reference)

    def test_loaded_dev_scores_bitwise_identical(
        self, artifact_dir, serve_system, serve_baseline
    ):
        loaded = load_system(artifact_dir)
        utterances = list(serve_system.bundle.dev.utterances)
        with ScoringEngine(loaded) as engine:
            scores = engine.score_utterances(utterances)
        reference = loaded.fusion.transform(
            [sub.dev for sub in serve_baseline.subsystems]
        )
        assert np.array_equal(scores, reference)

    def test_fresh_process_scores_identical(
        self, artifact_dir, serve_system, serve_baseline, tmp_path
    ):
        # Reload in a genuinely fresh interpreter via the CLI and compare
        # the saved score matrix bit for bit.
        out = tmp_path / "scores.npz"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "score",
                str(artifact_dir),
                "--tag",
                "test@3.0",
                "-o",
                str(out),
            ],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        from repro.utils.io import load_scores

        scores = load_scores(out)["scores"]
        reference = serve_system.fused_scores([serve_baseline], 3.0)
        assert np.array_equal(scores, reference)

    def test_loaded_metadata_and_languages(self, artifact_dir, serve_trained):
        loaded = load_system(artifact_dir)
        assert loaded.language_names == serve_trained.language_names
        assert [name for name, _ in loaded.subsystems] == [
            name for name, _ in serve_trained.subsystems
        ]
        assert [fe.name for fe in loaded.frontends] == [
            fe.name for fe in serve_trained.frontends
        ]


class TestManifest:
    def test_manifest_shape(self, artifact_dir):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["metadata"] == {"origin": "tests"}
        for name, entry in manifest["files"].items():
            path = artifact_dir / name
            assert path.exists()
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] == path.stat().st_size
        assert "config.json" in manifest["files"]
        # Schema 3: each fusion/vsm state dict is one mmap-able .bin.
        assert "fusion.bin" in manifest["files"]
        assert any(
            name.startswith("vsm__00_") and name.endswith(".bin")
            for name in manifest["files"]
        )

    def test_config_fingerprint_survives_json_round_trip(
        self, serve_config, artifact_dir
    ):
        stored = _config_from_dict(
            json.loads((artifact_dir / "config.json").read_text())
        )
        assert config_fingerprint(stored) == config_fingerprint(serve_config)


def _copy_artifact(artifact_dir, tmp_path) -> Path:
    import shutil

    dst = tmp_path / "copy"
    shutil.copytree(artifact_dir, dst)
    return dst


class TestLoadSafety:
    def test_rejects_unknown_schema_version(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        manifest_path = broken / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema version"):
            load_system(broken)

    def test_rejects_a_schema_two_directory(self, tmp_path):
        # Schema 2 kept one .npy per state key; there is no reader for
        # it, only the advice to re-export.
        old = tmp_path / "schema2"
        (old / "fusion").mkdir(parents=True)
        np.save(old / "fusion" / "weights.npy", np.eye(2))
        (old / "manifest.json").write_text(
            json.dumps({"schema_version": 2, "files": {}})
        )
        with pytest.raises(
            ArtifactError, match=r"version 2 .*re-export .*`repro export`"
        ):
            load_system(old)

    def test_rejects_corrupted_payload(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        target = broken / "fusion.bin"
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="corrupted"):
            load_system(broken)

    def test_mmap_load_rejects_truncated_payload(self, artifact_dir, tmp_path):
        # mmap mode skips hashing but still pins the manifest byte size.
        broken = _copy_artifact(artifact_dir, tmp_path)
        target = broken / "fusion.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(ArtifactError, match="corrupted"):
            load_system(broken, mmap=True)

    def test_mmap_load_rejects_a_garbled_member_table(
        self, artifact_dir, tmp_path
    ):
        # Same size, so only decoding the table can notice.
        broken = _copy_artifact(artifact_dir, tmp_path)
        target = broken / "fusion.bin"
        data = bytearray(target.read_bytes())
        data[4] ^= 0xFF  # the table's opening bracket
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="corrupted"):
            load_system(broken, mmap=True)

    def test_rejects_missing_payload(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        (broken / "frontends.pkl").unlink()
        with pytest.raises(ArtifactError, match="missing"):
            load_system(broken)

    def test_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_system(tmp_path / "nowhere")

    def test_hard_fails_on_config_hash_mismatch(self, artifact_dir, tmp_path):
        # Tamper with config.json (different corpus seed) and re-stamp
        # its file hash so only the *config fingerprint* check can catch
        # the drift — that check must hard-fail.
        import hashlib

        broken = _copy_artifact(artifact_dir, tmp_path)
        config_path = broken / "config.json"
        payload = json.loads(config_path.read_text())
        payload["corpus"]["seed"] = payload["corpus"]["seed"] + 1
        config_path.write_text(json.dumps(payload))
        manifest_path = broken / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["config.json"] = {
            "sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
            "bytes": config_path.stat().st_size,
        }
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="config hash mismatch"):
            load_system(broken)

    def test_rejects_unexpected_caller_config(
        self, artifact_dir, serve_config
    ):
        import dataclasses

        other = dataclasses.replace(
            serve_config,
            corpus=dataclasses.replace(serve_config.corpus, seed=999),
        )
        with pytest.raises(ArtifactError, match="different experiment"):
            load_system(artifact_dir, expected_config=other)

    def test_accepts_matching_caller_config(self, artifact_dir, serve_config):
        loaded = load_system(artifact_dir, expected_config=serve_config)
        assert isinstance(loaded, TrainedSystem)


import mmap as _mmap


def _base_chain(array: np.ndarray):
    """Walk ``ndarray.base`` to the owning object.

    For a mapped artifact the chain ends at the raw ``mmap.mmap`` buffer
    (views produced by ``np.asarray`` collapse past the ``np.memmap``
    wrapper straight to its buffer).
    """
    obj = array
    while getattr(obj, "base", None) is not None:
        obj = obj.base
    return obj


def _is_mapped(array: np.ndarray) -> bool:
    return isinstance(_base_chain(array), (np.memmap, _mmap.mmap))


class TestMmapLoading:
    def test_mmap_scores_bitwise_identical(
        self, artifact_dir, serve_system, serve_baseline
    ):
        loaded = load_system(artifact_dir, mmap=True)
        utterances = list(serve_system.bundle.test[3.0].utterances)
        with ScoringEngine(loaded) as engine:
            scores = engine.score_utterances(utterances)
        reference = serve_system.fused_scores([serve_baseline], 3.0)
        assert np.array_equal(scores, reference)

    def test_mmap_arrays_are_views_not_copies(self, artifact_dir):
        # The whole point of schema 2: every large array in the loaded
        # system must bottom out in an np.memmap — no heap copy was
        # made, so N processes mapping the same artifact share pages.
        loaded = load_system(artifact_dir, mmap=True)
        for _, vsm in loaded.subsystems:
            for model in vsm.ovr.models_:
                assert _is_mapped(model.weight_)
                assert not model.weight_.flags.writeable
        assert _is_mapped(loaded.fusion.weights_)

    def test_eager_load_keeps_heap_arrays(self, artifact_dir):
        loaded = load_system(artifact_dir)
        for _, vsm in loaded.subsystems:
            for model in vsm.ovr.models_:
                assert not _is_mapped(model.weight_)


class TestLoadSpan:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_load_counts_its_files_and_bytes(self, artifact_dir, mmap):
        from repro.obs import trace

        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        trace.stop_trace()
        trace.start_trace("load")
        try:
            load_system(artifact_dir, mmap=mmap)
        finally:
            root = trace.stop_trace()
        (span,) = [sp for sp in root.walk() if sp.name == "artifact.load"]
        assert span.attrs == {"mmap": mmap}
        assert span.counters == {
            "files": len(manifest["files"]),
            "bytes": sum(e["bytes"] for e in manifest["files"].values()),
        }


class TestExportTrained:
    def test_requires_fitted_vsms(
        self, serve_system, serve_baseline, serve_config
    ):
        import copy

        stripped = copy.copy(serve_baseline)
        stripped.subsystems = [
            copy.copy(sub) for sub in serve_baseline.subsystems
        ]
        stripped.subsystems[0].vsm = None
        with pytest.raises(ValueError, match="no fitted VSM"):
            export_trained(serve_system, [stripped], serve_config)

    def test_rejects_unfitted_fusion(self, serve_trained, serve_config):
        with pytest.raises(ValueError, match="fitted"):
            TrainedSystem(
                config=serve_config,
                language_names=serve_trained.language_names,
                frontends=serve_trained.frontends,
                subsystems=serve_trained.subsystems,
                fusion=LdaMmiFusion(),
            )

    def test_rejects_unknown_subsystem_frontend(
        self, serve_trained, serve_config
    ):
        bad = [("NOT_A_FRONTEND", serve_trained.subsystems[0][1])] + list(
            serve_trained.subsystems[1:]
        )
        with pytest.raises(ValueError, match="not in frontend battery"):
            TrainedSystem(
                config=serve_config,
                language_names=serve_trained.language_names,
                frontends=serve_trained.frontends,
                subsystems=bad,
                fusion=serve_trained.fusion,
            )


class TestStateDicts:
    def test_vsm_state_round_trip(self, serve_system, serve_trained):
        fe_name, vsm = serve_trained.subsystems[0]
        frontend = serve_trained.frontend_by_name(fe_name)
        raw = serve_system.raw_matrix(frontend, "dev")
        rebuilt = VSM.from_state(vsm.state_dict())
        assert np.array_equal(
            rebuilt.score_matrix(raw), vsm.score_matrix(raw)
        )

    def test_fusion_state_round_trip(self, serve_trained, serve_baseline):
        rebuilt = LdaMmiFusion.from_state(serve_trained.fusion.state_dict())
        test_list = [sub.test[3.0] for sub in serve_baseline.subsystems]
        assert np.array_equal(
            rebuilt.transform(test_list),
            serve_trained.fusion.transform(test_list),
        )

    def test_fusion_state_requires_fit(self):
        with pytest.raises(RuntimeError):
            LdaMmiFusion().state_dict()


class TestVerifySystem:
    def test_clean_artifact_verifies(self, artifact_dir):
        from repro.serve import verify_system

        assert verify_system(artifact_dir) == []

    def test_same_length_bit_flip_in_npy_is_caught(
        self, artifact_dir, tmp_path
    ):
        # The exact corruption the mmap load path cannot see: one byte
        # flipped inside an array payload, file length unchanged.
        from repro.serve import verify_system

        broken = _copy_artifact(artifact_dir, tmp_path)
        target = broken / "fusion.bin"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0x01  # flip inside the array body, not the header
        target.write_bytes(bytes(data))
        # mmap load sees the right byte count and opens happily…
        loaded = load_system(broken, mmap=True)
        assert isinstance(loaded, TrainedSystem)
        # …the full audit does not.
        problems = verify_system(broken)
        assert problems == [
            {"file": "fusion.bin", "problem": "checksum"}
        ]
        # And the eager (hashing) load refuses outright.
        with pytest.raises(ArtifactError, match="corrupted"):
            load_system(broken)

    def test_missing_payload_reported(self, artifact_dir, tmp_path):
        from repro.serve import verify_system

        broken = _copy_artifact(artifact_dir, tmp_path)
        (broken / "frontends.pkl").unlink()
        assert {"file": "frontends.pkl", "problem": "missing"} in (
            verify_system(broken)
        )

    def test_missing_manifest_raises(self, tmp_path):
        from repro.serve import verify_system

        with pytest.raises(ArtifactError, match="manifest"):
            verify_system(tmp_path / "nowhere")

    def test_cli_exec_verify_detects_saved_system(
        self, artifact_dir, tmp_path
    ):
        # `repro exec verify <saved-system>` routes to the full audit.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "exec", "verify",
             str(artifact_dir)],
            capture_output=True, text=True, env=_subprocess_env(),
        )
        assert result.returncode == 0, result.stderr
        assert "all payloads verified" in result.stdout

    def test_cli_exec_verify_flags_corruption(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        target = broken / "fusion.bin"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0x01
        target.write_bytes(bytes(data))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "exec", "verify", str(broken)],
            capture_output=True, text=True, env=_subprocess_env(),
        )
        assert result.returncode == 1
        assert "CORRUPT (checksum): fusion.bin" in result.stdout
