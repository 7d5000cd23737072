"""Store invalidation: config changes must miss; corruption must raise.

Two safety properties of the artifact store: (1) every
:class:`~repro.core.config.SystemConfig` field feeds the stage-key
fingerprint, so *any* config change produces fresh keys instead of
serving a stale product; (2) a payload that fails checksum verification
raises :class:`~repro.exec.store.StoreCorruptionError` — never silently
recomputes, never returns stale bytes.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.pipeline import SVM_SOLVER
from repro.exec.graph import run_stage
from repro.exec.store import ArtifactStore, StoreCorruptionError, stage_key
from repro.obs.metrics import default_registry

_CHANGED = {
    "orders": (1,),
    "top_k": 5,
    "svm_C": 9.9,
    "svm_loss": "l2",
    "svm_max_epochs": 77,
    "svm_tol": 1e-4,
    "tfllr": False,
    "min_prob": 0.123,
    "use_lda": True,
    "mmi_iterations": 99,
    "workers": 7,
    "seed": 424242,
}


class TestFingerprintInvalidation:
    def test_every_field_is_covered(self):
        """If SystemConfig grows a field, this table must grow with it."""
        assert {f.name for f in fields(SystemConfig)} == set(_CHANGED)

    @pytest.mark.parametrize("field_name", sorted(_CHANGED))
    def test_derived_fingerprint_changes(
        self, make_system, field_name, tiny_bundle, tiny_frontends
    ):
        from repro.core.pipeline import PhonotacticSystem

        base = make_system()
        changed = PhonotacticSystem(
            tiny_bundle,
            tiny_frontends,
            replace(base.system, **{field_name: _CHANGED[field_name]}),
        )
        assert changed.fingerprint != base.fingerprint
        assert changed._stage_key is not None  # both key off fingerprints

    @pytest.mark.parametrize("field_name", sorted(_CHANGED))
    def test_config_fingerprint_changes(self, field_name):
        """The canonical experiment fingerprint also covers every field."""
        from repro.serve.artifacts import config_fingerprint

        base = ExperimentConfig()
        changed = replace(
            base,
            system=replace(base.system, **{field_name: _CHANGED[field_name]}),
        )
        assert config_fingerprint(changed) != config_fingerprint(base)

    def test_changed_config_misses_the_store(self, tmp_path, make_system):
        """A config change re-executes stages instead of serving stale."""
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")
        make_system(store=store).baseline()

        registry.reset()
        changed = make_system(
            store=ArtifactStore(store.directory), svm_max_epochs=11
        )
        changed.baseline()
        assert registry.counter("exec.stage.svm_train.cached").value == 0
        assert registry.counter("exec.stage.svm_train.executed").value == len(
            changed.frontends
        )
        assert registry.counter("exec.store.misses").value > 0


class TestPhiKeys:
    def test_confusion_phi_keys_carry_no_decode_params(
        self, tmp_path, make_system
    ):
        """Confusion frontends add nothing to φ keys, so a store they
        filled keeps hitting when acoustic decoder revisions change."""
        system = make_system(store=ArtifactStore(tmp_path / "store"))
        for fe in system.frontends:
            for tag in ("train", "dev"):
                assert system._phi_key(fe, tag) == stage_key(
                    "phi",
                    fingerprint=system.fingerprint,
                    frontend=fe.name,
                    corpus=tag,
                    params={},
                )


class TestSvmKeys:
    def test_svm_stage_keys_name_the_solver(self, tmp_path, make_system):
        """``svm_train``/``dba_train`` keys carry ``svm_solver``, so fits a
        store holds from the row-gather trainer (keys without it) miss."""
        store = ArtifactStore(tmp_path / "store")
        system = make_system(store=store)
        system.dba(2, "M1", system.baseline())
        for q, fe in enumerate(system.frontends):
            for stage, params in (
                ("svm_train", dict(model="baseline", seed_offset=q)),
                (
                    "dba_train",
                    dict(
                        threshold=2,
                        variant="M1",
                        seed_offset=100 + q,
                        frontends=[f.name for f in system.frontends],
                    ),
                ),
            ):
                def key(**extra):
                    return stage_key(
                        stage,
                        fingerprint=system.fingerprint,
                        frontend=fe.name,
                        params={**params, **extra},
                    )

                assert store.has(key(svm_solver=SVM_SOLVER))
                assert not store.has(key())


class TestCorruption:
    def _corrupt(self, store: ArtifactStore, key: str) -> None:
        path = store.directory / store.entry(key)["file"]
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))

    def test_corrupted_payload_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, "json", {"x": 1})
        self._corrupt(store, "a" * 64)
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get("a" * 64)

    def test_missing_payload_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, "json", {"x": 1})
        (store.directory / store.entry("a" * 64)["file"]).unlink()
        with pytest.raises(StoreCorruptionError, match="missing"):
            store.get("a" * 64)

    def test_run_stage_does_not_heal_corruption(self, tmp_path):
        """Corruption surfaces to the caller — no silent recompute."""
        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, "json", {"x": 1})
        self._corrupt(store, "a" * 64)
        with pytest.raises(StoreCorruptionError):
            run_stage(
                lambda: {"x": 2},
                family="vote",
                store=store,
                key="a" * 64,
                kind="json",
            )

    def test_corrupted_matrix_fails_warm_run(self, tmp_path, make_system):
        """A flipped bit in a stored φ matrix aborts the resumed run."""
        store = ArtifactStore(tmp_path / "store")
        system = make_system(store=store)
        fe = system.frontends[0]
        system.raw_matrix(fe, "dev")
        key = system._stage_key("phi", frontend=fe.name, corpus="dev")
        self._corrupt(store, key)
        resumed = make_system(store=ArtifactStore(store.directory))
        with pytest.raises(StoreCorruptionError):
            resumed.raw_matrix(resumed.frontends[0], "dev")
