"""The ``world`` stage: a warm build restores its languages and battery.

:func:`repro.core.build_system` persists the language family and the
confusion recognizers' inventories and distance scales as one ``world``
store payload.  These tests check that the payload round-trips array for
array, that a warm build draws no language and builds no inventory, that
any config change misses the key, and that a corrupt payload fails the
build.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import ExperimentConfig, build_system, smoke_scale
from repro.corpus.acoustics import AcousticSpace
from repro.corpus.language import LanguageSpec, make_language_family
from repro.corpus.phoneset import universal_phone_set
from repro.exec.store import ArtifactStore, StoreCorruptionError
from repro.frontend.confusion import ConfusionChannelRecognizer, ConfusionModel
from repro.frontend.registry import decode_utterances
from repro.obs.metrics import default_registry
from repro.utils.payload import decode_members, encode_members
from tests.budget import examples

CONFIG = smoke_scale(7)


def _round_trip(state: dict) -> dict:
    """``state`` through the flat payload codec, as the store keeps it."""
    data = encode_members(state)
    return decode_members(np.frombuffer(bytearray(data), dtype=np.uint8))


def _arrays(state: dict) -> dict[str, tuple]:
    return {
        k: (np.asarray(v).dtype.str, np.shape(v), np.asarray(v).tobytes())
        for k, v in state.items()
    }


def _world_arrays(system) -> list[dict[str, tuple]]:
    """Every spec's and every confusion recognizer's state, as bytes."""
    parts = list(system.bundle.registry) + [
        fe
        for fe in system.frontends
        if isinstance(fe, ConfusionChannelRecognizer)
    ]
    return [_arrays(part.state_dict()) for part in parts]


def _world_count(name: str) -> float:
    return default_registry().counter(f"exec.stage.world.{name}").value


class TestRoundTrip:
    @settings(max_examples=examples(10), deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_languages=st.integers(2, 6),
        n_families=st.integers(1, 4),
        inventory_size=st.integers(2, 40),
    )
    def test_language_specs(self, seed, n_languages, n_families, inventory_size):
        for spec in make_language_family(
            n_languages, seed, n_families=n_families,
            inventory_size=inventory_size,
        ):
            state = _round_trip(spec.state_dict())
            restored = LanguageSpec.from_state(state)
            assert _arrays(restored.state_dict()) == _arrays(spec.state_dict())
            assert restored.name == spec.name
            assert restored.mean_duration == spec.mean_duration

    @settings(max_examples=examples(10), deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        inventory_size=st.integers(2, 64),
        tau=st.floats(0.05, 2.0),
        top_k=st.integers(1, 8),
    )
    def test_recognizers(self, seed, inventory_size, tau, top_k):
        space = AcousticSpace(universal_phone_set(), seed=seed % 97)
        model = ConfusionModel(tau=tau, top_k=top_k)
        fresh = ConfusionChannelRecognizer(
            "X", space, inventory_size, model, seed=seed
        )
        state = _round_trip(fresh.state_dict())
        restored = ConfusionChannelRecognizer.from_state(state, space)
        assert _arrays(restored.state_dict()) == _arrays(fresh.state_dict())
        assert restored.model == fresh.model
        assert restored.phone_set == fresh.phone_set
        assert restored._scale == fresh._scale
        assert restored.projection.tobytes() == fresh.projection.tobytes()

    def test_restored_spec_is_validated(self):
        (spec, _) = make_language_family(2, 3)
        state = dict(spec.state_dict())
        state["initial"] = state["initial"] * 2.0
        with pytest.raises(ValueError, match="sum to 1"):
            LanguageSpec.from_state(state)


class TestWarmBuild:
    def test_warm_world_equals_cold(self, tmp_path):
        cold = build_system(CONFIG, store=tmp_path)
        assert _world_count("executed") == 1
        warm = build_system(CONFIG, store=ArtifactStore(tmp_path))
        assert _world_count("cached") == 1
        assert _world_count("executed") == 1
        assert _world_arrays(warm) == _world_arrays(cold)
        assert _world_arrays(build_system(CONFIG)) == _world_arrays(cold)
        assert [fe.phone_set for fe in warm.frontends] == [
            fe.phone_set for fe in cold.frontends
        ]
        utts = warm.bundle.test[3.0].utterances[:4]
        for a, b in zip(cold.frontends, warm.frontends):
            for x, y in zip(
                decode_utterances(a, 1, utts), decode_utterances(b, 1, utts)
            ):
                assert [m.tobytes() for m in x.slot_arrays()] == [
                    m.tobytes() for m in y.slot_arrays()
                ]

    def test_warm_build_draws_no_world(self, tmp_path, monkeypatch):
        build_system(CONFIG, store=tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm build redrew its world")

        monkeypatch.setattr(
            "repro.corpus.splits.make_language_family", forbidden
        )
        monkeypatch.setattr("repro.core.pipeline.build_frontends", forbidden)
        monkeypatch.setattr(
            "repro.frontend.confusion.sample_inventory", forbidden
        )
        monkeypatch.setattr(
            ConfusionChannelRecognizer, "_distance_scale", forbidden
        )
        warm = build_system(CONFIG, store=ArtifactStore(tmp_path))
        assert len(warm.frontends) == 6
        assert _world_count("cached") == 1

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: replace(c, corpus=replace(c.corpus, seed=8)),
            lambda c: replace(c, corpus=replace(c.corpus, n_families=3)),
            lambda c: replace(c, corpus=replace(c.corpus, inventory_size=30)),
            lambda c: replace(c, system=replace(c.system, top_k=4)),
        ],
        ids=["seed", "n_families", "inventory_size", "top_k"],
    )
    def test_config_change_misses(self, tmp_path, change):
        build_system(CONFIG, store=tmp_path)
        changed = build_system(change(CONFIG), store=ArtifactStore(tmp_path))
        assert _world_count("executed") == 2
        assert _world_count("cached") == 0
        assert _world_arrays(changed) == _world_arrays(
            build_system(change(CONFIG))
        )

    def test_frontend_mode_misses(self, tmp_path):
        config = ExperimentConfig(
            corpus=replace(
                CONFIG.corpus, n_languages=3, train_per_language=2,
                dev_per_language=2, test_per_language=2,
                durations=(1.0, 0.5), train_duration=2.0,
            ),
            system=CONFIG.system,
        )
        acoustic = replace(config, frontend_mode="acoustic")
        build_system(config, store=tmp_path)
        build_system(acoustic, store=ArtifactStore(tmp_path))
        assert _world_count("executed") == 2
        # An acoustic world holds the languages only: its recognizers
        # train after the stage, warm or cold.
        warm = build_system(acoustic, store=ArtifactStore(tmp_path))
        assert _world_count("cached") == 1
        assert _world_arrays(warm) == _world_arrays(
            build_system(config, store=ArtifactStore(tmp_path))
        )[: len(warm.bundle.registry)]

    def test_corrupt_world_fails_the_build(self, tmp_path):
        build_system(CONFIG, store=tmp_path)
        store = ArtifactStore(tmp_path)
        (entry,) = [
            store.entry(key)
            for key in store.keys()
            if store.entry(key)["meta"].get("stage") == "world"
        ]
        payload = tmp_path / entry["file"]
        data = bytearray(payload.read_bytes())
        data[-1] ^= 0x01
        payload.write_bytes(bytes(data))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            build_system(CONFIG, store=ArtifactStore(tmp_path))

    def test_store_with_a_world_verifies(self, tmp_path, capsys):
        build_system(CONFIG, store=tmp_path)
        assert main(["exec", "verify", str(tmp_path)]) == 0
