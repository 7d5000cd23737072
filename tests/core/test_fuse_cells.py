"""Each ``fuse`` node stores the table cell it is read for.

A ``fuse`` product is ``{"scores", "cell"}``: the calibrated test scores
and their (EER %, C_avg %), so a warm Table 4 renders from its 28 fuse
hits without evaluating anything.  Fit keys are hashed only when a plan
probes them, so while every score is a hit no ``svm_train`` or
``dba_train`` key is computed.  A store holding the scores-only fuse
payloads of :data:`~repro.core.pipeline.FUSE_REVISION` 1 misses each
fuse once.
"""

from __future__ import annotations

import shutil
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline
from repro.core import build_system, smoke_scale
from repro.exec.store import ArtifactStore, stage_key
from repro.obs.metrics import default_registry

THRESHOLD = 3


def _config():
    """Smoke languages, frontends and classifier over a small corpus."""
    config = smoke_scale(6)
    return replace(
        config,
        corpus=replace(
            config.corpus,
            train_per_language=4,
            dev_per_language=3,
            test_per_language=5,
        ),
    )


def _table4(system) -> list:
    baseline = system.baseline()
    m1 = system.dba(THRESHOLD, "M1", baseline)
    m2 = system.dba(THRESHOLD, "M2", baseline)
    cells = []
    for duration in system.durations:
        cells.append(system.frontend_metrics(baseline, duration))
        cells.append(system.frontend_metrics(m2, duration))
        cells.append(system.fused_metrics([baseline], duration))
        cells.append(system.fused_metrics([m1, m2], duration))
    return cells


class _Spy:
    """Counts ``evaluate_scores`` calls and ``stage_key`` calls by stage,
    recording the key material of every ``fuse`` key."""

    def __init__(self, monkeypatch) -> None:
        self.evaluations = 0
        self.keys: Counter[str] = Counter()
        self.fuse_material: dict[str, dict] = {}
        evaluate, key = pipeline.evaluate_scores, pipeline.stage_key

        def counted_evaluate(*args, **kwargs):
            self.evaluations += 1
            return evaluate(*args, **kwargs)

        def counted_key(stage, **material):
            self.keys[stage] += 1
            digest = key(stage, **material)
            if stage == "fuse":
                self.fuse_material[digest] = material
            return digest

        monkeypatch.setattr(pipeline, "evaluate_scores", counted_evaluate)
        monkeypatch.setattr(pipeline, "stage_key", counted_key)


@dataclass
class ColdRun:
    store: Path
    cells: list
    fuse_material: dict[str, dict]


@pytest.fixture(scope="module")
def cold(tmp_path_factory) -> ColdRun:
    store = tmp_path_factory.mktemp("fuse_cells") / "store"
    system = build_system(_config(), store=store)
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = _Spy(monkeypatch)
        cells = _table4(system)
    assert spy.evaluations == 28
    return ColdRun(store, cells, spy.fuse_material)


def _counts(outcome: str) -> dict[str, float]:
    """The nonzero ``exec.stage.<family>.<outcome>`` counts, by family."""
    return {
        name.split(".")[2]: entry["value"]
        for name, entry in default_registry().snapshot().items()
        if name.startswith("exec.stage.")
        and name.endswith(f".{outcome}")
        and entry["value"]
    }


class TestWarmTable4:
    def test_evaluates_nothing_and_hashes_no_fit_key(
        self, cold, monkeypatch
    ):
        system = build_system(_config(), store=ArtifactStore(cold.store))
        spy = _Spy(monkeypatch)
        assert _table4(system) == cold.cells
        assert spy.evaluations == 0
        # 6 frontends x 3 models x 3 corpora, 28 cells, 1 shared vote.
        assert dict(spy.keys) == {"score": 54, "fuse": 28, "vote": 1}

    def test_each_stored_cell_is_its_scores_evaluated(self, cold):
        system = build_system(_config(), store=ArtifactStore(cold.store))
        _table4(system)
        fuses = [n for n in system._graph.names() if n.startswith("fuse/")]
        assert len(fuses) == 28
        for name in fuses:
            stored = system.store.get(
                system._graph.stage_named(name).store_key
            )
            labels = system.labels_for(name.rsplit("/", 1)[1])
            want = pipeline.evaluate_scores(stored["scores"], labels)
            assert [v.hex() for v in stored["cell"].tolist()] == [
                v.hex() for v in want
            ]


class TestFuseRevision:
    def test_revision_one_store_misses_each_fuse_once(self, cold, tmp_path):
        """Scores-only payloads under revision-less keys, as a store
        filled before the cell was stored holds them, are not decoded:
        each fuse executes once, then every fuse is a hit."""
        shutil.copytree(cold.store, tmp_path / "store")
        store = ArtifactStore(tmp_path / "store")
        for key, material in cold.fuse_material.items():
            params = dict(material["params"])
            assert params.pop("fuse_revision") == pipeline.FUSE_REVISION
            old = stage_key("fuse", **{**material, "params": params})
            store.put(old, "array", store.get(key)["scores"])
            store.delete(key)

        for executed, fuse_hits in (({"fuse": 28}, 0), ({}, 28)):
            default_registry().reset()
            system = build_system(
                _config(), store=ArtifactStore(tmp_path / "store")
            )
            assert _table4(system) == cold.cells
            assert _counts("executed") == executed
            assert _counts("cached").get("fuse", 0) == fuse_hits
