"""A warm Table-4 re-run reads only what it renders.

Table 4 needs vote selections and fused scores; the score matrices and
fitted models behind them stay in the store until something reads a
subsystem's ``dev``, ``test`` or ``vsm`` (a vote or fusion miss, an
export, a serving artifact).  These tests fill a store with one cold
Table-4 campaign and check that a warm re-run reads no score matrix and
loads no model, that each loads on its first read bitwise equal to the
cold run's, and that a corrupt payload surfaces on that read.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_system, smoke_scale
from repro.exec.store import ArtifactStore, StoreCorruptionError
from repro.obs.metrics import default_registry
from repro.serve import export_trained, save_system

#: Smoke-scale languages, frontends and classifier over a small corpus.
CONFIG = replace(
    smoke_scale(7),
    corpus=replace(
        smoke_scale(7).corpus,
        train_per_language=4,
        dev_per_language=3,
        test_per_language=5,
    ),
)
THRESHOLD = 3
#: Store reads of a warm build and one warm Table 4 over 6 frontends and
#: 2 durations: 1 world (languages and recognizers), 1 vote selection
#: and 28 fused score vectors.
WARM_HITS = 30


def _table4(system):
    """The ``repro table4`` campaign; returns its results and cells."""
    baseline = system.baseline()
    m1 = system.dba(THRESHOLD, "M1", baseline)
    m2 = system.dba(THRESHOLD, "M2", baseline)
    cells = []
    for duration in system.durations:
        cells.append(system.frontend_metrics(baseline, duration))
        cells.append(system.frontend_metrics(m2, duration))
        cells.append(system.fused_metrics([baseline], duration))
        cells.append(system.fused_metrics([m1, m2], duration))
    return [baseline, m1, m2], cells


def _state_bytes(vsm) -> dict[str, tuple]:
    state = {k: np.asarray(v) for k, v in vsm.state_dict().items()}
    return {k: (a.dtype.str, a.shape, a.tobytes()) for k, a in state.items()}


def _array_bytes(array) -> tuple:
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _score_bytes(sub) -> tuple:
    """A subsystem's dev and per-duration test scores, as bytes."""
    return _array_bytes(sub.dev), {
        d: _array_bytes(m) for d, m in sub.test.items()
    }


def _export_files(directory: Path) -> dict[str, bytes]:
    """Every exported file but the manifest, which records its time."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


@dataclass
class ColdRun:
    store: Path
    cells: list
    states: list[list[dict[str, tuple]]]
    scores: list[list[tuple]]
    export: dict[str, bytes]


@pytest.fixture(scope="module")
def cold(tmp_path_factory) -> ColdRun:
    root = tmp_path_factory.mktemp("warm_reads")
    system = build_system(CONFIG, store=root / "store")
    results, cells = _table4(system)
    save_system(root / "export", export_trained(system, results, CONFIG))
    return ColdRun(
        store=root / "store",
        cells=cells,
        states=[
            [_state_bytes(sub.vsm) for sub in result.subsystems]
            for result in results
        ],
        scores=[
            [_score_bytes(sub) for sub in result.subsystems]
            for result in results
        ],
        export=_export_files(root / "export"),
    )


def _warm(store: Path):
    default_registry().reset()
    system = build_system(CONFIG, store=ArtifactStore(store))
    results, cells = _table4(system)
    return system, results, cells


def _count(name: str) -> float:
    return default_registry().counter(name).value


def _corrupt(store_dir: Path, want) -> str:
    """Flip the last byte of the first payload whose meta passes ``want``.

    Returns the frontend the payload belongs to.
    """
    store = ArtifactStore(store_dir)
    (name, payload) = next(
        (entry["meta"]["frontend"], store_dir / entry["file"])
        for entry in map(store.entry, store.keys())
        if want(entry["meta"])
    )
    data = bytearray(payload.read_bytes())
    data[-1] ^= 0x01
    payload.write_bytes(bytes(data))
    return name


class TestWarmTable4:
    def test_loads_no_model(self, cold):
        _, _, cells = _warm(cold.store)
        assert cells == cold.cells
        assert _count("exec.stage.svm_train.cached") == 0
        assert _count("exec.stage.dba_train.cached") == 0
        assert _count("exec.stage.svm_train.executed") == 0
        assert _count("exec.stage.dba_train.executed") == 0
        assert _count("exec.store.hits") == WARM_HITS

    def test_each_model_loads_once_on_first_read(self, cold):
        _, results, _ = _warm(cold.store)
        for result, states in zip(results, cold.states):
            for sub, state in zip(result.subsystems, states):
                before = _count("exec.store.hits")
                vsm = sub.vsm
                assert _count("exec.store.hits") == before + 1
                assert sub.vsm is vsm
                assert _count("exec.store.hits") == before + 1
                assert _state_bytes(vsm) == state
        assert _count("exec.stage.svm_train.cached") == 6
        assert _count("exec.stage.dba_train.cached") == 12
        assert _count("exec.stage.svm_train.executed") == 0
        assert _count("exec.stage.dba_train.executed") == 0

    def test_export_matches_the_cold_export(self, cold, tmp_path):
        system, results, _ = _warm(cold.store)
        save_system(tmp_path, export_trained(system, results, CONFIG))
        assert _export_files(tmp_path) == cold.export

    def test_corrupt_model_fails_on_read_not_during_table4(
        self, cold, tmp_path
    ):
        store_dir = tmp_path / "store"
        shutil.copytree(cold.store, store_dir)
        name = _corrupt(
            store_dir,
            lambda meta: meta.get("model") == "baseline"
            and "corpus" not in meta,
        )
        _, results, cells = _warm(store_dir)
        assert cells == cold.cells
        (sub,) = [s for s in results[0].subsystems if s.name == name]
        with pytest.raises(StoreCorruptionError, match="checksum"):
            sub.vsm


class TestScoresLoadOnFirstRead:
    def test_warm_table4_reads_no_score_matrix(self, cold):
        _warm(cold.store)
        assert _count("exec.stage.score.cached") == 0
        assert _count("exec.stage.score.executed") == 0
        assert _count("exec.stage.fuse.cached") == 28
        assert _count("exec.stage.vote.cached") == 1

    def test_first_read_loads_the_cold_scores_once(self, cold):
        system, results, _ = _warm(cold.store)
        stages = 1 + len(system.durations)
        for result, scores in zip(results, cold.scores):
            for sub, want in zip(result.subsystems, scores):
                before = _count("exec.store.hits")
                dev = sub.dev
                assert _count("exec.store.hits") == before + 1
                test = sub.test
                assert _count("exec.store.hits") == before + stages
                assert sub.dev is dev and sub.test is test
                assert _score_bytes(sub) == want
                assert _count("exec.store.hits") == before + stages
        assert _count("exec.stage.score.cached") == 3 * 6 * stages
        assert _count("exec.stage.score.executed") == 0
        assert _count("exec.stage.svm_train.cached") == 0
        assert _count("exec.stage.dba_train.cached") == 0

    def test_vote_miss_reads_only_test_scores(self, tmp_path):
        """A new threshold's vote pools the baseline's test scores only."""
        config = replace(
            CONFIG, corpus=replace(CONFIG.corpus, seed=5)
        )
        _table4(build_system(config, store=tmp_path / "store"))
        default_registry().reset()
        system = build_system(config, store=ArtifactStore(tmp_path / "store"))
        system.dba(THRESHOLD - 1, "M1")
        assert _count("exec.stage.vote.executed") == 1
        # 6 frontends x 2 test durations; no dev matrix.
        assert _count("exec.stage.score.cached") == 12

    def test_fuse_hits_read_no_score_payload(self, cold):
        default_registry().reset()
        system = build_system(CONFIG, store=ArtifactStore(cold.store))
        baseline = system.baseline()
        n = len(system.frontends)
        for duration in system.durations:
            before = _count("exec.store.hits")
            system.fused_scores([baseline], duration)
            system.frontend_metrics(baseline, duration)
            assert _count("exec.store.hits") == before + 1 + n
        assert _count("exec.stage.fuse.cached") == 2 * (1 + n)
        assert _count("exec.stage.score.cached") == 0

    def test_corrupt_scores_fail_on_read_not_during_table4(
        self, cold, tmp_path
    ):
        store_dir = tmp_path / "store"
        shutil.copytree(cold.store, store_dir)
        name = _corrupt(
            store_dir,
            lambda meta: meta.get("model") == "baseline"
            and meta.get("corpus") == "dev",
        )

        _, results, cells = _warm(store_dir)
        assert cells == cold.cells
        (sub,) = [s for s in results[0].subsystems if s.name == name]
        with pytest.raises(StoreCorruptionError, match="checksum"):
            sub.dev
