"""One stage graph per system: every node runs once.

A system declares each stage the first time something needs it and
keeps every value its graph resolves, so a store-less campaign shares
its φ matrices, fits, votes and calibrated scores: DBA-M1 and DBA-M2 at
one threshold read one vote, and the Table 4 cells that repeat a sweep
cell read the sweep's ``fuse`` node.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import build_system, smoke_scale
from repro.core.campaign import run_campaign
from repro.exec.graph import StageGraph
from repro.exec.store import ArtifactStore
from repro.obs.metrics import default_registry

#: Stage executions of a store-less campaign over 6 frontends, 2 test
#: durations, thresholds 6..1 and variants M1 and M2: 4 corpora per
#: frontend, 12 DBA fits per frontend, 3 score matrices per fit, one
#: vote per threshold, and 12 + 2 baseline, 144 sweep and 2 fused
#: Table 4 calibrations (its per-frontend DBA-M2 cells are sweep cells).
EXECUTED = {
    "phi": 24,
    "svm_train": 6,
    "score": 234,
    "vote": 6,
    "dba_train": 72,
    "fuse": 160,
}


def _config(seed: int):
    """Smoke languages, frontends and classifier over a small corpus."""
    config = smoke_scale(seed)
    return replace(
        config,
        corpus=replace(
            config.corpus,
            train_per_language=4,
            dev_per_language=3,
            test_per_language=5,
        ),
    )


def _stage_counts(outcome: str) -> dict[str, float]:
    """The nonzero ``exec.stage.<family>.<outcome>`` counts, by family."""
    snapshot = default_registry().snapshot()
    return {
        name.split(".")[2]: entry["value"]
        for name, entry in snapshot.items()
        if name.startswith("exec.stage.")
        and name.endswith(f".{outcome}")
        and entry["value"]
    }


@pytest.fixture(scope="module")
def campaign():
    """A store-less campaign's system and its stage execution counts."""
    default_registry().reset()
    config = _config(4)
    system = build_system(config)
    run_campaign(config, system=system)
    return system, _stage_counts("executed")


class TestEachNodeRunsOnce:
    def test_store_less_campaign(self, campaign):
        _, executed = campaign
        assert executed == {"world": 1, **EXECUTED}

    def test_repeated_passes_execute_nothing(self, campaign):
        system, _ = campaign
        default_registry().reset()
        baseline = system.baseline()
        for variant in ("M1", "M2"):
            system.dba(3, variant)
            system.dba(3, variant, baseline)
        system.fused_metrics([baseline], system.durations[0])
        assert _stage_counts("executed") == {}
        assert _stage_counts("cached") == {}

    def test_variants_share_one_vote(self, campaign):
        system, _ = campaign
        m1, m2 = system.dba(2, "M1"), system.dba(2, "M2")
        assert m1.pseudo is m2.pseudo
        assert m1.vote_counts is m2.vote_counts


def _table4(system) -> None:
    baseline = system.baseline()
    m1 = system.dba(3, "M1", baseline)
    m2 = system.dba(3, "M2", baseline)
    for duration in system.durations:
        system.frontend_metrics(baseline, duration)
        system.frontend_metrics(m2, duration)
        system.fused_metrics([baseline], duration)
        system.fused_metrics([m1, m2], duration)


class TestWarmTable4:
    def test_filled_store_executes_nothing(self, tmp_path):
        config = _config(4)
        _table4(build_system(config, store=tmp_path / "store"))
        default_registry().reset()
        _table4(build_system(config, store=ArtifactStore(tmp_path / "store")))
        assert _stage_counts("executed") == {}
        assert _stage_counts("cached") == {"world": 1, "vote": 1, "fuse": 28}


class TestGraphMemo:
    def _graph(self, log: list[str], store=None) -> StageGraph:
        graph = StageGraph(store)
        graph.stage(
            "up", lambda deps: (log.append("up"), [1])[1], key="a" * 64,
            kind="json",
        )
        graph.stage(
            "down",
            lambda deps: (log.append("down"), deps["up"] + [2])[1],
            deps=("up",),
            key="b" * 64,
            kind="json",
        )
        return graph

    def test_value_computes_once(self):
        log: list[str] = []
        graph = self._graph(log)
        first = graph.value("down")
        assert graph.value("down") is first
        assert graph.run(["down"])["down"] is first
        assert log == ["up", "down"]

    def test_resolved_dependency_is_not_rerun(self):
        log: list[str] = []
        graph = self._graph(log)
        graph.value("up")
        assert graph.value("down") == [1, 2]
        assert log == ["up", "down"]

    def test_value_reads_the_store_before_dependencies(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("b" * 64, "json", [7])
        log: list[str] = []
        graph = self._graph(log, store)
        assert graph.value("down") == [7]
        assert log == []

    def test_failed_stage_is_not_kept(self):
        graph = StageGraph()
        attempts: list[int] = []

        def flaky(deps):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("first attempt fails")
            return 5

        graph.stage("flaky", flaky)
        with pytest.raises(RuntimeError):
            graph.value("flaky")
        assert graph.value("flaky") == 5
        assert len(attempts) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_run_keeps_values(self, workers):
        graph = StageGraph(workers=workers)
        log: list[str] = []
        graph.stage("root", lambda deps: (log.append("root"), 1)[1])
        for i in range(3):
            graph.stage(
                f"leaf/{i}",
                lambda deps, i=i: deps["root"] + i,
                deps=("root",),
            )
        assert graph.run() == {
            "root": 1, "leaf/0": 1, "leaf/1": 2, "leaf/2": 3
        }
        graph.stage(
            "join",
            lambda deps: sum(deps[f"leaf/{i}"] for i in range(3)),
            deps=tuple(f"leaf/{i}" for i in range(3)),
        )
        assert graph.value("join") == 6
        assert log == ["root"]

    def test_threads_lose_no_kept_value(self):
        """Eight pool threads, a tiny switch interval: every leaf's value
        is kept, so reading them all back computes nothing again."""
        import sys
        import threading

        graph = StageGraph(workers=8)
        runs: list[str] = []
        lock = threading.Lock()

        def leaf(deps, i):
            with lock:
                runs.append(f"leaf/{i}")
            return deps["root"] + i

        graph.stage("root", lambda deps: 0)
        for i in range(200):
            graph.stage(
                f"leaf/{i}", lambda deps, i=i: leaf(deps, i), deps=("root",)
            )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            graph.run()
        finally:
            sys.setswitchinterval(interval)
        assert [graph.value(f"leaf/{i}") for i in range(200)] == list(
            range(200)
        )
        assert sorted(runs) == sorted(f"leaf/{i}" for i in range(200))
