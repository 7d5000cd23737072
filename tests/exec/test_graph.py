"""StageGraph mechanics: ordering, memoization, pruning, parallelism."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exec.graph import Stage, StageGraph, run_stage
from repro.exec.store import ArtifactStore
from repro.obs import trace


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _chain_graph(log: list[str]) -> StageGraph:
    """a → b → c, each appending its name to ``log`` when executed."""
    graph = StageGraph()
    graph.stage("a", lambda deps: (log.append("a"), 1)[1])
    graph.stage("b", lambda deps: (log.append("b"), deps["a"] + 1)[1], deps=("a",))
    graph.stage("c", lambda deps: (log.append("c"), deps["b"] + 1)[1], deps=("b",))
    return graph


def _shape(span) -> list:
    """``[(name, cached, [children…]), …]`` of a span's subtree."""
    return [
        (child.name, child.attrs.get("cached"), _shape(child))
        for child in span.children
    ]


class TestStageSpans:
    """Where store traffic lands in the trace of one stage."""

    @pytest.fixture()
    def traced(self):
        trace.stop_trace()
        trace.start_trace("test")
        yield
        trace.stop_trace()

    def _run(self, store, compute):
        return run_stage(
            compute,
            family="vote",
            store=store,
            key="5" * 64,
            kind="arrays",
            decode=lambda d: d["x"],
            encode=lambda v: {"x": v},
        )

    def test_miss_opens_no_cached_span(self, store, traced):
        self._run(store, lambda: np.arange(3.0))
        assert _shape(trace.stop_trace()) == [
            ("exec.vote", False, []),
            ("store.put", None, []),
        ]

    def test_hit_reads_inside_the_cached_span(self, store, traced):
        store.put("5" * 64, "arrays", {"x": np.arange(3.0)})
        trace.stop_trace()
        trace.start_trace("warm")
        value = self._run(store, lambda: pytest.fail("must not compute"))
        root = trace.stop_trace()
        np.testing.assert_array_equal(value, np.arange(3.0))
        assert _shape(root) == [
            ("exec.vote", True, [("store.get", None, [])]),
        ]
        (get,) = root.children[0].children
        assert get.attrs["kind"] == "arrays"
        assert get.counters["bytes"] == store.entry("5" * 64)["size"]


class TestRunStage:
    def test_executes_and_persists(self, store, fresh_metrics):
        value = run_stage(
            lambda: {"x": 41},
            family="vote",
            store=store,
            key="1" * 64,
            kind="json",
        )
        assert value == {"x": 41}
        assert fresh_metrics.counter("exec.stage.vote.executed").value == 1
        assert store.get("1" * 64) == {"x": 41}

    def test_loads_instead_of_recomputing(self, store, fresh_metrics):
        store.put("1" * 64, "json", {"x": 41})

        def explode():
            raise AssertionError("must not recompute")

        value = run_stage(
            explode, family="vote", store=store, key="1" * 64, kind="json"
        )
        assert value == {"x": 41}
        assert fresh_metrics.counter("exec.stage.vote.cached").value == 1
        assert fresh_metrics.counter("exec.stage.vote.executed").value == 0

    def test_encode_decode(self, store):
        run_stage(
            lambda: 5,
            family="vote",
            store=store,
            key="2" * 64,
            kind="json",
            encode=lambda v: {"wrapped": v},
        )
        value = run_stage(
            lambda: None,
            family="vote",
            store=store,
            key="2" * 64,
            kind="json",
            decode=lambda stored: stored["wrapped"],
        )
        assert value == 5

    def test_no_store_always_executes(self, fresh_metrics):
        assert run_stage(lambda: 3, family="fuse") == 3
        assert run_stage(lambda: 4, family="fuse") == 4
        assert fresh_metrics.counter("exec.stage.fuse.executed").value == 2


class TestGraphBasics:
    def test_serial_chain(self):
        log: list[str] = []
        values = _chain_graph(log).run()
        assert values == {"a": 1, "b": 2, "c": 3}
        assert log == ["a", "b", "c"]

    def test_targets_subset(self):
        log: list[str] = []
        values = _chain_graph(log).run(["b"])
        assert values == {"a": 1, "b": 2}
        assert "c" not in log

    def test_duplicate_name_rejected(self):
        graph = StageGraph()
        graph.stage("a", lambda deps: 1)
        with pytest.raises(ValueError, match="already declared"):
            graph.stage("a", lambda deps: 2)

    def test_unknown_dep_rejected(self):
        graph = StageGraph()
        graph.stage("a", lambda deps: 1, deps=("ghost",))
        with pytest.raises(KeyError, match="ghost"):
            graph.run()

    def test_cycle_rejected(self):
        graph = StageGraph()
        graph.add(Stage("a", lambda deps: 1, deps=("b",)))
        graph.add(Stage("b", lambda deps: 1, deps=("a",)))
        with pytest.raises(ValueError, match="cycle"):
            graph.run()

    def test_family_defaults_to_prefix(self):
        stage = Stage("score/FE_A/dev", lambda deps: 1)
        assert stage.family == "score"

    def test_names_and_len(self):
        graph = _chain_graph([])
        assert graph.names() == ["a", "b", "c"]
        assert len(graph) == 3
        assert "a" in graph and "z" not in graph


class TestGraphMemoization:
    def _keyed_graph(self, log: list[str]) -> StageGraph:
        graph = StageGraph()
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

    def test_warm_run_loads(self, store):
        cold_log: list[str] = []
        cold = self._keyed_graph(cold_log).run(store=store)
        warm_log: list[str] = []
        warm = self._keyed_graph(warm_log).run(store=store)
        assert warm == cold == {"up": [1], "down": [1, 2]}
        assert cold_log == ["up", "down"]
        assert warm_log == []

    def test_satisfied_stage_prunes_upstream(self, store, fresh_metrics):
        """A store-satisfied stage must not pull its dependencies in."""
        store.put("b" * 64, "json", [1, 2])
        log: list[str] = []
        values = self._keyed_graph(log).run(["down"], store=store)
        assert values == {"down": [1, 2]}
        assert log == []  # the upstream stage never ran
        assert "up" not in values
        assert fresh_metrics.counter("exec.stage.down.cached").value == 1

    def test_callable_key_is_resolved_only_when_probed(self, store):
        store.put("b" * 64, "json", [1, 2])
        probed: list[str] = []
        graph = StageGraph(store)
        for name, key, deps in (("up", "a", ()), ("down", "b", ("up",))):
            graph.stage(
                name,
                lambda deps: [0],
                deps=deps,
                key=lambda name=name, key=key: (probed.append(name), key * 64)[1],
                kind="json",
            )
        assert graph.value("down") == [1, 2]
        assert probed == ["down"]  # the pruned dependency's key never ran
        assert graph.stage_named("down").key == "b" * 64

    def test_concurrent_first_reads_of_a_callable_key(self):
        class SlowKey(Stage):
            """Each read of ``key`` yields the GIL, widening any window
            between two reads of it in one ``store_key`` call."""

            @property
            def key(self):
                time.sleep(0.001)
                return self._key

            @key.setter
            def key(self, value):
                self._key = value

        stage = SlowKey("s", lambda deps: None, key=lambda: "c" * 64)
        barrier = threading.Barrier(8)
        keys: list[str] = []
        errors: list[BaseException] = []

        def read() -> None:
            barrier.wait()
            try:
                keys.append(stage.store_key)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert keys == ["c" * 64] * 8

    def test_graph_metrics(self, store, fresh_metrics):
        self._keyed_graph([]).run(store=store)
        assert fresh_metrics.counter("exec.graph.runs").value == 1
        assert fresh_metrics.gauge("exec.graph.workers").value == 1


class TestGraphParallel:
    def test_parallel_matches_serial(self):
        def fanout(workers: int) -> dict:
            graph = StageGraph()
            graph.stage("root", lambda deps: 1)
            for i in range(6):
                graph.stage(
                    f"leaf/{i}",
                    lambda deps, i=i: deps["root"] + i,
                    deps=("root",),
                )
            graph.stage(
                "join",
                lambda deps: sum(deps[f"leaf/{i}"] for i in range(6)),
                deps=tuple(f"leaf/{i}" for i in range(6)),
            )
            return graph.run(workers=workers)

        assert fanout(1) == fanout(4)

    def test_parallel_actually_overlaps(self):
        barrier = threading.Barrier(2, timeout=10)
        graph = StageGraph()
        graph.stage("x", lambda deps: barrier.wait())
        graph.stage("y", lambda deps: barrier.wait())
        # Both stages block until the other arrives: only a concurrent
        # run can finish (a serial run would trip the barrier timeout).
        values = graph.run(workers=2)
        assert set(values) == {"x", "y"}

    def test_worker_errors_propagate(self):
        graph = StageGraph()

        def boom(deps):
            raise RuntimeError("stage exploded")

        graph.stage("bad", boom)
        with pytest.raises(RuntimeError, match="stage exploded"):
            graph.run(workers=2)
