"""ArtifactStore: keys, payload codec, schema, persistence, accounting."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.campaign import run_campaign
from repro.core.config import ExperimentConfig
from repro.exec.store import (
    PAYLOAD_KINDS,
    STORE_VERSION,
    ArtifactStore,
    StoreCorruptionError,
    StoreError,
    stage_key,
)
from repro.utils.sparse import SparseMatrix, SparseVector


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _tiny_sparse() -> SparseMatrix:
    rows = [
        SparseVector(8, np.array([0, 3]), np.array([1.0, 2.5])),
        SparseVector(8, np.array([1, 7]), np.array([0.5, -1.0])),
    ]
    return SparseMatrix.from_rows(rows)


class TestStageKey:
    def test_deterministic(self):
        a = stage_key("phi", fingerprint="f", frontend="FE_A", corpus="dev")
        b = stage_key("phi", fingerprint="f", frontend="FE_A", corpus="dev")
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fingerprint": "other"},
            {"frontend": "FE_B"},
            {"corpus": "train"},
            {"params": {"threshold": 3}},
        ],
    )
    def test_any_component_changes_key(self, kwargs):
        base = dict(
            fingerprint="f", frontend="FE_A", corpus="dev", params={}
        )
        assert stage_key("phi", **base) != stage_key(
            "phi", **{**base, **kwargs}
        )

    def test_stage_name_changes_key(self):
        assert stage_key("phi", fingerprint="f") != stage_key(
            "score", fingerprint="f"
        )

    def test_param_order_irrelevant(self):
        a = stage_key("vote", fingerprint="f", params={"a": 1, "b": 2})
        b = stage_key("vote", fingerprint="f", params={"b": 2, "a": 1})
        assert a == b

    @pytest.mark.parametrize(
        ("stage", "material", "digest"),
        [
            (
                "phi",
                dict(fingerprint="f" * 64, frontend="FE_A", corpus="test@3.0"),
                "47b5d56e248c41fa93ee443ecf1b6d1e"
                "c20802de3b656134e0ae1ece28974527",
            ),
            (
                "svm_train",
                dict(
                    fingerprint="f",
                    frontend="FE_B",
                    params={
                        "model": "baseline",
                        "seed_offset": 1,
                        "svm_solver": 2,
                    },
                ),
                "e20000462cf4429ca76d6a358644fea0"
                "675b88254b5f0ac3ab813b06fbd496f3",
            ),
            (
                "vote",
                dict(
                    fingerprint="f",
                    params={"threshold": 3, "frontends": ("FE_A", "FE_B")},
                ),
                "521e6ce3e37ceabf43d420ebe1dc117b"
                "6b7ee5e756bf9072f004bf40e9e04c7b",
            ),
            (
                "fuse",
                dict(
                    fingerprint="f",
                    frontend=None,
                    corpus="test@10.0",
                    params={
                        "members": ["dba-M1-V3", "dba-M2-V3"],
                        "frontends": ["FE_A"],
                    },
                ),
                "4d81e8e37ce12420f8113427ca30420a"
                "fe9343294c35c524eb90eb73336977d8",
            ),
            (
                "score",
                dict(
                    fingerprint="f",
                    frontend="FE_A",
                    corpus="dev",
                    params={"model": "dba-M1-V3", "tag": "φ", "scale": 0.5},
                ),
                "759fc47374aa9386103690feb61a16ab"
                "6188f1c8882b32f845bb27e060861cc4",
            ),
        ],
    )
    def test_golden_digests(self, stage, material, digest):
        """Key bytes are a store's addresses: these digests were written
        by ``json.dumps(..., sort_keys=True, default=list)`` and must not
        move (tuples encode as arrays, non-ASCII as escapes)."""
        assert stage_key(stage, **material) == digest


class TestRoundTrips:
    def test_sparse(self, store):
        matrix = _tiny_sparse()
        store.put("k" * 64, "sparse", matrix)
        loaded = store.get("k" * 64)
        assert isinstance(loaded, SparseMatrix)
        assert loaded.dim == matrix.dim
        np.testing.assert_array_equal(loaded.indptr, matrix.indptr)
        np.testing.assert_array_equal(loaded.indices, matrix.indices)
        np.testing.assert_array_equal(loaded.values, matrix.values)

    def test_array_bitwise(self, store):
        scores = np.linspace(-3.0, 3.0, 12).reshape(4, 3)
        store.put("a" * 64, "array", scores)
        loaded = store.get("a" * 64)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, scores)

    def test_arrays(self, store):
        value = {
            "weights": np.eye(3),
            "labels": np.array([1, 2, 3], dtype=np.int64),
        }
        store.put("b" * 64, "arrays", value)
        loaded = store.get("b" * 64)
        assert set(loaded) == {"weights", "labels"}
        np.testing.assert_array_equal(loaded["labels"], value["labels"])
        assert loaded["labels"].dtype == np.int64

    def test_json(self, store):
        value = {"threshold": 3, "variant": "M2"}
        store.put("c" * 64, "json", value)
        assert store.get("c" * 64) == value

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError, match="kind"):
            store.put("d" * 64, "pickle", {})
        assert "pickle" not in PAYLOAD_KINDS

    def test_sparse_requires_sparse(self, store):
        with pytest.raises(TypeError):
            store.put("e" * 64, "sparse", np.eye(2))

    def test_arrays_requires_dict(self, store):
        with pytest.raises(TypeError):
            store.put("f" * 64, "arrays", np.eye(2))


_DTYPES = ["<f8", ">f8", "<f4", "<i8", ">i8", "|u1", "|b1", "<U4", ">U2"]
_SHAPES = st.sampled_from([(), (0,), (0, 3), (3, 0)]) | hnp.array_shapes(
    min_dims=1, max_dims=3, min_side=0, max_side=4
)


@st.composite
def _member(draw) -> np.ndarray:
    """Arrays of every layout the store may see, edge values included."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = draw(_SHAPES)
    elements = None
    if dtype.kind == "f":
        elements = st.floats(width=8 * dtype.itemsize)  # NaN, ±inf, -0.0
    layout = draw(st.sampled_from(["c", "strided", "transposed"]))
    if layout == "strided" and shape:
        base = draw(
            hnp.arrays(dtype, (2 * shape[0], *shape[1:]), elements=elements)
        )
        return base[::2]
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    return arr.T if layout == "transposed" else arr


def _assert_same(loaded: np.ndarray, original: np.ndarray) -> None:
    assert loaded.dtype == original.dtype
    assert loaded.shape == original.shape
    assert loaded.tobytes() == original.tobytes()


class TestFlatCodec:
    """The payload codec: exact round-trips and hard failures."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        members=st.dictionaries(
            st.text(max_size=6), _member(), min_size=1, max_size=4
        )
    )
    def test_arrays_round_trip_bitwise(self, store, members):
        store.put("h" * 64, "arrays", members)
        loaded = store.get("h" * 64)
        assert list(loaded) == list(members)
        for name, original in members.items():
            _assert_same(loaded[name], original)
            assert loaded[name].flags.writeable
            assert loaded[name].flags.c_contiguous

    def test_float_edge_values(self, store):
        edge = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        store.put("a" * 64, "array", edge)
        _assert_same(store.get("a" * 64), edge)
        store.put("b" * 64, "arrays", {"be": edge.astype(">f8")})
        _assert_same(store.get("b" * 64)["be"], edge.astype(">f8"))

    def test_string_member_round_trips(self, store):
        # OneVsRestSVM state carries its loss name as a <U member.
        value = {"loss": np.array("squared_hinge"), "w": np.eye(2)}
        store.put("c" * 64, "arrays", value)
        _assert_same(store.get("c" * 64)["loss"], value["loss"])

    def test_members_are_writable_and_independent(self, store):
        store.put("d" * 64, "arrays", {"a": np.zeros(4), "b": np.ones(4)})
        loaded = store.get("d" * 64)
        loaded["a"][:] = 7.0
        assert not np.shares_memory(loaded["a"], loaded["b"])
        np.testing.assert_array_equal(loaded["b"], np.ones(4))
        np.testing.assert_array_equal(store.get("d" * 64)["a"], np.zeros(4))

    @pytest.mark.parametrize("name", ["v", "value", "a_longer_name"])
    def test_members_are_aligned_views(self, store, name):
        # Header lengths vary with member names; an unaligned float64
        # array would sum in other chunks and give other bits.
        original = np.random.default_rng(0).normal(size=10001)
        store.put(
            "9" * 64,
            "arrays",
            {name: original, "odd": np.arange(3, dtype="<i4"), "f": original},
        )
        loaded = store.get("9" * 64)

        def buffer(arr: np.ndarray) -> np.ndarray:
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        # All members are views over the one payload buffer, "f" too:
        # the encoder pads it past the 12 bytes of "odd" to an aligned
        # offset.
        assert buffer(loaded[name]) is buffer(loaded["odd"])
        assert buffer(loaded["f"]) is buffer(loaded["odd"])
        assert loaded[name].flags.aligned
        assert loaded["f"].flags.aligned
        assert loaded[name].sum().hex() == original.sum().hex()
        assert loaded["f"].sum().hex() == original.sum().hex()

    def test_sparse_members_are_owned(self, store):
        store.put("e" * 64, "sparse", _tiny_sparse())
        loaded = store.get("e" * 64)
        assert loaded.values.flags.writeable
        assert not np.shares_memory(loaded.indices, loaded.values)

    def test_object_arrays_rejected(self, store):
        ragged = np.array([1, "two", None], dtype=object)
        with pytest.raises(TypeError, match="dtype"):
            store.put("f" * 64, "arrays", {"ragged": ragged})
        assert not store.has("f" * 64)
        assert list(store.directory.glob("objects/*/*")) == []

    def test_payload_is_one_flat_file(self, store):
        store.put("7" * 64, "arrays", {"w": np.arange(3, dtype="<i8")})
        entry = store.entry("7" * 64)
        assert entry["file"].endswith(".bin")
        data = (store.directory / entry["file"]).read_bytes()
        header_len = int.from_bytes(data[:4], "little")
        table = json.loads(data[4 : 4 + header_len])
        assert table == [["w", "<i8", [3], 0, 24]]
        assert data[4 + header_len :] == np.arange(3, dtype="<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert entry["size"] == len(data)

    def _payload(self, store) -> tuple[str, bytes]:
        store.put("8" * 64, "arrays", {"w": np.arange(6.0)})
        path = store.directory / store.entry("8" * 64)["file"]
        return path, path.read_bytes()

    def test_flipped_header_byte_detected(self, store):
        path, data = self._payload(store)
        corrupt = bytearray(data)
        corrupt[6] ^= 0x01  # inside the JSON member table
        path.write_bytes(bytes(corrupt))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get("8" * 64)

    def test_flipped_data_byte_detected(self, store):
        path, data = self._payload(store)
        corrupt = bytearray(data)
        corrupt[-1] ^= 0x80
        path.write_bytes(bytes(corrupt))
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get("8" * 64)

    def test_truncated_payload_detected(self, store):
        path, data = self._payload(store)
        path.write_bytes(data[:-8])
        with pytest.raises(StoreCorruptionError, match="checksum"):
            store.get("8" * 64)


def _log_lines(directory) -> list[dict]:
    """Every line of the store's index log, parsed: header first."""
    data = (directory / "index.jsonl").read_bytes()
    return [json.loads(line) for line in data.splitlines()]


def _downgrade_to_v1(store: ArtifactStore) -> None:
    """Rewrite ``store`` as the schema-1 layout: ``.npz`` payloads under
    an ``index.json``, and no index log."""
    entries = {}
    for key in store.keys():
        entry = store.entry(key)
        path = store.directory / entry["file"]
        value = store.get(key)
        if entry["kind"] != "json":
            if entry["kind"] == "sparse":
                value = {
                    "dim": np.int64(value.dim),
                    "indptr": value.indptr,
                    "indices": value.indices,
                    "values": value.values,
                }
            elif entry["kind"] == "array":
                value = {"value": value}
            path.unlink()
            path = path.with_suffix(".npz")
            np.savez(path, **value)
        entry["file"] = str(path.relative_to(store.directory))
        entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        entry["size"] = path.stat().st_size
        entries[key] = entry
    (store.directory / "index.json").write_text(
        json.dumps({"version": 1, "entries": entries})
    )
    (store.directory / "index.jsonl").unlink()


class TestSchema:
    def test_version_one_store_opens_as_all_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, "sparse", _tiny_sparse())
        store.put("b" * 64, "json", {"x": 1})
        _downgrade_to_v1(store)
        old = ArtifactStore(tmp_path / "store")
        assert len(old) == 0
        with pytest.raises(KeyError):
            old.get("a" * 64)
        old.put("c" * 64, "json", {"x": 2})
        header, *records = _log_lines(old.directory)
        # The next write keeps none of the schema-1 entries.
        assert header["version"] == STORE_VERSION == 3
        assert [record["key"] for record in records] == ["c" * 64]
        assert ArtifactStore(tmp_path / "store").keys() == ["c" * 64]

    def test_refresh_ignores_a_version_one_index(self, store):
        store.put("a" * 64, "json", 1)
        _downgrade_to_v1(ArtifactStore(store.directory))
        fresh = ArtifactStore(store.directory)
        assert fresh.refresh() == 0 and len(fresh) == 0

    def test_campaign_over_version_one_store_recomputes(
        self, tmp_path, make_system, tiny_config, fresh_metrics
    ):
        config = replace(
            ExperimentConfig(corpus=tiny_config), vote_thresholds=(2, 1)
        )

        def campaign(store):
            return run_campaign(
                config,
                system=make_system(store=store),
                variants=("M1", "M2"),
                fusion_threshold=1,
            )

        def counts():
            snapshot = fresh_metrics.snapshot()
            return {
                name: snapshot[name]["value"]
                for name in snapshot
                if name.startswith(("exec.store.hits", "exec.stage."))
            }

        store = ArtifactStore(tmp_path / "store")
        cold = campaign(store)
        cold_counts = counts()
        assert cold_counts["exec.stage.phi.executed"] > 0
        _downgrade_to_v1(store)

        # Over the old store the campaign runs exactly as it did cold.
        fresh_metrics.reset()
        rerun = campaign(ArtifactStore(tmp_path / "store"))
        assert counts() == cold_counts
        assert rerun.to_text() == cold.to_text()
        assert rerun.baseline_cells == cold.baseline_cells
        assert rerun.dba_fused == cold.dba_fused

        fresh_metrics.reset()
        warm = campaign(ArtifactStore(tmp_path / "store"))
        assert fresh_metrics.counter("exec.stage.phi.executed").value == 0
        assert warm.to_text() == cold.to_text()


class TestPersistence:
    def test_index_survives_reopen(self, store):
        store.put("a" * 64, "json", [1, 2, 3])
        reopened = ArtifactStore(store.directory)
        assert reopened.has("a" * 64)
        assert reopened.get("a" * 64) == [1, 2, 3]
        assert reopened.keys() == ["a" * 64]
        assert len(reopened) == 1

    def test_entry_metadata(self, store):
        store.put("a" * 64, "json", 42, meta={"stage": "vote"})
        entry = store.entry("a" * 64)
        assert entry["kind"] == "json"
        assert entry["meta"] == {"stage": "vote"}
        assert entry["size"] > 0
        assert len(entry["sha256"]) == 64

    def test_index_is_valid_json(self, store):
        store.put("a" * 64, "json", 1)
        header, *records = _log_lines(store.directory)
        assert header["version"] == 3
        assert len(header["generation"]) == 32
        assert [record["key"] for record in records] == ["a" * 64]
        assert records[0]["sha256"] == store.entry("a" * 64)["sha256"]

    def test_bad_index_rejected(self, tmp_path):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "index.jsonl").write_text("{not json\n")
        with pytest.raises(StoreError, match="not valid JSON"):
            ArtifactStore(root)
        # A malformed complete entry line is rejected as well.
        header = {"version": STORE_VERSION, "generation": "1" * 32}
        (root / "index.jsonl").write_text(json.dumps(header) + "\n{not\n")
        with pytest.raises(StoreError, match="not valid JSON"):
            ArtifactStore(root)

    def test_wrong_layout_rejected(self, tmp_path):
        root = tmp_path / "layout"
        root.mkdir()
        (root / "index.jsonl").write_text('{"entries": []}\n')
        with pytest.raises(StoreError, match="unexpected layout"):
            ArtifactStore(root)
        # An entry line that is JSON but no record is rejected as well.
        header = {"version": STORE_VERSION, "generation": "2" * 32}
        (root / "index.jsonl").write_text(json.dumps(header) + "\n[]\n")
        with pytest.raises(StoreError, match="unexpected layout"):
            ArtifactStore(root)

    def test_objects_sharded_by_prefix(self, store):
        key = "ab" + "0" * 62
        store.put(key, "json", 1)
        assert (store.directory / "objects" / "ab").is_dir()


class TestAccounting:
    def test_hit_miss_byte_counters(self, store, fresh_metrics):
        hits = fresh_metrics.counter("exec.store.hits")
        misses = fresh_metrics.counter("exec.store.misses")
        nbytes = fresh_metrics.counter("exec.store.bytes")
        with pytest.raises(KeyError):
            store.get("0" * 64)
        assert misses.value == 1
        store.put("0" * 64, "json", {"x": 1})
        assert nbytes.value > 0
        store.get("0" * 64)
        assert hits.value == 1


class TestHygiene:
    def test_orphan_temps_swept_on_open(self, tmp_path):
        import os
        import time

        store = ArtifactStore(tmp_path / "store")
        store.put("a" * 64, "json", {"x": 1})
        orphan = store.directory / "tmp" / ".tmp-killed"
        orphan.write_text("partial")
        index_orphan = store.directory / ".index-killed.tmp"
        index_orphan.write_text("partial")
        # Only temps older than the stale window are a dead writer's.
        stale = time.time() - 120.0
        os.utime(orphan, (stale, stale))
        os.utime(index_orphan, (stale, stale))
        reopened = ArtifactStore(tmp_path / "store")
        assert not orphan.exists()
        assert not index_orphan.exists()
        assert reopened.get("a" * 64) == {"x": 1}  # real payloads kept

    def test_no_temp_files_survive_a_put(self, store):
        store.put("b" * 64, "json", {"x": 1})
        assert list((store.directory / "tmp").iterdir()) == []
        assert list(store.directory.glob(".index-*.tmp")) == []

    def test_delete_removes_entry_and_payload(self, store):
        store.put("c" * 64, "json", {"x": 1})
        path = store.directory / store.entry("c" * 64)["file"]
        assert store.delete("c" * 64)
        assert not store.has("c" * 64)
        assert not path.exists()
        assert not store.delete("c" * 64)  # idempotent
        # The deletion is durable: a reopen does not resurrect the key.
        assert not ArtifactStore(store.directory).has("c" * 64)

    def test_verify_reports_checksum_and_missing(self, store):
        store.put("d" * 64, "json", {"x": 1})
        store.put("e" * 64, "json", {"x": 2})
        store.put("f" * 64, "json", {"x": 3})
        (store.directory / store.entry("d" * 64)["file"]).write_text("junk")
        (store.directory / store.entry("e" * 64)["file"]).unlink()
        report = store.verify()
        problems = {r["key"]: r["problem"] for r in report}
        assert problems == {"d" * 64: "checksum", "e" * 64: "missing"}
        assert store.has("d" * 64)  # report-only: nothing dropped

    def test_verify_remove_drops_corrupt_entries(self, store):
        store.put("d" * 64, "json", {"x": 1})
        store.put("f" * 64, "json", {"x": 3})
        bad_path = store.directory / store.entry("d" * 64)["file"]
        bad_path.write_text("junk")
        removed = store.verify(remove=True)
        assert [r["key"] for r in removed] == ["d" * 64]
        assert not store.has("d" * 64)
        assert not bad_path.exists()
        assert store.get("f" * 64) == {"x": 3}  # healthy entry untouched
        assert store.verify() == []
        # Durable: the next process sees the cleaned index.
        assert not ArtifactStore(store.directory).has("d" * 64)

    def test_held_lock_times_out(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", lock_timeout=0.2)
        (store.directory / "index.lock").write_text("4242")
        with pytest.raises(StoreError, match="timed out"):
            store.put("a" * 64, "json", {"x": 1})

    def test_stale_lock_broken(self, tmp_path):
        import os
        import time

        store = ArtifactStore(tmp_path / "store", lock_timeout=1.0)
        lock = store.directory / "index.lock"
        lock.write_text("4242")
        stale = time.time() - 120.0
        os.utime(lock, (stale, stale))
        store.put("a" * 64, "json", {"x": 1})  # breaks the stale lock
        assert store.get("a" * 64) == {"x": 1}
        assert not lock.exists()

    def test_concurrent_writers_merge_index(self, tmp_path):
        # Two store handles on one directory: interleaved puts must not
        # lose each other's entries to read-modify-write races.
        a = ArtifactStore(tmp_path / "store")
        b = ArtifactStore(tmp_path / "store")
        a.put("a" * 64, "json", {"who": "a"})
        b.put("b" * 64, "json", {"who": "b"})
        a.put("c" * 64, "json", {"who": "a"})
        fresh = ArtifactStore(tmp_path / "store")
        assert fresh.keys() == sorted(["a" * 64, "b" * 64, "c" * 64])
        assert fresh.get("b" * 64) == {"who": "b"}


def _race_break_stale_lock(store_dir, barrier, queue):
    """Child process: race one stale-lock break against a sibling."""
    from repro.exec.store import ArtifactStore

    store = ArtifactStore(store_dir)
    lock = store.directory / "index.lock"
    barrier.wait(timeout=30)
    queue.put(store._break_stale_lock(lock))


class TestStaleLockBreakRace:
    """The unlink-based break had a TOCTOU hole: between *observing* a
    stale lock and *deleting* it, another waiter could break it first
    and a third process could acquire a fresh lock under the same name
    — which the slow unlink then destroyed, leaving two writers inside
    the critical section.  The rename-and-reverify protocol closes it.
    """

    def test_break_aborts_when_lock_turns_fresh_in_window(
        self, tmp_path, monkeypatch
    ):
        import os
        import time

        from repro.exec import store as store_mod

        store = ArtifactStore(tmp_path / "store")
        lock = store.directory / "index.lock"
        lock.write_text("1111")
        stale = time.time() - 120.0
        os.utime(lock, (stale, stale))

        def faster_racer():
            # Deterministically script the hole: inside our TOCTOU
            # window the stale lock is broken by someone else AND a
            # third process acquires a fresh lock under the same name.
            monkeypatch.setattr(store_mod, "_break_hook", None)
            lock.unlink()
            lock.write_text("2222")

        monkeypatch.setattr(store_mod, "_break_hook", faster_racer)
        assert store._break_stale_lock(lock) is False
        # The fresh holder's lock survived our (aborted) break.
        assert lock.read_text() == "2222"
        assert not list(store.directory.glob(".lockbreak-*"))

    def test_exactly_one_of_two_racing_processes_breaks(self, tmp_path):
        import multiprocessing
        import os
        import time

        store = ArtifactStore(tmp_path / "store")
        lock = store.directory / "index.lock"
        lock.write_text("4242")
        stale = time.time() - 120.0
        os.utime(lock, (stale, stale))

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_break_stale_lock,
                args=(str(store.directory), barrier, queue),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
        # The rename elects exactly one breaker; the loser backs off
        # instead of unlinking a lock it no longer understands.
        assert sorted(results) == [False, True]
        assert not lock.exists()
        assert not list(store.directory.glob(".lockbreak-*"))

    def test_breaker_litter_swept_on_open(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        # A breaker killed between rename and unlink leaves its grab.
        (store.directory / ".lockbreak-999-deadbeef").write_text("4242")
        reopened = ArtifactStore(tmp_path / "store")
        assert not list(reopened.directory.glob(".lockbreak-*"))
