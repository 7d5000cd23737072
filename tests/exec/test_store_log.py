"""The store's index log: incremental reads, compaction, torn tails, the
open-time sweep and what an open or a put costs."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import store as store_mod
from repro.exec.store import STORE_VERSION, ArtifactStore

SRC = Path(store_mod.__file__).resolve().parents[2]
KEYS = [c * 64 for c in "0123"]


def _value(key: str) -> dict:
    return {"key": key[:8]}


def _oracle(directory: Path) -> dict[str, dict]:
    """The log's live entries, parsed from scratch without store code:
    complete lines only, the last line for a key wins."""
    path = directory / "index.jsonl"
    if not path.exists():
        return {}
    data = path.read_bytes()
    header, *lines = data[: data.rfind(b"\n") + 1].splitlines()
    assert json.loads(header)["version"] == STORE_VERSION
    entries: dict[str, dict] = {}
    for line in lines:
        record = json.loads(line)
        key = record.pop("key")
        if record.get("deleted"):
            entries.pop(key, None)
        else:
            entries[key] = record
    return entries


def _fresh_parse(directory: Path) -> dict[str, dict]:
    """The store's own read of the log from offset 0, memo bypassed."""
    return store_mod._IndexLog(str(directory / "index.jsonl")).read()


def _in_subprocess(statement: str, *args: str) -> None:
    """Run ``statement`` in another process, with ``ArtifactStore`` and
    ``sys`` imported and ``args`` in ``sys.argv[1:]``."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from repro.exec.store import ArtifactStore; "
            + statement,
            *args,
        ],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def _tear(directory: Path) -> None:
    """Leave what a writer killed mid-append leaves: a line without its
    newline."""
    with open(directory / "index.jsonl", "ab") as fh:
        fh.write(b'{"key":"' + b"9" * 40)


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 2),
            st.sampled_from(KEYS),
        ),
        st.tuples(
            st.sampled_from(["reopen", "refresh", "compact", "tear"]),
            st.integers(0, 2),
            st.none(),
        ),
    ),
    max_size=30,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(n_handles=st.integers(2, 3), ops=_OPS)
def test_interleavings_match_model_and_full_parse(tmp_path, n_handles, ops):
    directory = tmp_path / uuid.uuid4().hex
    handles = [ArtifactStore(directory) for _ in range(n_handles)]
    disk: set[str] = set()
    memory: list[set[str]] = [set() for _ in range(n_handles)]
    for op, which, key in ops:
        h = which % n_handles
        store = handles[h]
        if op == "put":
            store.put(key, "json", _value(key))
            disk.add(key)
            memory[h].add(key)
        elif op == "delete":
            held = key in memory[h]
            assert store.delete(key) == held
            if held:
                memory[h].discard(key)
                disk.discard(key)
        elif op == "reopen":
            handles[h] = ArtifactStore(directory)
            memory[h] = set(disk)
        elif op == "refresh":
            # Every held key was read or put through this process's log
            # with the same value, so a key the log lost was deleted.
            assert store.refresh() == len(disk - memory[h])
            memory[h] = set(disk)
        elif op == "compact":
            store._compact()
        elif (directory / "index.jsonl").exists():
            _tear(directory)

        for store, keys in zip(handles, memory):
            assert store.keys() == sorted(keys)
            for k in keys & disk:
                assert store.get(k) == _value(k)
        entries = _oracle(directory)
        assert set(entries) == disk
        assert _fresh_parse(directory) == entries
        for k, entry in entries.items():
            payload = (directory / entry["file"]).read_bytes()
            assert hashlib.sha256(payload).hexdigest() == entry["sha256"]


def test_torn_tail_is_ignored_then_truncated(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(KEYS[0], "json", _value(KEYS[0]))
    log = tmp_path / "store" / "index.jsonl"
    intact = log.read_bytes()
    _tear(tmp_path / "store")
    # Readers parse complete lines only: the partial line is invisible.
    assert ArtifactStore(tmp_path / "store").keys() == [KEYS[0]]
    assert _fresh_parse(tmp_path / "store").keys() == {KEYS[0]}
    # The next writer drops it before appending its own line.
    store.put(KEYS[1], "json", _value(KEYS[1]))
    data = log.read_bytes()
    assert data.startswith(intact) and data.endswith(b"\n")
    assert len(data.splitlines()) == 3
    reopened = ArtifactStore(tmp_path / "store")
    assert reopened.keys() == KEYS[:2]
    assert reopened.get(KEYS[1]) == _value(KEYS[1])


def test_compaction_keeps_live_entries_under_a_new_generation(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    log = tmp_path / "store" / "index.jsonl"
    for key in KEYS:
        store.put(key, "json", _value(key))
    generation = json.loads(log.read_bytes().splitlines()[0])["generation"]
    store.put(KEYS[0], "json", _value(KEYS[0]))  # superseded: 1 dead, 4 live
    store.delete(KEYS[1])  # 3 dead, 3 live
    assert len(log.read_bytes().splitlines()) == 1 + 6
    store.delete(KEYS[2])  # 5 dead, 2 live: compacted
    header, *lines = log.read_bytes().splitlines()
    assert json.loads(header)["generation"] != generation
    assert sorted(json.loads(line)["key"] for line in lines) == [
        KEYS[0],
        KEYS[3],
    ]
    assert ArtifactStore(tmp_path / "store").keys() == [KEYS[0], KEYS[3]]


def test_log_of_another_version_opens_as_misses_and_is_replaced(tmp_path):
    root = tmp_path / "store"
    root.mkdir()
    (root / "index.jsonl").write_text(
        json.dumps({"version": STORE_VERSION + 1, "generation": "x"})
        + '\n{"key": "a", "kind": "json", "file": "f", "sha256": "0"}\n'
    )
    store = ArtifactStore(root)
    assert len(store) == 0
    store.put(KEYS[0], "json", _value(KEYS[0]))
    header, *lines = (root / "index.jsonl").read_bytes().splitlines()
    assert json.loads(header)["version"] == STORE_VERSION
    assert [json.loads(line)["key"] for line in lines] == [KEYS[0]]


# ----------------------------------------------------------------------
# the open-time sweep
# ----------------------------------------------------------------------
def test_open_spares_a_live_writers_payload_temp(tmp_path, monkeypatch):
    # Another handle opens (and sweeps) between the put's mkstemp and
    # its os.replace; the put must still publish its payload.
    store = ArtifactStore(tmp_path / "store")
    real_replace = os.replace
    opened = []

    def replace(src, dst):
        if os.path.basename(src).startswith(".tmp-"):
            opened.append(ArtifactStore(tmp_path / "store"))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    store.put(KEYS[0], "json", _value(KEYS[0]))
    monkeypatch.undo()
    assert len(opened) == 1
    assert store.get(KEYS[0]) == _value(KEYS[0])
    assert ArtifactStore(tmp_path / "store").get(KEYS[0]) == _value(KEYS[0])


def test_open_spares_a_live_compaction_temp(tmp_path, monkeypatch):
    # A process opens the store while this one holds its compaction temp.
    store = ArtifactStore(tmp_path / "store")
    store.put(KEYS[0], "json", _value(KEYS[0]))
    real_replace = os.replace
    opened = []

    def replace(src, dst):
        if os.path.basename(src).startswith(".index-"):
            _in_subprocess("ArtifactStore(sys.argv[1])", os.path.dirname(dst))
            opened.append(src)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    store._compact()
    monkeypatch.undo()
    assert len(opened) == 1
    assert ArtifactStore(tmp_path / "store").get(KEYS[0]) == _value(KEYS[0])


def test_fresh_temps_survive_an_open(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(KEYS[0], "json", _value(KEYS[0]))
    live = tmp_path / "store" / "tmp" / ".tmp-live"
    live.write_text("in flight")
    ArtifactStore(tmp_path / "store")
    assert live.exists()


def test_no_temp_survives_a_put(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put(KEYS[0], "json", _value(KEYS[0]))
    store._compact()
    assert list((tmp_path / "store" / "tmp").iterdir()) == []
    assert list((tmp_path / "store").glob(".index-*")) == []


# ----------------------------------------------------------------------
# cost structure: what an open and a put touch, not how long they take
# ----------------------------------------------------------------------
def test_open_scans_two_directories_whatever_the_shard_count(
    tmp_path, monkeypatch
):
    store = ArtifactStore(tmp_path / "store")
    for i in range(120):
        store.put(f"{i:02x}" + "0" * 62, "json", i)
    assert len(list((tmp_path / "store" / "objects").iterdir())) == 120
    real_scandir = os.scandir
    scanned = []

    def scandir(path="."):
        scanned.append(os.fspath(path))
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    reopened = ArtifactStore(tmp_path / "store")
    monkeypatch.undo()
    assert len(scanned) <= 2
    assert len(reopened) == 120


def test_refresh_drops_a_key_another_handle_deleted(tmp_path):
    a = ArtifactStore(tmp_path / "store")
    b = ArtifactStore(tmp_path / "store")
    for key in KEYS[:2]:
        a.put(key, "json", _value(key))
    b.refresh()
    assert b.delete(KEYS[0])
    assert a.refresh() == 0
    # A lookup misses rather than finding the payload gone.
    assert a.keys() == [KEYS[1]]
    with pytest.raises(KeyError):
        a.get(KEYS[0])
    assert a.get(KEYS[1]) == _value(KEYS[1])


def test_refresh_drops_a_key_another_process_deleted(tmp_path):
    a = ArtifactStore(tmp_path / "store")
    a.put(KEYS[0], "json", _value(KEYS[0]))
    _in_subprocess(
        "assert ArtifactStore(sys.argv[1]).delete(sys.argv[2])",
        str(tmp_path / "store"),
        KEYS[0],
    )
    a.refresh()
    assert not a.has(KEYS[0])


def test_refresh_keeps_held_keys_without_a_log(tmp_path):
    # No log of this schema says nothing about what was deleted.
    a = ArtifactStore(tmp_path / "store")
    a.put(KEYS[0], "json", _value(KEYS[0]))
    (tmp_path / "store" / "index.jsonl").unlink()
    assert a.refresh() == 0
    assert a.get(KEYS[0]) == _value(KEYS[0])


def test_reopen_parses_only_lines_it_has_not_read(tmp_path, fresh_metrics):
    lines_read = fresh_metrics.counter("exec.store.index_lines_read")
    store = ArtifactStore(tmp_path / "store")
    for key in KEYS[:3]:
        store.put(key, "json", _value(key))
    assert lines_read.value == 0  # this process wrote them: nothing to parse
    ArtifactStore(tmp_path / "store")
    store.refresh()
    assert lines_read.value == 0
    # Another process appends one line: this process parses that one.
    _in_subprocess(
        "ArtifactStore(sys.argv[1]).put(sys.argv[2], 'json', 1)",
        str(tmp_path / "store"),
        KEYS[3],
    )
    assert store.refresh() == 1
    assert lines_read.value == 1
    assert ArtifactStore(tmp_path / "store").keys() == KEYS
    assert lines_read.value == 1


def test_put_writes_one_line_whatever_the_store_size(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    log = tmp_path / "store" / "index.jsonl"

    def put_bytes(key: str) -> int:
        before = log.stat().st_size if log.exists() else 0
        store.put(key, "json", {"x": 1}, meta={"stage": "vote"})
        line = json.dumps(
            {"key": key, **store.entry(key)},
            sort_keys=True,
            separators=(",", ":"),
        )
        written = log.stat().st_size - before
        if before:
            assert written == len(line) + 1
        return written

    put_bytes("a" * 64)  # creates the log: header and first line
    small = put_bytes("b" * 64)
    for i in range(300):
        store.put(f"{i:03x}" + "0" * 61, "json", i)
    big = put_bytes("c" * 64)
    # Only created_unix's repr length can differ between the two lines.
    assert abs(big - small) <= 4
    assert len(store) == 303


def test_threads_on_separate_handles_lose_no_put(tmp_path):
    # More threads than cores, on handles of one process that share its
    # parse of the log; a lost update would drop a key.
    n_threads, per_thread = 4, 15
    handles = [ArtifactStore(tmp_path / "store") for _ in range(n_threads)]

    def fill(i):
        for j in range(per_thread):
            handles[i].put(f"{i}{j:02x}" + "0" * 61, "json", j)

    threads = [
        threading.Thread(target=fill, args=(i,)) for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = n_threads * per_thread
    assert len(ArtifactStore(tmp_path / "store")) == expected
    assert len(_oracle(tmp_path / "store")) == expected
    assert len(_fresh_parse(tmp_path / "store")) == expected
    for store in handles:
        store.refresh()
        assert len(store) == expected
