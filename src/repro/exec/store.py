"""Content-addressed persistence for pipeline stage products.

The :class:`ArtifactStore` is the one persistent cache of the batch
stack: it holds *every* stage product the pipeline produces — raw φ(x)
supervector matrices, fitted :class:`~repro.svm.vsm.VSM` state dicts,
dense score matrices, vote/pseudo-label selections and fused score
vectors.  Keys are content-addressed: :func:`stage_key` hashes the
experiment config fingerprint (the same
:func:`repro.serve.artifacts.config_fingerprint` the serving artifacts
pin), the frontend name, the corpus tag and the free-form stage
parameters, so two runs agree on a key exactly when they would compute
the same value.

Layout of a store directory::

    index.jsonl                     the index log: a header line
                                    {"version": 3, "generation": <32 hex>},
                                    then one line per entry record
                                    {key, kind, file, sha256, size,
                                    created_unix, meta} or tombstone
                                    {key, "deleted": true}; the last line
                                    for a key wins
    objects/<kk>/<key>.<ext>        payload files, sharded by key prefix
    tmp/                            payload temps in flight

Payloads of kind ``sparse``, ``array`` and ``arrays`` are ``.bin`` files
in the flat codec of :mod:`repro.utils.payload`, which the saved systems
of :mod:`repro.serve.artifacts` use too.  A ``sparse`` payload holds the
members ``dim``, ``indptr``, ``indices`` and ``values``; an ``array``
payload the one member ``value``.  ``json`` payloads are ``.json`` text.

Every :meth:`~ArtifactStore.get` reads its payload file once, verifies
the recorded SHA-256 and returns writable views over those same bytes,
so what is returned is exactly what was verified.  A mismatch raises
:class:`StoreCorruptionError` rather than returning stale or tampered
data (the same hard-fail posture as :mod:`repro.serve.artifacts`).

The index log carries a schema ``version`` (:data:`STORE_VERSION`).  A
directory whose only index is an older ``index.json`` — schema 1 stored
``.npz`` payloads, schema 2 kept a whole-file JSON index — and a log of
another version open as an empty store: every lookup misses, the stages
recompute, and the next write starts a new log that keeps none of the
old entries.  Old files are left on disk untouched; old payload names
never collide with the current ``.bin`` payloads.

Reading the index
-----------------
A process keeps one parse of each log it has read, keyed by the log's
resolved path: its ``generation``, the byte offset it has parsed up to
and the entries.  Opening a store or :meth:`~ArtifactStore.refresh`
reads the header line; when its generation matches, only the bytes past
that offset are parsed, so a re-open with no new puts parses no entry
line.  A different generation (the log was compacted or replaced) or a
file shorter than the offset parses the whole log again, with the same
read from the first entry line.  Only complete lines are parsed; a
complete line that is not a JSON entry record or tombstone raises
:class:`StoreError`.  ``exec.store.index_lines_read`` counts the entry
lines parsed.

Crash and concurrency hygiene
-----------------------------
Payload files are written to a ``.tmp-*`` file in ``tmp/`` (the same
filesystem, so the publish is atomic) and published by ``os.replace``
into their shard, so a writer killed mid-``put`` leaves only an orphan
temp, never a half-written payload under a final name.  Index writes
happen under an exclusive ``index.lock`` file (``O_CREAT|O_EXCL``,
bounded wait, stale locks older than :data:`_LOCK_STALE_S` are broken):
a put appends its one record line with one ``os.write`` on an
``O_APPEND`` descriptor, so the bytes a put writes do not grow with the
store, and two processes sharing a store never lose each other's
records.  Under the lock a writer first drops an incomplete last line,
which only a writer killed mid-append can leave; readers never parse
one.  :meth:`~ArtifactStore.delete` and ``verify(remove=True)`` append
tombstones.  Once superseded and tombstoned lines outnumber live ones,
the writer compacts the log under the lock: a temp file with only the
live entries and a fresh generation replaces it by ``os.replace``.

Opening a store sweeps orphans with two directory scans: ``tmp/`` for
payload temps and the root for index temps (``.index-*.tmp``) and
lock-breaker grabs (``.lockbreak-*``).  A temp is swept only once its
mtime is older than :data:`_LOCK_STALE_S`, so an open never deletes the
temp of a live writer in another process that is about to publish it.
A directory without a schema-3 log also has its shards swept once:
earlier schemas wrote their payload temps there, and nothing of this
schema ever does.

In memory a handle knows its own puts and what it read at open;
:meth:`~ArtifactStore.refresh` adds the keys other handles and
processes published since (memory wins per key) and drops the keys
they deleted.
:meth:`ArtifactStore.verify` re-hashes every payload against the index
(``repro exec verify STORE`` from the CLI) and can drop corrupt
entries so the next run recomputes them.

Chaos drills can target the store: the ambient ``REPRO_FAULTS`` plan's
``store`` target (see :mod:`repro.faults.injection`) fires at the top
of every :meth:`~ArtifactStore.get` / :meth:`~ArtifactStore.put`, which
is how ``benchmarks/bench_exec_faults.py`` proves the retry path around
store I/O.

Store traffic is accounted in the process-wide metrics registry under
``exec.store.hits`` / ``exec.store.misses`` / ``exec.store.bytes``, so
traced runs (``REPRO_TRACE=1``) show cache behaviour in their runlogs.
Each hit runs under a ``store.get`` trace span and each put under a
``store.put`` span (:data:`~repro.obs.trace.NULL_SPAN` with tracing
off).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.faults.injection import ambient_plan
from repro.obs import trace
from repro.obs.metrics import default_registry
from repro.utils.payload import (
    PayloadMismatch,
    decode_members,
    encode_members,
    file_problem,
    read_verified,
)
from repro.utils.sparse import SparseMatrix

__all__ = [
    "StoreError",
    "StoreCorruptionError",
    "stage_key",
    "ArtifactStore",
    "PAYLOAD_KINDS",
    "STORE_VERSION",
]

#: Parent-side accounting of store traffic (see module docstring).
_STORE_HITS = default_registry().counter("exec.store.hits")
_STORE_MISSES = default_registry().counter("exec.store.misses")
_STORE_BYTES = default_registry().counter("exec.store.bytes")
_INDEX_LINES_READ = default_registry().counter("exec.store.index_lines_read")

#: Payload kinds the store can (de)serialise.
PAYLOAD_KINDS = ("sparse", "array", "arrays", "json")

#: Schema of the index and its payloads (1: ``.npz`` payloads; 2: flat
#: ``.bin`` payloads under a whole-file ``index.json``; 3: the
#: ``index.jsonl`` log).  An index of another version opens empty.
STORE_VERSION = 3

_INDEX = "index.jsonl"
_OBJECTS = "objects"
_TMP = "tmp"
_EXT = {"sparse": "bin", "array": "bin", "arrays": "bin", "json": "json"}
#: Fields every entry record of the index log carries.
_ENTRY_FIELDS = frozenset({"kind", "file", "sha256"})

_LOCK = "index.lock"
#: A lock file older than this is presumed abandoned (killed writer)
#: and broken; index critical sections are milliseconds long.  Temps
#: are swept only once they are this old.
_LOCK_STALE_S = 30.0
#: Prefix of in-flight payload temp files (swept on store open).
_TMP_PREFIX = ".tmp-"

#: Test hook invoked between observing a stale ``index.lock`` and
#: breaking it — lets regression tests force the historical TOCTOU
#: interleaving (two waiters both see the stale lock, a third process
#: acquires, the break must not delete the new holder's lock).
_break_hook: Callable[[], None] | None = None


#: The canonical JSON form of :func:`stage_key` material, built once:
#: ``json.dumps(..., sort_keys=True, default=list)`` makes a new encoder
#: per call, and this one writes the same bytes.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=list)


class StoreError(RuntimeError):
    """The store or one of its payloads cannot be used safely."""


class StoreCorruptionError(StoreError):
    """A payload file does not match the checksum recorded at put time."""


def stage_key(
    stage: str,
    *,
    fingerprint: str,
    frontend: str | None = None,
    corpus: str | None = None,
    params: dict[str, Any] | None = None,
) -> str:
    """Content-addressed key of one stage execution.

    The key is the SHA-256 of the canonical JSON form of
    ``(stage, fingerprint, frontend, corpus, params)`` — sorted keys,
    tuples as arrays — so any change to the experiment config (via the
    fingerprint), the frontend battery, the corpus split or the stage's
    own parameters produces a different key and therefore a store miss.
    """
    payload = _KEY_ENCODER.encode(
        {
            "stage": str(stage),
            "fingerprint": str(fingerprint),
            "frontend": frontend,
            "corpus": corpus,
            "params": params or {},
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _encode(kind: str, value: Any) -> bytes:
    """Payload bytes of ``value`` as payload kind ``kind``."""
    if kind == "sparse":
        if not isinstance(value, SparseMatrix):
            raise TypeError("kind 'sparse' requires a SparseMatrix")
        return encode_members(
            {
                "dim": np.int64(value.dim),
                "indptr": value.indptr,
                "indices": value.indices,
                "values": value.values,
            }
        )
    if kind == "array":
        return encode_members(
            {"value": np.asarray(value, dtype=np.float64)}
        )
    if kind == "arrays":
        if not isinstance(value, dict) or not value:
            raise TypeError(
                "kind 'arrays' requires a non-empty dict of arrays"
            )
        return encode_members(value)
    return json.dumps(value, sort_keys=True, default=list).encode()


def _decode(kind: str, buf: np.ndarray, begin: int) -> Any:
    """Inverse of :func:`_encode` for the payload at ``buf[begin:]``."""
    if kind == "json":
        return json.loads(buf[begin:].tobytes())
    members = decode_members(buf, begin)
    if kind == "sparse":
        return SparseMatrix(
            int(members["dim"]),
            members["indptr"],
            members["indices"],
            members["values"],
        )
    if kind == "array":
        return members["value"]
    return members


def _unlink_matching(
    directory: str, match: Callable[[os.DirEntry], bool]
) -> int:
    """Remove the entries of ``directory`` that ``match``; returns count."""
    removed = 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if match(entry):
                try:
                    os.unlink(entry.path)
                except FileNotFoundError:
                    pass
                removed += 1
    return removed


def _older_than(entry: os.DirEntry, cutoff: float) -> bool:
    """Whether ``entry`` was last modified before ``cutoff`` (epoch s)."""
    try:
        return entry.stat().st_mtime < cutoff
    except FileNotFoundError:
        return False


def _record_line(record: dict[str, Any]) -> bytes:
    """One index log line: ``record`` as compact JSON and a newline."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return text.encode() + b"\n"


def _header_generation(line: bytes, path: str) -> str | None:
    """The generation of an index log header; ``None`` for another schema."""
    try:
        header = json.loads(line) if line.endswith(b"\n") else None
    except ValueError as exc:
        raise StoreError(
            f"store index {path} header is not valid JSON: {exc}"
        ) from None
    if not isinstance(header, dict) or "version" not in header:
        raise StoreError(f"store index {path} has an unexpected layout")
    if header["version"] != STORE_VERSION:
        return None  # another schema: everything misses and recomputes
    generation = header.get("generation")
    if not isinstance(generation, str):
        raise StoreError(f"store index {path} has an unexpected layout")
    return generation


def _parse_record(line: bytes, path: str) -> dict[str, Any]:
    """One entry record or tombstone line of an index log."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise StoreError(
            f"store index {path} has a line that is not valid JSON: {exc}"
        ) from None
    if not (
        isinstance(record, dict)
        and isinstance(record.get("key"), str)
        and (record.get("deleted") is True or _ENTRY_FIELDS <= record.keys())
    ):
        raise StoreError(f"store index {path} has an unexpected layout")
    return record


class _IndexLog:
    """This process's parse of one index log (see the module docstring).

    ``entries`` holds what the log's complete lines up to ``offset``
    say, for the log of ``generation`` (``None``: no log of this
    schema).  ``lines`` counts the entry lines behind ``entries``, live
    or not, which decides compaction.  ``seen`` maps each key this
    process ever parsed or appended an entry for to its last ``sha256``,
    across tombstones and re-parses.  Every method runs under
    ``self.lock``; the writers also hold the store's ``index.lock``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock = threading.Lock()
        self.seen: dict[str, str] = {}
        self._reset(None, 0)

    def _reset(self, generation: str | None, offset: int) -> None:
        self.generation = generation
        self.offset = offset
        self.entries: dict[str, dict[str, Any]] = {}
        self.lines = 0

    def _apply(self, record: dict[str, Any]) -> None:
        key = record.pop("key")
        if record.get("deleted"):
            self.entries.pop(key, None)
        else:
            self.entries[key] = record
            self.seen[key] = record["sha256"]
        self.lines += 1

    def _catch_up(self, fh) -> int:
        """Parse what was appended since the last read; returns the
        length of an incomplete last line (bytes left unparsed)."""
        header = fh.readline()
        generation = _header_generation(header, self.path)
        if (
            generation is None
            or generation != self.generation
            or os.fstat(fh.fileno()).st_size < self.offset
        ):
            self._reset(generation, len(header))
            if generation is None:
                return 0
        fh.seek(self.offset)
        data = fh.read()
        end = data.rfind(b"\n") + 1
        lines = data[:end].splitlines()
        try:
            for line in lines:
                self._apply(_parse_record(line, self.path))
        except StoreError:
            self._reset(None, 0)  # the next read parses the whole log
            raise
        self.offset += end
        _INDEX_LINES_READ.inc(len(lines))
        return len(data) - end

    def read(self) -> dict[str, dict[str, Any]]:
        """The log's entries, after parsing only what is new (a copy)."""
        with self.lock:
            try:
                with open(self.path, "rb") as fh:
                    self._catch_up(fh)
            except FileNotFoundError:
                self._reset(None, 0)
            return dict(self.entries)

    def deleted(self, index: dict[str, dict[str, Any]]) -> list[str]:
        """Keys of ``index`` the log held with the same ``sha256`` and
        no longer holds (none without a log of this schema)."""
        with self.lock:
            if self.generation is None:
                return []
            return [
                key
                for key, entry in index.items()
                if key not in self.entries
                and self.seen.get(key) == entry["sha256"]
            ]

    def _catch_up_to_write(self) -> None:
        """Catch up under ``index.lock`` and leave a log this schema can
        append to: an incomplete last line is dropped (no live writer
        holds one while the lock is held) and a missing or foreign log
        is replaced by an empty one."""
        try:
            with open(self.path, "rb") as fh:
                torn = self._catch_up(fh)
        except FileNotFoundError:
            self._reset(None, 0)
            torn = 0
        if self.generation is None:
            self._rewrite()
        elif torn:
            os.truncate(self.path, self.offset)

    def _rewrite(self) -> None:
        """Replace the log by ``entries`` under a fresh generation."""
        generation = os.urandom(16).hex()
        header = {"version": STORE_VERSION, "generation": generation}
        data = _record_line(header) + b"".join(
            _record_line({"key": key, **entry})
            for key, entry in self.entries.items()
        )
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(self.path), prefix=".index-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self.path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self.generation = generation
        self.offset = len(data)
        self.lines = len(self.entries)

    def append(self, records: list[dict[str, Any]]) -> None:
        """Append ``records`` in one write; compact once dead lines
        outnumber live ones.  The caller holds ``index.lock``."""
        data = b"".join(_record_line(record) for record in records)
        with self.lock:
            self._catch_up_to_write()
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                view = memoryview(data)
                while view:  # one write(2) unless the kernel writes short
                    view = view[os.write(fd, view) :]
            finally:
                os.close(fd)
            self.offset += len(data)
            for record in records:
                self._apply(dict(record))
            if self.lines - len(self.entries) > len(self.entries):
                self._rewrite()

    def compact(self) -> None:
        """Rewrite the log with only its live entries.  The caller holds
        ``index.lock``."""
        with self.lock:
            self._catch_up_to_write()
            self._rewrite()


#: One :class:`_IndexLog` per resolved log path, shared by every handle
#: this process opens on that store.
_LOGS: dict[str, _IndexLog] = {}
_LOGS_LOCK = threading.Lock()


def _index_log(path: str) -> _IndexLog:
    resolved = os.path.realpath(path)
    with _LOGS_LOCK:
        log = _LOGS.get(resolved)
        if log is None:
            log = _LOGS[resolved] = _IndexLog(resolved)
        return log


class ArtifactStore:
    """Directory-backed, checksum-verified store of stage products.

    Parameters
    ----------
    directory:
        Store root; created if missing.  An existing ``index.jsonl`` is
        adopted, so stores persist across processes and runs.
    lock_timeout:
        Seconds to wait for the inter-process ``index.lock`` before
        raising :class:`StoreError`.

    The store is thread-safe: the stage-graph runner executes
    independent per-frontend stages concurrently and all of them read
    and write one store.  Opening a store sweeps ``.tmp-*`` payload
    orphans older than :data:`_LOCK_STALE_S` left behind by writers
    that were killed mid-``put``.
    """

    def __init__(
        self, directory: str | Path, *, lock_timeout: float = 10.0
    ) -> None:
        self.directory = Path(directory)
        #: ``directory`` as a string ending in a separator, so a hit
        #: joins its payload path without building a ``Path``
        self._root = os.path.join(str(self.directory), "")
        self.lock_timeout = float(lock_timeout)
        (self.directory / _OBJECTS).mkdir(parents=True, exist_ok=True)
        (self.directory / _TMP).mkdir(exist_ok=True)
        self._lock = threading.RLock()
        self._log = _index_log(self._root + _INDEX)
        self._index = self._log.read()
        self._sweep_orphans(shards=self._log.generation is None)

    def _sweep_orphans(self, *, shards: bool) -> int:
        """Remove temp files abandoned by killed writers; returns count.

        Covers payload temps (``tmp/.tmp-*``) and index temps
        (``.index-*.tmp`` in the root) older than :data:`_LOCK_STALE_S`,
        and lock-breaker grabs (``.lockbreak-*``), one directory scan
        each.  A younger temp may belong to a live writer in another
        process that is about to publish it.  With ``shards`` the shard
        directories are swept of ``.tmp-*`` files as well, whatever
        their age: only earlier schemas wrote temps there.
        """
        cutoff = time.time() - _LOCK_STALE_S
        swept = _unlink_matching(
            self._root + _TMP,
            lambda e: e.name.startswith(_TMP_PREFIX)
            and _older_than(e, cutoff),
        )
        # A lock breaker killed between rename and unlink leaves its
        # uniquely-named grab (``.lockbreak-*``) behind; the lock itself
        # is gone, so this is litter, not a held lock.
        swept += _unlink_matching(
            self._root,
            lambda e: e.name.startswith(".lockbreak-")
            or (
                e.name.startswith(".index-")
                and e.name.endswith(".tmp")
                and _older_than(e, cutoff)
            ),
        )
        if shards:
            with os.scandir(self._root + _OBJECTS) as entries:
                for shard in entries:
                    if shard.is_dir():
                        swept += _unlink_matching(
                            shard.path,
                            lambda e: e.name.startswith(_TMP_PREFIX),
                        )
        return swept

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Exclusive inter-process lock around index writes.

        ``O_CREAT | O_EXCL`` on ``index.lock`` with a bounded wait;
        locks older than :data:`_LOCK_STALE_S` are presumed abandoned
        by a killed process and broken.  Raises :class:`StoreError` on
        timeout rather than proceeding unlocked.

        Stale locks are broken by *renaming* them to a waiter-unique
        name and re-verifying staleness on the renamed file, never by a
        blind unlink: two waiters that both observed the same stale
        lock would otherwise both unlink, and the slower one could
        delete the lock a third process had just legitimately acquired
        under the same name.  The rename is atomic, so exactly one
        breaker wins; a breaker that discovers it grabbed a *fresh*
        lock (the holder renewed, or a new holder appeared between stat
        and rename) hands it back via ``os.link`` — which never
        clobbers — and backs off.
        """
        lock_path = self.directory / _LOCK
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                break
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_S:
                    self._break_stale_lock(lock_path)
                    continue
                if time.monotonic() >= deadline:
                    raise StoreError(
                        f"timed out after {self.lock_timeout:.1f}s waiting "
                        f"for store lock {lock_path} (held for {age:.1f}s)"
                    ) from None
                time.sleep(0.01)
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            lock_path.unlink(missing_ok=True)

    def _break_stale_lock(self, lock_path: Path) -> bool:
        """Safely break a lock observed stale; returns whether we broke it.

        See :meth:`_file_lock` for the rationale.  The breaker file is
        named after this pid *and* a per-call token so concurrent
        breakers in one process can never collide on the rename target.
        """
        token = os.urandom(4).hex()
        breaker = lock_path.with_name(
            f".lockbreak-{os.getpid()}-{token}"
        )
        if _break_hook is not None:
            _break_hook()
        try:
            os.rename(lock_path, breaker)
        except OSError:
            return False  # lost the race: broken or released already
        try:
            age = time.time() - breaker.stat().st_mtime
        except OSError:
            return False
        if age <= _LOCK_STALE_S:
            # What we grabbed is *fresh* — the holder touched it (or a
            # new holder acquired) between our stat and our rename.
            # Hand it back without clobbering any newer lock: link()
            # fails with EEXIST instead of overwriting.
            try:
                os.link(breaker, lock_path)
            except OSError:
                pass  # an even newer lock exists; nothing to restore
            breaker.unlink(missing_ok=True)
            return False
        breaker.unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def has(self, key: str) -> bool:
        """Whether the index records a payload under ``key``."""
        with self._lock:
            return key in self._index

    def refresh(self) -> int:
        """Merge the on-disk index into memory; returns new-key count.

        A long-lived store handle only learns about its *own* puts; in
        a distributed campaign other worker processes publish stages
        through the same directory, and a worker waiting on a leased
        stage must be able to observe the winner's put without
        reopening the store.  Only the log lines appended since this
        process last read the log are parsed.  Disk entries never
        override keys this handle already holds (memory wins per key),
        but a key another handle or process deleted — the log held it
        with the same ``sha256`` and no longer does — is dropped, so a
        lookup misses rather than finds its payload gone.
        """
        with self._lock:
            disk = self._log.read()
            for key in self._log.deleted(self._index):
                del self._index[key]
            added = len(disk.keys() - self._index.keys())
            self._index = {**disk, **self._index}
            return added

    def entry(self, key: str) -> dict[str, Any]:
        """The index entry for ``key`` (a copy; raises ``KeyError``)."""
        with self._lock:
            return dict(self._index[key])

    def keys(self) -> list[str]:
        """All recorded keys (sorted)."""
        with self._lock:
            return sorted(self._index)

    def _object_path(self, key: str, kind: str) -> Path:
        return self.directory / _OBJECTS / key[:2] / f"{key}.{_EXT[kind]}"

    def _append(self, records: list[dict[str, Any]]) -> None:
        """Append ``records`` to the index log under the inter-process
        lock.  Must be called with ``self._lock`` held."""
        with self._file_lock():
            self._log.append(records)

    def _compact(self) -> None:
        """Rewrite the index log with only its live entries.

        Writers compact on their own once superseded and tombstoned
        lines outnumber live ones; this forces it (for tests).
        """
        with self._lock, self._file_lock():
            self._log.compact()

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        kind: str,
        value: Any,
        *,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Persist ``value`` under ``key`` as payload kind ``kind``.

        ``meta`` (JSON-able) is stored in the index entry for
        provenance (stage name, frontend, corpus tag, …) and is never
        used for lookup.

        The payload is written to a ``.tmp-*`` file in ``tmp/`` and
        published by ``os.replace``, so a writer killed mid-put can never
        leave a half-written file under a final payload name; then one
        record line is appended to the index log.
        """
        ambient_plan().apply("store")
        if kind not in PAYLOAD_KINDS:
            raise ValueError(
                f"unknown payload kind {kind!r}; expected one of "
                f"{PAYLOAD_KINDS}"
            )
        data = _encode(kind, value)
        path = self._object_path(key, kind)
        with trace.span("store.put", kind=kind) as sp:
            sp.inc("bytes", len(data))
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self._root + _TMP, prefix=_TMP_PREFIX
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
            _STORE_BYTES.inc(len(data))
            entry = {
                "kind": kind,
                "file": str(path.relative_to(self.directory)),
                "sha256": hashlib.sha256(data).hexdigest(),
                "size": len(data),
                "created_unix": time.time(),
                "meta": meta or {},
            }
            with self._lock:
                self._index[key] = entry
                self._append([{"key": key, **entry}])

    def get(self, key: str) -> Any:
        """Load and return the payload under ``key``.

        Raises ``KeyError`` when the key is unknown (a *miss*) and
        :class:`StoreCorruptionError` when the payload file is missing
        or fails checksum verification (never stale data).  The file is
        read once into an owned buffer; the checksum and the parse both
        use it, and the returned arrays are views over it.
        """
        ambient_plan().apply("store")
        with self._lock:
            entry = self._index.get(key)
        if entry is None:
            _STORE_MISSES.inc()
            raise KeyError(f"no artifact stored under key {key[:12]}…")
        with trace.span("store.get", kind=entry["kind"]) as sp:
            try:
                buf, begin = read_verified(
                    self._root + entry["file"], entry["sha256"]
                )
            except FileNotFoundError:
                raise StoreCorruptionError(
                    f"artifact payload {entry['file']} is missing from disk"
                ) from None
            except PayloadMismatch as exc:
                raise StoreCorruptionError(
                    f"artifact payload {entry['file']} failed checksum "
                    f"verification ({exc} in the index)"
                ) from None
            sp.inc("bytes", len(buf) - begin)
            value = _decode(entry["kind"], buf, begin)
        _STORE_HITS.inc()
        return value

    def delete(self, key: str) -> bool:
        """Remove ``key`` and its payload file; returns whether it existed.

        Used by the pipeline to un-persist stage products that turned
        out tainted (computed from quarantined decodes) — a
        content-addressed key promises the clean value, so a partial one
        must not outlive the run that produced it.
        """
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is None:
                return False
            (self.directory / entry["file"]).unlink(missing_ok=True)
            self._append([{"key": key, "deleted": True}])
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def verify(self, *, remove: bool = False) -> list[dict[str, Any]]:
        """Re-hash every payload against the index; report corruption.

        Returns one record per corrupt entry: ``{"key", "file",
        "problem"}`` where ``problem`` is ``"missing"`` (payload file
        gone) or ``"checksum"`` (content drifted from the recorded
        SHA-256).  With ``remove=True`` the corrupt entries are dropped
        from the index — and their payload files deleted — so the next
        campaign recomputes them instead of hard-failing mid-run.
        Healthy entries are never touched.
        """
        with self._lock:
            entries = {k: dict(v) for k, v in self._index.items()}
        root = self._root
        corrupt = [
            {"key": key, "file": entry["file"], "problem": problem}
            for key, entry in sorted(entries.items())
            if (problem := file_problem(root + entry["file"], entry["sha256"]))
        ]
        if remove and corrupt:
            bad_keys = {record["key"] for record in corrupt}
            with self._lock:
                for record in corrupt:
                    if record["problem"] == "checksum":
                        (self.directory / record["file"]).unlink(
                            missing_ok=True
                        )
                for key in bad_keys:
                    self._index.pop(key, None)
                self._append(
                    [{"key": key, "deleted": True} for key in sorted(bad_keys)]
                )
        return corrupt
