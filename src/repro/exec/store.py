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

    index.json                      {"version": 2, "entries": {key -> {kind,
                                    file, sha256, size, created_unix, meta}}}
    objects/<kk>/<key>.<ext>        payload files, sharded by key prefix

Payloads of kind ``sparse``, ``array`` and ``arrays`` are ``.bin`` files
in a flat format: a 4-byte little-endian header length, a JSON member
table of ``[name, dtype.str, shape, offset, nbytes]`` rows, then the
members' raw C-order buffers (offsets count from the end of the
header).  A ``sparse`` payload holds the members ``dim``, ``indptr``,
``indices`` and ``values``; an ``array`` payload the one member
``value``.  Members keep their exact dtype, byte order included;
object dtypes are rejected.  ``json`` payloads are ``.json`` text.

Every :meth:`~ArtifactStore.get` reads its payload file once into an
owned buffer and both verifies the recorded SHA-256 and parses the
arrays from that one buffer, so what is returned is exactly what was
verified.  The arrays are writable views over that buffer, not
per-member copies: the read places the member data at a 16-byte
boundary, and only a member that still sits off its dtype's alignment
is copied.  A mismatch raises :class:`StoreCorruptionError` rather than
returning stale or tampered data (the same hard-fail posture as
:mod:`repro.serve.artifacts`).  The index is rewritten atomically
(temp file + ``os.replace``) after each put, so a killed run leaves a
loadable store behind — the basis of resumable campaigns.

The index carries a schema ``version`` (:data:`STORE_VERSION`).  An
index written under any other version — schema 1 stored ``.npz``
payloads — opens as an empty store: every lookup misses, the stages
recompute, and the next index write keeps none of the old entries.  Old
payload files are left on disk untouched; their names never collide
with the current ``.bin`` payloads.

Crash and concurrency hygiene
-----------------------------
Payload files are themselves written via temp + ``os.replace``, so a
writer killed mid-``put`` leaves only a ``.tmp-*`` orphan, never a
half-written payload under a final name; orphans are swept on the next
store open.  Index rewrites happen under an exclusive ``index.lock``
file (``O_CREAT|O_EXCL``, bounded wait, stale locks older than
:data:`_LOCK_STALE_S` are broken) and *merge* the on-disk entries with
this process's, so two concurrent campaigns sharing a store cannot lose
each other's puts by interleaving read-modify-write cycles.
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
import struct
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

#: Payload kinds the store can (de)serialise.
PAYLOAD_KINDS = ("sparse", "array", "arrays", "json")

#: Schema of ``index.json`` and its payloads (1: ``.npz`` payloads;
#: 2: flat ``.bin`` payloads).  An index of another version opens empty.
STORE_VERSION = 2

_INDEX = "index.json"
_OBJECTS = "objects"
_EXT = {"sparse": "bin", "array": "bin", "arrays": "bin", "json": "json"}
#: Length prefix of a flat payload's JSON member table.
_HEADER_LEN = struct.Struct("<I")
#: Alignment of a read payload's member data (any numpy dtype's).
_ALIGN = 16

_LOCK = "index.lock"
#: A lock file older than this is presumed abandoned (killed writer)
#: and broken; index critical sections are milliseconds long.
_LOCK_STALE_S = 30.0
#: Prefix of in-flight payload temp files (swept on store open).
_TMP_PREFIX = ".tmp-"

#: Test hook invoked between observing a stale ``index.lock`` and
#: breaking it — lets regression tests force the historical TOCTOU
#: interleaving (two waiters both see the stale lock, a third process
#: acquires, the break must not delete the new holder's lock).
_break_hook: Callable[[], None] | None = None


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
    payload = json.dumps(
        {
            "stage": str(stage),
            "fingerprint": str(fingerprint),
            "frontend": frontend,
            "corpus": corpus,
            "params": params or {},
        },
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _encode_members(members: dict[str, Any]) -> bytes:
    """Flat payload of named arrays (see the module docstring)."""
    table: list[list[Any]] = []
    buffers: list[bytes] = []
    offset = 0
    for name, value in members.items():
        arr = np.asarray(value)
        if arr.dtype.hasobject or np.dtype(arr.dtype.str) != arr.dtype:
            raise TypeError(
                f"store member {name!r} has dtype {arr.dtype}, which has "
                "no flat encoding"
            )
        buf = arr.tobytes()  # C order, in the array's own byte order
        table.append(
            [str(name), arr.dtype.str, list(arr.shape), offset, len(buf)]
        )
        buffers.append(buf)
        offset += len(buf)
    header = json.dumps(table, separators=(",", ":")).encode()
    return b"".join([_HEADER_LEN.pack(len(header)), header, *buffers])


def _decode_members(buf: np.ndarray, begin: int) -> dict[str, np.ndarray]:
    """Named arrays of the flat payload at ``buf[begin:]``.

    Each member is a writable view over ``buf``, the owned buffer
    :meth:`ArtifactStore.get` read the payload into; members never
    overlap, so writing one leaves the others alone.  A member whose
    bytes do not sit at its dtype's alignment is copied instead, so
    every returned array computes exactly as a freshly allocated one.
    """
    (header_len,) = _HEADER_LEN.unpack_from(buf, begin)
    start = begin + _HEADER_LEN.size
    members: dict[str, np.ndarray] = {}
    for name, dtype_str, shape, offset, nbytes in json.loads(
        buf[start : start + header_len].tobytes().decode()
    ):
        dtype = np.dtype(dtype_str)
        if not nbytes:
            members[name] = np.empty(shape, dtype=dtype)
            continue
        flat = np.frombuffer(
            buf, dtype=dtype, count=nbytes // dtype.itemsize,
            offset=start + header_len + offset,
        )
        if not flat.flags.aligned:
            flat = flat.copy()
        members[name] = flat.reshape(shape)
    return members


def _encode(kind: str, value: Any) -> bytes:
    """Payload bytes of ``value`` as payload kind ``kind``."""
    if kind == "sparse":
        if not isinstance(value, SparseMatrix):
            raise TypeError("kind 'sparse' requires a SparseMatrix")
        return _encode_members(
            {
                "dim": np.int64(value.dim),
                "indptr": value.indptr,
                "indices": value.indices,
                "values": value.values,
            }
        )
    if kind == "array":
        return _encode_members(
            {"value": np.asarray(value, dtype=np.float64)}
        )
    if kind == "arrays":
        if not isinstance(value, dict) or not value:
            raise TypeError(
                "kind 'arrays' requires a non-empty dict of arrays"
            )
        return _encode_members(value)
    return json.dumps(value, sort_keys=True, default=list).encode()


def _decode(kind: str, buf: np.ndarray, begin: int) -> Any:
    """Inverse of :func:`_encode` for the payload at ``buf[begin:]``."""
    if kind == "json":
        return json.loads(buf[begin:].tobytes())
    members = _decode_members(buf, begin)
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


def _read_payload(path: str) -> tuple[np.ndarray, int]:
    """A payload file read once into an owned buffer.

    Returns ``(buf, begin)``: the file's bytes are ``buf[begin:]``.
    ``begin`` is chosen so a flat payload's member data, after its
    header, starts :data:`_ALIGN`-aligned, which lets
    :func:`_decode_members` hand out views instead of copies.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER_LEN.size)
        buf = np.empty(size + _ALIGN, dtype=np.uint8)
        begin = 0
        if len(head) == _HEADER_LEN.size:
            (header_len,) = _HEADER_LEN.unpack(head)
            data_at = buf.ctypes.data + _HEADER_LEN.size + header_len
            begin = -data_at % _ALIGN
        view = memoryview(buf)[begin : begin + size]
        view[: len(head)] = head
        read = len(head)
        # One read(2) returns at most about 2 GiB, so large payloads
        # take several; a file that shrank under the read comes back
        # short and fails its checksum.
        while read < size:
            n = fh.readinto(view[read:])
            if not n:
                break
            read += n
    return buf[: begin + read], begin


def _unlink_matching(directory: str, match: Callable[[str], bool]) -> int:
    """Remove the entries of ``directory`` whose names ``match``."""
    removed = 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if match(entry.name):
                try:
                    os.unlink(entry.path)
                except FileNotFoundError:
                    pass
                removed += 1
    return removed


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class ArtifactStore:
    """Directory-backed, checksum-verified store of stage products.

    Parameters
    ----------
    directory:
        Store root; created if missing.  An existing ``index.json`` is
        adopted, so stores persist across processes and runs.
    lock_timeout:
        Seconds to wait for the inter-process ``index.lock`` before
        raising :class:`StoreError`.

    The store is thread-safe: the stage-graph runner executes
    independent per-frontend stages concurrently and all of them read
    and write one store.  Opening a store sweeps ``.tmp-*`` payload
    orphans left behind by writers that were killed mid-``put``.
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
        self._lock = threading.RLock()
        self._index: dict[str, dict[str, Any]] = {}
        self._sweep_orphans()
        disk = self._read_index()
        if disk is not None:
            self._index = disk

    def _read_index(self) -> dict[str, dict[str, Any]] | None:
        """Parse ``index.json`` from disk (``None`` when absent).

        An index of another schema version reads as no entries.
        """
        index_path = self.directory / _INDEX
        if not index_path.exists():
            return None
        try:
            raw = json.loads(index_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"store index {index_path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(raw, dict) or not isinstance(
            raw.get("entries"), dict
        ):
            raise StoreError(
                f"store index {index_path} has an unexpected layout"
            )
        if raw.get("version") != STORE_VERSION:
            return {}  # another schema: everything misses and recomputes
        return raw["entries"]

    def _sweep_orphans(self) -> int:
        """Remove temp files abandoned by killed writers; returns count.

        Covers payload temps (``objects/<kk>/.tmp-*``), index temps
        (``.index-*.tmp`` in the root) and lock-breaker grabs
        (``.lockbreak-*``), one directory scan each.  Payloads are only
        ever published by ``os.replace`` of a completed temp, so
        anything still carrying a temp name is garbage by construction.
        """
        swept = 0
        with os.scandir(self._root + _OBJECTS) as shards:
            for shard in shards:
                if shard.is_dir():
                    swept += _unlink_matching(
                        shard.path, lambda n: n.startswith(_TMP_PREFIX)
                    )
        # A lock breaker killed between rename and unlink leaves its
        # uniquely-named grab (``.lockbreak-*``) behind; the lock itself
        # is gone, so this is litter, not a held lock.
        swept += _unlink_matching(
            self._root,
            lambda n: (n.startswith(".index-") and n.endswith(".tmp"))
            or n.startswith(".lockbreak-"),
        )
        return swept

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Exclusive inter-process lock around index rewrites.

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
        reopening the store.  Disk entries never override keys this
        process already holds (memory wins per key, matching
        :meth:`_write_index`'s merge direction).
        """
        disk = self._read_index()
        if not disk:
            return 0
        with self._lock:
            before = len(self._index)
            self._index = {**disk, **self._index}
            return len(self._index) - before

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

    def _write_index(self, drop: set[str] | None = None) -> None:
        """Rewrite ``index.json`` under the inter-process lock.

        The on-disk entries are merged with this process's (memory wins
        per key) before writing, so two campaigns sharing a store never
        lose each other's puts to a read-modify-write race.  ``drop``
        removes keys from both views (used by :meth:`verify`).
        Must be called with ``self._lock`` held.
        """
        with self._file_lock():
            disk = self._read_index() or {}
            merged = {**disk, **self._index}
            for key in drop or ():
                merged.pop(key, None)
            self._index = merged
            # Compact encoding: the index is rewritten in full on every
            # put, so pretty-printing multiplies encoder work and bytes
            # across a campaign for no functional gain.
            payload = json.dumps(
                {"version": STORE_VERSION, "entries": merged},
                sort_keys=True,
            )
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".index-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                os.replace(tmp, self.directory / _INDEX)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise

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

        The payload is written to a ``.tmp-*`` sibling and published by
        ``os.replace``, so a writer killed mid-put can never leave a
        half-written file under a final payload name.
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
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=_TMP_PREFIX)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
            _STORE_BYTES.inc(len(data))
            with self._lock:
                self._index[key] = {
                    "kind": kind,
                    "file": str(path.relative_to(self.directory)),
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "size": len(data),
                    "created_unix": time.time(),
                    "meta": meta or {},
                }
                self._write_index()

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
                buf, begin = _read_payload(self._root + entry["file"])
            except FileNotFoundError:
                raise StoreCorruptionError(
                    f"artifact payload {entry['file']} is missing from disk"
                ) from None
            sp.inc("bytes", len(buf) - begin)
            actual = hashlib.sha256(memoryview(buf)[begin:]).hexdigest()
            if actual != entry["sha256"]:
                raise StoreCorruptionError(
                    f"artifact payload {entry['file']} failed checksum "
                    f"verification (sha256 {actual[:12]}… != index "
                    f"{entry['sha256'][:12]}…)"
                )
            value = _decode(entry["kind"], buf, begin)
        _STORE_HITS.inc()
        return value

    def get_or_compute(
        self,
        key: str,
        kind: str,
        compute: Callable[[], Any],
        *,
        meta: dict[str, Any] | None = None,
    ) -> Any:
        """Load if present, else compute, persist and return."""
        try:
            return self.get(key)
        except KeyError:
            value = compute()
            self.put(key, kind, value, meta=meta)
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
            self._write_index(drop={key})
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
        corrupt: list[dict[str, Any]] = []
        for key in sorted(entries):
            entry = entries[key]
            path = self.directory / entry["file"]
            if not path.exists():
                corrupt.append(
                    {"key": key, "file": entry["file"], "problem": "missing"}
                )
            elif _file_sha256(path) != entry["sha256"]:
                corrupt.append(
                    {"key": key, "file": entry["file"], "problem": "checksum"}
                )
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
                self._write_index(drop=bad_keys)
        return corrupt
