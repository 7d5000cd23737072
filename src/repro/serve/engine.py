"""The online scoring engine: micro-batching + score-row caching.

:class:`ScoringEngine` wraps a loaded
:class:`~repro.serve.artifacts.TrainedSystem` and scores utterances the
exact way the offline pipeline does — same deterministic decode RNG
streams, same fitted TFLLR/SVM/fusion state — so served scores are
bitwise identical to :meth:`repro.core.pipeline.PhonotacticSystem.
fused_scores` on the same utterances.

Two throughput mechanisms sit on the hot path:

**Micro-batching.**  Requests submitted via :meth:`ScoringEngine.submit`
that the score cache cannot answer are queued; a batcher thread flushes
the queue as one matrix-level pass (``VSM.score_matrix`` over the whole
batch) once either ``max_batch`` requests are waiting or the oldest
request has waited ``batch_window`` seconds.  Batching turns K×N
per-utterance SVM products into a handful of matrix products, the same
economy the paper's Eq. 9 formulation exploits offline.  A batch
decodes, extracts and scores each distinct utterance digest once.

**Score-row caching.**  The calibrated ``(K,)`` row served for an
utterance is memoised in a :class:`~repro.serve.cache.ScoreCache` keyed
by utterance digest, so repeated scoring (the DBA/transductive access
pattern) skips decode + φ(x) + SVM product + calibration entirely: a
hit is a lookup and a copy.  :meth:`ScoringEngine.submit` looks the
cache up at admission and a hit's future resolves before ``submit``
returns (``serve.cache.admitted``), so it never waits out the batch
window nor takes a queue slot.  A batch fuses only its misses and
scatters cached rows back to its hits.  Only full LDA-MMI rows are
cached, so a hit gets the full calibration even while a breaker is
open, at admission and inside a degraded batch alike.  Only misses
reach the batcher.

Four hardening mechanisms keep the engine answering under overload and
partial failure:

**Batcher supervision.**  The batcher loop is supervised: an unexpected
exception in batch formation or resolution fails the in-flight batch,
bumps ``serve.batcher.restarts`` and re-enters the loop, instead of
silently killing the thread and hanging every subsequent request.
Cancelled futures are detected per request (``serve.cancelled``) so a
client abandoning a queued request can never poison the batch it rode
in.

**Admission control.**  ``max_queue`` bounds the submit queue; a full
queue raises :class:`QueueFullError` immediately (``serve.rejected``)
rather than buffering unboundedly — the HTTP server maps this to 429.

**Deadlines.**  ``submit(deadline=...)`` (or the engine-wide
``deadline``) stamps an expiry on the request; requests that expire
while queued fail with :class:`DeadlineExceededError`
(``serve.expired``) instead of occupying a batch slot, and the HTTP
handler bounds ``future.result`` by the same deadline so a stalled
decode can never pin handler threads indefinitely (503).

**Per-frontend circuit breakers.**  A frontend whose decode/extract
raises is marked failed for that batch; after ``breaker_threshold``
consecutive failures its breaker opens (``serve.breaker.trips``) and
the frontend is skipped outright until ``breaker_cooldown`` elapses,
when one probe batch is allowed through (half-open).  Batches scored
with dead subsystems fall back to the paper's Eq. 20 *linear* fusion
restricted to the surviving subsystems, with the fitted fusion weights
renormalised over the survivors; such responses are flagged degraded
and their partial rows are **not** cached, so recovery restores
bitwise-identical output.

Each stage of a scoring pass opens a :mod:`repro.obs.trace` span named
after its Table 5 stage (``decoding`` / ``sv_generation`` /
``sv_product`` plus ``fusion``) and feeds a
``serve.stage.<name>.seconds`` histogram, whose count and total are the
per-stage calls and elapsed seconds :meth:`ScoringEngine.stats`
reports.  All counters and latency reservoirs live in a
:class:`~repro.obs.metrics.MetricsRegistry` (``serve.*`` namespace);
:meth:`ScoringEngine.stats` snapshots them in the historical key layout
and additionally exposes the raw registry snapshot under ``"metrics"``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from contextlib import contextmanager
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from repro.backend.fusion import linear_fusion
from repro.corpus.generator import Utterance
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifacts import TrainedSystem
from repro.serve.cache import ScoreCache
from repro.faults.injection import FaultPlan
from repro.frontend.registry import decode_utterances
from repro.serve.protocol import utterance_digest
from repro.utils.parallel import chunked, effective_workers, pmap

__all__ = [
    "ScoringEngine",
    "STAGE_NAMES",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
    "AllFrontendsDownError",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Table 5 stage names plus the serving-only calibration stage, in
#: pipeline order (used to order the stats() output).
STAGE_NAMES = ("decoding", "sv_generation", "sv_product", "fusion")

#: Circuit-breaker state labels (also the ``/stats`` wire values).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric encoding of breaker states for the ``serve.breaker.*`` gauges.
_BREAKER_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}


class QueueFullError(RuntimeError):
    """``submit`` refused a request because the queue is at ``max_queue``."""


class DeadlineExceededError(TimeoutError):
    """A queued request expired before the batcher could score it."""


class EngineClosedError(RuntimeError):
    """The engine is closed; no further requests are accepted."""


class AllFrontendsDownError(RuntimeError):
    """Every frontend failed or is circuit-broken; nothing can score."""


def _settle(future: Future, *, result=None, exception=None) -> bool:
    """Resolve ``future`` if still possible; never raise.

    A client may cancel its future at any moment between enqueue and
    resolution, making ``set_result``/``set_exception`` raise
    :class:`concurrent.futures.InvalidStateError` — the exact failure
    that used to kill the batcher thread.  Returns ``True`` when the
    future actually received the outcome.
    """
    try:
        if exception is not None:
            future.set_exception(exception)
        else:
            future.set_result(result)
        return True
    except InvalidStateError:
        return False


class _Request:
    """One queued utterance with its future, enqueue time and expiry."""

    __slots__ = ("utterance", "future", "enqueued", "expires")

    def __init__(
        self, utterance: Utterance, deadline: float | None = None
    ) -> None:
        self.utterance = utterance
        self.future: Future = Future()
        self.enqueued = time.monotonic()
        self.expires = (
            None if deadline is None else self.enqueued + float(deadline)
        )


class _Breaker:
    """Per-frontend circuit-breaker state (guarded by the engine lock)."""

    __slots__ = ("failures", "state", "opened_at")

    def __init__(self) -> None:
        self.failures = 0
        self.state = BREAKER_CLOSED
        self.opened_at = 0.0


class ScoringEngine:
    """Batched, cached scoring over a trained system.

    Parameters
    ----------
    trained:
        The loaded system (from :func:`repro.serve.artifacts.load_system`
        or :func:`~repro.serve.artifacts.export_trained`).
    batch_window:
        Seconds the batcher waits, from the oldest queued request, for
        more requests to coalesce before flushing a partial batch.
    max_batch:
        Flush immediately once this many requests are queued; also the
        matrix-batch size of the synchronous path.
    cache_entries:
        Size bound of the score cache, in rows (``None`` unbounded,
        ``0`` disables caching).
    workers:
        Decode fan-out width for :func:`repro.utils.parallel.pmap`;
        ``None`` auto-sizes (honouring ``REPRO_WORKERS``).
    max_queue:
        Admission-control bound on the submit queue; once this many
        requests are waiting, :meth:`submit` raises
        :class:`QueueFullError` (``None`` disables the bound).
    deadline:
        Default per-request deadline in seconds for :meth:`submit`
        (overridable per call); requests still queued past their
        deadline fail with :class:`DeadlineExceededError`.  ``None``
        disables deadlines.
    breaker_threshold:
        Consecutive frontend failures that open its circuit breaker.
    breaker_cooldown:
        Seconds an open breaker waits before admitting a probe batch.
    faults:
        A :class:`~repro.faults.FaultPlan` for fault injection;
        ``None`` reads the ``REPRO_FAULTS`` environment variable (empty
        plan — zero overhead — when unset).
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` that receives the
        engine's (and its cache's) ``serve.*`` instruments.  ``None``
        (default) creates a private registry, so several engines in one
        process never mix counts; pass
        :func:`repro.obs.metrics.default_registry` to fold serving
        metrics into the process-wide view (the CLI does this under
        ``REPRO_TRACE=1`` so runlogs capture cache hit rates).
    """

    def __init__(
        self,
        trained: TrainedSystem,
        *,
        batch_window: float = 0.02,
        max_batch: int = 32,
        cache_entries: int | None = 512,
        workers: int | None = None,
        max_queue: int | None = 1024,
        deadline: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        faults: FaultPlan | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (None disables)")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (None disables)")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
        self.trained = trained
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.workers = workers
        self.max_queue = None if max_queue is None else int(max_queue)
        self.deadline = None if deadline is None else float(deadline)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._cache_enabled = cache_entries != 0
        self.cache = ScoreCache(
            cache_entries if self._cache_enabled else None,
            registry=self.metrics,
        )
        # Decode/extract once per *unique* frontend; subsystems (possibly
        # several per frontend, e.g. a DBA-M1+M2 export) share the raw
        # supervectors, mirroring the pipeline's Eq. 18-19 sharing.
        self._frontends = {fe.name: fe for fe in trained.frontends}
        self._active = []
        seen = set()
        for fe_name, _ in trained.subsystems:
            if fe_name not in seen:
                seen.add(fe_name)
                self._active.append(self._frontends[fe_name])
        self._extractors = {}
        for fe_name, vsm in trained.subsystems:
            self._extractors.setdefault(fe_name, vsm)
        self._queue: deque[_Request] = deque()
        self._cv = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closed = False
        # Circuit-breaker state: one breaker per active frontend plus the
        # set of frontends dead in the most recent scoring pass.  The
        # sync path and the batcher thread share this state, so it has
        # its own lock (held only for bookkeeping, never while scoring).
        self._breaker_lock = threading.Lock()
        self._breakers = {fe.name: _Breaker() for fe in self._active}
        self._last_dead: frozenset[str] = frozenset()
        self._requests = self.metrics.counter("serve.requests")
        self._admitted = self.metrics.counter("serve.cache.admitted")
        self._batches = self.metrics.counter("serve.batches")
        self._batched_requests = self.metrics.counter("serve.batched_requests")
        self._rejected = self.metrics.counter("serve.rejected")
        self._expired = self.metrics.counter("serve.expired")
        self._cancelled = self.metrics.counter("serve.cancelled")
        self._batcher_restarts = self.metrics.counter("serve.batcher.restarts")
        self._frontend_failures = self.metrics.counter(
            "serve.frontend_failures"
        )
        self._breaker_trips = self.metrics.counter("serve.breaker.trips")
        self._breaker_open = self.metrics.gauge("serve.breaker.open")
        self._breaker_open.set(0)
        self._breaker_gauges = {
            fe.name: self.metrics.gauge(f"serve.breaker.{fe.name}.state")
            for fe in self._active
        }
        for gauge in self._breaker_gauges.values():
            gauge.set(_BREAKER_GAUGE[BREAKER_CLOSED])
        self._degraded_batches = self.metrics.counter("serve.degraded_batches")
        self._queue_depth = self.metrics.gauge("serve.queue_depth")
        self._queue_depth.set(0)
        self._request_latency = self.metrics.histogram(
            "serve.request_latency_s", maxlen=512
        )
        self._stage_hist = {
            name: self.metrics.histogram(
                f"serve.stage.{name}.seconds", maxlen=512
            )
            for name in STAGE_NAMES
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ScoringEngine":
        """Start the batcher thread (idempotent)."""
        with self._cv:
            if self._closed:
                raise EngineClosedError("engine is closed")
            self._start_locked()
        return self

    def _start_locked(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-batcher", daemon=True
            )
            self._thread.start()

    def close(self) -> None:
        """Stop the batcher thread; settle every still-pending request.

        Queued requests are normally drained (scored) by the batcher on
        its way out.  Anything still queued after the thread has exited
        — the batcher was never started, or died mid-crash — is failed
        with :class:`EngineClosedError` rather than silently dropped, so
        no caller is ever left waiting on a future nobody owns.
        """
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        with self._cv:
            leftovers = list(self._queue)
            self._queue.clear()
            self._queue_depth.set(0)
        for request in leftovers:
            _settle(
                request.future, exception=EngineClosedError("engine is closed")
            )

    def __enter__(self) -> "ScoringEngine":
        """Context manager entry: start the batcher."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Context manager exit: drain and stop."""
        self.close()

    # ------------------------------------------------------------------
    # public scoring API
    # ------------------------------------------------------------------
    @property
    def languages(self) -> tuple[str, ...]:
        """Score-column order: the trained system's language names."""
        return self.trained.language_names

    def submit(
        self, utterance: Utterance, *, deadline: float | None = None
    ) -> Future:
        """Score one utterance; the future resolves to its ``(K,)`` scores.

        A score-cache hit is returned here, already resolved.
        Misses are queued, and requests from concurrent callers coalesce
        into shared matrix batches.  The engine is started on first
        use.  ``deadline`` (seconds, default: the engine's ``deadline``)
        bounds how long a queued request may wait: expired requests
        fail with :class:`DeadlineExceededError` instead of occupying
        batch capacity.  Raises :class:`QueueFullError` without
        enqueueing a miss when ``max_queue`` requests are already
        waiting.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        if self._cache_enabled:
            digest = utterance_digest(utterance)
            row = self.cache.get(digest, count_miss=False)
            if row is not None:
                return self._answer_hit(row)
        request = _Request(
            utterance, deadline if deadline is not None else self.deadline
        )
        with self._cv:
            if self._closed:
                raise EngineClosedError("engine is closed")
            if (
                self.max_queue is not None
                and len(self._queue) >= self.max_queue
            ):
                self._rejected.inc()
                raise QueueFullError(
                    f"scoring queue is full ({self.max_queue} waiting)"
                )
            self._start_locked()
            self._queue.append(request)
            self._queue_depth.set(len(self._queue))
            self._cv.notify_all()
        return request.future

    def _answer_hit(self, row: np.ndarray) -> Future:
        """A done future holding a caller-owned copy of a cached row."""
        t0 = time.monotonic()
        future: Future = Future()
        future.set_result(row.copy())
        self._requests.inc()
        self._admitted.inc()
        self._request_latency.observe(time.monotonic() - t0)
        return future

    def score_utterances(self, utterances: Sequence[Utterance]) -> np.ndarray:
        """Synchronously score a batch; returns ``(m, K)`` calibrated scores.

        The batch is processed in ``max_batch``-sized matrix chunks
        through the same cached path as the queued API.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        utterances = list(utterances)
        rows: list[np.ndarray] = []
        for start in range(0, len(utterances), self.max_batch):
            chunk = utterances[start : start + self.max_batch]
            t0 = time.monotonic()
            rows.append(self._score_batch(chunk))
            dt = time.monotonic() - t0
            self._requests.inc(len(chunk))
            self._batches.inc()
            self._batched_requests.inc(len(chunk))
            for _ in chunk:
                self._request_latency.observe(dt)
        if not rows:
            return np.zeros((0, len(self.languages)))
        return np.vstack(rows)

    def predict_languages(self, scores: np.ndarray) -> list[str]:
        """Arg-max language names for a ``(m, K)`` score matrix."""
        return [self.languages[int(k)] for k in np.argmax(scores, axis=1)]

    # ------------------------------------------------------------------
    # batcher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Supervised batcher loop.

        Everything per iteration runs under a catch-all: an unexpected
        exception (an injected batcher fault, a future settled from a
        path `_settle` does not guard, a scoring bug) fails the in-flight
        batch, increments ``serve.batcher.restarts`` and re-enters the
        loop — the engine keeps serving instead of wedging every future
        request behind a dead thread.
        """
        while True:
            batch: list[_Request] = []
            try:
                with self._cv:
                    while not self._queue and not self._closed:
                        self._cv.wait()
                    if not self._queue:
                        return  # closed and drained
                    deadline = self._queue[0].enqueued + self.batch_window
                    while len(self._queue) < self.max_batch and not self._closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cv.wait(timeout=remaining)
                        if not self._queue:
                            break
                    batch = [
                        self._queue.popleft()
                        for _ in range(min(self.max_batch, len(self._queue)))
                    ]
                    self._queue_depth.set(len(self._queue))
                self.faults.apply("batcher")
                batch = self._admit(batch)
                if batch:
                    self._resolve(batch)
            except Exception as exc:
                self._batcher_restarts.inc()
                for request in batch:
                    _settle(request.future, exception=exc)

    def _admit(self, batch: list[_Request]) -> list[_Request]:
        """Drop cancelled and deadline-expired requests from a batch.

        Survivors are transitioned to RUNNING (via
        ``set_running_or_notify_cancel``), after which a client cancel
        can no longer race the batcher's ``set_result``.
        """
        now = time.monotonic()
        admitted: list[_Request] = []
        for request in batch:
            if request.expires is not None and now >= request.expires:
                self._expired.inc()
                _settle(
                    request.future,
                    exception=DeadlineExceededError(
                        "request expired after "
                        f"{now - request.enqueued:.3f}s in queue"
                    ),
                )
                continue
            if not request.future.set_running_or_notify_cancel():
                self._cancelled.inc()
                continue
            admitted.append(request)
        return admitted

    def _resolve(self, batch: list[_Request]) -> None:
        try:
            scores = self._score_batch([r.utterance for r in batch])
        except Exception as exc:  # propagate to every waiter
            for request in batch:
                _settle(request.future, exception=exc)
            return
        now = time.monotonic()
        self._requests.inc(len(batch))
        self._batches.inc()
        self._batched_requests.inc(len(batch))
        for request in batch:
            self._request_latency.observe(now - request.enqueued)
        for i, request in enumerate(batch):
            _settle(request.future, result=scores[i].copy())

    # ------------------------------------------------------------------
    # circuit breakers
    # ------------------------------------------------------------------
    def _breaker_allows(self, name: str, now: float) -> bool:
        """Whether the frontend may be called (open breakers block it).

        An open breaker past its cooldown moves to half-open and admits
        one probe; success closes it, failure re-opens it for another
        cooldown.
        """
        with self._breaker_lock:
            breaker = self._breakers[name]
            if breaker.state == BREAKER_CLOSED:
                return True
            if now - breaker.opened_at >= self.breaker_cooldown:
                breaker.state = BREAKER_HALF_OPEN
                self._breaker_gauges[name].set(
                    _BREAKER_GAUGE[BREAKER_HALF_OPEN]
                )
                return True
            return False

    def _breaker_record(self, name: str, ok: bool, now: float) -> None:
        """Fold one frontend call outcome into its breaker."""
        with self._breaker_lock:
            breaker = self._breakers[name]
            if ok:
                breaker.failures = 0
                if breaker.state != BREAKER_CLOSED:
                    breaker.state = BREAKER_CLOSED
                breaker_state = BREAKER_CLOSED
            else:
                breaker.failures += 1
                tripping = (
                    breaker.state == BREAKER_CLOSED
                    and breaker.failures >= self.breaker_threshold
                )
                if tripping or breaker.state == BREAKER_HALF_OPEN:
                    if breaker.state == BREAKER_CLOSED:
                        self._breaker_trips.inc()
                    breaker.state = BREAKER_OPEN
                    breaker.opened_at = now
                breaker_state = breaker.state
            self._breaker_gauges[name].set(_BREAKER_GAUGE[breaker_state])
            self._breaker_open.set(
                sum(
                    1
                    for b in self._breakers.values()
                    if b.state == BREAKER_OPEN
                )
            )

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per active frontend."""
        with self._breaker_lock:
            return {name: b.state for name, b in self._breakers.items()}

    @property
    def degraded(self) -> bool:
        """Whether responses are currently produced without all subsystems.

        True while any breaker is non-closed or the most recent scoring
        pass had to drop a frontend.
        """
        with self._breaker_lock:
            if self._last_dead:
                return True
            return any(
                b.state != BREAKER_CLOSED for b in self._breakers.values()
            )

    def degraded_frontends(self) -> list[str]:
        """Frontends excluded from the most recent scoring pass, sorted."""
        with self._breaker_lock:
            return sorted(self._last_dead)

    # ------------------------------------------------------------------
    # the scoring pass
    # ------------------------------------------------------------------
    @contextmanager
    def _stage(self, name: str, audio_seconds: float = 0.0) -> Iterator[None]:
        sp = trace.span(name)
        if audio_seconds:
            sp.inc("audio_s", audio_seconds)
        start = time.perf_counter()
        try:
            with sp:
                yield
        finally:
            self._stage_hist[name].observe(time.perf_counter() - start)

    def _score_batch(self, utterances: list[Utterance]) -> np.ndarray:
        """One matrix-level pass: cache → score and fuse misses → scatter.

        Every utterance gets one counted cache lookup; each distinct
        missing digest is decoded, extracted, scored and fused once and
        its row scattered back to every request that carries it.  Hits
        take their cached row as it is: only misses are fused.

        Frontends whose decode/extract fails (or whose breaker is open)
        are dropped for the batch; if any subsystem is missing, the
        misses are fused by the Eq. 20 linear combination of the
        surviving subsystems' scores under renormalised fusion weights,
        the batch is flagged degraded and its partial rows stay out of
        the cache.  With every frontend healthy each miss gets the full
        LDA-MMI row, which is cached.
        """
        n_classes = self.trained.n_classes
        if not utterances:
            return np.zeros((0, n_classes))
        digests = [utterance_digest(u) for u in utterances]
        cached: list[np.ndarray | None] = (
            [self.cache.get(d) for d in digests]
            if self._cache_enabled
            else [None] * len(digests)
        )
        # One row per distinct missing digest, in batch order.
        miss_row: dict[str, int] = {}
        miss_utts: list[Utterance] = []
        for utterance, digest, row in zip(utterances, digests, cached):
            if row is None and digest not in miss_row:
                miss_row[digest] = len(miss_utts)
                miss_utts.append(utterance)
        dead: set[str] = set()
        if miss_utts:
            audio = float(sum(u.duration for u in miss_utts))
            seed = self.trained.config.system.seed
            raw_by_frontend = {}
            for frontend in self._active:
                if not self._breaker_allows(frontend.name, time.monotonic()):
                    dead.add(frontend.name)
                    continue
                try:
                    self.faults.apply(frontend.name)
                    with self._stage("decoding", audio_seconds=audio):
                        n_chunks = min(
                            len(miss_utts), effective_workers(self.workers)
                        )
                        batches = pmap(
                            partial(decode_utterances, frontend, seed),
                            chunked(miss_utts, n_chunks),
                            workers=self.workers,
                        )
                        sausages = [s for b in batches for s in b]
                    with self._stage("sv_generation", audio_seconds=audio):
                        raw_by_frontend[frontend.name] = self._extractors[
                            frontend.name
                        ].extract(sausages)
                except Exception:
                    self._frontend_failures.inc()
                    self._breaker_record(
                        frontend.name, ok=False, now=time.monotonic()
                    )
                    dead.add(frontend.name)
                else:
                    self._breaker_record(
                        frontend.name, ok=True, now=time.monotonic()
                    )
            if not raw_by_frontend:
                with self._breaker_lock:
                    self._last_dead = frozenset(dead)
                raise AllFrontendsDownError(
                    "no frontend could score the batch "
                    f"(failed/open: {sorted(dead)})"
                )
            # (u, K) raw scores of the misses per live subsystem index.
            scores: dict[int, np.ndarray] = {}
            for q, (fe_name, vsm) in enumerate(self.trained.subsystems):
                if fe_name in dead:
                    continue
                with self._stage("sv_product", audio_seconds=audio):
                    scores[q] = vsm.score_matrix(raw_by_frontend[fe_name])
            if dead:
                self._degraded_batches.inc()
                with self._stage("fusion"):
                    fused = self._degraded_fusion(scores)
            else:
                with self._stage("fusion"):
                    fused = self.trained.fusion.transform(
                        [scores[q] for q in range(len(scores))]
                    )
                # Partial rows would poison warm requests after the
                # frontend recovers — only full LDA-MMI rows are cached.
                if self._cache_enabled:
                    for digest, row in miss_row.items():
                        self.cache.put(digest, fused[row])
        with self._breaker_lock:
            self._last_dead = frozenset(dead)
        out = np.empty((len(utterances), n_classes))
        for i, (digest, row) in enumerate(zip(digests, cached)):
            out[i] = fused[miss_row[digest]] if row is None else row
        return out

    def _degraded_fusion(self, scores: dict[int, np.ndarray]) -> np.ndarray:
        """Eq. 20 linear fusion restricted to the live subsystems.

        The fitted LDA-MMI backend needs all N subsystem score blocks,
        so with frontends down the engine falls back to
        :func:`~repro.backend.fusion.linear_fusion` over the surviving
        subsystems (``scores``, keyed by subsystem index), under their
        fitted fusion weights renormalised to sum to one (uniform when
        every survivor's weight is 0).
        """
        live = sorted(scores)
        return linear_fusion(
            [scores[q] for q in live], self.trained.fusion.weights_[live]
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @staticmethod
    def _quantile_ms(hist, q: float) -> float | None:
        """A histogram-of-seconds quantile in ms; ``None`` when empty."""
        value = hist.quantile(q)
        return None if value is None else value * 1e3

    def stats(self) -> dict:
        """Snapshot of request/batch/cache counters and stage latencies.

        ``stages`` is keyed by the Table 5 stage names (plus ``fusion``)
        with total elapsed seconds, call counts and p50/p95 per-batch
        latency in milliseconds; ``latency_ms`` is the end-to-end
        per-request distribution (queue wait included for the submitted
        path, the row copy alone for hits answered at admission).
        ``mean_batch_size`` counts batched requests only, so admission
        hits (``serve.cache.admitted``) do not inflate it.  The
        overload/degradation keys (``rejected``,
        ``expired``, ``cancelled``, ``batcher_restarts``, ``degraded``,
        ``breaker``) surface the hardening counters; all flat keys are
        views over the ``serve.*`` instruments whose full registry
        snapshot (p50/p95/p99, counts, totals) sits under ``metrics``.
        """
        requests = int(self._requests.value)
        batches = int(self._batches.value)
        batched = self._batched_requests.value
        with self._cv:
            queue_depth = len(self._queue)
        stages = {}
        for name in STAGE_NAMES:
            hist = self._stage_hist[name]
            stages[name] = {
                "calls": hist.count,
                "elapsed_s": hist.total,
                "p50_ms": self._quantile_ms(hist, 50.0),
                "p95_ms": self._quantile_ms(hist, 95.0),
            }
        return {
            "requests": requests,
            "batches": batches,
            "mean_batch_size": (batched / batches) if batches else 0.0,
            "queue_depth": queue_depth,
            "batch_window_s": self.batch_window,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
            "deadline_s": self.deadline,
            "rejected": int(self._rejected.value),
            "expired": int(self._expired.value),
            "cancelled": int(self._cancelled.value),
            "batcher_restarts": int(self._batcher_restarts.value),
            "degraded": self.degraded,
            "breaker": self.breaker_states(),
            "cache": self.cache.stats(),
            "stages": stages,
            "latency_ms": {
                "p50": self._quantile_ms(self._request_latency, 50.0),
                "p95": self._quantile_ms(self._request_latency, 95.0),
            },
            "languages": list(self.languages),
            "metrics": self.metrics.snapshot(),
        }
