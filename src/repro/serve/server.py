"""Stdlib-only JSON HTTP surface over the scoring engine.

A :class:`ScoringServer` exposes four endpoints:

``POST /score``
    Body ``{"utterances": [<utterance json>, ...]}`` (see
    :func:`repro.serve.protocol.utterance_to_json`).  Every utterance is
    submitted to the engine's micro-batching queue — concurrent requests
    from different connections coalesce into shared matrix batches — and
    the response carries calibrated detection log-odds per language plus
    arg-max predictions and a ``degraded`` flag (true when circuit-broken
    frontends forced the linear-fusion fallback).  Overload is surfaced,
    never buffered: a full queue returns **429** with ``Retry-After``,
    and a request that cannot finish within the engine's deadline
    returns **503** — a stalled decode can reject traffic but can never
    pin handler threads indefinitely.
``GET /healthz``
    Liveness + a summary of the loaded system, including ``degraded``
    and the per-frontend circuit-breaker states.
``GET /stats``
    The engine's :meth:`~repro.serve.engine.ScoringEngine.stats`
    snapshot.  The historical flat keys (requests, batches, cache
    hits/misses, per-stage p50/p95) are kept as compatibility views;
    the full :mod:`repro.obs.metrics` registry snapshot — every
    ``serve.*`` counter/gauge/histogram with p50/p95/p99 — is nested
    under ``"metrics"``.  See ``docs/serving.md``.
``GET /metricz``
    The raw registry snapshot *with histogram reservoir samples*
    (``snapshot(include_samples=True)``) — the mergeable form the
    cluster front door (:mod:`repro.cluster`) pulls from each worker
    so :func:`repro.obs.metrics.merge_snapshots` can compute honest
    cross-worker percentiles.

One :class:`JsonRequestHandler` serves every :class:`JsonServer`, this
one and the cluster front door alike.  It sends ``Retry-After`` exactly
on 429 and 503, and ``Connection: close`` on an error sent before the
request body was read — keeping that connection alive would make the
next pipelined request parse stale body bytes as a request line (an
HTTP/1.1 keep-alive desync).

Only the standard library is used (``http.server`` + ``json``), so the
service runs anywhere the package does.  This is an internal-tier
service: put a real ingress in front of it before exposing it publicly.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.serve.engine import (
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    ScoringEngine,
)
from repro.serve.protocol import utterance_from_json

__all__ = [
    "JsonRequestHandler", "JsonServer", "ScoringServer", "make_server",
    "run_server",
]

#: Cap on accepted request bodies (16 MiB) — a crude but effective guard
#: against memory-exhaustion by a single oversized POST.
MAX_BODY_BYTES = 16 << 20

#: ``Retry-After`` seconds sent with every 429 and 503 response.
RETRY_AFTER_S = 1


class JsonRequestHandler(BaseHTTPRequestHandler):
    """All of the HTTP; the :class:`JsonServer` behind it only makes bodies."""

    server: "JsonServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr logging (stats() is the telemetry)."""

    def _send_json(
        self, status: int, payload: dict, *, close: bool = False
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503):
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if close:
            # The request body was not (fully) read; keeping this
            # connection alive would desync the next pipelined request.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        """Serve /healthz, /stats and /metricz."""
        if self.path == "/healthz":
            self._send_json(*self.server.health())
        elif self.path == "/stats":
            self._send_json(200, self.server.stats())
        elif self.path == "/metricz":
            self._send_json(200, self.server.metricz())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        """Serve /score: read and check the body, then hand it over."""
        if self.path != "/score":
            self._send_json(
                404, {"error": f"unknown path {self.path!r}"}, close=True
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"}, close=True)
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            message = "request body missing or too large"
            self._send_json(400, {"error": message}, close=True)
            return
        try:
            utterances = json.loads(self.rfile.read(length))["utterances"]
            if not isinstance(utterances, list) or not all(
                isinstance(u, dict) for u in utterances
            ):
                raise TypeError("utterances must be a list of objects")
        except (KeyError, TypeError, ValueError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
            return
        self._send_json(*self.server.score(utterances))


class JsonServer(ThreadingHTTPServer):
    """A threading HTTP server whose four methods back the JSON API."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int]) -> None:
        super().__init__(address, JsonRequestHandler)

    def health(self) -> tuple[int, dict]:
        """``(status, body)`` for ``GET /healthz``."""
        raise NotImplementedError

    def stats(self) -> dict:
        """The body of ``GET /stats``."""
        raise NotImplementedError

    def metricz(self) -> dict:
        """The body of ``GET /metricz``: a snapshot with samples."""
        raise NotImplementedError

    def score(self, utterances: list[dict]) -> tuple[int, dict]:
        """``(status, body)`` for ``POST /score`` of wire utterances."""
        raise NotImplementedError


class ScoringServer(JsonServer):
    """A :class:`JsonServer` bound to one :class:`ScoringEngine`."""

    def __init__(self, address: tuple[str, int], engine: ScoringEngine) -> None:
        super().__init__(address)
        self.engine = engine

    def health(self) -> tuple[int, dict]:
        """Liveness, breaker states and the loaded system's names."""
        engine = self.engine
        trained = engine.trained
        degraded = engine.degraded
        return 200, {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "breakers": engine.breaker_states(),
            "languages": list(trained.language_names),
            "frontends": [fe.name for fe in trained.frontends],
            "subsystems": [name for name, _ in trained.subsystems],
        }

    def stats(self) -> dict:
        """The engine's :meth:`~ScoringEngine.stats` snapshot."""
        return self.engine.stats()

    def metricz(self) -> dict:
        """The engine's registry snapshot with reservoir samples."""
        return self.engine.metrics.snapshot(include_samples=True)

    def score(self, utterances: list[dict]) -> tuple[int, dict]:
        """Score one request on the engine.

        400 for an utterance the wire format rejects, 429 on a full
        queue, 503 on a closed engine or a missed deadline, 500 when
        scoring fails.
        """
        try:
            parsed = [utterance_from_json(u) for u in utterances]
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": f"bad request: {exc}"}
        inflight = self.engine.metrics.gauge("serve.inflight")
        inflight.add(1)
        try:
            return self._submit(parsed)
        finally:
            inflight.add(-1)

    def _submit(self, utterances: list) -> tuple[int, dict]:
        """Submit the utterances and wait for their rows."""
        engine = self.engine
        due = None
        if engine.deadline is not None:
            due = time.monotonic() + engine.deadline
        try:
            futures = [engine.submit(u) for u in utterances]
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except EngineClosedError as exc:
            return 503, {"error": str(exc)}
        try:
            rows = []
            for future in futures:
                left = None if due is None else max(due - time.monotonic(), 0)
                rows.append(future.result(timeout=left))
            # (n, K), also for an empty request.
            scores = np.reshape(rows, (len(rows), len(engine.languages)))
        except (FutureTimeoutError, DeadlineExceededError):
            # Never pin a handler thread behind a stalled decode: give
            # the batcher its queued work back as cancellations and shed
            # the request.
            for future in futures:
                future.cancel()
            message = "scoring did not finish within the deadline"
            return 503, {"error": message}
        except Exception as exc:  # engine-side failure
            return 500, {"error": f"scoring failed: {exc}"}
        return 200, {
            "languages": list(engine.languages),
            "utt_ids": [u.utt_id for u in utterances],
            "scores": scores.tolist(),
            "predictions": engine.predict_languages(scores),
            "degraded": engine.degraded,
        }


def make_server(
    engine: ScoringEngine, host: str = "127.0.0.1", port: int = 8337
) -> ScoringServer:
    """Bind a :class:`ScoringServer` (engine started; not yet serving).

    The socket is bound *before* the engine's batcher thread starts, and
    a bind failure (``OSError``, e.g. the port is taken) closes the
    engine — a failed ``make_server`` leaves no live batcher thread
    behind.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (used by tests and benchmarks).
    """
    try:
        server = ScoringServer((host, port), engine)
    except OSError:
        engine.close()
        raise
    try:
        engine.start()
    except Exception:
        server.server_close()
        raise
    return server


def run_server(
    engine: ScoringEngine,
    host: str = "127.0.0.1",
    port: int = 8337,
    *,
    announce=print,
) -> None:
    """Serve until interrupted, then drain the engine cleanly."""
    server = make_server(engine, host, port)
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"repro.serve listening on http://{bound_host}:{bound_port} "
        f"(endpoints: /score /healthz /stats /metricz)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("shutting down")
    finally:
        server.server_close()
        engine.close()
