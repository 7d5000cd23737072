"""HTTP surface: /score, /healthz, /stats, error handling, overload."""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.serve import ScoringEngine, make_server, utterance_to_json
from repro.serve.engine import EngineClosedError
from repro.faults import FaultPlan


@pytest.fixture()
def server(serve_trained):
    """A live server on an ephemeral port; yields its base URL."""
    engine = ScoringEngine(
        serve_trained, batch_window=0.01, cache_entries=0
    )
    srv = make_server(engine, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()
        engine.close()
        thread.join(timeout=10)


@contextlib.contextmanager
def _live_server(engine):
    """Serve ``engine`` on an ephemeral port; yields the base URL."""
    srv = make_server(engine, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()
        engine.close()
        thread.join(timeout=10)


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return json.loads(resp.read())


class TestEndpoints:
    def test_healthz(self, server, serve_trained):
        body = _get(server + "/healthz")
        assert body["status"] == "ok"
        assert body["degraded"] is False
        assert set(body["breakers"].values()) == {"closed"}
        assert body["languages"] == list(serve_trained.language_names)
        assert body["subsystems"] == [
            name for name, _ in serve_trained.subsystems
        ]

    def test_score_matches_engine(self, server, serve_trained,
                                  serve_system):
        utterances = list(serve_system.bundle.dev.utterances)[:3]
        body = _post(
            server + "/score",
            {"utterances": [utterance_to_json(u) for u in utterances]},
        )
        reference = ScoringEngine(
            serve_trained, cache_entries=0
        ).score_utterances(utterances)
        assert body["utt_ids"] == [u.utt_id for u in utterances]
        assert body["degraded"] is False
        assert np.array_equal(np.asarray(body["scores"]), reference)
        assert body["predictions"] == [
            serve_trained.language_names[k]
            for k in np.argmax(reference, axis=1)
        ]

    def test_stats_reflect_traffic(self, server, serve_system):
        utterances = list(serve_system.bundle.dev.utterances)[:2]
        _post(
            server + "/score",
            {"utterances": [utterance_to_json(u) for u in utterances]},
        )
        stats = _get(server + "/stats")
        assert stats["requests"] >= 2
        assert stats["batches"] >= 1
        assert "decoding" in stats["stages"]
        assert stats["degraded"] is False
        assert stats["rejected"] == 0
        assert stats["batcher_restarts"] == 0
        assert stats["metrics"]["serve.inflight"]["value"] == 0

    def test_empty_utterance_list(self, server):
        body = _post(server + "/score", {"utterances": []})
        assert body["utt_ids"] == []
        assert body["scores"] == []


class TestErrors:
    def _status_of(self, exc_info) -> int:
        return exc_info.value.code

    def test_unknown_get_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server + "/nope")
        assert exc_info.value.code == 404

    def test_unknown_post_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _post(server + "/nope", {})
        assert exc_info.value.code == 404

    def test_malformed_body_400(self, server):
        request = urllib.request.Request(
            server + "/score", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=30)
        assert exc_info.value.code == 400

    def test_missing_utterances_key_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _post(server + "/score", {"wrong": []})
        assert exc_info.value.code == 400

    def test_bad_utterance_payload_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _post(server + "/score", {"utterances": [{"utt_id": "x"}]})
        assert exc_info.value.code == 400

    def test_non_finite_session_params_400(self, server, serve_system):
        utterance = utterance_to_json(
            list(serve_system.bundle.dev.utterances)[0]
        )
        utterance["session"]["snr_db"] = float("nan")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _post(server + "/score", {"utterances": [utterance]})
        assert exc_info.value.code == 400


def _raw_exchange(base_url: str, data: bytes) -> bytes:
    """Send raw bytes over one connection; return everything until EOF."""
    parsed = urllib.parse.urlparse(base_url)
    with socket.create_connection(
        (parsed.hostname, parsed.port), timeout=30
    ) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestKeepAliveHygiene:
    """4xx responses sent before the body is drained must close the
    connection — otherwise the unread body bytes desync the next
    pipelined request on the same connection."""

    def test_bad_content_length_closes_connection(self, server):
        # A second, well-formed request is pipelined after the bad one;
        # the server must close instead of parsing the stale bytes.
        raw = _raw_exchange(
            server,
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: nope\r\n"
            b"\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in raw.lower()
        # Exactly one response came back: the connection was closed, not
        # left to misparse the pipelined GET.
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_oversized_content_length_closes_connection(self, server):
        raw = _raw_exchange(
            server,
            b"POST /score HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 99999999999\r\n\r\n"
            b"{}",
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in raw.lower()

    def test_unknown_post_path_closes_connection(self, server):
        raw = _raw_exchange(
            server,
            b"POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 404")
        assert b"connection: close" in raw.lower()

    def test_fully_read_400_keeps_connection_alive(self, server):
        # Malformed JSON is read in full before the 400: keep-alive is
        # safe, and a pipelined /healthz on the same connection works.
        body = b"not json"
        raw = _raw_exchange(
            server,
            b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
            + b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        assert raw.startswith(b"HTTP/1.1 400")
        assert raw.count(b"HTTP/1.1 ") == 2
        assert b'"status"' in raw


class TestBindFailure:
    def test_make_server_bind_failure_closes_engine(self, serve_trained):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            engine = ScoringEngine(serve_trained)
            engine.start()
            batcher = engine._thread
            assert batcher is not None and batcher.is_alive()
            with pytest.raises(OSError):
                make_server(engine, port=port)
            # The engine was closed: its batcher thread is gone and it
            # refuses further work — no silently leaked thread.
            assert engine._thread is None
            assert not batcher.is_alive()
            with pytest.raises(EngineClosedError):
                engine.start()
        finally:
            blocker.close()


class TestOverloadResponses:
    def test_queue_full_returns_429_with_retry_after(
        self, serve_trained, serve_system
    ):
        utterances = list(serve_system.bundle.dev.utterances)[:4]
        plan = FaultPlan.parse("stall:batcher:1.5")
        engine = ScoringEngine(
            serve_trained,
            batch_window=0.0,
            max_batch=1,
            max_queue=1,
            cache_entries=0,
            faults=plan,
        )
        with _live_server(engine) as url:
            inflight = engine.submit(utterances[0])
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with engine._cv:
                    if not engine._queue:
                        break
                time.sleep(0.005)
            queued = engine.submit(utterances[1])  # fills the queue
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(
                    url + "/score",
                    {"utterances": [utterance_to_json(utterances[2])]},
                )
            assert exc_info.value.code == 429
            assert exc_info.value.headers.get("Retry-After") == "1"
            plan.clear()  # lift the stall so teardown drains quickly
            assert inflight.result(timeout=60) is not None
            assert queued.result(timeout=60) is not None
            assert engine.stats()["rejected"] == 1

    def test_stalled_frontend_returns_503_within_deadline(
        self, serve_trained, serve_system
    ):
        utterances = list(serve_system.bundle.dev.utterances)[:1]
        stalled = serve_trained.frontends[0].name
        engine = ScoringEngine(
            serve_trained,
            batch_window=0.0,
            cache_entries=0,
            deadline=0.25,
            faults=FaultPlan.parse(f"stall:{stalled}:2.0"),
        )
        with _live_server(engine) as url:
            t0 = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _post(
                    url + "/score",
                    {"utterances": [utterance_to_json(utterances[0])]},
                )
            elapsed = time.monotonic() - t0
            assert exc_info.value.code == 503
            assert exc_info.value.headers.get("Retry-After") == "1"
            # Answered on the deadline, far before the 2 s stall ends.
            assert elapsed < 1.5

    def test_degraded_responses_flagged(self, serve_trained, serve_system):
        utterances = list(serve_system.bundle.dev.utterances)[:2]
        broken = serve_trained.frontends[0].name
        engine = ScoringEngine(
            serve_trained,
            batch_window=0.01,
            cache_entries=0,
            breaker_threshold=1,
            breaker_cooldown=60.0,
            faults=FaultPlan.parse(f"error:{broken}"),
        )
        with _live_server(engine) as url:
            body = _post(
                url + "/score",
                {"utterances": [utterance_to_json(u) for u in utterances]},
            )
            assert body["degraded"] is True
            assert len(body["scores"]) == len(utterances)
            health = _get(url + "/healthz")
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["breakers"][broken] == "open"
            stats = _get(url + "/stats")
            assert stats["degraded"] is True
            assert stats["breaker"][broken] == "open"
            assert (
                stats["metrics"][f"serve.breaker.{broken}.state"]["value"]
                == 2.0
            )
