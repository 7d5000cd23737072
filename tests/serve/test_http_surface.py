"""One table of HTTP behaviour, held by both serving layouts.

``repro serve`` (a :class:`ScoringServer` over one engine) and the
cluster front door (:func:`repro.cluster.make_cluster`) answer through
the same :class:`~repro.serve.server.JsonRequestHandler`.  Every row
pins the status, the body's ``error`` key, ``Retry-After`` and whether
the connection stays open; each request is followed on the same socket
by a pipelined ``GET /healthz``, which is answered exactly when the
connection was kept.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading

import pytest

from repro.cluster import ClusterFrontDoor, make_cluster
from repro.obs.metrics import MetricsRegistry
from repro.serve import ScoringEngine, make_server
from repro.serve.server import MAX_BODY_BYTES, JsonServer

#: Pipelined after each request; asks the server to close after it.
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
NOPE = b"GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


def _post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


@contextlib.contextmanager
def _serving(server):
    """Run ``server`` on a thread; yields its ``(host, port)``."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _exchange(address, data: bytes) -> list[tuple[int, dict, dict]]:
    """Send ``data`` on one connection; parse every response until EOF."""
    chunks = []
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(data)
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    raw = b"".join(chunks)
    responses = []
    while raw:
        head, _, raw = raw.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, value in (line.split(":", 1) for line in lines)
        }
        length = int(headers["content-length"])
        body, raw = raw[:length], raw[length:]
        status = int(status_line.split()[1])
        responses.append((status, headers, json.loads(body)))
    return responses


@pytest.fixture(scope="module")
def serve_address(serve_trained):
    """``repro serve``: one engine behind a :class:`ScoringServer`."""
    engine = ScoringEngine(serve_trained, batch_window=0.01, cache_entries=0)
    try:
        with _serving(make_server(engine, port=0)) as address:
            yield address
    finally:
        engine.close()


@pytest.fixture(scope="module")
def cluster_address(artifact_dir):
    """``repro serve --workers 1``: the front door over one worker."""
    supervisor, server = make_cluster(artifact_dir, 1)
    try:
        with _serving(server) as address:
            yield address
    finally:
        supervisor.stop()


@pytest.fixture(params=["serve", "cluster"])
def address(request):
    """Each layout in turn."""
    return request.getfixturevalue(f"{request.param}_address")


#: (request, status, closed): every row is an error with no Retry-After.
ERROR_TABLE = {
    "get-unknown-path": (b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", 404, False),
    "post-unknown-path": (_post("/nope", b"{}"), 404, True),
    "bad-content-length": (
        b"POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
        400,
        True,
    ),
    "body-too-large": (
        b"POST /score HTTP/1.1\r\nHost: t\r\n"
        + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        400,
        True,
    ),
    "not-json": (_post("/score", b"not json"), 400, False),
    "no-utterances": (_post("/score", b"{}"), 400, False),
    "utterances-not-list": (
        _post("/score", b'{"utterances": "x"}'), 400, False
    ),
    "utterance-not-object": (
        _post("/score", b'{"utterances": [1]}'), 400, False
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_TABLE))
def test_error_table(address, case):
    data, status, closed = ERROR_TABLE[case]
    responses = _exchange(address, data + HEALTHZ)
    got, headers, body = responses[0]
    assert got == status
    assert "error" in body
    assert "retry-after" not in headers
    if closed:
        assert headers.get("connection") == "close"
        assert len(responses) == 1
    else:
        assert "connection" not in headers
        assert [r[0] for r in responses] == [status, 200]
        assert "status" in responses[1][2]


def test_empty_request(address):
    responses = _exchange(
        address, _post("/score", b'{"utterances": []}') + HEALTHZ
    )
    status, headers, body = responses[0]
    assert status == 200
    assert body["scores"] == [] and body["utt_ids"] == []
    assert "retry-after" not in headers and "connection" not in headers
    assert len(responses) == 2


class _StatusServer(JsonServer):
    """Answers every ``/score`` with one fixed status."""

    def __init__(self, status: int) -> None:
        super().__init__(("127.0.0.1", 0))
        self.status = status

    def score(self, utterances):
        return self.status, {"error": f"stub {self.status}"}


@pytest.mark.parametrize(
    "status, retry_after", [(429, "1"), (503, "1"), (500, None)]
)
def test_retry_after_exactly_on_429_and_503(status, retry_after):
    with _serving(_StatusServer(status)) as address:
        responses = _exchange(
            address, _post("/score", b'{"utterances": []}') + NOPE
        )
    got, headers, body = responses[0]
    assert got == status
    assert body == {"error": f"stub {status}"}
    assert headers.get("retry-after") == retry_after
    assert "connection" not in headers
    assert len(responses) == 2


class _NoLiveSlots:
    """A supervisor whose only slot is down."""

    host = "127.0.0.1"

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def alive(self):
        return {"w0": False}

    def ports(self):
        return {"w0": None}


def test_front_door_without_workers_rejects_bad_request_first():
    # A malformed request can never succeed, so it must not get a 503
    # with Retry-After just because no worker is up to ask.
    front = ClusterFrontDoor(("127.0.0.1", 0), _NoLiveSlots())
    with _serving(front) as address:
        bad, _ = _exchange(
            address, _post("/score", b'{"utterances": [1]}') + NOPE
        )
        empty, _ = _exchange(
            address, _post("/score", b'{"utterances": []}') + NOPE
        )
    assert bad[0] == 400 and "retry-after" not in bad[1]
    assert empty[0] == 503 and empty[1]["retry-after"] == "1"
    assert empty[2] == {"error": "no live workers"}
