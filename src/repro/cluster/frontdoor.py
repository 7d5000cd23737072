"""The cluster front door: route, forward, aggregate.

A :class:`ClusterFrontDoor` owns no model at all — it routes
wire-format JSON between clients and the engine workers a
:class:`~repro.cluster.supervisor.WorkerSupervisor` keeps alive.  It is
a :class:`~repro.serve.server.JsonServer`: the HTTP layer, shared with
``repro serve``, rejects a malformed request before any worker sees it.

``POST /score``
    Utterances are sharded by content key with rendezvous hashing
    (:mod:`repro.cluster.hashing`) across the *live* slots, forwarded
    as per-worker sub-requests in parallel, and the responses are
    merged back into the client's utterance order.  Worker overload
    (429) and deadline (503) semantics pass through unchanged; a worker
    that dies mid-request surfaces as **503** (the connection drops —
    the front door never retries a possibly-started scoring request,
    and never hangs: every forward carries a timeout).
``GET /healthz``
    ``ok`` only when every slot is live and every worker reports
    ``ok``; ``degraded`` while any slot is down (killed, respawning) or
    any worker is itself degraded.  Per-worker detail is nested.
``GET /stats``
    Per-slot process summaries plus one *merged* metrics view built by
    pulling every worker's ``/metricz`` (registry snapshot with
    histogram reservoir samples) through
    :func:`repro.obs.metrics.merge_snapshots` — counters sum,
    percentiles are recomputed over pooled samples, nothing is
    double-counted.  The front door's own ``cluster.*`` registry is
    reported alongside.
``GET /metricz``
    The merged snapshot (workers + front door) with samples, for
    scrapers that want to merge again one level up.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

from repro.cluster.hashing import rendezvous_choose, routing_key
from repro.cluster.supervisor import WorkerSupervisor
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.serve.server import JsonServer

__all__ = ["ClusterFrontDoor", "make_cluster", "run_cluster"]

#: When several sub-requests fail differently, the client sees the most
#: actionable status: a bad request beats a server fault beats
#: backpressure beats unavailability.
_STATUS_PRIORITY = (400, 500, 429, 503)


class ClusterFrontDoor(JsonServer):
    """Routing + aggregation tier over a :class:`WorkerSupervisor`.

    The server holds the cluster-level metrics registry (``cluster.*``
    instruments); the supervisor contributes its respawn/chaos counters
    to the same registry when constructed via :func:`make_cluster`.
    """

    def __init__(
        self,
        address: tuple[str, int],
        supervisor: WorkerSupervisor,
        *,
        registry: MetricsRegistry | None = None,
        forward_timeout: float = 35.0,
    ) -> None:
        super().__init__(address)
        self.supervisor = supervisor
        self.metrics = registry if registry is not None else supervisor.metrics
        self.forward_timeout = float(forward_timeout)
        self.requests = self.metrics.counter("cluster.requests")
        self.fanout = self.metrics.counter("cluster.fanout")
        self.forward_failures = self.metrics.counter("cluster.forward_failures")
        self.latency = self.metrics.histogram("cluster.request_latency_s")

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def _forward(
        self,
        method: str,
        port: int,
        path: str,
        body: bytes | None = None,
        *,
        timeout: float | None = None,
    ):
        """One worker HTTP call; ``None`` on a connection-level failure.

        Every forward carries a timeout — a killed or wedged worker can
        fail this request (503 upstream) but can never hang a front
        door handler thread, which is the "zero hung requests" half of
        the chaos contract.
        """
        url = f"http://{self.supervisor.host}:{port}{path}"
        request = urllib.request.Request(
            url,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.forward_timeout
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read())
            except (ValueError, OSError):
                detail = {"error": f"worker returned HTTP {exc.code}"}
            return exc.code, detail
        except (urllib.error.URLError, OSError, ValueError):
            self.forward_failures.inc()
            return None

    def _live_slots(self) -> tuple[list[str], dict[str, int]]:
        alive = self.supervisor.alive()
        ports = self.supervisor.ports()
        live = [
            slot
            for slot, ok in alive.items()
            if ok and ports.get(slot) is not None
        ]
        return live, ports

    # ------------------------------------------------------------------
    # /score
    # ------------------------------------------------------------------
    def score(self, utterances: list[dict]) -> tuple[int, dict]:
        """Shard ``utterances`` across live workers; merge the responses.

        Counts ``cluster.requests`` and observes
        ``cluster.request_latency_s``.
        """
        start = time.monotonic()
        self.requests.inc()
        try:
            return self._dispatch(utterances)
        finally:
            self.latency.observe(time.monotonic() - start)

    def _dispatch(self, utterances: list[dict]) -> tuple[int, dict]:
        live, ports = self._live_slots()
        if not live:
            return 503, {"error": "no live workers"}

        groups: dict[str, list[int]] = {}
        if not utterances:
            groups[live[0]] = []
        for index, utt in enumerate(utterances):
            slot = rendezvous_choose(routing_key(utt), live)
            groups.setdefault(slot, []).append(index)

        results: dict[str, tuple | None] = {}

        def _call(slot: str, indices: list[int]) -> None:
            body = json.dumps(
                {"utterances": [utterances[i] for i in indices]}
            ).encode()
            results[slot] = self._forward(
                "POST", ports[slot], "/score", body
            )

        threads = []
        for slot, indices in groups.items():
            self.fanout.inc()
            thread = threading.Thread(
                target=_call, args=(slot, indices), daemon=True
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()

        statuses = {
            slot: (result[0] if result is not None else 503)
            for slot, result in results.items()
        }
        if any(status != 200 for status in statuses.values()):
            for status in _STATUS_PRIORITY:
                if status in statuses.values():
                    slot = next(
                        s for s, st in statuses.items() if st == status
                    )
                    result = results[slot]
                    detail = (
                        result[1]
                        if result is not None
                        else {"error": f"worker {slot} connection failed"}
                    )
                    return status, detail
            # Unrecognised non-200 from a worker: pass the worst through.
            slot, status = max(statuses.items(), key=lambda kv: kv[1])
            return status, results[slot][1]

        # All 200: stitch rows back into the client's utterance order.
        merged_scores = [None] * len(utterances)
        merged_ids = [None] * len(utterances)
        merged_predictions = [None] * len(utterances)
        languages: list = []
        degraded = False
        for slot, indices in groups.items():
            body = results[slot][1]
            languages = body.get("languages", languages)
            degraded = degraded or bool(body.get("degraded"))
            for local, index in enumerate(indices):
                merged_scores[index] = body["scores"][local]
                merged_ids[index] = body["utt_ids"][local]
                merged_predictions[index] = body["predictions"][local]
        return (
            200,
            {
                "languages": languages,
                "utt_ids": merged_ids,
                "scores": merged_scores,
                "predictions": merged_predictions,
                "degraded": degraded,
                "workers": sorted(groups),
            },
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _poll_workers(self, path: str) -> dict[str, dict | None]:
        """Fetch ``path`` from every live worker (short timeout)."""
        live, ports = self._live_slots()
        out: dict[str, dict | None] = {}
        for slot in live:
            result = self._forward(
                "GET", ports[slot], path, timeout=min(5.0, self.forward_timeout)
            )
            out[slot] = result[1] if result and result[0] == 200 else None
        return out

    def health(self) -> tuple[int, dict]:
        """``(status_code, body)`` for ``/healthz``."""
        workers = self.supervisor.describe()
        health = self._poll_workers("/healthz")
        for slot, info in workers.items():
            if not info["alive"]:
                info["status"] = "dead"
            elif health.get(slot) is None:
                info["status"] = "unreachable"
            else:
                info["status"] = health[slot].get("status", "unknown")
                info["breakers"] = health[slot].get("breakers", {})
        degraded = any(info["status"] != "ok" for info in workers.values())
        body = {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "workers": workers,
        }
        return 200, body

    def metricz(self, *, include_samples: bool = True) -> dict:
        """Union of every worker's registry with the front door's own."""
        snapshots = [
            snap
            for snap in self._poll_workers("/metricz").values()
            if snap is not None
        ]
        snapshots.append(self.metrics.snapshot(include_samples=True))
        return merge_snapshots(snapshots, include_samples=include_samples)

    def stats(self) -> dict:
        """Aggregated ``/stats``: slot summaries + merged metrics."""
        return {
            "workers": self.supervisor.describe(),
            "metrics": self.metricz(include_samples=False),
        }


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def make_cluster(
    artifact_dir,
    n_workers: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    engine_kwargs: dict | None = None,
    worker_env: dict | None = None,
    health_interval: float = 0.25,
    forward_timeout: float = 35.0,
    faults=None,
) -> tuple[WorkerSupervisor, ClusterFrontDoor]:
    """Start a supervisor fleet and bind the front door over it.

    Returns ``(supervisor, server)`` with the workers ready and the
    front door bound (``port=0`` for ephemeral) but not yet serving —
    call ``server.serve_forever()`` or drive it from a thread.  On any
    start failure nothing is left running.
    """
    supervisor = WorkerSupervisor(
        artifact_dir,
        n_workers,
        host=host,
        engine_kwargs=engine_kwargs,
        worker_env=worker_env,
        health_interval=health_interval,
        faults=faults,
    )
    supervisor.start()
    try:
        server = ClusterFrontDoor(
            (host, port), supervisor, forward_timeout=forward_timeout
        )
    except Exception:
        supervisor.stop()
        raise
    return supervisor, server


def run_cluster(
    artifact_dir,
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = 8337,
    *,
    engine_kwargs: dict | None = None,
    announce=print,
) -> None:
    """Serve the cluster until interrupted, then drain everything."""
    supervisor, server = make_cluster(
        artifact_dir, n_workers, host=host, port=port,
        engine_kwargs=engine_kwargs,
    )
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"repro.cluster front door on http://{bound_host}:{bound_port} "
        f"({n_workers} workers: "
        + ", ".join(
            f"{slot}:{p}" for slot, p in sorted(supervisor.ports().items())
        )
        + ")"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("shutting down")
    finally:
        server.server_close()
        supervisor.stop()
