"""Sharded multi-process serving tier over :mod:`repro.serve`.

One :class:`~repro.serve.engine.ScoringEngine` is one Python process —
one GIL, one batcher, one core.  This package is the layer that makes
the serving stack scale with cores and survive process death:

- :mod:`repro.cluster.worker` — the engine worker process: today's
  full single-process stack (micro-batching, deadlines, admission
  control, circuit breakers, score cache) behind an ephemeral HTTP
  port, loading the artifact with ``mmap=True`` so N workers share one
  page-cache copy of the model arrays;
- :mod:`repro.cluster.fleet` — :class:`ProcessFleet`: the generic
  spawn/monitor/respawn/drain machinery with crash-loop backoff,
  shared with the distributed campaign tier (:mod:`repro.dist`);
- :mod:`repro.cluster.supervisor` — :class:`WorkerSupervisor`: the
  serving fleet (engine workers behind ephemeral HTTP ports); applies
  the ``worker`` chaos fault target
  (``REPRO_FAULTS=error:worker:1`` SIGKILLs one live worker);
- :mod:`repro.cluster.hashing` — rendezvous hashing of utterance
  content keys onto stable worker slots, so each worker's score cache
  stays warm and a membership change only moves the dead slot's keys;
- :mod:`repro.cluster.frontdoor` — :class:`ClusterFrontDoor`, served
  by ``repro serve``'s HTTP handler: shards ``/score`` across live
  workers and merges responses; aggregates ``/healthz``
  (degraded-while-respawning) and ``/stats`` / ``/metricz`` via
  :func:`repro.obs.metrics.merge_snapshots`.

CLI entry point: ``repro serve <artifact> --workers N`` (``--workers 0``
keeps the classic in-process server).  See ``docs/serving.md``,
"Scaling out".

Quickstart::

    from repro.cluster import make_cluster

    supervisor, server = make_cluster("artifact/", n_workers=4)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        supervisor.stop()
"""

from repro.cluster.frontdoor import ClusterFrontDoor, make_cluster, run_cluster
from repro.cluster.fleet import ProcessFleet
from repro.cluster.hashing import rendezvous_choose, rendezvous_rank, routing_key
from repro.cluster.supervisor import ClusterError, WorkerHandle, WorkerSupervisor
from repro.cluster.worker import worker_main

__all__ = [
    "ProcessFleet",
    "ClusterFrontDoor",
    "make_cluster",
    "run_cluster",
    "rendezvous_choose",
    "rendezvous_rank",
    "routing_key",
    "ClusterError",
    "WorkerHandle",
    "WorkerSupervisor",
    "worker_main",
]
