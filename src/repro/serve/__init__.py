"""Online scoring service over a persisted trained system.

The offline pipeline (:mod:`repro.core`) trains and evaluates systems in
one process; this package turns a trained system into a long-lived
service:

- :mod:`repro.serve.artifacts` — versioned save/load of the trained
  components (recognizers, VSMs, fusion backend) with a config
  fingerprint that hard-fails on drift;
- :mod:`repro.serve.engine` — micro-batched scoring with an LRU
  cache of served score rows and Table-5-style per-stage telemetry;
- :mod:`repro.serve.cache` — the bounded thread-safe score cache;
- :mod:`repro.serve.protocol` — the JSON wire format for utterances and
  the digest function behind cache keys;
- :mod:`repro.serve.server` — a stdlib-only JSON HTTP API
  (``/score``, ``/healthz``, ``/stats``, ``/metricz``) with
  backpressure (429) and deadline (503) semantics, whose one request
  handler the cluster front door shares;

Fault injection (``REPRO_FAULTS``, used to exercise the
overload/partial-failure contract in tests and benchmarks) lives in
:mod:`repro.faults`; :class:`FaultPlan` and :class:`InjectedFault` are
re-exported here.

The engine is supervised and admission-controlled: the batcher thread
restarts on unexpected exceptions, the queue is bounded
(:class:`QueueFullError`), requests carry deadlines
(:class:`DeadlineExceededError`), and per-frontend circuit breakers
degrade fusion to the surviving subsystems instead of failing the whole
service (see ``docs/serving.md``, "Operations & failure modes").

CLI entry points: ``repro export``, ``repro score``, ``repro serve``.

Quickstart::

    from repro.core import build_system, smoke_scale
    from repro.serve import ScoringEngine, export_trained, save_system

    config = smoke_scale()
    system = build_system(config)
    baseline = system.baseline()
    trained = export_trained(system, [baseline], config)
    save_system("artifact/", trained)

    with ScoringEngine(trained) as engine:
        scores = engine.score_utterances(system.bundle.dev.utterances)
"""

from repro.serve.artifacts import (
    SCHEMA_VERSION,
    ArtifactError,
    TrainedSystem,
    config_fingerprint,
    export_trained,
    load_system,
    save_system,
    verify_system,
)
from repro.serve.cache import ScoreCache
from repro.serve.engine import (
    AllFrontendsDownError,
    DeadlineExceededError,
    EngineClosedError,
    QueueFullError,
    ScoringEngine,
)
from repro.faults import FaultPlan, InjectedFault
from repro.serve.protocol import (
    utterance_digest,
    utterance_from_json,
    utterance_to_json,
)
from repro.serve.server import ScoringServer, make_server, run_server

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactError",
    "TrainedSystem",
    "config_fingerprint",
    "export_trained",
    "load_system",
    "save_system",
    "verify_system",
    "ScoreCache",
    "ScoringEngine",
    "QueueFullError",
    "DeadlineExceededError",
    "EngineClosedError",
    "AllFrontendsDownError",
    "FaultPlan",
    "InjectedFault",
    "utterance_digest",
    "utterance_from_json",
    "utterance_to_json",
    "ScoringServer",
    "make_server",
    "run_server",
]
