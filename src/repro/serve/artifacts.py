"""Versioned persistence of a trained PPRVSM system.

A *trained system* is everything needed to score a new utterance exactly
as the in-memory pipeline would: the Q trained phone recognizers, the
fitted per-subsystem :class:`~repro.svm.vsm.VSM` classifiers (TFLLR map
+ OvR SVM weights), the fitted :class:`~repro.backend.fusion.LdaMmiFusion`
calibration backend, and the generating
:class:`~repro.core.config.ExperimentConfig`.  :func:`save_system`
writes all of that to a directory:

``manifest.json``
    schema version (:data:`SCHEMA_VERSION`), creation metadata, the
    config fingerprint and a ``sha256`` and ``bytes`` value per file;
``config.json``
    the full experiment config (used to regenerate corpora and the
    deterministic decode RNG streams);
``frontends.pkl``
    the trained recognizers (pickle — they embed trained AMs/decoders);
``vsm__NN_<frontend>.bin`` / ``fusion.bin``
    one state dict each, in the flat :mod:`repro.utils.payload` codec
    the artifact store uses too: every array at a 16-byte-aligned file
    offset.  (Schema 2 used one ``.npy`` per state key.)

:func:`load_system` refuses an older schema (re-export it with ``repro
export``), a corrupted payload, or a stored config that no longer
matches the fingerprint recorded at export time (a **hard failure** —
scoring with a silently drifted config would return wrong-but-plausible
scores).  An eager load reads each file once, checks its SHA-256 and
parses it from the same bytes.  With ``mmap=True`` the ``.bin``
payloads are mapped read-only after an exact byte-size check instead:
the arrays are read-only views over the ``mmap.mmap``, so a large model
opens in milliseconds and the cluster's worker processes share its
pages.  The config and the pickle are always fully hash-verified.  A
reloaded system reproduces the exporting system's dev/test scores bit
for bit either way (enforced by ``tests/serve/test_artifacts.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import time
from pathlib import Path
from typing import Any

from repro.backend.fusion import LdaMmiFusion
from repro.core.config import ExperimentConfig, SystemConfig
from repro.corpus.splits import CorpusConfig
from repro.obs import trace
from repro.svm.vsm import VSM
from repro.utils.payload import (
    decode_members,
    encode_members,
    file_problem,
    map_members,
    read_verified,
)

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactError",
    "TrainedSystem",
    "config_fingerprint",
    "export_trained",
    "save_system",
    "load_system",
    "verify_system",
]

#: Artifact layout version; bump on any incompatible change.
#: 2: per-key ``.npy`` array payloads (mmap-able) replace ``.npz``
#: bundles; the manifest additionally records per-file byte sizes.
#: 3: one flat :mod:`repro.utils.payload` ``.bin`` per state dict.
SCHEMA_VERSION = 3

_MANIFEST = "manifest.json"
_CONFIG = "config.json"
_FRONTENDS = "frontends.pkl"
_FUSION = "fusion.bin"


class ArtifactError(RuntimeError):
    """A saved system could not be loaded safely (version/hash mismatch)."""


@dataclasses.dataclass
class TrainedSystem:
    """A self-contained, score-ready system.

    Attributes
    ----------
    config:
        The experiment config the system was trained under; fixes the
        decode RNG streams and lets corpora be regenerated exactly.
    language_names:
        Ordered target-language names (the score-column order).
    frontends:
        The unique trained recognizers, in battery order.
    subsystems:
        ``(frontend_name, fitted VSM)`` pairs in fusion stacking order.
        A baseline export has one per frontend; a DBA-fusion export may
        repeat frontends (one VSM per variant).
    fusion:
        The fitted LDA-MMI calibration backend over the subsystems.
    """

    config: ExperimentConfig
    language_names: tuple[str, ...]
    frontends: list
    subsystems: list[tuple[str, VSM]]
    fusion: LdaMmiFusion

    def __post_init__(self) -> None:
        names = {fe.name for fe in self.frontends}
        for fe_name, _ in self.subsystems:
            if fe_name not in names:
                raise ValueError(
                    f"subsystem frontend {fe_name!r} not in frontend battery"
                )
        if not self.fusion.is_fitted or self.fusion.weights_ is None:
            raise ValueError("fusion backend must be fitted before export")
        if len(self.subsystems) != self.fusion.weights_.shape[0]:
            raise ValueError("fusion was fitted on a different subsystem count")

    @property
    def n_classes(self) -> int:
        """Number of target languages K."""
        return len(self.language_names)

    def frontend_by_name(self, name: str):
        """Resolve a recognizer by frontend name."""
        for fe in self.frontends:
            if fe.name == name:
                return fe
        raise KeyError(f"no frontend named {name!r}")


def config_fingerprint(config: ExperimentConfig) -> str:
    """SHA-256 over the canonical JSON form of an experiment config.

    Tuples serialise as JSON arrays and keys are sorted, so the
    fingerprint is stable across save/load round-trips.
    """
    payload = json.dumps(_config_to_dict(config), sort_keys=True, default=list)
    return hashlib.sha256(payload.encode()).hexdigest()


def export_trained(
    system, results: list, config: ExperimentConfig
) -> TrainedSystem:
    """Collect the trained components of pipeline ``results`` for export.

    ``system`` is the :class:`~repro.core.pipeline.PhonotacticSystem`
    that produced ``results`` (baseline and/or DBA passes, in fusion
    order).  The fusion backend is fitted here on the results' dev
    scores — exactly what :meth:`~repro.core.pipeline.PhonotacticSystem.
    fused_scores` does internally, so serving the export reproduces the
    in-memory fused scores bit for bit.
    """
    subsystems: list[tuple[str, VSM]] = []
    for result in results:
        for sub in result.subsystems:
            if sub.vsm is None:
                raise ValueError(
                    f"subsystem {sub.name!r} carries no fitted VSM; "
                    "results must come from baseline()/dba()"
                )
            subsystems.append((sub.name, sub.vsm))
    fusion = system.fit_fusion(results)
    return TrainedSystem(
        config=config,
        language_names=tuple(system.bundle.language_names),
        frontends=list(system.frontends),
        subsystems=subsystems,
        fusion=fusion,
    )


# ----------------------------------------------------------------------
# (de)serialisation helpers
# ----------------------------------------------------------------------
def _config_to_dict(config) -> dict:
    """The fields of a config dataclass, nested ones as dicts.

    The JSON form ``dataclasses.asdict`` gives, without its deep copy:
    the leaves (numbers, strings, tuples of them) are immutable, so
    they are shared, not copied.
    """
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        nested = dataclasses.is_dataclass(value)
        out[f.name] = _config_to_dict(value) if nested else value
    return out


def _config_from_dict(payload: dict) -> ExperimentConfig:
    corpus = dict(payload["corpus"])
    corpus["durations"] = tuple(float(d) for d in corpus["durations"])
    system = dict(payload["system"])
    system["orders"] = tuple(int(o) for o in system["orders"])
    return ExperimentConfig(
        corpus=CorpusConfig(**corpus),
        system=SystemConfig(**system),
        frontend_mode=str(payload["frontend_mode"]),
        vote_thresholds=tuple(int(v) for v in payload["vote_thresholds"]),
    )


def _vsm_file(index: int, frontend_name: str) -> str:
    return f"vsm__{index:02d}_{frontend_name}.bin"


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / _MANIFEST
    try:
        return json.loads(manifest_path.read_bytes())
    except FileNotFoundError:
        raise ArtifactError(f"no manifest at {manifest_path}") from None
    except ValueError as exc:
        raise ArtifactError(f"unreadable manifest at {manifest_path}") from exc


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def save_system(
    directory: str | Path,
    trained: TrainedSystem,
    *,
    metadata: dict | None = None,
) -> Path:
    """Write a :class:`TrainedSystem` to ``directory``; returns the path.

    ``metadata`` (JSON-able) is stored verbatim in the manifest — use it
    to record provenance such as the exporting command or DBA settings.

    Every payload's SHA-256 and byte size are computed here, once, from
    the bytes written, and pinned in the manifest; loaders check against
    the manifest instead of trusting the filesystem.
    """
    config = _config_to_dict(trained.config)
    payloads = {
        _CONFIG: json.dumps(config, indent=2, default=list).encode(),
        _FRONTENDS: pickle.dumps(trained.frontends, pickle.HIGHEST_PROTOCOL),
        **{
            _vsm_file(i, fe_name): encode_members(vsm.state_dict())
            for i, (fe_name, vsm) in enumerate(trained.subsystems)
        },
        _FUSION: encode_members(trained.fusion.state_dict()),
    }
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}
    for name, data in payloads.items():
        (directory / name).write_bytes(data)
        files[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "config_sha256": config_fingerprint(trained.config),
        "languages": list(trained.language_names),
        "frontends": [fe.name for fe in trained.frontends],
        "subsystems": [fe_name for fe_name, _ in trained.subsystems],
        "files": files,
        "metadata": metadata or {},
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    return directory


def verify_system(directory: str | Path) -> list[dict[str, str]]:
    """Fully re-hash every payload of a saved system against its manifest.

    Unlike the ``mmap=True`` load path, which checks mapped payloads by
    exact byte size only (a same-length bit flip in a weight matrix
    would skew scores unnoticed), this audit hashes **every** listed
    file.  Returns one ``{"file", "problem"}`` record per problem, where
    ``problem`` is ``"missing"`` or ``"checksum"``; an empty list means
    the artifact is byte-for-byte what :func:`save_system` wrote.  A
    missing or unreadable manifest raises :class:`ArtifactError`.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    return [
        {"file": name, "problem": problem}
        for name, entry in sorted(manifest.get("files", {}).items())
        if (problem := file_problem(directory / name, entry["sha256"]))
    ]


def load_system(
    directory: str | Path,
    *,
    expected_config: ExperimentConfig | None = None,
    mmap: bool = False,
) -> TrainedSystem:
    """Load a :class:`TrainedSystem` saved by :func:`save_system`.

    Raises :class:`ArtifactError` on another schema version, a missing
    or corrupted payload, or a config that no longer fingerprints as at
    export time (see the module docstring for the eager and ``mmap``
    checks).  Passing ``expected_config`` additionally pins the artifact
    to a caller-side config (e.g. the one a server was asked to assume).
    :func:`verify_system` (``repro exec verify <dir>``) re-hashes
    everything, catching the same-length corruption the mapped path
    cannot.  The load runs under an ``artifact.load`` trace span whose
    ``files`` and ``bytes`` counters count the payloads opened.
    """
    directory = Path(directory)
    with trace.span("artifact.load", mmap=mmap) as sp:
        manifest = _read_manifest(directory)
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"artifact schema version {version!r} unsupported (this "
                f"build reads version {SCHEMA_VERSION}); re-export the "
                "system with `repro export`"
            )

        def read(name: str, *, arrays: bool) -> Any:
            """Payload ``name``: its verified bytes, or its members."""
            entry = manifest["files"].get(name)
            path = str(directory / name)
            try:
                if entry is None:
                    raise FileNotFoundError(path)
                if arrays and mmap:
                    value = map_members(path, entry["bytes"])
                else:
                    buf, begin = read_verified(path, entry["sha256"])
                    value = memoryview(buf)[begin:]
                    if arrays:
                        value = decode_members(buf, begin)
            except FileNotFoundError:
                raise ArtifactError(
                    f"artifact payload {name!r} is missing"
                ) from None
            except (ValueError, TypeError) as exc:
                # PayloadMismatch, or a mapped payload's garbled table
                raise ArtifactError(
                    f"artifact payload {name!r} is corrupted ({exc})"
                ) from None
            sp.inc("files")
            sp.inc("bytes", entry["bytes"])
            return value

        config = _config_from_dict(
            json.loads(bytes(read(_CONFIG, arrays=False)))
        )
        fingerprint = config_fingerprint(config)
        if fingerprint != manifest["config_sha256"]:
            raise ArtifactError(
                "config hash mismatch: stored config fingerprints to "
                f"{fingerprint[:12]}… but the manifest pinned "
                f"{manifest['config_sha256'][:12]}… — refusing to score "
                "with a drifted configuration"
            )
        if expected_config is not None and (
            config_fingerprint(expected_config) != fingerprint
        ):
            raise ArtifactError(
                "artifact was exported under a different experiment config "
                "than the one expected by the caller"
            )
        frontends = pickle.loads(read(_FRONTENDS, arrays=False))
        subsystems = [
            (fe_name, VSM.from_state(read(_vsm_file(i, fe_name), arrays=True)))
            for i, fe_name in enumerate(manifest["subsystems"])
        ]
        fusion = LdaMmiFusion.from_state(read(_FUSION, arrays=True))

    return TrainedSystem(
        config=config,
        language_names=tuple(manifest["languages"]),
        frontends=frontends,
        subsystems=subsystems,
        fusion=fusion,
    )
