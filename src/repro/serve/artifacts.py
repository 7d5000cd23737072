"""Versioned persistence of a trained PPRVSM system.

A *trained system* is everything needed to score a new utterance exactly
as the in-memory pipeline would: the Q trained phone recognizers, the
fitted per-subsystem :class:`~repro.svm.vsm.VSM` classifiers (TFLLR map
+ OvR SVM weights), the fitted :class:`~repro.backend.fusion.LdaMmiFusion`
calibration backend, and the generating
:class:`~repro.core.config.ExperimentConfig`.  :func:`save_system`
writes all of that to a directory:

``manifest.json``
    schema version, creation metadata, the config fingerprint and a
    SHA-256 per payload file (integrity-checked at load);
``config.json``
    the full experiment config (used to regenerate corpora and the
    deterministic decode RNG streams);
``frontends.pkl``
    the trained recognizers (pickle — they embed trained AMs/decoders);
``vsm__*/<key>.npy`` / ``fusion/<key>.npy``
    array state dicts, **one uncompressed ``.npy`` per state key**
    (schema 2; schema 1 used ``.npz`` bundles).  Plain ``.npy`` files
    are the format :func:`numpy.load` can open with ``mmap_mode="r"``,
    which is what makes the cluster tier cheap: N worker processes
    mapping the same payload files share one page-cache copy of the SVM
    weight matrices instead of N private heap copies.

:func:`load_system` refuses to load when the schema version is unknown,
when a payload file was corrupted, or when the stored config no longer
matches the fingerprint recorded at export time (a **hard failure** —
scoring with a silently drifted config would return wrong-but-plausible
scores).  With ``mmap=True`` the array payloads are opened read-only via
``mmap_mode="r"`` instead of being hashed and copied into the heap: the
SHA-256 recorded at export still pins the bytes, but the open-time check
for mapped arrays is manifest-based (existence + exact byte size) so a
multi-gigabyte model opens in milliseconds and its pages are only
faulted in — and shared across processes — as scoring touches them.
Non-array payloads (the pickle, the config) are always fully
hash-verified.  Round-trip fidelity is exact either way: a reloaded
system reproduces the exporting system's dev/test scores bit for bit
(enforced by ``tests/serve/test_artifacts.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import time
from pathlib import Path

import numpy as np

from repro.backend.fusion import LdaMmiFusion
from repro.core.config import ExperimentConfig, SystemConfig
from repro.corpus.splits import CorpusConfig
from repro.svm.vsm import VSM

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
SCHEMA_VERSION = 2

_MANIFEST = "manifest.json"
_CONFIG = "config.json"
_FRONTENDS = "frontends.pkl"
_FUSION_DIR = "fusion"


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
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=list
    )
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
def _save_state_npy(
    directory: Path, subdir: str, state: dict, files: dict[str, dict]
) -> None:
    """Write one state dict as per-key ``.npy`` files under ``subdir``.

    Every value (arrays, scalars, strings) goes through ``np.asarray``
    into its own uncompressed ``.npy`` — the only numpy container
    ``mmap_mode`` can open.  Each file's SHA-256 and byte size are
    recorded in ``files`` keyed by artifact-relative path.
    """
    target = directory / subdir
    target.mkdir(parents=True, exist_ok=True)
    for key, value in state.items():
        path = target / f"{key}.npy"
        np.save(path, np.asarray(value))
        files[f"{subdir}/{key}.npy"] = {
            "sha256": _file_sha256(path),
            "bytes": path.stat().st_size,
        }


def _load_state_npy(
    directory: Path, subdir: str, manifest: dict, *, mmap: bool
) -> dict:
    """Rebuild a state dict from the ``.npy`` files listed for ``subdir``.

    With ``mmap=True`` arrays come back as read-only ``np.memmap`` views
    (zero heap copy; pages shared across processes through the page
    cache).  0-d entries (scalars, strings, flags) are always unwrapped
    to plain numpy scalars — there is nothing to share in 8 bytes, and
    ``from_state`` implementations expect ``int()``/``str()`` to work.
    """
    prefix = f"{subdir}/"
    state: dict = {}
    for relpath in manifest["files"]:
        if not relpath.startswith(prefix) or not relpath.endswith(".npy"):
            continue
        key = relpath[len(prefix) : -len(".npy")]
        array = np.load(
            directory / relpath,
            mmap_mode="r" if mmap else None,
            allow_pickle=False,
        )
        state[key] = array[()] if array.ndim == 0 else array
    if not state:
        raise ArtifactError(f"artifact has no payloads under {subdir!r}")
    return state


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


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


def _vsm_dirname(index: int, frontend_name: str) -> str:
    return f"vsm__{index:02d}_{frontend_name}"


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

    Every payload's SHA-256 and byte size are computed here, once, and
    pinned in the manifest; loaders check against the manifest instead
    of trusting the filesystem.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, dict] = {}

    config_path = directory / _CONFIG
    config_path.write_text(
        json.dumps(_config_to_dict(trained.config), indent=2, default=list)
    )
    files[_CONFIG] = {
        "sha256": _file_sha256(config_path),
        "bytes": config_path.stat().st_size,
    }

    frontends_path = directory / _FRONTENDS
    with open(frontends_path, "wb") as fh:
        pickle.dump(trained.frontends, fh, protocol=pickle.HIGHEST_PROTOCOL)
    files[_FRONTENDS] = {
        "sha256": _file_sha256(frontends_path),
        "bytes": frontends_path.stat().st_size,
    }

    subsystem_names = []
    for i, (fe_name, vsm) in enumerate(trained.subsystems):
        _save_state_npy(
            directory, _vsm_dirname(i, fe_name), vsm.state_dict(), files
        )
        subsystem_names.append(fe_name)

    _save_state_npy(directory, _FUSION_DIR, trained.fusion.state_dict(), files)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "config_sha256": config_fingerprint(trained.config),
        "languages": list(trained.language_names),
        "frontends": [fe.name for fe in trained.frontends],
        "subsystems": subsystem_names,
        "files": files,
        "metadata": metadata or {},
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))
    return directory


def verify_system(directory: str | Path) -> list[dict[str, str]]:
    """Fully re-hash every payload of a saved system against its manifest.

    Unlike the ``mmap=True`` load path — which by design checks mapped
    ``.npy`` payloads by existence and byte size only, so a same-length
    bit flip in a weight matrix would go unnoticed until it skewed a
    score — this audit computes the SHA-256 of **every** listed file,
    array payloads included, and compares it to the digest pinned at
    export time.

    Returns one record per problem: ``{"file", "problem"}`` where
    ``problem`` is ``"missing"`` or ``"checksum"``.  An empty list means
    the artifact is byte-for-byte what :func:`save_system` wrote.  A
    missing or unreadable manifest raises :class:`ArtifactError` — with
    no digests there is nothing to verify against.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ArtifactError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"unreadable manifest at {manifest_path}") from exc
    problems: list[dict[str, str]] = []
    for name in sorted(manifest.get("files", {})):
        entry = manifest["files"][name]
        path = directory / name
        if not path.exists():
            problems.append({"file": name, "problem": "missing"})
        elif _file_sha256(path) != entry["sha256"]:
            problems.append({"file": name, "problem": "checksum"})
    return problems


def load_system(
    directory: str | Path,
    *,
    expected_config: ExperimentConfig | None = None,
    mmap: bool = False,
) -> TrainedSystem:
    """Load a :class:`TrainedSystem` saved by :func:`save_system`.

    Raises :class:`ArtifactError` when the schema version is unsupported,
    a payload file is missing or corrupted, or the stored config's
    fingerprint does not match the one recorded at export time.  Passing
    ``expected_config`` additionally pins the artifact to a caller-side
    config (e.g. the one a server was asked to assume).

    With ``mmap=True`` the ``.npy`` array payloads open as read-only
    memory maps (one shared page-cache copy across however many worker
    processes load the same directory).  Mapped payloads are checked
    against the manifest by existence and exact byte size instead of
    being fully hashed — hashing would fault in every page and defeat
    the lazy open; the export-time SHA-256 still pins the bytes for
    ``mmap=False`` loads and offline audits.  Non-array payloads are
    fully hash-verified in both modes.  :func:`verify_system` (exposed
    as ``repro exec verify <dir>``) re-hashes everything, catching the
    same-length corruption the mapped fast path cannot.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ArtifactError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())

    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    for name, entry in manifest["files"].items():
        path = directory / name
        if not path.exists():
            raise ArtifactError(f"artifact payload {name!r} is missing")
        if mmap and name.endswith(".npy"):
            actual_bytes = path.stat().st_size
            if actual_bytes != entry["bytes"]:
                raise ArtifactError(
                    f"artifact payload {name!r} is corrupted "
                    f"({actual_bytes} bytes != manifest {entry['bytes']})"
                )
            continue
        actual = _file_sha256(path)
        if actual != entry["sha256"]:
            raise ArtifactError(
                f"artifact payload {name!r} is corrupted "
                f"(sha256 {actual[:12]}… != manifest "
                f"{entry['sha256'][:12]}…)"
            )

    config = _config_from_dict(json.loads((directory / _CONFIG).read_text()))
    fingerprint = config_fingerprint(config)
    if fingerprint != manifest["config_sha256"]:
        raise ArtifactError(
            "config hash mismatch: stored config fingerprints to "
            f"{fingerprint[:12]}… but the manifest pinned "
            f"{manifest['config_sha256'][:12]}… — refusing to score with a "
            "drifted configuration"
        )
    if expected_config is not None and (
        config_fingerprint(expected_config) != fingerprint
    ):
        raise ArtifactError(
            "artifact was exported under a different experiment config "
            "than the one expected by the caller"
        )

    with open(directory / _FRONTENDS, "rb") as fh:
        frontends = pickle.load(fh)

    subsystems: list[tuple[str, VSM]] = []
    for i, fe_name in enumerate(manifest["subsystems"]):
        state = _load_state_npy(
            directory, _vsm_dirname(i, fe_name), manifest, mmap=mmap
        )
        subsystems.append((fe_name, VSM.from_state(state)))
    fusion = LdaMmiFusion.from_state(
        _load_state_npy(directory, _FUSION_DIR, manifest, mmap=mmap)
    )

    return TrainedSystem(
        config=config,
        language_names=tuple(manifest["languages"]),
        frontends=frontends,
        subsystems=subsystems,
        fusion=fusion,
    )
