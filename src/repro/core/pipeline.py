"""End-to-end PPRVSM and DBA systems (paper Figs. 1–2).

:class:`PhonotacticSystem` owns the full flow for one corpus bundle and
one frontend battery:

1. **decode** every corpus once per frontend (cached — both PPRVSM and all
   DBA variants share the φ(x) work, the fact behind the paper's Eq. 18–19
   cost claim);
2. **extract** raw supervector matrices once per (frontend, corpus);
3. **baseline** (:meth:`baseline`): per-frontend VSMs trained once on the
   original training set, scored on dev and every test duration;
4. **DBA** (:meth:`dba`): vote over the baseline test scores (Eq. 13)
   pooled across *all* durations — the paper's Table 1 counts (up to
   35 262 of the 41 793 total test segments) show the pseudo-label pool
   spans the whole evaluation set, which is also why the paper's 3 s
   systems gain the most: short-utterance scoring benefits from
   pseudo-labels earned by long utterances under the same test
   conditions — then retrain each subsystem per variant (M1/M2) and
   rescore every duration;
5. **calibration/fusion** (:func:`calibrate_scores`): LDA-MMI backend
   fitted on dev scores, applied to test scores — used both per-frontend
   (N = 1) and across frontends and DBA variants (Table 4's
   "(DBA-M1)+(DBA-M2)" fusion).

Since 1.3 the flow is factored onto the :mod:`repro.exec` stage layer:
each step above is a declared stage of a
:class:`~repro.exec.graph.StageGraph` — ``phi`` (decode + supervector
extraction), ``svm_train``, ``score``, ``vote``, ``dba_train`` and
``fuse`` — keyed by the experiment config fingerprint and memoized
against an optional :class:`~repro.exec.store.ArtifactStore`.  With a
store attached, a killed campaign resumes from its persisted stage
products, a re-run with an unchanged config executes zero decode work,
and independent per-frontend stages fan out over a thread pool (a layer
above the utterance-level :func:`~repro.utils.parallel.pmap`).
:func:`build_system` adds one more stage before the system exists,
``world`` (the language family and the confusion battery), so a warm
build restores what it would otherwise draw.

Every stage opens a :mod:`repro.obs.trace` span named after its Table 5
stage (decoding / sv_generation / svm_training / sv_product), carrying
the processed speech as an ``audio_s`` counter;
:func:`repro.obs.runlog.aggregate_stages` rolls them up into real-time
factors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.backend.fusion import LdaMmiFusion, linear_fusion, subsystem_weights
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.dba import PseudoLabels, build_dba_training_set, select_pseudo_labels
from repro.core.voting import vote_count_matrix, vote_fit_counts
from repro.corpus.generator import Corpus
from repro.corpus.language import LanguageSpec
from repro.corpus.splits import CorpusBundle, make_corpus_bundle
from repro.exec.graph import (
    Stage,
    StageDependencyError,
    StageGraph,
    run_stage,
)
from repro.exec.store import ArtifactStore, stage_key
from repro.faults import AllFrontendsFailedError, RetryPolicy
from repro.frontend.confusion import ConfusionChannelRecognizer
from repro.frontend.lattice import Sausage
from repro.frontend.registry import build_frontends, decode_utterances
from repro.metrics.cavg import cavg
from repro.metrics.eer import eer_from_matrix
from repro.obs import trace
from repro.obs.metrics import default_registry
from repro.svm.vsm import VSM
from repro.utils.parallel import chunked, effective_workers, pmap
from repro.utils.sparse import SparseMatrix

__all__ = [
    "SubsystemScores",
    "SystemResult",
    "BaselineResult",
    "DBAResult",
    "PhonotacticSystem",
    "calibrate_scores",
    "evaluate_scores",
    "build_system",
]

#: SVM trainer revision in ``svm_train``/``dba_train`` keys, so fits stored
#: by the row-gather-only trainer (which Gram-form fits equal only to
#: rounding) read as misses.
SVM_SOLVER = 2

#: Revision of the ``world`` stage product (the language family and the
#: confusion battery) in its key.  Bump it whenever language generation
#: or battery construction changes numbers, so stores holding worlds of
#: the old code read as misses.
WORLD_REVISION = 1


def _pick(values: dict[str, Any], names: str | dict) -> Any:
    """The stage value named ``names``, or a dict of them keyed alike."""
    if isinstance(names, str):
        return values[names]
    return {k: values[name] for k, name in names.items()}


class _Deferred:
    """Stage products left in the store until first read.

    ``load`` returns ``{stage name: value}`` for a set of stages (one
    graph run, made once however many fields share it); ``names`` picks
    this field's value out of it, as for :func:`_pick`.
    """

    __slots__ = ("load", "names")

    def __init__(self, load: Callable[[], dict[str, Any]], names) -> None:
        self.load = load
        self.names = names

    def resolve(self) -> Any:
        return _pick(self.load(), self.names)


class _OnFirstRead:
    """A dataclass field that resolves a loader on first read.

    The resolved value replaces the loader, so later reads cost nothing;
    a value given directly reads as it is.  ``_OnFirstRead(value)``
    gives the field a default; ``_OnFirstRead()`` makes it required.
    """

    def __init__(self, *default) -> None:
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:
            # The class-level read is dataclasses asking for a default.
            if self.default:
                return self.default[0]
            raise AttributeError(self.slot)
        value = getattr(obj, self.slot)
        if isinstance(value, _Deferred):
            value = value.resolve()
            setattr(obj, self.slot, value)
        return value

    def __set__(self, obj, value) -> None:
        setattr(obj, self.slot, value)


@dataclass
class SubsystemScores:
    """Raw SVM score matrices of one subsystem (Eq. 9).

    ``test`` maps each nominal duration to an ``(m_d, K)`` matrix.
    ``vsm`` is the fitted classifier that produced the scores; it is
    kept so a trained system can be exported for online serving
    (:mod:`repro.serve`) without retraining.

    Each field holds its value when the run computed it, or loaded it
    for a stage it executed.  Otherwise the field holds a loader and
    resolves from the store on first read, each field on its own:
    ``dev`` in one score stage, ``test`` in one run of the subsystem's
    len(durations) test score stages, and ``vsm`` alone.  A warm re-run
    whose fused scores are all store hits thus reads no score matrix
    and loads no model, and a vote, which pools test scores only, reads
    no dev matrix.
    """

    name: str
    dev: np.ndarray = _OnFirstRead()
    test: dict[float, np.ndarray] = _OnFirstRead()
    vsm: VSM | None = _OnFirstRead(None)

    def __repr__(self) -> str:
        # Reads no other field: a deferred one would load from the store.
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class SystemResult:
    """Scores of a full multi-frontend system (baseline or DBA)."""

    subsystems: list[SubsystemScores]
    durations: tuple[float, ...]

    @property
    def model_id(self) -> str:
        """Stable identity used in stage keys (``fuse`` members)."""
        return "system"

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.subsystems]

    @property
    def dev_scores(self) -> list[np.ndarray]:
        return [s.dev for s in self.subsystems]

    def test_scores(self, duration: float) -> list[np.ndarray]:
        """Per-subsystem raw test scores at one duration."""
        return [s.test[duration] for s in self.subsystems]

    def pooled_test_scores(self) -> list[np.ndarray]:
        """Per-subsystem test scores stacked over all durations."""
        return [
            np.vstack([s.test[d] for d in self.durations])
            for s in self.subsystems
        ]


@dataclass
class BaselineResult(SystemResult):
    """PPRVSM baseline scores."""

    @property
    def model_id(self) -> str:
        return "baseline"


@dataclass
class DBAResult(SystemResult):
    """One DBA pass (threshold + variant), scored at every duration."""

    threshold: int = 0
    variant: str = "M1"
    pseudo: PseudoLabels | None = None
    vote_counts: np.ndarray | None = None
    fit_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def model_id(self) -> str:
        return f"dba-{self.variant}-V{self.threshold}"


def _fit_counts(results: list[SystemResult]) -> np.ndarray:
    """Per-subsystem DBA fit counts ``M_n`` of ``results``, in fusion order.

    Subsystems without counts (baseline results, a DBA pass before its
    vote) count 0, so ``subsystem_weights`` of the result is uniform
    when no subsystem has any.
    """
    counts: list[float] = []
    for result in results:
        if isinstance(result, DBAResult) and result.fit_counts.size:
            counts.extend(result.fit_counts.tolist())
        else:
            counts.extend([0.0] * len(result.subsystems))
    return np.asarray(counts, dtype=np.float64)


def _frontend_stage_params(frontend) -> dict[str, object]:
    """A frontend's numerics-changing decode params (may be absent)."""
    getter = getattr(frontend, "stage_params", None)
    return getter() if callable(getter) else {}


def evaluate_scores(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """(EER %, C_avg %) of calibrated scores."""
    with trace.span("evaluate"):
        return (
            100.0 * eer_from_matrix(scores, labels),
            100.0 * cavg(scores, labels),
        )


def calibrate_scores(
    dev_scores: list[np.ndarray],
    dev_labels: np.ndarray,
    test_scores: list[np.ndarray],
    *,
    system: SystemConfig | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """LDA-MMI-calibrate test scores using dev scores (§3 g).

    Works for a single subsystem (lists of length 1 — per-frontend rows
    of Tables 2–4) or any number of subsystems (fusion rows).
    """
    system = system or SystemConfig()
    fusion = LdaMmiFusion(
        use_lda=system.use_lda,
        mmi_iterations=system.mmi_iterations,
    )
    with trace.span("fusion", subsystems=len(dev_scores)):
        return fusion.fit_transform(
            dev_scores, dev_labels, test_scores, weights=weights
        )


def _encode_vote(value) -> dict:
    vote_counts, fit_counts, pseudo = value
    return {
        "vote_counts": vote_counts,
        "fit_counts": fit_counts,
        "indices": pseudo.indices,
        "labels": pseudo.labels,
        "votes": pseudo.votes,
    }


def _decode_vote(stored: dict):
    pseudo = PseudoLabels(
        indices=stored["indices"],
        labels=stored["labels"],
        votes=stored["votes"],
    )
    return stored["vote_counts"], stored["fit_counts"], pseudo


class PhonotacticSystem:
    """The full PPRVSM + DBA pipeline over one corpus bundle.

    Parameters
    ----------
    bundle / frontends / system:
        The corpus bundle, recognizer battery and classifier stack
        configuration.
    store:
        Optional :class:`~repro.exec.store.ArtifactStore`.  When given,
        every stage product — φ(x) matrices, fitted VSM states, score
        matrices, vote selections, fused scores — persists under
        content-addressed keys and later runs resume from it.
    fingerprint:
        The config fingerprint namespacing the stage keys; normally
        supplied by :func:`build_system` as
        :func:`repro.serve.artifacts.config_fingerprint` of the full
        experiment config.  When omitted, a fingerprint is derived from
        the corpus config, the system config and the frontend battery.
    retry:
        Optional :class:`repro.faults.RetryPolicy` applied to every
        stage execution and store round-trip (see
        :func:`repro.exec.graph.run_stage`).  ``None`` (default) keeps
        the fail-fast behaviour.
    on_error:
        What happens when a failure survives the retries, mirroring the
        serving layer's escalation ladder:

        - ``"fail"`` (default) — first stage error aborts the run;
        - ``"quarantine"`` — persistently failing *utterances* in the
          decode fan-out are skipped (their supervector contribution is
          an empty sausage) and recorded, up to
          ``max_quarantine_fraction`` of a corpus; stage-level failures
          still abort;
        - ``"degrade"`` — quarantine, plus a *frontend* whose stage
          chain fails post-retry is dropped from the battery (recorded
          in :attr:`degraded` and on the trace root, so the runlog
          manifest lists it) and fusion renormalizes Eq. 20 weights
          over the survivors — the offline analogue of serve's circuit
          breakers.  Dropping the last frontend raises
          :class:`repro.faults.AllFrontendsFailedError`.
    max_quarantine_fraction:
        Per-corpus ceiling on the quarantined-utterance fraction before
        the decode hard-fails with
        :class:`~repro.utils.parallel.QuarantineExceededError`.
    """

    def __init__(
        self,
        bundle: CorpusBundle,
        frontends: list,
        system: SystemConfig | None = None,
        *,
        store: ArtifactStore | None = None,
        fingerprint: str | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "fail",
        max_quarantine_fraction: float = 0.1,
        claims=None,
    ) -> None:
        if not frontends:
            raise ValueError("need at least one frontend")
        if on_error not in ("fail", "quarantine", "degrade"):
            raise ValueError(
                "on_error must be 'fail', 'quarantine' or 'degrade', "
                f"got {on_error!r}"
            )
        self.bundle = bundle
        self.frontends = list(frontends)
        self.system = system or SystemConfig()
        names = [fe.name for fe in self.frontends]
        if len(set(names)) != len(names):
            raise ValueError("frontend names must be unique")
        self.n_classes = len(bundle.registry)
        self.durations: tuple[float, ...] = tuple(bundle.config.durations)
        self._labels: dict[str, np.ndarray] = {}
        self._matrices: dict[tuple[str, str], SparseMatrix] = {}
        #: fitted LDA-MMI backends: key -> (dev arrays, weights, fit)
        self._fusions: dict[tuple, tuple] = {}
        #: optional repro.exec.store.ArtifactStore persisting all stage
        #: products (resumable campaigns)
        self.store = store
        self.fingerprint = fingerprint or self._derived_fingerprint()
        self.retry = retry
        self.on_error = on_error
        #: optional repro.dist.LeaseBoard partitioning store-keyed
        #: stages across worker processes (see repro.exec.graph)
        self.claims = claims
        self.max_quarantine_fraction = float(max_quarantine_fraction)
        #: frontends dropped by ``on_error="degrade"``: name -> reason
        self.degraded: dict[str, str] = {}
        #: quarantined utterance ids: (frontend, corpus tag) -> utt ids
        self.quarantined: dict[tuple[str, str], list[str]] = {}
        self._cache_lock = threading.Lock()
        self._matrix_locks: dict[tuple[str, str], threading.Lock] = {}

    def _derived_fingerprint(self) -> str:
        """Fallback stage-key namespace for directly constructed systems.

        :func:`build_system` passes the canonical experiment-config
        fingerprint instead; this derivation covers systems assembled
        from a bare bundle + frontend battery, hashing everything that
        determines stage products: corpus config, system config and the
        frontend identities.
        """
        payload = json.dumps(
            {
                "corpus": dataclasses.asdict(self.bundle.config),
                "system": dataclasses.asdict(self.system),
                "frontends": [
                    (fe.name, len(fe.phone_set)) for fe in self.frontends
                ],
            },
            sort_keys=True,
            default=list,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _stage_key(
        self,
        stage: str,
        *,
        frontend: str | None = None,
        corpus: str | None = None,
        **params,
    ) -> str | None:
        """Store key of one stage execution (``None`` without a store)."""
        if self.store is None:
            return None
        return stage_key(
            stage,
            fingerprint=self.fingerprint,
            frontend=frontend,
            corpus=corpus,
            params=params,
        )

    # ------------------------------------------------------------------
    # labels and corpora
    # ------------------------------------------------------------------
    def corpus_for(self, tag: str) -> Corpus:
        """Resolve a corpus tag: ``train``, ``dev`` or ``test@<duration>``."""
        if tag == "train":
            return self.bundle.train
        if tag == "dev":
            return self.bundle.dev
        if tag.startswith("test@"):
            duration = float(tag.split("@", 1)[1])
            try:
                return self.bundle.test[duration]
            except KeyError:
                raise KeyError(
                    f"no test corpus at duration {duration}; have "
                    f"{sorted(self.bundle.test)}"
                ) from None
        raise KeyError(f"unknown corpus tag {tag!r}")

    def labels_for(self, tag: str) -> np.ndarray:
        """Integer language labels of a corpus tag (cached)."""
        with self._cache_lock:
            labels = self._labels.get(tag)
        if labels is None:
            labels = self.corpus_for(tag).label_indices(
                self.bundle.language_names
            )
            with self._cache_lock:
                self._labels[tag] = labels
        return labels

    def pooled_test_labels(self) -> np.ndarray:
        """True labels of the all-durations test pool, in duration order."""
        return np.concatenate(
            [self.labels_for(f"test@{d}") for d in self.durations]
        )

    # ------------------------------------------------------------------
    # decode + supervector extraction (cached)
    # ------------------------------------------------------------------
    def raw_matrix(self, frontend, tag: str) -> SparseMatrix:
        """Decode + extract the raw supervector matrix (the ``phi`` stage).

        Results are cached in memory per (frontend, tag); with a
        ``store`` configured, matrices also persist to disk and are
        reloaded on subsequent runs.  Thread-safe: per-key locks let the
        stage graph decode different (frontend, corpus) pairs
        concurrently without duplicating work.
        """
        mkey = (frontend.name, tag)
        with self._cache_lock:
            matrix = self._matrices.get(mkey)
            if matrix is not None:
                return matrix
            lock = self._matrix_locks.setdefault(mkey, threading.Lock())
        with lock:
            with self._cache_lock:
                matrix = self._matrices.get(mkey)
            if matrix is None:
                key = self._phi_key(frontend, tag)
                # The compute adds the corpus's audio seconds before the
                # put, so later runs time φ consumers without sampling.
                meta = {"frontend": frontend.name, "corpus": tag}
                matrix = run_stage(
                    partial(self._compute_raw_matrix, frontend, tag, meta),
                    family="phi",
                    store=self.store,
                    key=key,
                    kind="sparse",
                    meta=meta,
                    retry=self.retry,
                    claims=self.claims,
                )
                # A matrix with quarantined utterances is *partial*: it
                # may be used for this degraded run but must not be
                # served to later runs under the clean content key.
                if (
                    mkey in self.quarantined
                    and self.store is not None
                    and key is not None
                ):
                    self.store.delete(key)
                with self._cache_lock:
                    self._matrices[mkey] = matrix
        return matrix

    def _phi_key(self, frontend, tag: str) -> str | None:
        """Store key of the φ stage of one (frontend, corpus) pair."""
        return self._stage_key(
            "phi",
            frontend=frontend.name,
            corpus=tag,
            # Decode knobs and revisions that change numerics (float32
            # DP, beam pruning, the acoustic posterior kernel) key
            # separate artifacts; batching is bitwise-neutral and adds
            # nothing here.
            **_frontend_stage_params(frontend),
        )

    def _audio_seconds(self, frontend, tag: str) -> float:
        """Audio seconds of a corpus tag, for the Table 5 RTF spans.

        The φ stage records them in its store entry's ``meta``, so a
        stage downstream of a φ hit (a threshold change rescoring the
        test sets) reads them there instead of sampling the corpus.
        Only an entry written without them falls back to the corpus.
        """
        key = self._phi_key(frontend, tag)
        if key is not None:
            try:
                audio = self.store.entry(key)["meta"].get("audio_s")
            except KeyError:
                audio = None
            if audio is not None:
                return float(audio)
        return self.corpus_for(tag).total_audio_seconds()

    def _compute_raw_matrix(
        self, frontend, tag: str, meta: dict | None = None
    ) -> SparseMatrix:
        """The uncached φ(x) work: decode every utterance and extract.

        ``meta`` (the stage's store metadata) gains ``audio_s``.
        """
        corpus = self.corpus_for(tag)
        seed = self.system.seed
        audio = corpus.total_audio_seconds()
        if meta is not None:
            meta["audio_s"] = audio
        # Batched decoding amortises the per-frame DP over each chunk,
        # and a sausage does not depend on its chunk.
        workers = effective_workers(self.system.workers)
        utts = corpus.utterances
        n_chunks = 1 if workers == 1 else min(len(utts), workers * 4)
        quarantined: list[int] = []
        pmap_opts: dict = {}
        if self.on_error in ("quarantine", "degrade"):
            # A persistently failing utterance is skipped: its slot
            # becomes an empty sausage (a zero supervector
            # contribution), the same shape-preserving move the paper's
            # fleet would make by dropping one recognizer output.  One
            # utterance per chunk isolates each failure, so chunk
            # indices are utterance indices.
            n_chunks = len(utts)
            pmap_opts = dict(
                on_error="quarantine",
                max_quarantine_fraction=self.max_quarantine_fraction,
                quarantine_value=[Sausage([], frontend.phone_set)],
                quarantined=quarantined,
            )
        with trace.span("phi", frontend=frontend.name, corpus=tag) as sp:
            sp.inc("utterances", len(corpus))
            with trace.span("decoding").inc("audio_s", audio):
                batches = pmap(
                    partial(decode_utterances, frontend, seed),
                    chunked(utts, max(1, n_chunks)),
                    workers=workers,
                    **pmap_opts,
                )
                sausages = [s for chunk in batches for s in chunk]
            if quarantined:
                utt_ids = [
                    corpus.utterances[i].utt_id for i in quarantined
                ]
                self.quarantined[(frontend.name, tag)] = utt_ids
                sp.inc("quarantined", len(quarantined))
                trace.annotate_root(
                    quarantined_utterances=sum(
                        len(v) for v in self.quarantined.values()
                    )
                )
            extractor = VSM(
                len(frontend.phone_set),
                self.n_classes,
                orders=self.system.orders,
            )
            with trace.span("sv_generation").inc("audio_s", audio):
                matrix = extractor.extract(sausages)
        return matrix

    def pooled_test_matrix(self, frontend) -> SparseMatrix:
        """All-durations test supervectors of one frontend, stacked."""
        matrices = [
            self.raw_matrix(frontend, f"test@{d}") for d in self.durations
        ]
        pooled = matrices[0]
        for extra in matrices[1:]:
            pooled = pooled.vstack(extra)
        return pooled

    def _make_vsm(self, frontend, seed_offset: int) -> VSM:
        return VSM(
            len(frontend.phone_set),
            self.n_classes,
            orders=self.system.orders,
            C=self.system.svm_C,
            loss=self.system.svm_loss,
            max_epochs=self.system.svm_max_epochs,
            tfllr=self.system.tfllr,
            min_prob=self.system.min_prob,
            seed=self.system.seed + seed_offset,
        )

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    def _tainted_frontends(self) -> set[str]:
        """Frontends whose products are partial: quarantined or dropped."""
        return {fe for (fe, _tag) in self.quarantined} | set(self.degraded)

    def _apply_degradation(self, failures: dict[str, BaseException]) -> None:
        """Drop frontends whose stage chains failed; record and annotate.

        Stage names carry the frontend in their second ``/`` segment
        (``phi/<FE>/<tag>``, ``svm_train/<FE>``, ``score/<FE>/…``); a
        failure not attributable to one frontend is re-raised —
        degradation can only absorb per-frontend damage.  Dropping the
        last frontend raises
        :class:`~repro.faults.AllFrontendsFailedError` (the offline
        analogue of serve's ``AllFrontendsDownError``): tables fused
        over nothing would be worse than a crash.
        """
        names = {fe.name for fe in self.frontends}
        dead: dict[str, str] = {}
        for stage_name, exc in failures.items():
            parts = stage_name.split("/")
            fe = parts[1] if len(parts) > 1 else None
            if fe not in names:
                raise exc
            if isinstance(exc, StageDependencyError):
                # Collateral skip: keep the root cause if one is known.
                dead.setdefault(fe, str(exc))
            else:
                dead[fe] = f"{type(exc).__name__}: {exc}"
        survivors = [fe for fe in self.frontends if fe.name not in dead]
        if not survivors:
            raise AllFrontendsFailedError(
                "every frontend was dropped by degradation: "
                + "; ".join(f"{k}: {v}" for k, v in sorted(dead.items()))
            )
        self.frontends = survivors
        self.degraded.update(dead)
        default_registry().counter("exec.degraded.frontends").inc(len(dead))
        trace.annotate_root(degraded_frontends=sorted(self.degraded))

    def _purge_tainted(self, graph: StageGraph) -> None:
        """Un-persist store products of tainted frontends' stages.

        Products downstream of a partially quarantined φ matrix carry
        content keys that promise the clean value; like serve never
        caching partial score stacks, they must not outlive this run.
        (The φ entries themselves are purged by :meth:`raw_matrix`.)
        """
        if self.store is None:
            return
        tainted = self._tainted_frontends()
        if not tainted:
            return
        for name in graph.names():
            parts = name.split("/")
            if len(parts) > 1 and parts[1] in tainted:
                key = graph.stage_named(name).key
                if key is not None:
                    self.store.delete(key)

    # ------------------------------------------------------------------
    # stage-graph construction helpers
    # ------------------------------------------------------------------
    def _phi_stage(self, graph: StageGraph, frontend, tag: str) -> str:
        """Declare (once) the φ stage of one (frontend, corpus) pair.

        The stage delegates to :meth:`raw_matrix`, which owns the store
        round-trip and the ``phi`` accounting; the graph node only
        contributes ordering and parallel fan-out (``instrument=False``
        keeps one logical stage from being counted twice).
        """
        name = f"phi/{frontend.name}/{tag}"
        if name not in graph:
            graph.stage(
                name,
                lambda deps, fe=frontend, t=tag: self.raw_matrix(fe, t),
                instrument=False,
            )
        return name

    def _score_stages(
        self,
        graph: StageGraph,
        frontend,
        fit_stage: str,
        model_id: str,
    ) -> dict[str, str]:
        """Declare dev + per-duration score stages for one fitted VSM.

        Returns ``{corpus_tag: stage_name}`` for result assembly.
        """
        names: dict[str, str] = {}
        for tag in ["dev", *[f"test@{d}" for d in self.durations]]:
            phi_stage = self._phi_stage(graph, frontend, tag)

            def score(
                deps, tag=tag, fit_stage=fit_stage, phi_stage=phi_stage
            ) -> np.ndarray:
                vsm = deps[fit_stage]
                raw = deps[phi_stage]
                if tag == "dev":
                    return vsm.score_matrix(raw)
                audio = self._audio_seconds(frontend, tag)
                with trace.span("sv_product").inc("audio_s", audio):
                    return vsm.score_matrix(raw)

            name = f"score/{frontend.name}/{model_id}/{tag}"
            graph.stage(
                name,
                score,
                deps=(fit_stage, phi_stage),
                key=self._stage_key(
                    "score",
                    frontend=frontend.name,
                    corpus=tag,
                    model=model_id,
                ),
                kind="array",
                family="score",
                meta={
                    "frontend": frontend.name,
                    "corpus": tag,
                    "model": model_id,
                },
            )
            names[tag] = name
        return names

    def _result_targets(
        self, graph: StageGraph, score_names: dict[str, dict[str, str]]
    ) -> list[str]:
        """The score stages this run must produce.

        A frontend whose score stages are all store hits is left out:
        its :class:`SubsystemScores` reads them on first use instead.
        So is every fit: it runs (or loads) only when a live score stage
        needs it, and otherwise stays in the store until its
        :attr:`SubsystemScores.vsm` is read.  A tainted frontend's
        products are purged after the run, so it reads them now.
        """
        tainted = self._tainted_frontends()
        targets: list[str] = []
        for frontend, names in score_names.items():
            stages = list(names.values())
            if (
                self.store is None
                or frontend in tainted
                or not all(
                    self.store.has(graph.stage_named(n).key) for n in stages
                )
            ):
                targets.extend(stages)
        return targets

    def _reader(
        self, graph: StageGraph, results: dict, stages: list[str]
    ) -> Callable:
        """A ``names -> value`` reader of ``stages``' products.

        They come from ``results`` when this run produced them all.
        Otherwise the reader hands out loaders that share one graph run
        of ``stages`` through the store, made on the first read.
        """
        if all(name in results for name in stages):
            return partial(_pick, results)
        values: dict[str, Any] = {}

        def load() -> dict[str, Any]:
            if not values:
                values.update(
                    graph.run(
                        stages,
                        store=self.store,
                        retry=self.retry,
                        claims=self.claims,
                    )
                )
            return values

        return partial(_Deferred, load)

    def _assemble_subsystems(
        self,
        graph: StageGraph,
        results: dict,
        fit_stages: dict[str, str],
        score_names: dict[str, dict[str, str]],
    ) -> list[SubsystemScores]:
        """Collect graph outputs into per-frontend score bundles.

        Products in ``results`` are handed over; any other is left to
        load on first read.
        """
        subsystems: list[SubsystemScores] = []
        for frontend in self.frontends:
            names = score_names[frontend.name]
            fit = fit_stages[frontend.name]
            tests = {d: names[f"test@{d}"] for d in self.durations}
            subsystems.append(
                SubsystemScores(
                    frontend.name,
                    dev=self._reader(graph, results, [names["dev"]])(
                        names["dev"]
                    ),
                    test=self._reader(graph, results, list(tests.values()))(
                        tests
                    ),
                    vsm=self._reader(graph, results, [fit])(fit),
                )
            )
        return subsystems

    # ------------------------------------------------------------------
    # baseline (PPRVSM)
    # ------------------------------------------------------------------
    def baseline(self) -> BaselineResult:
        """Train per-frontend VSMs on ``Tr`` and score dev + all tests.

        Declared as a stage graph — per-frontend chains
        ``phi/train → svm_train → score/{dev,test@d}`` are independent
        and fan out in parallel when ``system.workers`` allows; with a
        store attached, cached ``svm_train``/``score`` products prune
        the decode stages entirely, and a frontend whose ``score``
        products are all cached runs nothing: its scores load on first
        read.
        """
        y_train = self.labels_for("train")
        graph = StageGraph()
        fit_stages: dict[str, str] = {}
        score_names: dict[str, dict[str, str]] = {}
        for q, frontend in enumerate(self.frontends):
            phi_train = self._phi_stage(graph, frontend, "train")

            def fit(deps, frontend=frontend, q=q, phi_train=phi_train) -> VSM:
                vsm = self._make_vsm(frontend, q)
                with trace.span("svm_training"):
                    vsm.fit_matrix(deps[phi_train], y_train)
                return vsm

            fit_name = f"svm_train/{frontend.name}"
            graph.stage(
                fit_name,
                fit,
                deps=(phi_train,),
                key=self._stage_key(
                    "svm_train",
                    frontend=frontend.name,
                    model="baseline",
                    seed_offset=q,
                    svm_solver=SVM_SOLVER,
                ),
                kind="arrays",
                family="svm_train",
                encode=lambda vsm: vsm.state_dict(),
                decode=VSM.from_state,
                meta={"frontend": frontend.name, "model": "baseline"},
            )
            fit_stages[frontend.name] = fit_name
            score_names[frontend.name] = self._score_stages(
                graph, frontend, fit_name, "baseline"
            )
        # Target only the score stages the store cannot answer: φ stages
        # then run exactly when a live (non-cached) stage still needs them.
        targets = self._result_targets(graph, score_names)
        failures: dict[str, BaseException] | None = (
            {} if self.on_error == "degrade" else None
        )
        with trace.span("baseline", frontends=len(self.frontends)):
            results = graph.run(
                targets,
                store=self.store,
                workers=self.system.workers,
                retry=self.retry,
                failures=failures,
                claims=self.claims,
            )
        if failures:
            self._apply_degradation(failures)
        self._purge_tainted(graph)
        return BaselineResult(
            subsystems=self._assemble_subsystems(
                graph, results, fit_stages, score_names
            ),
            durations=self.durations,
        )

    # ------------------------------------------------------------------
    # DBA
    # ------------------------------------------------------------------
    def dba(
        self,
        threshold: int,
        variant: str = "M1",
        baseline: BaselineResult | None = None,
    ) -> DBAResult:
        """One boosting pass at vote threshold ``threshold`` (§3 a–f).

        Pseudo-labels are selected from the pooled (all-durations) test
        set; each subsystem retrains once and rescores every duration.
        The ``vote`` selection and every per-frontend
        ``dba_train``/``score`` stage memoize against the store, so a
        threshold change re-executes only the DBA-and-later stages.
        """
        baseline = baseline or self.baseline()
        y_train = self.labels_for("train")
        model_id = f"dba-{variant}-V{threshold}"
        with trace.span("dba", threshold=threshold, variant=variant) as sp:

            def compute_vote():
                pooled_scores = baseline.pooled_test_scores()
                vote_counts = vote_count_matrix(pooled_scores)
                fit_counts = vote_fit_counts(pooled_scores)
                pseudo = select_pseudo_labels(vote_counts, threshold)
                return vote_counts, fit_counts, pseudo

            # The vote pools every surviving frontend's scores, so its
            # key carries the battery membership — a degraded run's
            # selection can never answer for the full battery's; with
            # any taint present it does not persist at all.
            members = [fe.name for fe in self.frontends]
            vote_counts, fit_counts, pseudo = run_stage(
                compute_vote,
                family="vote",
                store=self.store,
                key=(
                    None
                    if self._tainted_frontends()
                    else self._stage_key(
                        "vote", threshold=int(threshold), frontends=members
                    )
                ),
                kind="arrays",
                encode=_encode_vote,
                decode=_decode_vote,
                meta={"threshold": int(threshold), "frontends": members},
                retry=self.retry,
                claims=self.claims,
            )
            sp.inc("pool", len(pseudo))
            sp.inc("candidates", int(vote_counts.shape[0]))

            graph = StageGraph()
            fit_stages: dict[str, str] = {}
            score_names: dict[str, dict[str, str]] = {}
            test_tags = [f"test@{d}" for d in self.durations]
            for q, frontend in enumerate(self.frontends):
                phi_train = self._phi_stage(graph, frontend, "train")
                phi_tests = tuple(
                    self._phi_stage(graph, frontend, tag)
                    for tag in test_tags
                )

                def fit(
                    deps,
                    frontend=frontend,
                    q=q,
                    phi_train=phi_train,
                    phi_tests=phi_tests,
                ) -> VSM:
                    pooled = deps[phi_tests[0]]
                    for name in phi_tests[1:]:
                        pooled = pooled.vstack(deps[name])
                    x_dba, y_dba = build_dba_training_set(
                        variant, deps[phi_train], y_train, pooled, pseudo
                    )
                    vsm = self._make_vsm(frontend, 100 + q)
                    with trace.span("svm_training"):
                        vsm.fit_matrix(x_dba, y_dba)
                    return vsm

                fit_name = f"dba_train/{frontend.name}"
                graph.stage(
                    fit_name,
                    fit,
                    deps=(phi_train, *phi_tests),
                    key=self._stage_key(
                        "dba_train",
                        frontend=frontend.name,
                        threshold=int(threshold),
                        variant=variant,
                        seed_offset=100 + q,
                        svm_solver=SVM_SOLVER,
                    ),
                    kind="arrays",
                    family="dba_train",
                    encode=lambda vsm: vsm.state_dict(),
                    decode=VSM.from_state,
                    meta={"frontend": frontend.name, "model": model_id},
                )
                fit_stages[frontend.name] = fit_name
                score_names[frontend.name] = self._score_stages(
                    graph, frontend, fit_name, model_id
                )
            targets = self._result_targets(graph, score_names)
            failures: dict[str, BaseException] | None = (
                {} if self.on_error == "degrade" else None
            )
            results = graph.run(
                targets,
                store=self.store,
                workers=self.system.workers,
                retry=self.retry,
                failures=failures,
                claims=self.claims,
            )
            if failures:
                self._apply_degradation(failures)
                # fit_counts is indexed by the vote-time battery order;
                # keep only the survivors' entries so Eq. 20 weights
                # renormalize over exactly the subsystems that remain.
                survivors = {fe.name for fe in self.frontends}
                live = [
                    q
                    for q, n in enumerate(baseline.names)
                    if n in survivors
                ]
                if fit_counts.size:
                    fit_counts = fit_counts[live]
            self._purge_tainted(graph)
        return DBAResult(
            subsystems=self._assemble_subsystems(
                graph, results, fit_stages, score_names
            ),
            durations=self.durations,
            threshold=threshold,
            variant=variant,
            pseudo=pseudo,
            vote_counts=vote_counts,
            fit_counts=fit_counts,
        )

    # ------------------------------------------------------------------
    # evaluation conveniences
    # ------------------------------------------------------------------
    def frontend_metrics(
        self, result: SystemResult, duration: float
    ) -> dict[str, tuple[float, float]]:
        """Per-frontend calibrated (EER %, C_avg %) — Tables 2–4 cells."""
        test_labels = self.labels_for(f"test@{duration}")
        out: dict[str, tuple[float, float]] = {}
        tainted = self._tainted_frontends()
        for sub in result.subsystems:
            calibrated = run_stage(
                lambda sub=sub: self._fitted_fusion(
                    (result.model_id, sub.name), [sub.dev]
                ).transform([sub.test[duration]]),
                family="fuse",
                store=self.store,
                key=(
                    None
                    if sub.name in tainted
                    else self._stage_key(
                        "fuse",
                        frontend=sub.name,
                        corpus=f"test@{duration}",
                        members=[result.model_id],
                    )
                ),
                kind="array",
                meta={"members": [result.model_id], "frontend": sub.name},
                retry=self.retry,
                claims=self.claims,
            )
            out[sub.name] = evaluate_scores(calibrated, test_labels)
        return out

    def fused_metrics(
        self, results: list[SystemResult], duration: float
    ) -> tuple[float, float]:
        """Calibrated fusion of all subsystems of all ``results``.

        For the paper's (DBA-M1)+(DBA-M2) row, pass both variants' results;
        weights follow w_n = M_n/ΣM_m when fit counts are available.
        """
        fused = self.fused_scores(results, duration)
        return evaluate_scores(fused, self.labels_for(f"test@{duration}"))

    def fit_fusion(self, results: list[SystemResult]) -> LdaMmiFusion:
        """Fit the LDA-MMI backend on the dev scores of ``results``.

        The returned fitted backend is a *trained component*: applying
        its :meth:`~repro.backend.fusion.LdaMmiFusion.transform` to test
        scores reproduces :meth:`fused_scores` exactly, and it can be
        exported with the frontends and VSMs for online serving
        (:mod:`repro.serve.artifacts`).
        """
        dev_list = [dev for r in results for dev in r.dev_scores]
        return self._fitted_fusion(
            ("fused", *(r.model_id for r in results)),
            dev_list,
            subsystem_weights(_fit_counts(results)),
        )

    def _fitted_fusion(
        self,
        key: tuple,
        dev_list: list[np.ndarray],
        weights: np.ndarray | None = None,
    ) -> LdaMmiFusion:
        """The LDA-MMI backend fitted on ``dev_list``, once per ``key``.

        The fit reads dev scores only, so every test duration of one
        subsystem (or fused member set) transforms through one fit.  A
        kept fit answers only for the very same dev arrays and weights;
        anything else refits and replaces it.
        """
        with self._cache_lock:
            kept = self._fusions.get(key)
        if kept is not None:
            kept_devs, kept_weights, fusion = kept
            same_weights = (
                np.array_equal(kept_weights, weights)
                if kept_weights is not None and weights is not None
                else kept_weights is weights
            )
            if (
                same_weights
                and len(kept_devs) == len(dev_list)
                and all(a is b for a, b in zip(kept_devs, dev_list))
            ):
                return fusion
        fusion = LdaMmiFusion(
            use_lda=self.system.use_lda,
            mmi_iterations=self.system.mmi_iterations,
        )
        with trace.span("fusion", subsystems=len(dev_list)):
            fusion.fit(dev_list, self.labels_for("dev"), weights=weights)
        with self._cache_lock:
            self._fusions[key] = (list(dev_list), weights, fusion)
        return fusion

    def fused_scores(
        self, results: list[SystemResult], duration: float
    ) -> np.ndarray:
        """Calibrated fused test scores (for DET curves, Fig. 3).

        Memoized as a ``fuse`` stage keyed by the member results'
        :attr:`~SystemResult.model_id` identities and the frontend
        battery membership.  On a degraded system (frontends dropped by
        ``on_error="degrade"``) the LDA-MMI backend is replaced by the
        fallback the serving engine uses with breakers open:
        :func:`~repro.backend.fusion.linear_fusion` (Eq. 20) under the
        surviving subsystems' DBA fit counts, renormalized over them —
        and the result never persists to the store.
        """

        def test_list() -> list[np.ndarray]:
            return [s for r in results for s in r.test_scores(duration)]

        if self.degraded:
            with trace.span(
                "fuse",
                degraded=True,
                members=[r.model_id for r in results],
            ):
                return linear_fusion(test_list(), _fit_counts(results))

        def compute() -> np.ndarray:
            return self.fit_fusion(results).transform(test_list())

        return run_stage(
            compute,
            family="fuse",
            store=self.store,
            key=(
                None
                if self._tainted_frontends()
                else self._stage_key(
                    "fuse",
                    corpus=f"test@{duration}",
                    members=[r.model_id for r in results],
                    frontends=[fe.name for fe in self.frontends],
                )
            ),
            kind="array",
            meta={"members": [r.model_id for r in results]},
            retry=self.retry,
            claims=self.claims,
        )


def _world_state(
    world: tuple[CorpusBundle, list[ConfusionChannelRecognizer]],
) -> dict[str, Any]:
    """The ``world`` stage product as one flat dict of named arrays:
    ``language.<i>.<member>`` per language, ``recognizer.<i>.<member>``
    per confusion recognizer."""
    bundle, recognizers = world
    state = {}
    for prefix, parts in (
        ("language", bundle.registry), ("recognizer", recognizers)
    ):
        for i, part in enumerate(parts):
            for name, value in part.state_dict().items():
                state[f"{prefix}.{i}.{name}"] = value
    return state


def _state_parts(state: dict[str, Any]) -> dict[str, list[dict]]:
    """The per-part states of :func:`_world_state`, by prefix."""
    parts: dict[str, dict[int, dict[str, Any]]] = {
        "language": {}, "recognizer": {}
    }
    for key, value in state.items():
        head, index, name = key.split(".", 2)
        parts[head].setdefault(int(index), {})[name] = value
    return {
        head: [by_index[i] for i in sorted(by_index)]
        for head, by_index in parts.items()
    }


def _world(
    config: ExperimentConfig,
    *,
    store: ArtifactStore | None,
    fingerprint: str,
    retry: RetryPolicy | None,
) -> tuple[CorpusBundle, list[ConfusionChannelRecognizer]]:
    """The corpus bundle and the confusion battery, as the ``world`` stage.

    The stage persists what a build draws that the corpus plans and the
    stage keys do not already fix: every
    :class:`~repro.corpus.language.LanguageSpec` of the language family
    and, in confusion mode, every recognizer's inventory and distance
    scale.  A hit restores them, so a warm build draws no language and
    builds no inventory; the acoustic space, the session samplers and
    the corpus plans are built as always.  In acoustic mode the battery
    is empty: its recognizers train after the stage.  Without a store
    the stage computes, uncached; it is never claimed, since every
    worker computes the same bytes.
    """
    confusion = config.frontend_mode == "confusion"

    def compute():
        bundle = make_corpus_bundle(config.corpus)
        recognizers = (
            build_frontends(bundle, top_k=config.system.top_k)
            if confusion
            else []
        )
        return bundle, recognizers

    def decode(state):
        parts = _state_parts(state)
        bundle = make_corpus_bundle(
            config.corpus,
            languages=[
                LanguageSpec.from_state(part) for part in parts["language"]
            ],
        )
        recognizers = [
            ConfusionChannelRecognizer.from_state(part, bundle.acoustics)
            for part in parts["recognizer"]
        ]
        return bundle, recognizers

    return run_stage(
        compute,
        family="world",
        store=store,
        key=(
            None
            if store is None
            else stage_key(
                "world",
                fingerprint=fingerprint,
                params={"world_revision": WORLD_REVISION},
            )
        ),
        kind="arrays",
        encode=_world_state,
        decode=decode,
        meta={"stage": "world"},
        retry=retry,
    )


def build_system(
    config: ExperimentConfig | None = None,
    *,
    store: ArtifactStore | str | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "fail",
    max_quarantine_fraction: float = 0.1,
    claims=None,
) -> PhonotacticSystem:
    """Construct bundle + frontends + system from an experiment config.

    ``store`` (an :class:`~repro.exec.store.ArtifactStore` or a
    directory path to open one at) attaches persistent stage memoization
    keyed by the config's fingerprint; the language family and the
    confusion battery are its ``world`` stage (:func:`_world`), so a
    warm build restores them instead of drawing them.  ``retry`` /
    ``on_error`` / ``max_quarantine_fraction`` configure the
    fault-tolerance ladder
    (see :class:`PhonotacticSystem`); ``claims`` attaches a
    :class:`repro.dist.LeaseBoard` so store-keyed stages are claimed
    across worker processes instead of recomputed per process.
    """
    from repro.serve.artifacts import config_fingerprint

    config = config or ExperimentConfig()
    fingerprint = config_fingerprint(config)
    if store is not None and not isinstance(store, ArtifactStore):
        store = ArtifactStore(store)
    bundle, frontends = _world(
        config, store=store, fingerprint=fingerprint, retry=retry
    )
    if config.frontend_mode != "confusion":
        frontends = build_frontends(
            bundle, mode=config.frontend_mode, top_k=config.system.top_k
        )
    return PhonotacticSystem(
        bundle,
        frontends,
        config.system,
        store=store,
        fingerprint=fingerprint,
        retry=retry,
        on_error=on_error,
        max_quarantine_fraction=max_quarantine_fraction,
        claims=claims,
    )
