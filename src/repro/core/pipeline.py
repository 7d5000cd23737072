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

Each step above is a node of the system's one
:class:`~repro.exec.graph.StageGraph` — ``phi`` (decode + supervector
extraction), ``svm_train``, ``score``, ``vote``, ``dba_train`` and
``fuse`` — declared the first time something needs it, keyed by the
experiment config fingerprint and memoized against an optional
:class:`~repro.exec.store.ArtifactStore`.  The graph keeps every value
it resolves, so the baseline and every DBA pass share one φ(x) per
(frontend, corpus), and DBA-M1 and DBA-M2 at one threshold share one
vote.  With a store attached, a killed campaign resumes from its
persisted stage products, a re-run with an unchanged config executes
zero decode work, and independent per-frontend stages fan out over a
thread pool (a layer above the utterance-level
:func:`~repro.utils.parallel.pmap`).  :func:`build_system` runs one more
stage before the system exists, ``world`` (the language family and the
confusion battery), so a warm build restores what it would otherwise
draw.

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
from functools import cached_property, partial
from typing import Any

import numpy as np

from repro.backend.fusion import LdaMmiFusion, linear_fusion, subsystem_weights
from repro.core.config import ExperimentConfig, SystemConfig
from repro.core.dba import PseudoLabels, build_dba_training_set, select_pseudo_labels
from repro.core.voting import vote_count_matrix, vote_fit_counts
from repro.corpus.generator import Corpus
from repro.corpus.language import LanguageSpec
from repro.corpus.splits import CorpusBundle, make_corpus_bundle
from repro.exec.graph import StageDependencyError, StageGraph, run_stage
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

#: Revision of the ``fuse`` stage product in its key.  Revision 2 stores
#: the calibrated scores with their (EER %, C_avg %) cell as one
#: ``arrays`` payload; a store holding revision 1's bare score matrices
#: misses each fuse once instead of decoding a payload of the wrong shape.
FUSE_REVISION = 2


@dataclass(eq=False)
class SubsystemScores:
    """Raw SVM score matrices of one subsystem (Eq. 9), as graph reads.

    ``test`` maps each nominal duration to an ``(m_d, K)`` matrix.
    ``vsm`` is the fitted classifier that produced the scores; it is
    kept so a trained system can be exported for online serving
    (:mod:`repro.serve`) without retraining.

    The view holds node names only.  Each of ``dev``, ``test`` and
    ``vsm`` reads its nodes from the system's graph on first access and
    returns that same object afterwards: a product the run resolved is
    handed over, any other loads from the store then.  A warm re-run
    whose fused scores are all store hits thus reads no score matrix
    and loads no model.
    """

    name: str
    graph: StageGraph = field(repr=False)
    #: node names: the fit, the dev scores, the test scores by duration
    nodes: tuple[str, str, dict[float, str]] = field(repr=False)

    @cached_property
    def dev(self) -> np.ndarray:
        return self.graph.value(self.nodes[1])

    @cached_property
    def test(self) -> dict[float, np.ndarray]:
        return {d: self.graph.value(n) for d, n in self.nodes[2].items()}

    @cached_property
    def vsm(self) -> VSM | None:
        return self.graph.value(self.nodes[0])


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

    Every stage is a node of one graph; a node's compute reads only its
    declared dependencies.  Per-frontend node names carry the frontend
    second (``score/<FE>/<model>/<tag>``), which is how degradation
    attributes a failure; ``vote`` and ``fuse`` names carry none there.
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
        self._test_tags = [f"test@{d}" for d in self.durations]
        self._labels: dict[str, np.ndarray] = {}
        #: fitted LDA-MMI backends, keyed by member model ids (and weights)
        self._fusions: dict[Any, LdaMmiFusion] = {}
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
        #: every stage of this system, declared on first need
        self._graph = StageGraph(
            store,
            workers=self.system.workers,
            retry=retry,
            claims=claims,
        )

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
    # decode + supervector extraction (the phi nodes)
    # ------------------------------------------------------------------
    def raw_matrix(self, frontend, tag: str) -> SparseMatrix:
        """Decode + extract the raw supervector matrix (the ``phi`` node).

        The graph keeps the matrix, so every later read of one
        (frontend, tag) pair returns the same object; with a ``store``
        configured, matrices also persist to disk and are reloaded on
        subsequent runs.
        """
        matrix = self._graph.value(self._phi(frontend, tag))
        self._purge_tainted()
        return matrix

    def _phi(self, frontend, tag: str) -> str:
        """Declare (once) the φ node of one (frontend, corpus) pair; its
        key is hashed on first read, so a stored consumer costs none."""
        name = f"phi/{frontend.name}/{tag}"
        if name not in self._graph:
            # The compute adds the corpus's audio seconds before the
            # put, so later runs time φ consumers without sampling.
            meta = {"frontend": frontend.name, "corpus": tag}
            self._graph.stage(
                name,
                lambda deps: self._compute_raw_matrix(frontend, tag, meta),
                key=partial(self._phi_key, frontend, tag),
                kind="sparse",
                meta=meta,
            )
        return name

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
        key = self._graph.stage_named(self._phi(frontend, tag)).store_key
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

    def _purge_tainted(self) -> None:
        """Un-persist store products of tainted frontends' nodes.

        Products downstream of a partially quarantined φ matrix carry
        content keys that promise the clean value; like serve never
        caching partial score stacks, they must not outlive this run.
        A φ node is partial only where its own corpus was quarantined.
        """
        if self.store is None:
            return
        tainted = self._tainted_frontends()
        if not tainted:
            return
        for name in self._graph.names():
            family, frontend, *rest = name.split("/")
            if frontend not in tainted or (
                family == "phi" and (frontend, rest[0]) not in self.quarantined
            ):
                continue
            key = self._graph.stage_named(name).store_key
            if key is not None:
                self.store.delete(key)

    # ------------------------------------------------------------------
    # node declarations
    # ------------------------------------------------------------------
    def _fit(
        self, name, frontend, seed_offset, deps, training_set, model_id, **key
    ) -> str:
        """Declare (once) the fit ``name``: an SVM on ``training_set(deps)``,
        stored under ``key`` besides the seed offset and solver.  The key
        is hashed on first read, so a run whose scores are all stored
        never computes it."""
        if name not in self._graph:

            def fit(values) -> VSM:
                x, y = training_set(values)
                vsm = self._make_vsm(frontend, seed_offset)
                with trace.span("svm_training"):
                    vsm.fit_matrix(x, y)
                return vsm

            self._graph.stage(
                name,
                fit,
                deps=deps,
                key=partial(
                    self._stage_key,
                    name.split("/", 1)[0],
                    frontend=frontend.name,
                    seed_offset=seed_offset,
                    svm_solver=SVM_SOLVER,
                    **key,
                ),
                encode=VSM.state_dict,
                decode=VSM.from_state,
                meta={"frontend": frontend.name, "model": model_id},
            )
        return name

    def _svm_fit(self, frontend, q: int) -> str:
        """Declare (once) the baseline fit of one frontend."""
        phi = self._phi(frontend, "train")
        return self._fit(
            f"svm_train/{frontend.name}",
            frontend,
            q,
            (phi,),
            lambda deps: (deps[phi], self.labels_for("train")),
            "baseline",
            model="baseline",
        )

    def _score(self, frontend, fit: str, model_id: str, tag: str) -> str:
        """Declare (once) the scores of fit ``fit`` on one corpus."""
        name = f"score/{frontend.name}/{model_id}/{tag}"
        if name not in self._graph:
            phi = self._phi(frontend, tag)

            def score(deps) -> np.ndarray:
                vsm, raw = deps[fit], deps[phi]
                if tag == "dev":
                    return vsm.score_matrix(raw)
                audio = self._audio_seconds(frontend, tag)
                with trace.span("sv_product").inc("audio_s", audio):
                    return vsm.score_matrix(raw)

            self._graph.stage(
                name,
                score,
                deps=(fit, phi),
                key=self._stage_key(
                    "score",
                    frontend=frontend.name,
                    corpus=tag,
                    model=model_id,
                    **self._battery(model_id),
                ),
                kind="array",
                meta={"frontend": frontend.name, "corpus": tag, "model": model_id},
            )
        return name

    def _vote(self, threshold: int) -> str:
        """Declare (once) the vote at ``threshold`` over the baseline test
        score nodes of the battery, whose membership is in its key — a
        degraded run's selection never answers for the full battery's,
        and with any taint present it does not persist at all."""
        threshold = int(threshold)
        name = f"vote/V{threshold}"
        if name not in self._graph:
            members = [fe.name for fe in self.frontends]
            tests = [
                [
                    self._score(fe, self._svm_fit(fe, q), "baseline", tag)
                    for tag in self._test_tags
                ]
                for q, fe in enumerate(self.frontends)
            ]

            def vote(deps):
                pooled = [np.vstack([deps[n] for n in sub]) for sub in tests]
                vote_counts = vote_count_matrix(pooled)
                pseudo = select_pseudo_labels(vote_counts, threshold)
                return vote_counts, vote_fit_counts(pooled), pseudo

            self._graph.stage(
                name,
                vote,
                deps=[n for sub in tests for n in sub],
                key=(
                    None
                    if self._tainted_frontends()
                    else self._stage_key(
                        "vote", threshold=threshold, frontends=members
                    )
                ),
                encode=_encode_vote,
                decode=_decode_vote,
                meta={"threshold": threshold, "frontends": members},
            )
        return name

    def _vote_members(self, threshold: int) -> list[str]:
        """The battery of the vote at ``threshold``, in its fit-count order."""
        return self._graph.stage_named(f"vote/V{int(threshold)}").meta[
            "frontends"
        ]

    def _battery(self, model_id: str) -> dict[str, list[str]]:
        """Key params naming the battery whose vote trained ``model_id``:
        none for the baseline, ``frontends`` for ``dba-<variant>-V<n>``
        (the members of ``vote/V<n>``).  The ``dba_train``, DBA ``score``
        and per-frontend DBA ``fuse`` keys carry them, so a degraded
        battery's products never answer for the full battery's."""
        if model_id == "baseline":
            return {}
        threshold = model_id.rsplit("-V", 1)[1]
        return {"frontends": self._vote_members(int(threshold))}

    def _dba_fit(
        self, threshold: int, variant: str, vote: str, frontend, q: int
    ) -> str:
        """Declare (once) one frontend's DBA retrain (§3 e); its key
        names the vote's battery (see :meth:`_battery`)."""
        model_id = f"dba-{variant}-V{threshold}"
        phi_train, *phi_tests = (
            self._phi(frontend, t) for t in ["train", *self._test_tags]
        )

        def training_set(deps):
            pooled = deps[phi_tests[0]]
            for phi in phi_tests[1:]:
                pooled = pooled.vstack(deps[phi])
            return build_dba_training_set(
                variant,
                deps[phi_train],
                self.labels_for("train"),
                pooled,
                deps[vote][2],
            )

        return self._fit(
            f"dba_train/{frontend.name}/{model_id}",
            frontend,
            100 + q,
            (phi_train, *phi_tests, vote),
            training_set,
            model_id,
            threshold=int(threshold),
            variant=variant,
            **self._battery(model_id),
        )

    def _subsystems(self, model_id: str, fit_node) -> list[SubsystemScores]:
        """Views over ``model_id``'s nodes, one per surviving frontend.

        ``fit_node(frontend, q)`` declares a frontend's fit.  One run
        resolves the score nodes of each frontend the store cannot
        answer in full (of a tainted one always, as its products are
        purged after), degrading under ``on_error="degrade"``; the rest
        stay in the store until first read.
        """
        tainted = self._tainted_frontends()
        views: dict[str, SubsystemScores] = {}
        targets: list[str] = []
        for q, frontend in enumerate(self.frontends):
            fit = fit_node(frontend, q)
            nodes = [
                self._score(frontend, fit, model_id, tag)
                for tag in ["dev", *self._test_tags]
            ]
            if (
                self.store is None
                or frontend.name in tainted
                or not all(
                    self.store.has(self._graph.stage_named(n).store_key)
                    for n in nodes
                )
            ):
                targets.extend(nodes)
            views[frontend.name] = SubsystemScores(
                frontend.name,
                self._graph,
                (fit, nodes[0], dict(zip(self.durations, nodes[1:]))),
            )
        failures = {} if self.on_error == "degrade" else None
        if targets:
            self._graph.run(targets, failures=failures)
        if failures:
            self._apply_degradation(failures)
        self._purge_tainted()
        return [views[fe.name] for fe in self.frontends]

    # ------------------------------------------------------------------
    # baseline (PPRVSM)
    # ------------------------------------------------------------------
    def baseline(self) -> BaselineResult:
        """Train per-frontend VSMs on ``Tr`` and score dev + all tests.

        Per-frontend chains ``phi/train → svm_train → score/{dev,test@d}``
        are independent and fan out in parallel when ``system.workers``
        allows; with a store attached, cached ``svm_train``/``score``
        products prune the decode stages entirely, and a frontend whose
        ``score`` products are all cached runs nothing: its scores load
        on first read.
        """
        with trace.span("baseline", frontends=len(self.frontends)):
            subsystems = self._subsystems("baseline", self._svm_fit)
        return BaselineResult(subsystems, self.durations)

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
        The ``vote`` selection, shared by every variant at one
        threshold, and every per-frontend ``dba_train``/``score`` stage
        memoize against the store, so a threshold change re-executes
        only the DBA-and-later stages.  Their keys name the vote's
        battery, so products of a degraded battery's vote never answer
        for the full battery's.  The vote reads the graph's
        baseline nodes; without ``baseline``, :meth:`baseline` runs
        first, so its failures degrade rather than raise.
        """
        if baseline is None:
            self.baseline()
        with trace.span("dba", threshold=threshold, variant=variant) as sp:
            vote = self._vote(threshold)
            vote_counts, fit_counts, pseudo = self._graph.value(vote)
            sp.inc("pool", len(pseudo))
            sp.inc("candidates", int(vote_counts.shape[0]))
            subsystems = self._subsystems(
                f"dba-{variant}-V{threshold}",
                partial(self._dba_fit, threshold, variant, vote),
            )
        if self.degraded:
            # fit_counts is indexed by the vote-time battery order; keep
            # only the survivors' entries so Eq. 20 weights renormalize
            # over exactly the subsystems that remain.
            members = self._vote_members(threshold)
            names = {fe.name for fe in self.frontends}
            fit_counts = fit_counts[
                [q for q, n in enumerate(members) if n in names]
            ]
        return DBAResult(
            subsystems=subsystems,
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
    def _fuse(
        self,
        prefix: str,
        subs: list[SubsystemScores],
        duration: float,
        meta: dict[str, Any],
        weigh: list[SystemResult] | None = None,
        **params,
    ) -> dict[str, np.ndarray]:
        """Declare (once) and read the ``fuse`` node ``<prefix>/test@<d>``.

        Its product is the table cell it is read for: ``{"scores":
        (m, K) calibrated test scores, "cell": [EER %, C_avg %]}``, the
        cell evaluated against the node's own ``test@<d>`` labels, so a
        hit evaluates nothing.  Its dependencies are the dev and test
        score nodes of ``subs``; the LDA-MMI backend is fitted once per
        ``prefix``, which names the member model ids, under the Eq. 20
        weights of ``weigh``'s fit counts (unweighted without).
        ``meta`` and ``params`` make the store key, with
        :data:`FUSE_REVISION`; a tainted member (``meta``'s frontend,
        else any) keeps the product out of the store.
        """
        tag = f"test@{duration}"
        name = f"{prefix}/{tag}"
        if name not in self._graph:
            devs = [s.nodes[1] for s in subs]
            tests = [s.nodes[2][duration] for s in subs]

            def fuse(deps) -> dict[str, np.ndarray]:
                weights = (
                    None
                    if weigh is None
                    else subsystem_weights(_fit_counts(weigh))
                )
                fusion = self._fitted_fusion(
                    prefix, [deps[n] for n in devs], weights
                )
                scores = fusion.transform([deps[n] for n in tests])
                cell = evaluate_scores(scores, self.labels_for(tag))
                return {"scores": scores, "cell": np.array(cell)}

            tainted = self._tainted_frontends()
            if "frontend" in meta:
                tainted &= {meta["frontend"]}
            self._graph.stage(
                name,
                fuse,
                deps=(*devs, *tests),
                key=None if tainted else self._stage_key(
                    "fuse",
                    corpus=tag,
                    fuse_revision=FUSE_REVISION,
                    **meta,
                    **params,
                ),
                meta=meta,
            )
        return self._graph.value(name)

    def frontend_metrics(
        self, result: SystemResult, duration: float
    ) -> dict[str, tuple[float, float]]:
        """Per-frontend calibrated (EER %, C_avg %) — Tables 2–4 cells.

        Each is the cell stored with its ``fuse`` node (see
        :meth:`_fuse`); a DBA result's nodes are keyed by its vote's
        battery as well (see :meth:`_battery`).
        """
        model = result.model_id
        return {
            sub.name: tuple(
                self._fuse(
                    f"fuse/{model}/{sub.name}",
                    [sub],
                    duration,
                    {"members": [model], "frontend": sub.name},
                    **self._battery(model),
                )["cell"].tolist()
            )
            for sub in result.subsystems
        }

    def fused_metrics(
        self, results: list[SystemResult], duration: float
    ) -> tuple[float, float]:
        """Calibrated fusion of all subsystems of all ``results``.

        For the paper's (DBA-M1)+(DBA-M2) row, pass both variants' results;
        weights follow w_n = M_n/ΣM_m when fit counts are available.  The
        cell is the one stored with the ``fuse`` node; on a degraded
        system it is evaluated from the Eq. 20 fallback of
        :meth:`fused_scores`.
        """
        if self.degraded:
            return evaluate_scores(
                self.fused_scores(results, duration),
                self.labels_for(f"test@{duration}"),
            )
        return tuple(self._fused_node(results, duration)["cell"].tolist())

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
            "fuse/" + "+".join(r.model_id for r in results),
            dev_list,
            subsystem_weights(_fit_counts(results)),
        )

    def _fitted_fusion(
        self,
        key: str,
        dev_list: list[np.ndarray],
        weights: np.ndarray | None = None,
    ) -> LdaMmiFusion:
        """The LDA-MMI backend fitted on ``dev_list``, once per ``key``.

        ``key`` names the member model ids, which fix the dev scores;
        the memo keys the weights alongside, since a caller may hand
        other fit counts under the same ids.  The fit reads dev scores
        only, so every test duration of one subsystem (or fused member
        set) transforms through one fit.
        """
        memo = key if weights is None else (key, weights.tobytes())
        fusion = self._fusions.get(memo)
        if fusion is None:
            fusion = LdaMmiFusion(
                use_lda=self.system.use_lda,
                mmi_iterations=self.system.mmi_iterations,
            )
            with trace.span("fusion", subsystems=len(dev_list)):
                fusion.fit(dev_list, self.labels_for("dev"), weights=weights)
            self._fusions[memo] = fusion
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
        computed from ``results`` as given, and never persisted.
        """
        if self.degraded:
            members = [r.model_id for r in results]
            with trace.span("fuse", degraded=True, members=members):
                return linear_fusion(
                    [s for r in results for s in r.test_scores(duration)],
                    _fit_counts(results),
                )
        return self._fused_node(results, duration)["scores"]

    def _fused_node(
        self, results: list[SystemResult], duration: float
    ) -> dict[str, np.ndarray]:
        """The ``fuse`` node over every subsystem of ``results``."""
        members = [r.model_id for r in results]
        return self._fuse(
            "fuse/" + "+".join(members),
            [s for r in results for s in r.subsystems],
            duration,
            {"members": members},
            results,
            frontends=[fe.name for fe in self.frontends],
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
