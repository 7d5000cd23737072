"""Deterministic, memoized execution of the pipeline's stage DAG.

The paper's flow is a small directed acyclic graph per frontend —
decode/φ → svm_train → score → vote/select → dba_train → fuse — where
the expensive φ(x) stages are shared between the baseline and every DBA
variant (the fact behind the paper's Eq. 18–19 cost claim).  This module
makes that graph explicit:

- a :class:`Stage` declares one unit of work: its dependencies, the
  compute function, and (optionally) a content-addressed store key under
  which its product persists;
- :class:`StageGraph` resolves a set of target stages *demand-driven*
  against an :class:`~repro.exec.store.ArtifactStore`: a stage whose
  product is already in the store is loaded instead of executed, **and
  its dependencies are pruned** — so a fully warm campaign never touches
  the decode stages at all;
- independent stages (different frontends, different corpora) fan out
  over a thread pool sized by
  :func:`~repro.utils.parallel.effective_workers` — a threaded layer
  *above* the utterance-level process fan-out of
  :func:`~repro.utils.parallel.pmap`.

Every stage runs under an ``exec.<family>`` trace span and increments
``exec.stage.<family>.executed`` or ``.cached`` in the process metrics
registry, so runlogs show exactly which stages a resumed campaign
skipped.  A store hit's span (``cached=True``) covers both the payload
read — its ``store.get`` child — and the decode; a miss opens no cached
span, and the put after an executed stage runs under ``store.put``.

:func:`run_stage` is the single-stage primitive (span + counters + store
round-trip); the graph runner uses it for every stage it executes, and
stages that run before any graph exists (the pipeline's ``world``) call
it directly, so cache accounting is identical whichever path executed a
stage.

A graph keeps every value it resolves.  Later runs treat a resolved
stage as satisfied, like a store hit, and :meth:`StageGraph.value`
reads one stage from the memo, else from the store, else by running
its missing dependencies.  A graph can therefore be declared once and
grown node by node as a campaign first needs each product, as
:class:`repro.core.pipeline.PhonotacticSystem` does.

Fault tolerance
---------------
Both entry points accept a :class:`repro.faults.RetryPolicy`:
:func:`run_stage` retries the compute function *and* the store
round-trip under it (attempt counts land on the stage's span as a
``retries`` counter and in ``exec.retry.attempts``), and a
:class:`StageGraph` passes its policy to every stage it executes.
The graph runner can additionally collect failures instead of raising:
with ``failures=<dict>``, a stage whose compute exhausts its retries is
recorded there, its transitive dependents are skipped with
:class:`StageDependencyError`, and every *independent* stage still
runs — the hook :class:`repro.core.pipeline.PhonotacticSystem` uses to
drop one dead frontend while the survivors finish.

Chaos drills reach stages through the ambient ``REPRO_FAULTS`` plan
(:func:`repro.faults.injection.ambient_plan`): each compute attempt
applies the targets ``<family>`` and, when the stage's ``meta`` names a
frontend, ``<family>/<frontend>`` — so ``error:phi:2`` fails two decode
attempts anywhere and ``error:phi/FE_A`` fails only frontend ``FE_A``'s.

Distributed claims
------------------
Both entry points also accept ``claims=``, a lease board (duck-typed;
see :class:`repro.dist.LeaseBoard`) that turns store-keyed stages into
a work queue across *processes*: before computing a missing stage the
worker must win ``claims.try_claim(key)``; losers poll the store
(:meth:`~repro.exec.store.ArtifactStore.refresh` + get) until the
winner's put appears or the winner's lease expires and the stage can be
re-claimed.  Stages without a store key (in-memory assembly) bypass the
board and run in every worker.  The claim protocol is deliberately
invisible to compute functions, so retries, fault injection and failure
collection behave identically with and without it.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exec.store import ArtifactStore
from repro.faults.injection import ambient_plan
from repro.faults.retry import RetryPolicy
from repro.obs import trace
from repro.obs.metrics import default_registry
from repro.utils.parallel import effective_workers

__all__ = [
    "Stage",
    "StageGraph",
    "StageDependencyError",
    "run_stage",
]

_GRAPH_RUNS = default_registry().counter("exec.graph.runs")
_GRAPH_WORKERS = default_registry().gauge("exec.graph.workers")


class StageDependencyError(RuntimeError):
    """A stage was skipped because an upstream stage failed.

    Only raised (well — recorded) in failure-collection mode; it marks
    the poisoned downstream cone of a genuinely failed stage so callers
    can tell root causes from collateral skips.
    """

    def __init__(self, name: str, failed_deps: list[str]) -> None:
        super().__init__(
            f"stage {name!r} skipped: dependency failed: "
            + ", ".join(failed_deps)
        )
        self.stage = name
        self.failed_deps = tuple(failed_deps)


def run_stage(
    compute: Callable[[], Any],
    *,
    family: str,
    store: ArtifactStore | None = None,
    key: str | None = None,
    kind: str = "arrays",
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    meta: dict[str, Any] | None = None,
    retry: RetryPolicy | None = None,
    claims: Any | None = None,
) -> Any:
    """Execute one stage with store memoization and obs accounting.

    With a ``store`` and ``key``, a present payload is loaded (through
    ``decode`` when given) and counted as ``exec.stage.<family>.cached``;
    otherwise ``compute()`` runs, its result persists (through
    ``encode``) and ``exec.stage.<family>.executed`` increments.  A
    corrupted payload raises
    :class:`~repro.exec.store.StoreCorruptionError` — it never falls
    back to recomputation, because silently healing corruption would
    mask storage problems.

    With a ``retry`` policy, the compute function and both store
    operations are retried for retryable exceptions; each re-attempt
    increments the stage span's ``retries`` counter and the process-wide
    ``exec.retry.attempts``.  On exhaustion the last exception
    propagates unchanged.  Ambient ``REPRO_FAULTS`` targets
    ``<family>`` / ``<family>/<frontend>`` fire before each compute
    attempt (no-op when unarmed).

    With ``claims`` (a lease board; requires ``store`` and ``key``),
    computing a missing stage first requires winning the stage's lease:
    the winner computes and publishes as usual (its worker id is added
    to the put's ``meta`` for provenance), while losers poll — refresh
    the store, re-check for the winner's put, and periodically retry
    the claim so an expired lease (dead winner) is stolen.  A value that
    arrives through polling counts as ``.cached``, exactly like a warm
    store hit.  A stage the board has poisoned raises
    :class:`repro.faults.PoisonedStageError` from the claim attempt,
    which failure-collection mode records like any other stage error.

    ``meta`` is read when the product is put, so ``compute`` may add
    provenance it only learns while running (the ``phi`` stage records
    its corpus's audio seconds this way).
    """
    registry = default_registry()
    plan = ambient_plan()
    fault_targets = [family]
    frontend = (meta or {}).get("frontend")
    if frontend:
        fault_targets.append(f"{family}/{frontend}")
    label = key or (fault_targets[-1])

    def guarded(fn: Callable[[], Any], what: str) -> Any:
        if retry is None:
            return fn()
        return retry.call(fn, key=f"{label}/{what}")

    def load_cached() -> Any:
        # A hit reads and decodes inside the cached stage span (the
        # store adds its own ``store.get`` child); a miss opens none.
        # get() runs either way, for fault injection and miss counting.
        span = (
            trace.span(f"exec.{family}", cached=True)
            if store.has(key)
            else trace.NULL_SPAN
        )
        with span:
            try:
                stored = guarded(lambda: store.get(key), "get")
            except KeyError:
                return _MISS
            value = decode(stored) if decode is not None else stored
        registry.counter(f"exec.stage.{family}.cached").inc()
        return value

    if store is not None and key is not None:
        value = load_cached()
        if value is not _MISS:
            return value

    claimed = claims is not None and store is not None and key is not None
    if claimed:
        while True:
            if claims.try_claim(key, family=family, meta=meta):
                # Double-check under the lease: another worker may have
                # published between our miss and our claim.
                value = load_cached()
                if value is not _MISS:
                    claims.release(key, completed=True)
                    return value
                break
            claims.wait(key)
            store.refresh()
            value = load_cached()
            if value is not _MISS:
                return value

    def attempt() -> Any:
        for target in fault_targets:
            plan.apply(target)
        return compute()

    try:
        with trace.span(f"exec.{family}", cached=False) as sp:
            if retry is None:
                value = attempt()
            else:
                value = retry.call(
                    attempt,
                    key=f"{label}/compute",
                    on_retry=lambda n, exc: sp.inc("retries").set_attrs(
                        last_error=type(exc).__name__
                    ),
                )
        registry.counter(f"exec.stage.{family}.executed").inc()
        if store is not None and key is not None:
            guarded(
                lambda: store.put(
                    key,
                    kind,
                    encode(value) if encode is not None else value,
                    meta=(
                        {**(meta or {}), "worker": claims.worker_id}
                        if claimed
                        else meta
                    ),
                ),
                "put",
            )
    except BaseException:
        if claimed:
            claims.release(key, completed=False)
        raise
    else:
        if claimed:
            claims.release(key, completed=True)
    return value


#: Sentinel distinguishing "store miss" from a stored ``None``.
_MISS = object()


@dataclass
class Stage:
    """One node of the stage graph.

    Attributes
    ----------
    name:
        Unique node id, conventionally ``family/frontend/corpus`` (e.g.
        ``"score/FE_A/test@3.0"``).
    compute:
        Called with ``{dep_name: dep_value}`` when the stage executes.
    deps:
        Names of stages whose values ``compute`` needs.  Dependencies of
        a store-satisfied stage are pruned from the run.
    key / kind / encode / decode / meta:
        Store memoization contract (see :func:`run_stage`); ``key=None``
        disables persistence for this stage.  ``key`` may also be a
        zero-argument callable returning the key: :attr:`store_key`
        calls it on first read, so a stage nobody probes (a fit behind
        stored scores) never hashes its key.
    family:
        Metric/span family; defaults to the first ``/`` segment of
        ``name``.
    """

    name: str
    compute: Callable[[dict[str, Any]], Any]
    deps: tuple[str, ...] = ()
    key: str | Callable[[], str | None] | None = None
    kind: str = "arrays"
    encode: Callable[[Any], Any] | None = None
    decode: Callable[[Any], Any] | None = None
    meta: dict[str, Any] | None = None
    family: str = ""

    def __post_init__(self) -> None:
        self.deps = tuple(self.deps)
        if not self.family:
            self.family = self.name.split("/", 1)[0]

    @property
    def store_key(self) -> str | None:
        """The store key; a callable ``key`` is resolved on first read."""
        key = self.key  # one read: another thread may resolve it too
        if callable(key):
            key = key()
            self.key = key
        return key


class StageGraph:
    """A DAG of :class:`Stage` nodes with demand-driven memoized runs.

    ``store``, ``workers``, ``retry`` and ``claims`` are the graph's run
    settings (see :meth:`run`).  Every value a run resolves is kept, so
    no stage executes or loads twice in one graph.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        workers: int | None = 1,
        retry: RetryPolicy | None = None,
        claims: Any | None = None,
    ) -> None:
        self._stages: dict[str, Stage] = {}
        self._values: dict[str, Any] = {}
        self._lock = threading.Lock()
        self.store = store
        self.workers = workers
        self.retry = retry
        self.claims = claims

    def add(self, stage: Stage) -> Stage:
        """Register a stage; names must be unique."""
        if stage.name in self._stages:
            raise ValueError(f"stage {stage.name!r} already declared")
        self._stages[stage.name] = stage
        return stage

    def stage(self, name: str, compute, **kwargs: Any) -> Stage:
        """Declare-and-register shorthand for :meth:`add`."""
        return self.add(Stage(name, compute, **kwargs))

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def names(self) -> list[str]:
        """Declared stage names, in declaration order."""
        return list(self._stages)

    def stage_named(self, name: str) -> Stage:
        """The declared :class:`Stage` (raises ``KeyError``)."""
        return self._stages[name]

    def value(self, name: str) -> Any:
        """The value of stage ``name``: kept, else stored, else computed
        by a run of it and whatever it needs that is missing."""
        with self._lock:
            if name in self._values:
                return self._values[name]
        stage, store = self._stages[name], self.store
        key = None if store is None else stage.store_key
        if key is not None and store.has(key):
            return self._resolve(stage, {}, store)  # a one-stage run
        return self.run([name])[name]

    def _resolve(self, stage: Stage, deps: dict, store) -> Any:
        """Load or execute one stage through :func:`run_stage`; keep it."""
        value = run_stage(
            lambda: stage.compute(deps),
            family=stage.family,
            store=store,
            key=stage.store_key,
            kind=stage.kind,
            encode=stage.encode,
            decode=stage.decode,
            meta=stage.meta,
            retry=self.retry,
            claims=self.claims,
        )
        with self._lock:
            self._values[stage.name] = value
        return value

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan(
        self, targets: list[str], store: ArtifactStore | None
    ) -> tuple[list[str], dict[str, set[str]]]:
        """The needed sub-DAG: execution order seeds + live dep edges.

        A stage already resolved, or satisfied by the store, keeps its
        node (it still must be read) but contributes no dependency
        edges, pruning everything upstream that no other live stage
        needs.
        """
        needed: dict[str, bool] = {}  # name -> satisfied
        visiting: set[str] = set()

        def visit(name: str) -> None:
            if name in needed:
                return
            if name in visiting:
                raise ValueError(f"stage dependency cycle through {name!r}")
            stage = self._stages.get(name)
            if stage is None:
                raise KeyError(f"unknown stage {name!r}")
            visiting.add(name)
            key = None if store is None else stage.store_key
            satisfied = name in self._values or (
                key is not None and store.has(key)
            )
            if not satisfied:
                for dep in stage.deps:
                    visit(dep)
            visiting.discard(name)
            needed[name] = satisfied

        with self._lock:
            for target in targets:
                visit(target)
        live_deps = {
            name: (set() if satisfied else set(self._stages[name].deps))
            for name, satisfied in needed.items()
        }
        return list(needed), live_deps

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        targets: list[str] | None = None,
        *,
        store: ArtifactStore | None = None,
        workers: int | None = None,
        failures: dict[str, BaseException] | None = None,
    ) -> dict[str, Any]:
        """Resolve ``targets`` (default: every stage); returns all values.

        ``store`` and ``workers`` default to the graph's own.  ``workers``
        follows :func:`~repro.utils.parallel.effective_workers`
        semantics: ``1`` executes serially in dependency order, ``0``
        auto-sizes a thread pool.  Stages are pure functions of their declared inputs, so
        concurrent waves produce the same values as the serial order.
        A stage an earlier run resolved is neither loaded nor executed
        again: its kept value is returned.

        The graph's ``retry`` is applied to every executed stage (see
        :func:`run_stage`).  With ``failures=None`` (default) the first
        stage error — after its retries — propagates.  With a dict, the
        run *collects*: the failing stage's exception is recorded under
        its name, its transitive dependents are recorded as
        :class:`StageDependencyError` and skipped, and all independent
        stages still execute; the returned dict then holds only the
        stages that succeeded.

        The graph's ``claims`` go to every store-keyed stage (see
        :func:`run_stage`), partitioning the run's frontier across the
        worker processes sharing the store and lease board.
        """
        store = self.store if store is None else store
        workers = self.workers if workers is None else workers
        targets = list(targets) if targets is not None else self.names()
        order, live_deps = self._plan(targets, store)
        with self._lock:
            values = {n: self._values[n] for n in order if n in self._values}
        order = [name for name in order if name not in values]
        n_workers = effective_workers(workers) if workers != 1 else 1
        n_workers = min(n_workers, max(1, len(order)))
        _GRAPH_RUNS.inc()
        _GRAPH_WORKERS.set(n_workers)

        values_lock = threading.Lock()
        failed: set[str] = set()
        parent = trace.current_span()

        def execute(name: str) -> Any:
            # Only the *live* deps have values: a store-satisfied stage
            # had its edges pruned and loads without touching them.
            with values_lock:
                deps = {dep: values[dep] for dep in live_deps[name]}
            return self._resolve(self._stages[name], deps, store)

        def poisoned_deps(name: str) -> list[str]:
            return sorted(d for d in live_deps[name] if d in failed)

        # Kept values are settled before the run starts.
        remaining = {
            name: live_deps[name] - values.keys() for name in order
        }
        if n_workers <= 1:
            pending = list(order)
            while pending:
                # Failed deps count as settled for scheduling, so the
                # poisoned cone drains instead of deadlocking the loop.
                name = next(
                    (n for n in pending if not (remaining[n] - failed)), None
                )
                if name is None:  # pragma: no cover - cycles caught in plan
                    raise RuntimeError("stage graph deadlocked")
                pending.remove(name)
                bad = poisoned_deps(name)
                if bad:
                    failed.add(name)
                    failures[name] = StageDependencyError(name, bad)
                    continue
                try:
                    values[name] = execute(name)
                except BaseException as exc:  # noqa: BLE001 - collect mode
                    if failures is None:
                        raise
                    failed.add(name)
                    failures[name] = exc
                    continue
                for other in pending:
                    remaining[other].discard(name)
            return values

        # Wave scheduling (Kahn's algorithm) over a thread pool: stages
        # are submitted as soon as their live dependencies resolve, so a
        # slow frontend never blocks an independent one.
        dependents: dict[str, list[str]] = {name: [] for name in order}
        for name in order:
            for dep in remaining[name]:
                dependents[dep].append(name)

        def worker(name: str) -> Any:
            with trace.attach(parent):
                return execute(name)

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures: dict[Any, str] = {}

            def settle(name: str) -> None:
                """Schedule or poison dependents whose deps all settled."""
                stack = [name]
                while stack:
                    cur = stack.pop()
                    for dependent in dependents[cur]:
                        remaining[dependent].discard(cur)
                        if (
                            remaining[dependent] - failed
                            or dependent in values
                            or dependent in failed
                            or any(
                                dependent == queued
                                for queued in futures.values()
                            )
                        ):
                            continue
                        bad = poisoned_deps(dependent)
                        if bad:
                            failed.add(dependent)
                            failures[dependent] = StageDependencyError(
                                dependent, bad
                            )
                            stack.append(dependent)
                        else:
                            futures[pool.submit(worker, dependent)] = (
                                dependent
                            )

            ready = [name for name in order if not remaining[name]]
            for name in ready:
                futures[pool.submit(worker, name)] = name
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    name = futures.pop(future)
                    try:
                        value = future.result()  # re-raises stage errors
                    except BaseException as exc:  # noqa: BLE001
                        if failures is None:
                            raise
                        failed.add(name)
                        failures[name] = exc
                        settle(name)
                        continue
                    with values_lock:
                        values[name] = value
                    settle(name)
        return values
