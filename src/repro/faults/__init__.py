"""Process-wide fault-tolerance layer.

``repro.faults`` holds the machinery that lets both halves of the
system survive real failures:

- :mod:`repro.faults.injection` — the ``REPRO_FAULTS`` fault-injection
  hook (:class:`FaultPlan`, :class:`InjectedFault`), shared by the
  serving engine and the batch stack.
- :mod:`repro.faults.retry` — :class:`RetryPolicy`, bounded
  exponential-backoff retry with deterministic jitter and
  retryable-exception classification, applied by
  :func:`repro.exec.graph.run_stage` and :class:`~repro.exec.graph.
  StageGraph`.

Escalation order in the batch stack, cheapest remedy first:

1. **retry** the failing stage or store operation (this module);
2. **quarantine** individual utterances whose decode keeps failing
   (:func:`repro.utils.parallel.pmap` ``on_error="quarantine"``);
3. **degrade** by dropping a frontend whose stages exhaust retries and
   renormalizing the Eq. 20 fusion weights over the survivors
   (:class:`repro.core.pipeline.PhonotacticSystem`, mirroring the
   serving layer's circuit breakers);
4. **re-claim** (distributed campaigns only): a stage whose worker
   process died is taken over by a surviving worker once its lease
   expires (:class:`repro.dist.LeaseBoard`);
5. **poison** (distributed campaigns only): a stage that has killed
   :data:`~repro.dist.POISON_THRESHOLD`-many consecutive claimants is
   quarantined with :class:`PoisonedStageError` — deliberately *not*
   retryable, so it flows into the same degrade/fail handling as an
   exhausted retry;
6. **fail** with :class:`AllFrontendsFailedError` when nothing
   survives — a silently empty campaign would be worse than a crash.

Import order note: :mod:`~repro.faults.injection` is stdlib-only and is
imported first; :mod:`~repro.faults.retry` pulls in ``repro.obs`` and
``repro.utils.rng`` and must come after, so that
``repro.utils.parallel`` (imported during ``repro.utils`` package
init) can depend on ``repro.faults.injection`` without a cycle.
"""

from repro.faults.injection import (
    ENV_VAR,
    FaultPlan,
    InjectedFault,
    ambient_plan,
    reset_ambient_plan,
)
from repro.faults.retry import DEFAULT_RETRYABLE, RetryPolicy

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "InjectedFault",
    "ambient_plan",
    "reset_ambient_plan",
    "DEFAULT_RETRYABLE",
    "RetryPolicy",
    "AllFrontendsFailedError",
    "PoisonedStageError",
]


class AllFrontendsFailedError(RuntimeError):
    """Raised when degradation drops every frontend of a campaign.

    The offline analogue of ``repro.serve.engine.AllFrontendsDownError``:
    degrading to an empty survivor set would mean emitting tables fused
    over nothing, so the campaign aborts instead.
    """


class PoisonedStageError(RuntimeError):
    """A distributed stage was quarantined after killing its claimants.

    Raised by :meth:`repro.dist.LeaseBoard.try_claim` once a stage's
    recorded claimant-death count reaches the board's poison threshold:
    a stage that reliably takes its worker process down with it must
    not be retried by the next volunteer.  It is classified as
    **non-retryable** (never part of
    :data:`repro.faults.retry.DEFAULT_RETRYABLE`), so
    :func:`repro.exec.graph.run_stage` surfaces it immediately and the
    per-worker escalation ladder handles it like any exhausted stage:
    ``on_error="degrade"`` drops the owning frontend, otherwise the
    campaign fails.
    """

    def __init__(self, key: str, deaths: int) -> None:
        super().__init__(
            f"stage {key[:12]}… poisoned after killing {deaths} "
            "consecutive claimant(s)"
        )
        self.key = key
        self.deaths = deaths
