"""Table 5 stage accounting for tests, read from trace spans.

The pipeline and the scoring engine time their stages with
:mod:`repro.obs.trace` spans (``decoding``, ``sv_generation``,
``svm_training``, ``sv_product``, ``fusion``).  :func:`traced_stages`
traces a block and yields a roll-up function over the spans closed so
far — the same :func:`~repro.obs.runlog.aggregate_stages` table a
runlog manifest carries (``calls``, ``wall_s``, ``cpu_s``, ``audio_s``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs import trace
from repro.obs.runlog import aggregate_stages

__all__ = ["traced_stages"]


@contextmanager
def traced_stages() -> Iterator[Callable[[], dict]]:
    """Trace the block; the yielded function rolls its spans up by name.

    The roll-up stays readable after the block exits.  A stage that
    never ran is absent from it.
    """
    trace.stop_trace()  # a trace leaked by another test must not nest ours
    tracer = trace.start_trace("stages")
    try:
        yield lambda: aggregate_stages(
            [sp.to_record() for sp in tracer.root.walk()][1:]
        )
    finally:
        trace.stop_trace()
