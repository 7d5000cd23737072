"""Symbolic cost accounting of paper Eqs. 16–19 (§5.4–5.5, Table 5).

The paper reports per-stage *real-time factors* — wall-clock seconds of
compute per second of processed speech — for decoding, supervector
generation and supervector product, and argues analytically (Eqs. 16–19)
that DBA's extra modeling/test passes are negligible against decoding.
The measured per-stage times come from :mod:`repro.obs.trace` spans
(``decoding`` / ``sv_generation`` / ``sv_product`` / ``svm_training``,
each carrying an ``audio_s`` counter), rolled up by
:func:`repro.obs.runlog.aggregate_stages`.  :class:`CostLedger` mirrors
the symbolic cost model of Eq. 16/18 so the analytic ratio can be
checked against measured time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    """Symbolic cost accounting mirroring paper Eqs. 16–19.

    Components (all in wall-clock seconds, measured):

    - ``phi``: the φ-map cost :math:`C'_φ` — pre-processing, feature
      extraction, decoding and expected counting — for train + test data.
    - ``modeling``: VSM training passes :math:`C'_{modeling}` (one for the
      baseline, two for DBA).
    - ``test``: scoring passes :math:`M_{test} C'_{test}`.
    """

    phi: float = 0.0
    modeling: float = 0.0
    test: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        """Total accounted cost."""
        return self.phi + self.modeling + self.test + sum(self.extra.values())

    def ratio_to(self, baseline: "CostLedger") -> float:
        """``self.total() / baseline.total()`` — the Eq. 18 ratio."""
        denom = baseline.total()
        if denom <= 0.0:
            return float("nan")
        return self.total() / denom
