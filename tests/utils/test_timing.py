"""Tests for the Eq. 16–19 cost ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.timing import CostLedger


class TestCostLedger:
    def test_total(self):
        ledger = CostLedger(phi=10.0, modeling=2.0, test=1.0)
        ledger.extra["fusion"] = 0.5
        assert ledger.total() == pytest.approx(13.5)

    def test_ratio_eq18(self):
        # With phi dominating, the DBA/baseline ratio approaches 1 (Eq. 19).
        baseline = CostLedger(phi=100.0, modeling=1.0, test=0.5)
        dba = CostLedger(phi=100.0, modeling=2.0, test=1.0)
        ratio = dba.ratio_to(baseline)
        assert 1.0 < ratio < 1.05

    def test_ratio_empty_baseline_nan(self):
        assert np.isnan(CostLedger().ratio_to(CostLedger()))
