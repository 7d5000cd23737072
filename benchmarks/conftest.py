"""Shared benchmark laboratory.

Builds the bench-scale corpus + frontend battery once per pytest session,
computes the PPRVSM baseline once, and lazily caches each DBA pass
(threshold × variant) so that every table/figure benchmark reuses the
same underlying runs — mirroring how the paper's tables all come from one
evaluation campaign.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``"bench"`` (default; minutes) or ``"smoke"`` (seconds, for CI sanity).
Every regenerated table is printed to the terminal (bypassing capture)
and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DBAResult,
    PhonotacticSystem,
    bench_scale,
    build_system,
    smoke_scale,
)

RESULTS_DIR = Path(__file__).parent / "results"


class BenchLab:
    """Cache of baseline/DBA runs shared by all table benchmarks."""

    def __init__(self) -> None:
        scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
        config = smoke_scale() if scale == "smoke" else bench_scale()
        self.config = config
        self.system: PhonotacticSystem = build_system(config)
        self._baseline = None
        self._dba: dict[tuple[int, str], DBAResult] = {}

    @property
    def durations(self) -> tuple[float, ...]:
        return self.system.durations

    @property
    def thresholds(self) -> tuple[int, ...]:
        return self.config.vote_thresholds

    def baseline(self):
        if self._baseline is None:
            self._baseline = self.system.baseline()
        return self._baseline

    def dba(self, threshold: int, variant: str) -> DBAResult:
        key = (threshold, variant)
        if key not in self._dba:
            self._dba[key] = self.system.dba(
                threshold, variant, self.baseline()
            )
        return self._dba[key]

    def frontend_table(self, result, duration: float) -> dict[str, tuple[float, float]]:
        return self.system.frontend_metrics(result, duration)

    def pooled_labels(self) -> np.ndarray:
        return self.system.pooled_test_labels()


@pytest.fixture(scope="session")
def lab() -> BenchLab:
    return BenchLab()


@pytest.fixture()
def report(capsys):
    """Print a regenerated table to the live terminal and save it."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print(f"\n===== {name} =====")
            print(text)

    return _report
