"""End-to-end integration tests: the paper's qualitative claims.

These run the full confusion-mode pipeline at smoke scale (seconds, not
minutes) and assert the *shape* of the paper's results — who wins, in
which direction — with tolerances suited to the reduced scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_system, smoke_scale, trdba_composition
from tests.tracing import traced_stages


@pytest.fixture(scope="module")
def stages():
    """Every Table 5 stage span of this module's runs, rolled up."""
    with traced_stages() as rollup:
        yield rollup


@pytest.fixture(scope="module")
def system(stages):
    return build_system(smoke_scale())


@pytest.fixture(scope="module")
def baseline(system):
    return system.baseline()


@pytest.fixture(scope="module")
def dba_m2(system, baseline):
    return system.dba(3, "M2", baseline)


class TestBaselineShape:
    def test_eers_in_plausible_band(self, system, baseline):
        for duration in (10.0, 3.0):
            metrics = system.frontend_metrics(baseline, duration)
            for name, (eer, c_avg) in metrics.items():
                assert 2.0 < eer < 48.0, (duration, name, eer)
                assert 2.0 < c_avg < 48.0

    def test_shorter_utterances_harder(self, system, baseline):
        m10 = system.frontend_metrics(baseline, 10.0)
        m3 = system.frontend_metrics(baseline, 3.0)
        mean10 = np.mean([eer for eer, _ in m10.values()])
        mean3 = np.mean([eer for eer, _ in m3.values()])
        assert mean3 > mean10

    def test_frontend_quality_ordering(self, system, baseline):
        # Paper Table 4: EN_DNN is the best frontend, CZ the worst.
        metrics = system.frontend_metrics(baseline, 10.0)
        eers = {name: eer for name, (eer, _) in metrics.items()}
        assert eers["EN_DNN"] == min(eers.values())
        assert eers["CZ"] == max(eers.values())

    def test_fusion_beats_average_frontend(self, system, baseline):
        for duration in (10.0, 3.0):
            fused_eer, _ = system.fused_metrics([baseline], duration)
            singles = [
                eer
                for eer, _ in system.frontend_metrics(
                    baseline, duration
                ).values()
            ]
            assert fused_eer < np.mean(singles)


class TestTable1Shape:
    def test_pool_monotonicity(self, system, baseline):
        from repro.core import vote_count_matrix

        counts = vote_count_matrix(baseline.pooled_test_scores())
        rows = trdba_composition(counts, system.pooled_test_labels())
        sizes = [r.n_selected for r in rows]        # V = 6 .. 1
        errors = [r.error_rate for r in rows]
        assert sizes == sorted(sizes)               # pool grows as V drops
        finite = [e for e in errors if np.isfinite(e)]
        # Error grows (weakly) as the pool loosens.
        assert all(b >= a - 0.02 for a, b in zip(finite, finite[1:]))

    def test_moderate_threshold_pool_clean_and_usable(
        self, system, dba_m2
    ):
        assert len(dba_m2.pseudo) > 20
        err = dba_m2.pseudo.error_rate(system.pooled_test_labels())
        assert err < 0.25


class TestDBAImproves:
    def test_m2_improves_mean_frontend_eer(self, system, baseline, dba_m2):
        for duration in (10.0, 3.0):
            base_mean = np.mean(
                [e for e, _ in system.frontend_metrics(baseline, duration).values()]
            )
            dba_mean = np.mean(
                [e for e, _ in system.frontend_metrics(dba_m2, duration).values()]
            )
            assert dba_mean < base_mean, duration

    def test_m1_improves_mean_frontend_eer_at_3s(self, system, baseline):
        dba_m1 = system.dba(3, "M1", baseline)
        base_mean = np.mean(
            [e for e, _ in system.frontend_metrics(baseline, 3.0).values()]
        )
        m1_mean = np.mean(
            [e for e, _ in system.frontend_metrics(dba_m1, 3.0).values()]
        )
        assert m1_mean < base_mean + 2.0  # at worst roughly on par

    def test_relative_gain_larger_at_short_duration(
        self, system, baseline, dba_m2
    ):
        """Paper: 1.8 % rel. @30s grows to 15.35 % rel. @3s."""

        def mean_eer(result, duration):
            return np.mean(
                [e for e, _ in system.frontend_metrics(result, duration).values()]
            )

        gain10 = 1.0 - mean_eer(dba_m2, 10.0) / mean_eer(baseline, 10.0)
        gain3 = 1.0 - mean_eer(dba_m2, 3.0) / mean_eer(baseline, 3.0)
        assert gain3 > 0.0
        assert gain3 > gain10 - 0.05


class TestCostClaim:
    def test_phi_work_shared_eq18(self, system, baseline, dba_m2, stages):
        """Decoding/SV-generation ran once despite baseline + DBA (Eq. 18)."""
        rollup = stages()
        n_corpora = 2 + len(system.durations)  # train, dev, tests
        n_frontends = len(system.frontends)
        assert rollup["decoding"]["calls"] == n_corpora * n_frontends
        assert rollup["sv_generation"]["calls"] == n_corpora * n_frontends
        # Modeling ran once for baseline and once per DBA pass.  Under
        # the seed's reference decode path its cost was small next to
        # the φ map (the Eq. 19 claim, paper Table 5); the batched fast
        # path (docs/execution.md) has since collapsed φ to the same
        # order as SVM training at smoke scale, so the profile check is
        # a bound rather than a domination claim — modeling must stay
        # within a small factor of the φ work whose sharing it rides on.
        phi = rollup["decoding"]["wall_s"] + rollup["sv_generation"]["wall_s"]
        assert rollup["svm_training"]["wall_s"] < 5.0 * phi
