"""Mechanics tests for the PPRVSM/DBA pipeline (shapes, caching, wiring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.pipeline import (
    BaselineResult,
    DBAResult,
    PhonotacticSystem,
    calibrate_scores,
    evaluate_scores,
)
from tests.tracing import traced_stages


@pytest.fixture(scope="module")
def stages():
    """Every Table 5 stage span of this module's runs, rolled up."""
    with traced_stages() as rollup:
        yield rollup


@pytest.fixture(scope="module")
def system(tiny_bundle, tiny_frontends, stages):
    return PhonotacticSystem(
        tiny_bundle,
        tiny_frontends,
        SystemConfig(orders=(1, 2), svm_max_epochs=15, mmi_iterations=10),
    )


@pytest.fixture(scope="module")
def baseline(system):
    return system.baseline()


@pytest.fixture(scope="module")
def dba_result(system, baseline):
    return system.dba(1, "M2", baseline)


class TestCorpusPlumbing:
    def test_corpus_tags(self, system, tiny_bundle):
        assert system.corpus_for("train") is tiny_bundle.train
        assert system.corpus_for("dev") is tiny_bundle.dev
        assert system.corpus_for("test@10.0") is tiny_bundle.test[10.0]

    def test_unknown_tags(self, system):
        with pytest.raises(KeyError):
            system.corpus_for("validation")
        with pytest.raises(KeyError):
            system.corpus_for("test@99.0")

    def test_labels_shape(self, system, tiny_bundle):
        labels = system.labels_for("train")
        assert labels.shape == (len(tiny_bundle.train),)
        assert labels.max() < len(tiny_bundle.registry)

    def test_pooled_labels(self, system, tiny_bundle):
        pooled = system.pooled_test_labels()
        expected = sum(len(c) for c in tiny_bundle.test.values())
        assert pooled.shape == (expected,)


class TestCaching:
    def test_raw_matrix_cached(self, system, tiny_frontends):
        fe = tiny_frontends[0]
        a = system.raw_matrix(fe, "train")
        b = system.raw_matrix(fe, "train")
        assert a is b

    def test_matrix_shapes(self, system, tiny_frontends, tiny_bundle):
        fe = tiny_frontends[0]
        m = system.raw_matrix(fe, "dev")
        assert m.n_rows == len(tiny_bundle.dev)

    def test_pooled_test_matrix(self, system, tiny_frontends, tiny_bundle):
        fe = tiny_frontends[0]
        pooled = system.pooled_test_matrix(fe)
        expected = sum(len(c) for c in tiny_bundle.test.values())
        assert pooled.n_rows == expected

    def test_timer_recorded_stages(self, system, baseline, stages):
        rollup = stages()
        assert {"decoding", "sv_generation", "svm_training"} <= set(rollup)
        assert rollup["decoding"]["audio_s"] > 0.0


class TestBaseline:
    def test_result_structure(self, baseline, system, tiny_bundle):
        assert isinstance(baseline, BaselineResult)
        assert baseline.names == [fe.name for fe in system.frontends]
        for duration, corpus in tiny_bundle.test.items():
            for scores in baseline.test_scores(duration):
                assert scores.shape == (len(corpus), len(tiny_bundle.registry))

    def test_pooled_scores_stack_durations(self, baseline, tiny_bundle):
        pooled = baseline.pooled_test_scores()
        total = sum(len(c) for c in tiny_bundle.test.values())
        for mat in pooled:
            assert mat.shape[0] == total

    def test_beats_chance_on_train_conditions(self, baseline, system):
        # Dev shares the training condition; argmax accuracy must beat
        # chance clearly for both frontends.
        dev_labels = system.labels_for("dev")
        k = len(system.bundle.registry)
        for dev in baseline.dev_scores:
            acc = np.mean(np.argmax(dev, axis=1) == dev_labels)
            assert acc > 2.0 / k


class TestDBA:
    def test_result_structure(self, dba_result, tiny_bundle):
        assert isinstance(dba_result, DBAResult)
        assert dba_result.variant == "M2"
        assert dba_result.threshold == 1
        assert dba_result.vote_counts.shape[0] == sum(
            len(c) for c in tiny_bundle.test.values()
        )
        assert dba_result.fit_counts.shape == (2,)

    def test_pseudo_indices_in_pool(self, dba_result, tiny_bundle):
        total = sum(len(c) for c in tiny_bundle.test.values())
        if len(dba_result.pseudo):
            assert dba_result.pseudo.indices.max() < total

    def test_m1_variant_runs(self, system, baseline):
        result = system.dba(1, "M1", baseline)
        assert result.variant == "M1"

    def test_default_baseline_computed(self, system):
        result = system.dba(2, "M2")
        assert isinstance(result, DBAResult)

    def test_deterministic(self, system, baseline):
        a = system.dba(1, "M2", baseline)
        b = system.dba(1, "M2", baseline)
        np.testing.assert_allclose(
            a.test_scores(10.0)[0], b.test_scores(10.0)[0]
        )


class TestEvaluation:
    def test_frontend_metrics(self, system, baseline):
        metrics = system.frontend_metrics(baseline, 10.0)
        assert set(metrics) == {"FE_A", "FE_B"}
        for eer, c_avg in metrics.values():
            assert 0.0 <= eer <= 100.0
            assert 0.0 <= c_avg <= 100.0

    def test_fused_metrics(self, system, baseline, dba_result):
        eer, c_avg = system.fused_metrics([baseline, dba_result], 10.0)
        assert 0.0 <= eer <= 100.0
        assert 0.0 <= c_avg <= 100.0

    def test_fused_scores_shape(self, system, baseline, tiny_bundle):
        fused = system.fused_scores([baseline], 3.0)
        assert fused.shape == (
            len(tiny_bundle.test[3.0]),
            len(tiny_bundle.registry),
        )

    def test_calibrate_and_evaluate_roundtrip(self, system, baseline):
        dev_labels = system.labels_for("dev")
        test_labels = system.labels_for("test@10.0")
        calibrated = calibrate_scores(
            baseline.dev_scores, dev_labels, baseline.test_scores(10.0)
        )
        eer, c_avg = evaluate_scores(calibrated, test_labels)
        assert 0.0 <= eer <= 100.0


class TestValidation:
    def test_needs_frontends(self, tiny_bundle):
        with pytest.raises(ValueError):
            PhonotacticSystem(tiny_bundle, [])

    def test_unique_frontend_names(self, tiny_bundle, tiny_frontends):
        with pytest.raises(ValueError):
            PhonotacticSystem(
                tiny_bundle, [tiny_frontends[0], tiny_frontends[0]]
            )


class TestParallelDecodeEquivalence:
    @pytest.mark.slow
    def test_workers_do_not_change_results(self, tiny_bundle, tiny_frontends):
        serial = PhonotacticSystem(
            tiny_bundle, tiny_frontends, SystemConfig(orders=(1, 2), workers=1)
        )
        parallel = PhonotacticSystem(
            tiny_bundle, tiny_frontends, SystemConfig(orders=(1, 2), workers=2)
        )
        fe_s, fe_p = serial.frontends[0], parallel.frontends[0]
        # The train corpus is large enough to cross pmap's parallel
        # threshold, so this genuinely exercises the process pool.
        m_serial = serial.raw_matrix(fe_s, "train")
        m_parallel = parallel.raw_matrix(fe_p, "train")
        assert m_serial.n_rows == m_parallel.n_rows
        np.testing.assert_array_equal(m_serial.indptr, m_parallel.indptr)
        np.testing.assert_array_equal(m_serial.indices, m_parallel.indices)
        np.testing.assert_allclose(m_serial.values, m_parallel.values)
