"""Warm re-runs sample no corpus; calibration backends fit once per member set."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backend.fusion import LdaMmiFusion
from repro.core import build_system, smoke_scale
from repro.core.reporting import format_table4
from repro.obs.metrics import default_registry

THRESHOLD = 3


def _config():
    """Smoke languages, frontends and classifier over a small corpus."""
    config = smoke_scale(5)
    return replace(
        config,
        corpus=replace(
            config.corpus,
            train_per_language=4,
            dev_per_language=3,
            test_per_language=5,
        ),
    )


def _sampled() -> float:
    return default_registry().counter("corpus.utterances.sampled").value


def _table4_text(system, baseline, m1, m2) -> str:
    """Table 4 as ``repro table4`` renders it, from given results."""
    names = [fe.name for fe in system.frontends]
    baseline_cells, dba_cells, baseline_fused, dba_fused = {}, {}, {}, {}
    for duration in system.durations:
        for name, cell in system.frontend_metrics(baseline, duration).items():
            baseline_cells[(name, duration)] = cell
        for name, cell in system.frontend_metrics(m2, duration).items():
            dba_cells[(name, duration)] = cell
        baseline_fused[duration] = system.fused_metrics([baseline], duration)
        dba_fused[duration] = system.fused_metrics([m1, m2], duration)
    return format_table4(
        names, system.durations, baseline_cells, baseline_fused,
        dba_cells, dba_fused,
    )


def _table4(system, threshold: int = THRESHOLD) -> str:
    baseline = system.baseline()
    m1 = system.dba(threshold, "M1", baseline)
    m2 = system.dba(threshold, "M2", baseline)
    return _table4_text(system, baseline, m1, m2)


class _KeepNothing(dict):
    """A fusion cache that forgets every fit: refit on every call."""

    def __setitem__(self, key, value) -> None:
        pass


@pytest.fixture
def count_fits(monkeypatch):
    fits: list[int] = []
    real_fit = LdaMmiFusion.fit

    def fit(self, *args, **kwargs):
        fits.append(1)
        return real_fit(self, *args, **kwargs)

    monkeypatch.setattr(LdaMmiFusion, "fit", fit)
    return fits


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store a cold Table-4 campaign filled, and that campaign's text."""
    directory = tmp_path_factory.mktemp("store")
    system = build_system(_config(), store=directory)
    return directory, _table4(system), system


class TestLabelsFromThePlan:
    def test_labels_for_matches_sampled_corpora(self, filled_store):
        _, _, system = filled_store
        tags = ["train", "dev", *(f"test@{d}" for d in system.durations)]
        for tag in tags:
            corpus = system.corpus_for(tag)
            sampled = np.array(
                [
                    system.bundle.language_names.index(u.language)
                    for u in corpus.utterances
                ]
            )
            np.testing.assert_array_equal(system.labels_for(tag), sampled)


class TestWarmRunsSampleNothing:
    def test_fully_warm_table4(self, filled_store):
        directory, cold_text, _ = filled_store
        before = _sampled()
        system = build_system(_config(), store=directory)
        assert _table4(system) == cold_text
        assert _sampled() == before
        assert not system.bundle.train.is_sampled

    def test_threshold_change_over_a_filled_store(self, filled_store):
        directory, _, _ = filled_store
        before = _sampled()
        system = build_system(_config(), store=directory)
        _table4(system, threshold=THRESHOLD - 1)
        assert _sampled() == before

    def test_phi_entries_carry_audio_seconds(self, filled_store):
        _, _, system = filled_store
        for fe in system.frontends:
            for d in system.durations:
                tag = f"test@{d}"
                meta = system.store.entry(system._phi_key(fe, tag))["meta"]
                assert meta["audio_s"] == (
                    system.corpus_for(tag).total_audio_seconds()
                )


class TestFusionFitsOnce:
    def test_fourteen_fits_and_unchanged_table(self, count_fits):
        system = build_system(_config())
        baseline = system.baseline()
        m1 = system.dba(THRESHOLD, "M1", baseline)
        m2 = system.dba(THRESHOLD, "M2", baseline)
        n_frontends = len(system.frontends)
        assert len(system.durations) == 2 and n_frontends == 6

        count_fits.clear()
        kept = _table4_text(system, baseline, m1, m2)
        # One fit per (model, subsystem) and per fused member set: the
        # baseline and DBA-M2 singles plus two fused rows.
        assert len(count_fits) == 2 * n_frontends + 2 == 14

        # A second Table 4 on this system reads its memo: no fit.
        count_fits.clear()
        assert _table4_text(system, baseline, m1, m2) == kept
        assert count_fits == []

        # Refitting for every test duration (28 fits), on a second
        # system, gives the same bytes.
        system = build_system(_config())
        system._fusions = _KeepNothing()
        baseline = system.baseline()
        m1 = system.dba(THRESHOLD, "M1", baseline)
        m2 = system.dba(THRESHOLD, "M2", baseline)
        count_fits.clear()
        refit = _table4_text(system, baseline, m1, m2)
        assert len(count_fits) == 28
        assert refit == kept
