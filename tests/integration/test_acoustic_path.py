"""Integration of the acoustic (GMM/MLP-HMM Viterbi) decoding path.

The confusion-channel recognizer powers the sweeps; these tests prove the
*real* acoustic pipeline exercises the identical downstream code: train
small AMs, Viterbi-decode, extract supervectors, train VSMs, vote, boost.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.pipeline import PhonotacticSystem
from repro.corpus import CorpusConfig, make_corpus_bundle
from repro.frontend import FrontendSpec, build_frontends


@pytest.fixture(scope="module")
def acoustic_system():
    bundle = make_corpus_bundle(
        CorpusConfig(
            n_languages=3,
            n_families=2,
            train_per_language=10,
            dev_per_language=4,
            test_per_language=8,
            durations=(10.0,),
            seed=77,
        )
    )
    specs = (
        FrontendSpec("AC_GMM", "gmm", 18, tau=0.5, base_error=0.1),
        FrontendSpec("AC_ANN", "ann", 22, tau=0.5, base_error=0.1),
    )
    frontends = build_frontends(
        bundle, mode="acoustic", specs=specs, train_utterances=8, top_k=3
    )
    return PhonotacticSystem(
        bundle,
        frontends,
        SystemConfig(orders=(1, 2), svm_max_epochs=15, mmi_iterations=10),
    )


class TestAcousticPipeline:
    def test_baseline_beats_chance(self, acoustic_system):
        baseline = acoustic_system.baseline()
        labels = acoustic_system.labels_for("test@10.0")
        k = len(acoustic_system.bundle.registry)
        for scores in baseline.test_scores(10.0):
            acc = np.mean(np.argmax(scores, axis=1) == labels)
            assert acc > 1.5 / k

    def test_dba_runs_end_to_end(self, acoustic_system):
        baseline = acoustic_system.baseline()
        result = acoustic_system.dba(1, "M2", baseline)
        metrics = acoustic_system.frontend_metrics(result, 10.0)
        assert set(metrics) == {"AC_GMM", "AC_ANN"}
        for eer, _ in metrics.values():
            assert 0.0 <= eer <= 60.0

    def test_decoded_sausages_are_posterior_rich(self, acoustic_system):
        fe = acoustic_system.frontends[0]
        utt = acoustic_system.bundle.test[10.0][0]
        sausage = fe.decode(utt, 0)
        # At least some slots must carry real alternatives (not 1-best).
        assert any(slot.phones.size > 1 for slot in sausage.slots)

    def test_phi_independent_of_decode_chunking(self, acoustic_system):
        # One worker decodes a corpus as one batch; w workers split it
        # into min(n, 4w) chunks, single utterances at w = 8 here, run
        # serially (pmap starts no process below 32 items).  Quarantine
        # decodes one utterance per chunk through ``decode_batch``, and
        # a frontend without ``decode_batch`` falls back to ``decode``
        # per utterance.  Each sausage depends on its own utterance
        # only, so the φ matrix must not change a byte.
        class DecodeOnly:
            def __init__(self, inner):
                self.name = inner.name
                self.phone_set = inner.phone_set
                self.decode = inner.decode

        def phi(tag, workers=1, on_error="fail", wrap=None):
            frontend = acoustic_system.frontends[0]
            system = PhonotacticSystem(
                acoustic_system.bundle,
                [wrap(frontend) if wrap else frontend],
                replace(acoustic_system.system, workers=workers),
                on_error=on_error,
            )
            return system.raw_matrix(system.frontends[0], tag)

        for tag in ("train", "test@10.0"):
            one = phi(tag)
            cases = {
                "workers=2": phi(tag, workers=2),
                "workers=8": phi(tag, workers=8),
                "quarantine": phi(tag, on_error="quarantine"),
                "decode-only": phi(tag, wrap=DecodeOnly),
            }
            for case, other in cases.items():
                for field in ("indptr", "indices", "values"):
                    assert (
                        getattr(one, field).tobytes()
                        == getattr(other, field).tobytes()
                    ), (tag, case, field)
