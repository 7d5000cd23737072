"""Tests for the acoustic recognizer and the frontend registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.generator import Corpus, UtteranceGenerator
from repro.corpus.language import make_language
from repro.corpus.speaker import SessionSampler
from repro.frontend.decoder import DecoderConfig
from repro.frontend.recognizer import AcousticPhoneRecognizer, PhoneRecognizer
from repro.frontend.registry import PAPER_FRONTENDS, FrontendSpec, build_frontends


@pytest.fixture(scope="module")
def trained_recognizer(tiny_bundle):
    lang = make_language(
        "amlang", tiny_bundle.universal, 123, inventory_size=16
    )
    gen = UtteranceGenerator(
        SessionSampler(tiny_bundle.config.feature_dim, seed=9),
        frame_rate=tiny_bundle.config.frame_rate,
    )
    corpus = Corpus(
        [gen.sample_utterance(f"t{i}", lang, 20.0, i) for i in range(6)]
    )
    rec = AcousticPhoneRecognizer(
        "REC", tiny_bundle.acoustics, lang, am_family="gmm", seed=5
    )
    rec.train(corpus)
    return rec, lang, gen


class TestAcousticPhoneRecognizer:
    def test_protocol_conformance(self, trained_recognizer):
        rec, _, _ = trained_recognizer
        assert isinstance(rec, PhoneRecognizer)

    def test_untrained_decode_raises(self, tiny_bundle):
        lang = make_language("l", tiny_bundle.universal, 0, inventory_size=10)
        rec = AcousticPhoneRecognizer("R", tiny_bundle.acoustics, lang)
        with pytest.raises(RuntimeError, match="not trained"):
            rec.decode(tiny_bundle.train[0])
        assert not rec.is_trained

    def test_decodes_own_language_reasonably(self, trained_recognizer):
        rec, lang, gen = trained_recognizer
        utt = gen.sample_utterance("eval", lang, 20.0, 777)
        sausage = rec.decode(utt, 0)
        assert len(sausage) > 0.3 * utt.n_phones
        # Decoded phone accuracy (up to alignment) should beat chance by a
        # wide margin: compare unigram distributions.
        decoded = sausage.best_phones()
        truth_local = rec.local_phones(utt)
        hist_d = np.bincount(decoded, minlength=len(rec.phone_set))
        hist_t = np.bincount(truth_local, minlength=len(rec.phone_set))
        cos = hist_d @ hist_t / (
            np.linalg.norm(hist_d) * np.linalg.norm(hist_t) + 1e-9
        )
        assert cos > 0.5

    def test_decodes_foreign_language(self, trained_recognizer, tiny_bundle):
        rec, _, _ = trained_recognizer
        sausage = rec.decode(tiny_bundle.train[0], 0)
        assert len(sausage) > 0  # cross-lingual decoding must not crash

    def test_train_rejects_wrong_language(self, trained_recognizer, tiny_bundle):
        rec, lang, _ = trained_recognizer
        fresh = AcousticPhoneRecognizer(
            "R2", tiny_bundle.acoustics, lang, am_family="gmm"
        )
        with pytest.raises(ValueError, match="trains on"):
            fresh.train(Corpus([tiny_bundle.train[0]]))

    def test_stage_params_name_the_posterior_kernel(self, tiny_bundle):
        # φ entries of the log-domain forward–backward must miss; the
        # softmax posteriors did not change and keep their keys.
        lang = make_language("l", tiny_bundle.universal, 0, inventory_size=10)

        def params(**cfg):
            return AcousticPhoneRecognizer(
                "R", tiny_bundle.acoustics, lang,
                decoder_config=DecoderConfig(**cfg),
            ).stage_params()

        assert params() == {"posterior_kernel": 2}
        assert params(dtype="float32") == {
            "decode_dtype": "float32", "posterior_kernel": 2,
        }
        assert params(posterior_mode="softmax") == {}
        assert DecoderConfig().stage_params() == {}

    def test_local_phones_mapping(self, trained_recognizer, tiny_bundle):
        rec, lang, gen = trained_recognizer
        utt = gen.sample_utterance("m", lang, 5.0, 3)
        local = rec.local_phones(utt)
        assert local.min() >= 0
        assert local.max() < len(rec.phone_set)
        np.testing.assert_array_equal(lang.inventory[local], utt.phones)

    def test_invalid_am_family(self, tiny_bundle):
        lang = make_language("l", tiny_bundle.universal, 0, inventory_size=10)
        with pytest.raises(ValueError):
            AcousticPhoneRecognizer(
                "R", tiny_bundle.acoustics, lang, am_family="rnn"
            )


class TestRegistry:
    def test_paper_specs(self):
        by_name = {s.name: s for s in PAPER_FRONTENDS}
        assert by_name["HU"].inventory_size == 59
        assert by_name["RU"].inventory_size == 50
        assert by_name["CZ"].inventory_size == 43
        assert by_name["EN_DNN"].inventory_size == 47
        assert by_name["MA"].inventory_size == 64
        assert by_name["EN_GMM"].inventory_size == 47
        assert by_name["EN_DNN"].am_family == "dnn"
        assert by_name["MA"].am_family == "gmm"
        assert {s.am_family for s in PAPER_FRONTENDS} == {"ann", "dnn", "gmm"}

    def test_build_confusion_frontends(self, tiny_bundle):
        frontends = build_frontends(tiny_bundle, mode="confusion")
        assert [fe.name for fe in frontends] == [
            s.name for s in PAPER_FRONTENDS
        ]
        for fe, spec in zip(frontends, PAPER_FRONTENDS):
            assert len(fe.phone_set) == spec.inventory_size

    def test_build_acoustic_frontend(self, tiny_bundle):
        specs = (FrontendSpec("T", "gmm", 12, tau=0.5, base_error=0.1),)
        frontends = build_frontends(
            tiny_bundle, mode="acoustic", specs=specs, train_utterances=4
        )
        assert frontends[0].is_trained
        sausage = frontends[0].decode(tiny_bundle.train[0], 0)
        assert len(sausage) > 0

    def test_invalid_mode(self, tiny_bundle):
        with pytest.raises(ValueError):
            build_frontends(tiny_bundle, mode="magic")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FrontendSpec("X", "cnn", 10, tau=0.5, base_error=0.1)
        with pytest.raises(ValueError):
            FrontendSpec("X", "gmm", 1, tau=0.5, base_error=0.1)
