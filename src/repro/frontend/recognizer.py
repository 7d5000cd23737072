"""Phone recognizer facade and the trained acoustic recognizer.

A *phone recognizer* in this package is anything exposing ``name``,
``phone_set`` and ``decode(utterance, rng) -> Sausage``.  Two families
implement the protocol:

- :class:`~repro.frontend.confusion.ConfusionChannelRecognizer` — symbolic,
  used for sweep-scale experiments;
- :class:`AcousticPhoneRecognizer` (here) — a genuine acoustic pipeline:
  the utterance is rendered to feature frames, scored by a trained
  GMM/MLP-HMM emission model, and Viterbi-decoded by the phone-loop
  decoder.  It is trained on a dedicated *recognizer training language*
  (the synthetic stand-in for "100 h of Switchboard English" etc.), so
  decoding the LRE target languages is genuinely cross-lingual, as in the
  paper.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.features import FeaturePipeline
from repro.corpus.generator import Corpus, Utterance
from repro.corpus.language import LanguageSpec
from repro.frontend.am.hmm import (
    GMMEmission,
    NeuralEmission,
    PhoneHMMSet,
    uniform_state_alignment,
)
from repro.frontend.am.mlp import MLPConfig
from repro.frontend.decoder import (
    DecoderConfig,
    ViterbiDecoder,
    estimate_phone_bigram,
)
from repro.frontend.lattice import Sausage
from repro.utils.rng import child_rng, ensure_rng
from repro.utils.validation import check_in

__all__ = ["PhoneRecognizer", "AcousticPhoneRecognizer"]


@runtime_checkable
class PhoneRecognizer(Protocol):
    """Protocol every frontend implements."""

    name: str

    @property
    def phone_set(self):  # pragma: no cover - protocol signature only
        ...

    def decode(
        self, utterance: Utterance, rng: np.random.Generator | int | None = None
    ) -> Sausage:  # pragma: no cover - protocol signature only
        """Decode one utterance into a posterior sausage."""
        ...


class AcousticPhoneRecognizer:
    """A trained GMM/ANN/DNN-HMM phone recognizer.

    Parameters
    ----------
    name:
        Frontend name.
    acoustics:
        Shared synthetic acoustic space (feature renderer).
    training_language:
        The language whose data trains the acoustic model; its inventory
        *is* the recognizer's phone set (paper: BUT recognizers trained on
        Hungarian/Czech/Russian, Tsinghua on English/Mandarin).
    am_family:
        ``"gmm"``, ``"ann"`` (1 hidden layer) or ``"dnn"`` (3 hidden
        layers).
    states_per_phone:
        Left-to-right HMM states per phone.
    """

    def __init__(
        self,
        name: str,
        acoustics: AcousticSpace,
        training_language: LanguageSpec,
        *,
        am_family: str = "gmm",
        states_per_phone: int = 2,
        decoder_config: DecoderConfig | None = None,
        gmm_components: int = 4,
        features: str = "none",
        lm_smoothing: str = "additive",
        realign_iterations: int = 0,
        seed: int = 0,
    ) -> None:
        check_in("am_family", am_family, ["gmm", "ann", "dnn"])
        check_in("lm_smoothing", lm_smoothing, ["additive", "witten-bell"])
        self.name = name
        self.acoustics = acoustics
        self.training_language = training_language
        self.am_family = am_family
        self.states_per_phone = int(states_per_phone)
        self.decoder_config = decoder_config or DecoderConfig()
        self.gmm_components = int(gmm_components)
        self.features = FeaturePipeline(features)
        self.lm_smoothing = lm_smoothing
        if realign_iterations < 0:
            raise ValueError("realign_iterations must be non-negative")
        self.realign_iterations = int(realign_iterations)
        self.seed = seed
        inv = training_language.inventory
        self.phone_set = acoustics.phone_set.subset(name, inv)
        # universal phone id -> local phone index
        self._local_index = {int(u): i for i, u in enumerate(inv)}
        self._decoder: ViterbiDecoder | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def local_phones(self, utterance: Utterance) -> np.ndarray:
        """Map an utterance's universal phone ids to recognizer-local ids."""
        try:
            return np.array(
                [self._local_index[p] for p in utterance.phones.tolist()],
                dtype=np.int64,
            )
        except KeyError as exc:
            raise ValueError(
                f"utterance phone {exc} outside recognizer "
                f"{self.name!r} training inventory"
            ) from None

    def train(self, corpus: Corpus, *, seed: int | None = None) -> "AcousticPhoneRecognizer":
        """Train emission models on a corpus of the training language.

        The synthetic corpus carries its true phone segmentation, so the
        flat-start alignment is exact (the paper's systems obtain the same
        thing from ML-trained GMM-HMM forced alignment).
        """
        seed = self.seed if seed is None else seed
        n_phones = len(self.phone_set)
        n_states = n_phones * self.states_per_phone
        utterances = list(corpus)
        for utt in utterances:
            if utt.language != self.training_language.name:
                raise ValueError(
                    f"recognizer {self.name!r} trains on "
                    f"{self.training_language.name!r}, got {utt.language!r}"
                )
        rendered = self.acoustics.emit_batch(
            utterances,
            [
                child_rng(seed, f"emit/{self.name}/{i}")
                for i in range(len(utterances))
            ],
        )
        all_frames = [self.features(frames) for frames in rendered]
        sequences = [self.local_phones(utt) for utt in utterances]
        x = np.vstack(all_frames)
        # Segments align independently, so one call labels the whole corpus.
        y = uniform_state_alignment(
            np.concatenate(sequences),
            np.concatenate([utt.phone_frames for utt in utterances]),
            self.states_per_phone,
        )
        if self.am_family == "gmm":
            emission = GMMEmission.train(
                x,
                y,
                n_states,
                n_components=self.gmm_components,
                seed=seed,
            )
            if self.realign_iterations > 0:
                from repro.frontend.am.train import realign_emissions

                emission, _ = realign_emissions(
                    all_frames,
                    sequences,
                    emission,
                    n_phones,
                    self.states_per_phone,
                    n_iterations=self.realign_iterations,
                    gmm_components=self.gmm_components,
                    seed=seed,
                )
        else:
            hidden = (96,) if self.am_family == "ann" else (96, 96, 96)
            config = MLPConfig(hidden_sizes=hidden, n_epochs=6)
            emission = NeuralEmission.train(
                x, y, n_states, config=config, seed=seed
            )
        if self.lm_smoothing == "witten-bell":
            from repro.ngram.lm import WittenBellLM

            bigram = (
                WittenBellLM(n_phones, order=2)
                .fit(sequences)
                .log_bigram_matrix()
            )
        else:
            bigram = estimate_phone_bigram(sequences, n_phones)
        hmms = PhoneHMMSet(
            n_phones,
            self.states_per_phone,
            emission,
            phone_log_bigram=bigram,
        )
        self._decoder = ViterbiDecoder(hmms, self.phone_set, self.decoder_config)
        return self

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has been called."""
        return self._decoder is not None

    def decode(
        self, utterance: Utterance, rng: np.random.Generator | int | None = None
    ) -> Sausage:
        """Render the utterance acoustically and Viterbi-decode it."""
        if self._decoder is None:
            raise RuntimeError(f"recognizer {self.name!r} is not trained")
        rng = ensure_rng(
            rng
            if rng is not None
            else child_rng(self.seed, f"decode/{utterance.utt_id}")
        )
        frames = self.features(self.acoustics.emit(utterance, rng))
        return self._decoder.decode(frames)

    def stage_params(self) -> dict[str, object]:
        """Decode parameters that change numerics (→ memoisation keys).

        ``posterior_kernel`` names the forward–backward revision, so φ
        entries stored by an earlier one (bits that differ within 1e-12)
        read as misses instead of mixing with new ones.
        """
        params = self.decoder_config.stage_params()
        if self.decoder_config.posterior_mode == "fb":
            params["posterior_kernel"] = 2
        return params

    def decode_batch(
        self,
        utterances: list[Utterance],
        rngs: list[np.random.Generator] | None = None,
    ) -> list[Sausage]:
        """Decode many utterances through one batched lattice DP.

        One :meth:`AcousticSpace.emit_batch` call renders every
        utterance from exactly the RNG stream :meth:`decode` would use
        (``child_rng(seed, "decode/<utt_id>")`` when ``rngs`` is not
        given), and a row's DP arithmetic does not depend on the batch,
        so the sausages are bitwise identical to looping :meth:`decode`;
        in float64 they lie within 1e-12 of the log-domain reference DP.
        """
        if self._decoder is None:
            raise RuntimeError(f"recognizer {self.name!r} is not trained")
        if rngs is None:
            rngs = [
                child_rng(self.seed, f"decode/{utt.utt_id}")
                for utt in utterances
            ]
        frames = [
            self.features(f) for f in self.acoustics.emit_batch(utterances, rngs)
        ]
        return self._decoder.decode_batch(frames)
