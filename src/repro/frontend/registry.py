"""The paper's six diversified frontends.

§4.1 of the paper lists the parallel phone recognizers:

====== ========== =========== ==============================
name   AM family  phone count provenance (paper)
====== ========== =========== ==============================
HU     ANN-HMM    59          BUT TRAPs, Hungarian
RU     ANN-HMM    50          BUT TRAPs, Russian
CZ     ANN-HMM    43          BUT TRAPs, Czech
EN_DNN DNN-HMM    47          Tsinghua, Switchboard English
MA     GMM-HMM    64          Tsinghua, Mandarin CTS
EN_GMM GMM-HMM    47          Tsinghua, Switchboard English
====== ========== =========== ==============================

:func:`build_frontends` instantiates them in either decoding mode.  The
confusion-channel error parameters are calibrated so the *baseline* EER
ordering of Table 4 is respected (EN_DNN best … CZ worst); the acoustic
mode trains real (small) AMs on dedicated recognizer-training languages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.generator import UtteranceGenerator
from repro.corpus.language import make_language
from repro.corpus.speaker import SessionSampler
from repro.corpus.splits import CorpusBundle
from repro.frontend.confusion import ConfusionChannelRecognizer, ConfusionModel
from repro.frontend.recognizer import AcousticPhoneRecognizer
from repro.utils.rng import child_rng
from repro.utils.validation import check_in

__all__ = [
    "FrontendSpec",
    "PAPER_FRONTENDS",
    "build_frontends",
    "decode_utterances",
]


@dataclass(frozen=True)
class FrontendSpec:
    """Identity and quality parameters of one frontend.

    ``features`` selects the acoustic-mode frame post-processing — the
    paper's *third* diversification axis (§2.1: same data, same phone set,
    "different acoustic features, such as MFCC and PLP").  The symbolic
    (confusion) mode ignores it.
    """

    name: str
    am_family: str           # "ann" | "dnn" | "gmm"
    inventory_size: int      # paper phone count
    tau: float               # confusion-channel sharpness (lower = better)
    base_error: float        # confusion-channel clean error floor
    features: str = "none"   # acoustic mode: none|cmvn|deltas|cmvn+deltas

    def __post_init__(self) -> None:
        check_in("am_family", self.am_family, ["ann", "dnn", "gmm"])
        check_in(
            "features",
            self.features,
            ["none", "cmvn", "deltas", "cmvn+deltas"],
        )
        if self.inventory_size < 2:
            raise ValueError("inventory_size must be >= 2")


#: The paper's frontend battery, ordered as in Table 4.  tau/base_error are
#: calibrated to reproduce the baseline EER ordering (EN_DNN < RU < EN_GMM
#: < HU ≈ MA < CZ) at bench scale.
PAPER_FRONTENDS: tuple[FrontendSpec, ...] = (
    FrontendSpec("HU", "ann", 59, tau=0.48, base_error=0.115),
    FrontendSpec("RU", "ann", 50, tau=0.50, base_error=0.105),
    FrontendSpec("CZ", "ann", 43, tau=0.60, base_error=0.140),
    FrontendSpec("EN_DNN", "dnn", 47, tau=0.48, base_error=0.095),
    FrontendSpec("MA", "gmm", 64, tau=0.46, base_error=0.120),
    FrontendSpec("EN_GMM", "gmm", 47, tau=0.52, base_error=0.110),
)


def decode_utterances(frontend, seed: int, utterances):
    """Decode ``utterances`` under their per-utterance RNG streams.

    Utterance ``u`` decodes with ``child_rng(seed,
    "decode/<frontend>/<utt_id>")``, so each sausage depends on its own
    utterance only: campaigns and the serving engine chunk a corpus as
    they like and get the same bytes.  A frontend with a batched decoder
    gets one ``decode_batch`` call (bitwise equal to looping ``decode``);
    any other falls back to ``decode`` per utterance.  Top-level, so a
    :func:`functools.partial` of it pickles for
    :func:`~repro.utils.parallel.pmap`.
    """
    rngs = [
        child_rng(seed, f"decode/{frontend.name}/{u.utt_id}")
        for u in utterances
    ]
    if hasattr(frontend, "decode_batch"):
        return frontend.decode_batch(utterances, rngs)
    return [frontend.decode(u, rng) for u, rng in zip(utterances, rngs)]


def build_frontends(
    bundle: CorpusBundle,
    *,
    mode: str = "confusion",
    specs: tuple[FrontendSpec, ...] = PAPER_FRONTENDS,
    seed: int | None = None,
    train_utterances: int = 24,
    states_per_phone: int = 2,
    top_k: int = 5,
    decode_dtype: str = "float64",
    decode_beam: float | None = None,
):
    """Instantiate (and in acoustic mode, train) the frontend battery.

    Parameters
    ----------
    bundle:
        Corpus bundle providing the shared acoustic space.
    mode:
        ``"confusion"`` builds symbolic recognizers (fast, sweep scale);
        ``"acoustic"`` generates a training corpus per recognizer in its
        own training language and trains real GMM/MLP-HMM models.
    seed:
        Defaults to the bundle's corpus seed + 77 (recognizers must not
        share streams with the corpus).
    train_utterances:
        Acoustic mode: training utterances per recognizer.
    decode_dtype / decode_beam:
        Acoustic mode: Viterbi DP width and optional beam half-width
        (see :class:`~repro.frontend.decoder.DecoderConfig`).  Anything
        other than exact float64 decoding enters φ stage keys.
    """
    check_in("mode", mode, ["confusion", "acoustic"])
    seed = (bundle.config.seed + 77) if seed is None else seed
    recognizers = []
    for k, spec in enumerate(specs):
        if mode == "confusion":
            model = ConfusionModel(
                tau=spec.tau, base_error=spec.base_error, top_k=top_k
            )
            recognizers.append(
                ConfusionChannelRecognizer(
                    spec.name,
                    bundle.acoustics,
                    spec.inventory_size,
                    model,
                    seed=seed + k,
                )
            )
            continue
        # Acoustic mode: a dedicated training language per recognizer.
        training_language = make_language(
            f"amtrain_{spec.name}",
            bundle.universal,
            child_rng(seed, f"amlang/{spec.name}"),
            inventory_size=spec.inventory_size,
            concentration=0.4,
        )
        sessions = SessionSampler(
            bundle.config.feature_dim,
            snr_mean_db=bundle.config.train_snr_db,
            speaker_scale=bundle.config.train_speaker_scale,
            seed=seed + 1000 + k,
            tag=f"am/{spec.name}",
        )
        generator = UtteranceGenerator(
            sessions, frame_rate=bundle.config.frame_rate
        )
        train_corpus_utts = [
            generator.sample_utterance(
                f"am-{spec.name}-{j:03d}",
                training_language,
                bundle.config.train_duration,
                child_rng(seed, f"amutt/{spec.name}/{j}"),
            )
            for j in range(train_utterances)
        ]
        from repro.corpus.generator import Corpus

        from repro.frontend.decoder import DecoderConfig

        recognizer = AcousticPhoneRecognizer(
            spec.name,
            bundle.acoustics,
            training_language,
            am_family=spec.am_family,
            states_per_phone=states_per_phone,
            decoder_config=DecoderConfig(
                top_k=top_k, dtype=decode_dtype, beam=decode_beam
            ),
            features=spec.features,
            seed=seed + k,
        )
        recognizer.train(Corpus(train_corpus_utts))
        recognizers.append(recognizer)
    return recognizers
