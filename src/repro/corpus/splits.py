"""LRE-shaped corpus bundles: train / dev / test-by-duration.

NIST LRE 2009 evaluates 23 languages with 30 s / 10 s / 3 s nominal-
duration test segments; training draws on conversational corpora
(CallHome, CallFriend, OGI, OHSU, VOA) and a development set calibrates the
backend.  :func:`make_corpus_bundle` reproduces that *shape* at
configurable scale: one balanced training corpus (train-condition
sessions), one development corpus, and one test corpus per nominal
duration (test-condition sessions, sampled wider than training — the
mismatch DBA exploits).

Only the world is built eagerly: phone set, language registry and
acoustic space, which frontend construction and the store open need.
The corpora hold their sampling plans and sample utterances on first
read (:class:`~repro.corpus.generator.Corpus`), and the session
samplers draw their speaker/channel pools on first use, so a run whose
stages all come from the artifact store samples no utterance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import Corpus, UtteranceGenerator
from repro.corpus.language import (
    LanguageRegistry,
    LanguageSpec,
    make_language_family,
)
from repro.corpus.phoneset import PhoneSet, universal_phone_set
from repro.corpus.speaker import SessionSampler

__all__ = ["CorpusConfig", "CorpusBundle", "make_corpus_bundle"]


@dataclass(frozen=True)
class CorpusConfig:
    """Scale and difficulty knobs for the synthetic LRE corpus.

    Defaults are the "bench" scale used by the experiment harness; the
    paper-scale values are given in the comments for reference.
    """

    n_languages: int = 10          # paper: 23
    n_families: int = 4
    family_weight: float = 0.55    # within-family phonotactic cohesion
    inventory_size: int = 36       # phones per language
    train_per_language: int = 32   # paper: ~180k conversations total
    dev_per_language: int = 16     # paper: 22 701 conversations
    test_per_language: int = 64    # paper: 41 793 segments over all durations
    durations: tuple[float, ...] = (30.0, 10.0, 3.0)
    train_duration: float = 30.0
    frame_rate: float = 20.0       # paper systems: 100 fps
    feature_dim: int = 13
    seed: int = 2009

    # Session-condition knobs.  Test conditions are wider/noisier than
    # training, per the paper's motivation.
    train_snr_db: float = 20.0
    test_snr_db: float = 12.0
    train_speaker_scale: float = 0.22
    test_speaker_scale: float = 0.40

    def __post_init__(self) -> None:
        if self.n_languages < 2:
            raise ValueError("n_languages must be >= 2")
        if min(self.train_per_language, self.dev_per_language, self.test_per_language) < 1:
            raise ValueError("per-language corpus sizes must be >= 1")
        if not self.durations:
            raise ValueError("at least one test duration is required")
        if any(d <= 0 for d in self.durations):
            raise ValueError("durations must be positive")


@dataclass
class CorpusBundle:
    """Everything the experiments need about the data.

    Attributes
    ----------
    config:
        The generating configuration.
    universal:
        Universal phone inventory.
    registry:
        The language set (defines the label order everywhere downstream).
    acoustics:
        Shared synthetic acoustic space.
    train / dev:
        Balanced corpora at ``config.train_duration``.
    test:
        One balanced test corpus per nominal duration.

    The corpora are planned, not sampled: their labels and lengths are
    known at once, their utterances are sampled when first read.
    """

    config: CorpusConfig
    universal: PhoneSet
    registry: LanguageRegistry
    acoustics: AcousticSpace
    train: Corpus
    dev: Corpus
    test: dict[float, Corpus] = field(default_factory=dict)

    @property
    def language_names(self) -> list[str]:
        """Label order used by every classifier in the pipeline."""
        return self.registry.names


def make_corpus_bundle(
    config: CorpusConfig | None = None,
    *,
    languages: list[LanguageSpec] | None = None,
) -> CorpusBundle:
    """Plan a full train/dev/test bundle from ``config`` (deterministic).

    Utterances are sampled lazily, each from its own seeded stream, so
    the content does not depend on when (or whether) a corpus is read.
    ``languages`` is the language family ``config`` generates, restored
    from an earlier build (the ``world`` store stage); when omitted it
    is generated.
    """
    config = config or CorpusConfig()
    universal = universal_phone_set()
    if languages is None:
        languages = make_language_family(
            config.n_languages,
            config.seed,
            universal=universal,
            n_families=config.n_families,
            family_weight=config.family_weight,
            inventory_size=config.inventory_size,
        )
    registry = LanguageRegistry(languages)
    acoustics = AcousticSpace(
        universal, feature_dim=config.feature_dim, seed=config.seed
    )
    train_sessions = SessionSampler(
        config.feature_dim,
        snr_mean_db=config.train_snr_db,
        speaker_scale=config.train_speaker_scale,
        seed=config.seed + 1,
        tag="train",
    )
    test_sessions = SessionSampler(
        config.feature_dim,
        snr_mean_db=config.test_snr_db,
        speaker_scale=config.test_speaker_scale,
        snr_spread_db=7.0,
        seed=config.seed + 2,
        tag="test",
    )
    train_gen = UtteranceGenerator(train_sessions, frame_rate=config.frame_rate)
    test_gen = UtteranceGenerator(test_sessions, frame_rate=config.frame_rate)

    train = train_gen.sample_corpus(
        registry,
        config.train_per_language,
        config.train_duration,
        config.seed,
        tag="train",
    )
    dev = train_gen.sample_corpus(
        registry,
        config.dev_per_language,
        config.train_duration,
        config.seed,
        tag="dev",
    )
    test = {
        duration: test_gen.sample_corpus(
            registry,
            config.test_per_language,
            duration,
            config.seed,
            tag=f"test{int(duration)}",
        )
        for duration in config.durations
    }
    return CorpusBundle(
        config=config,
        universal=universal,
        registry=registry,
        acoustics=acoustics,
        train=train,
        dev=dev,
        test=test,
    )
