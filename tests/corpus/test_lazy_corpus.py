"""Planned corpora: labels from the plan, utterances sampled on first read."""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.corpus.generator import Corpus, UtteranceGenerator
from repro.corpus.speaker import SessionSampler
from repro.corpus.splits import CorpusConfig, make_corpus_bundle
from repro.obs.metrics import default_registry
from repro.utils.parallel import pmap
from repro.utils.rng import child_rng

CONFIG = CorpusConfig(
    n_languages=3,
    n_families=2,
    train_per_language=3,
    dev_per_language=2,
    test_per_language=4,
    durations=(10.0, 3.0),
    seed=4321,
)


def _sampled() -> float:
    return default_registry().counter("corpus.utterances.sampled").value


def _eager_corpora(config: CorpusConfig, registry) -> dict[str, list]:
    """Every corpus of ``config`` sampled up front, utterance by utterance.

    The order of draws the corpus generator has always used: fresh
    session samplers, then ``for lang in registry: for j in range(n)``,
    each utterance on its own ``child_rng(seed, tag/lang/j)`` stream.
    """
    train_gen = UtteranceGenerator(
        SessionSampler(
            config.feature_dim,
            snr_mean_db=config.train_snr_db,
            speaker_scale=config.train_speaker_scale,
            seed=config.seed + 1,
            tag="train",
        ),
        frame_rate=config.frame_rate,
    )
    test_gen = UtteranceGenerator(
        SessionSampler(
            config.feature_dim,
            snr_mean_db=config.test_snr_db,
            speaker_scale=config.test_speaker_scale,
            snr_spread_db=7.0,
            seed=config.seed + 2,
            tag="test",
        ),
        frame_rate=config.frame_rate,
    )

    def corpus(gen, n, duration, tag):
        return [
            gen.sample_utterance(
                f"{tag}-{lang.name}-{j:04d}",
                lang,
                duration,
                child_rng(config.seed, f"{tag}/{lang.name}/{j}"),
            )
            for lang in registry
            for j in range(n)
        ]

    out = {
        "train": corpus(
            train_gen, config.train_per_language, config.train_duration, "train"
        ),
        "dev": corpus(
            train_gen, config.dev_per_language, config.train_duration, "dev"
        ),
    }
    for d in config.durations:
        out[f"test@{d}"] = corpus(
            test_gen, config.test_per_language, d, f"test{int(d)}"
        )
    return out


def _utterance_fields(u) -> tuple:
    """Every field of an utterance, arrays as raw bytes."""
    s = u.session
    return (
        u.utt_id,
        u.language,
        u.nominal_duration,
        u.frame_rate,
        u.phones.tobytes(),
        u.phone_frames.tobytes(),
        s.speaker.speaker_id,
        s.speaker.offset.tobytes(),
        s.speaker.rate,
        s.channel.channel_id,
        s.channel.tilt.tobytes(),
        s.channel.gain,
        s.snr_db,
    )


def _corpora(bundle) -> dict[str, Corpus]:
    out = {"train": bundle.train, "dev": bundle.dev}
    out.update({f"test@{d}": c for d, c in bundle.test.items()})
    return out


def _first_phones(corpus: Corpus) -> bytes:
    """Top-level (picklable) probe: sample in a pool worker."""
    return corpus[0].phones.tobytes()


class TestPlannedBundle:
    def test_building_samples_nothing(self):
        before = _sampled()
        bundle = make_corpus_bundle(CONFIG)
        assert _sampled() == before
        for corpus in _corpora(bundle).values():
            assert not corpus.is_sampled
            assert len(corpus) > 0

    def test_matches_eager_sampling_by_bytes(self):
        bundle = make_corpus_bundle(CONFIG)
        # Read in the reverse of the historical order: when a corpus is
        # sampled must not change what it holds.
        lazy = dict(reversed(list(_corpora(bundle).items())))
        eager = _eager_corpora(CONFIG, bundle.registry)
        for tag, corpus in lazy.items():
            got = [_utterance_fields(u) for u in corpus]
            want = [_utterance_fields(u) for u in eager[tag]]
            assert got == want, tag

    def test_labels_come_from_the_plan(self):
        bundle = make_corpus_bundle(CONFIG)
        names = bundle.language_names
        before = _sampled()
        planned = {
            tag: (c.labels, c.label_indices(names), len(c))
            for tag, c in _corpora(bundle).items()
        }
        assert _sampled() == before
        for tag, corpus in _corpora(bundle).items():
            labels, indices, n = planned[tag]
            assert labels == [u.language for u in corpus.utterances]
            np.testing.assert_array_equal(
                indices, [names.index(u.language) for u in corpus]
            )
            assert n == len(corpus.utterances)

    def test_sampled_once_and_counted(self):
        bundle = make_corpus_bundle(CONFIG)
        before = _sampled()
        first = bundle.dev.utterances
        assert bundle.dev.utterances is first
        assert bundle.dev.total_audio_seconds() > 0
        assert _sampled() - before == len(bundle.dev)


class TestThreadSafety:
    def test_concurrent_first_readers_sample_once(self):
        n_threads = 8  # more readers than cores
        calls = []
        barrier = threading.Barrier(n_threads)
        inner = make_corpus_bundle(CONFIG).train

        def sampler():
            calls.append(threading.get_ident())
            return list(inner.utterances)

        corpus = Corpus(
            plan=list(zip(inner.utt_ids, inner.languages)), sampler=sampler
        )
        seen: list = []

        def reader():
            barrier.wait(timeout=10)
            seen.append(corpus.utterances)

        threads = [threading.Thread(target=reader) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(seen) == n_threads
        assert all(utts is seen[0] for utts in seen)

    def test_sampler_must_follow_the_plan(self):
        good = make_corpus_bundle(CONFIG).dev
        corpus = Corpus(
            plan=[("x", good.languages[0])], sampler=lambda: good.utterances[:1]
        )
        with pytest.raises(RuntimeError, match="plan"):
            corpus.utterances

    def test_plan_needs_a_sampler(self):
        with pytest.raises(ValueError):
            Corpus(plan=[("x", "y")])


class TestPickling:
    @pytest.mark.parametrize("sample_first", [False, True])
    def test_round_trip(self, sample_first):
        corpus = make_corpus_bundle(CONFIG).test[3.0]
        if sample_first:
            corpus.utterances
        clone = pickle.loads(pickle.dumps(corpus))
        assert clone.is_sampled == sample_first
        assert clone.labels == corpus.labels
        assert [_utterance_fields(u) for u in clone] == [
            _utterance_fields(u) for u in corpus
        ]

    def test_pmap_workers_sample_the_same_bytes(self):
        bundle = make_corpus_bundle(CONFIG)
        items = [bundle.test[10.0]] * 32  # pmap's smallest parallel batch
        got = pmap(_first_phones, items, workers=2)
        assert set(got) == {_first_phones(bundle.test[10.0])}
