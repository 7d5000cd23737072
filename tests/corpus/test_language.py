"""Tests for synthetic language models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.language import (
    LanguageRegistry,
    LanguageSpec,
    make_language,
    make_language_family,
)
from repro.corpus.phoneset import universal_phone_set
from repro.corpus.splits import CorpusConfig, make_corpus_bundle
from tests.budget import examples
from tests.oracles.language import sample_phones_reference


@pytest.fixture(scope="module")
def universal():
    return universal_phone_set()


class TestMakeLanguage:
    def test_valid_distributions(self, universal):
        lang = make_language("l0", universal, 0, inventory_size=20)
        assert lang.n_phones == 20
        np.testing.assert_allclose(lang.initial.sum(), 1.0)
        np.testing.assert_allclose(lang.transition.sum(axis=1), 1.0)

    def test_deterministic_by_seed(self, universal):
        a = make_language("l", universal, 5, inventory_size=15)
        b = make_language("l", universal, 5, inventory_size=15)
        np.testing.assert_array_equal(a.inventory, b.inventory)
        np.testing.assert_allclose(a.transition, b.transition)

    def test_prototype_interpolation(self, universal):
        rng = np.random.default_rng(0)
        proto = rng.gamma(1.0, size=(len(universal), len(universal)))
        proto /= proto.sum(axis=1, keepdims=True)
        blended = make_language(
            "l", universal, 1, inventory_size=20,
            prototype=proto, prototype_weight=0.9,
        )
        own = make_language("l", universal, 1, inventory_size=20)
        proto_sub = proto[np.ix_(blended.inventory, blended.inventory)]
        proto_sub /= proto_sub.sum(axis=1, keepdims=True)
        # Heavy prototype weight pulls transitions toward the prototype.
        d_blend = np.abs(blended.transition - proto_sub).mean()
        d_own = np.abs(own.transition - proto_sub).mean()
        assert d_blend < d_own

    def test_prototype_shape_checked(self, universal):
        with pytest.raises(ValueError, match="universal"):
            make_language(
                "l", universal, 0, prototype=np.ones((3, 3)) / 3,
                prototype_weight=0.5,
            )


class TestLanguageSpec:
    def test_validation(self, universal):
        with pytest.raises(ValueError):
            LanguageSpec(
                "bad",
                inventory=np.array([0, 1]),
                initial=np.array([0.5, 0.6]),  # not a distribution
                transition=np.eye(2),
            )

    def test_sample_phones_in_inventory(self, universal):
        lang = make_language("l", universal, 3, inventory_size=12)
        phones = lang.sample_phones(500, 0)
        assert set(phones.tolist()) <= set(lang.inventory.tolist())

    def test_sample_phones_empty(self, universal):
        lang = make_language("l", universal, 3, inventory_size=12)
        assert lang.sample_phones(0, 0).size == 0

    def test_sample_follows_transitions(self, universal):
        # A 2-phone deterministic cycle must alternate.
        lang = LanguageSpec(
            "cycle",
            inventory=np.array([0, 1]),
            initial=np.array([1.0, 0.0]),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        phones = lang.sample_phones(10, 0)
        np.testing.assert_array_equal(phones % 2, np.arange(10) % 2)

    def test_stationary_distribution(self, universal):
        lang = make_language("l", universal, 9, inventory_size=10)
        pi = lang.stationary_distribution()
        np.testing.assert_allclose(pi.sum(), 1.0)
        np.testing.assert_allclose(pi @ lang.transition, pi, atol=1e-8)


class TestSamplePhonesOracle:
    """The per-row sampler against the per-step reference, bytewise."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 120, 600])
    def test_matches_reference(self, universal, seed, n):
        lang = make_language("l", universal, seed, inventory_size=36)
        fast = lang.sample_phones(n, np.random.default_rng(seed))
        ref = sample_phones_reference(lang, n, np.random.default_rng(seed))
        assert fast.dtype == ref.dtype
        assert fast.tobytes() == ref.tobytes()

    def test_leaves_no_attribute_on_the_spec(self, universal):
        lang = make_language("l", universal, 4, inventory_size=20)
        before = dict(vars(lang))
        lang.sample_phones(300, 0)
        after = vars(lang)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())

    @given(
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.sampled_from([0.02, 0.25, 1.0]),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_random_chains_match_reference(
        self, universal, n, seed, inventory_size, concentration
    ):
        lang = make_language(
            "l",
            universal,
            seed,
            inventory_size=inventory_size,
            concentration=concentration,
        )
        fast = lang.sample_phones(n, np.random.default_rng(seed))
        ref = sample_phones_reference(lang, n, np.random.default_rng(seed))
        assert fast.tobytes() == ref.tobytes()

    def test_same_generator_state_afterwards(self, universal):
        # Both consume exactly ``n`` uniforms, so later draws agree too.
        lang = make_language("l", universal, 4, inventory_size=20)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        lang.sample_phones(50, a)
        sample_phones_reference(lang, 50, b)
        assert a.random() == b.random()

    def test_sparse_chain_matches_reference(self, universal):
        # Very peaked rows (small concentration) and a tiny inventory:
        # long runs through few states, many zero-probability arcs.
        lang = make_language(
            "l", universal, 2, inventory_size=3, concentration=0.02
        )
        for seed in range(20):
            fast = lang.sample_phones(40, seed)
            ref = sample_phones_reference(lang, 40, seed)
            assert fast.tobytes() == ref.tobytes()

    def test_row_short_of_one_clips_to_last_phone(self):
        # Rows that sum to just under 1 (within the validation
        # tolerance) let a uniform land past the last cumulative value.
        class Fixed(np.random.Generator):
            def random(self, size=None):
                return np.array([0.1, 0.2, 0.9999999])

        short = np.array([0.5, 0.25, 0.25 - 5e-7])
        lang = LanguageSpec(
            "short",
            inventory=np.array([10, 11, 12]),
            initial=short,
            transition=np.tile(short, (3, 1)),
        )
        rng = np.random.PCG64(0)
        fast = lang.sample_phones(3, Fixed(rng))
        ref = sample_phones_reference(lang, 3, Fixed(rng))
        assert fast.tolist() == ref.tolist() == [10, 10, 12]

    def test_corpus_bytewise_identical(self, monkeypatch):
        config = CorpusConfig(
            n_languages=3,
            train_per_language=2,
            dev_per_language=1,
            test_per_language=2,
            durations=(3.0, 1.0),
            train_duration=5.0,
            seed=7,
        )
        fast = make_corpus_bundle(config)
        monkeypatch.setattr(
            LanguageSpec, "sample_phones", sample_phones_reference
        )
        ref = make_corpus_bundle(config)
        splits = [(fast.train, ref.train), (fast.dev, ref.dev)]
        splits += [(fast.test[d], ref.test[d]) for d in config.durations]
        for got, want in splits:
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.utt_id == b.utt_id and a.language == b.language
                assert a.phones.tobytes() == b.phones.tobytes()
                assert a.phone_frames.tobytes() == b.phone_frames.tobytes()


class TestLanguageFamily:
    def test_count_and_names(self):
        langs = make_language_family(7, 11)
        assert len(langs) == 7
        assert len({lang.name for lang in langs}) == 7

    def test_same_family_more_similar(self):
        langs = make_language_family(
            8, 3, n_families=2, family_weight=0.7, inventory_size=30
        )

        def chain_distance(a, b):
            shared = np.intersect1d(a.inventory, b.inventory)
            ia = np.searchsorted(a.inventory, shared)
            ib = np.searchsorted(b.inventory, shared)
            ta = a.transition[np.ix_(ia, ia)]
            tb = b.transition[np.ix_(ib, ib)]
            return np.abs(ta - tb).mean()

        # Round-robin assignment: 0, 2, 4, 6 share family 0; 1, 3, ... family 1.
        same = chain_distance(langs[0], langs[2])
        cross = chain_distance(langs[0], langs[1])
        assert same < cross

    def test_needs_two_languages(self):
        with pytest.raises(ValueError):
            make_language_family(1, 0)


class TestLanguageRegistry:
    def test_lookup(self):
        langs = make_language_family(4, 2)
        reg = LanguageRegistry(langs)
        assert len(reg) == 4
        assert reg.index_of(langs[2].name) == 2
        assert reg[1] is langs[1]
        assert reg.names == [lang.name for lang in langs]

    def test_unknown_name(self):
        reg = LanguageRegistry(make_language_family(3, 2))
        with pytest.raises(KeyError):
            reg.index_of("nope")

    def test_duplicate_names_rejected(self):
        langs = make_language_family(3, 2)
        with pytest.raises(ValueError):
            LanguageRegistry([langs[0], langs[0], langs[1]])
