"""φ fast paths against the seed oracles in ``tests/oracles/phi.py``.

Every comparison is on bytes: the fast paths are contractually
bitwise-identical in float64.  Hypothesis draws the general cases; the
edges that broke fast paths elsewhere are pinned explicitly — the empty
sausage, T = 1, T < order, single-alternative slots, TFLLR over
matrices with all-zero rows, and ties in the top-k slot prune.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.acoustics import AcousticSpace
from repro.corpus.generator import UtteranceGenerator
from repro.corpus.language import make_language
from repro.corpus.phoneset import PhoneSet, universal_phone_set
from repro.corpus.speaker import SessionSampler
from repro.frontend.confusion import ConfusionChannelRecognizer, ConfusionModel
from repro.frontend.lattice import Sausage, SausageSlot
from repro.ngram.counts import expected_counts_sausage
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from repro.utils.sparse import SparseMatrix, SparseVector
from tests.oracles.phi import (
    decode_reference,
    dense_scale,
    expected_counts_sausage_reference,
    extract_reference,
    prune_slot_reference,
    tfllr_fit_reference,
    tfllr_transform_reference,
)

N_PHONES = 6
PS = PhoneSet("d", tuple("abcdef"))
ORDERS = (1, 2, 3)


@st.composite
def slots(draw, max_k: int = 3, ordered: bool = False) -> SausageSlot:
    k = draw(st.integers(1, max_k))
    phones = draw(
        st.lists(
            st.integers(0, N_PHONES - 1), min_size=k, max_size=k, unique=True
        )
    )
    if ordered:  # the array form (decoder output) is phone-ordered
        phones.sort()
    weights = np.array(
        draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    )
    return SausageSlot(np.array(phones), weights / weights.sum())


@st.composite
def sausages(draw, max_t: int = 7, ordered: bool = False) -> Sausage:
    max_k = draw(st.integers(1, 3))
    return Sausage(
        draw(st.lists(slots(max_k, ordered), min_size=0, max_size=max_t)), PS
    )


def single(*phone_ids: int) -> Sausage:
    """A sausage of single-alternative slots."""
    return Sausage(
        [SausageSlot(np.array([p]), np.array([1.0])) for p in phone_ids], PS
    )


#: Edge cases, named for what makes each one an edge.
EDGES = {
    "empty": Sausage([], PS),
    "t1": single(2),
    "t2_below_order3": Sausage(
        [
            SausageSlot(np.array([0, 4]), np.array([0.25, 0.75])),
            SausageSlot(np.array([5, 1, 3]), np.array([0.5, 0.3, 0.2])),
        ],
        PS,
    ),
    "single_alternatives": single(0, 0, 3, 0, 5, 3),
}


def _dict_bytes(counts: dict[int, float]) -> tuple[bytes, bytes]:
    keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    return keys.tobytes(), values.tobytes()


def _assert_counts_equal(sausage: Sausage, order: int) -> None:
    got = expected_counts_sausage(sausage, order)
    want = expected_counts_sausage_reference(sausage, order)
    assert _dict_bytes(got) == _dict_bytes(want)


def _assert_vectors_equal(got: SparseVector, want: SparseVector) -> None:
    assert got.dim == want.dim
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def _assert_matrices_equal(got: SparseMatrix, want: SparseMatrix) -> None:
    assert got.dim == want.dim
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestExpectedCounts:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edges(self, edge, order):
        _assert_counts_equal(EDGES[edge], order)

    def test_edges_are_what_they_claim(self):
        assert expected_counts_sausage(EDGES["empty"], 1) == {}
        assert expected_counts_sausage(EDGES["t2_below_order3"], 3) == {}
        assert expected_counts_sausage(EDGES["t1"], 1) == {2: 1.0}

    @given(sausages(), st.sampled_from(ORDERS))
    @settings(max_examples=60, deadline=None)
    def test_random_sausages(self, sausage, order):
        _assert_counts_equal(sausage, order)

    @given(sausages(ordered=True))
    @settings(max_examples=30, deadline=None)
    def test_slot_array_form_counts_the_same(self, sausage):
        """A sausage built from padded arrays (the decoder's form) too."""
        phones, probs = sausage.slot_arrays()
        packed = Sausage.from_slot_arrays(phones, probs, PS)
        for order in ORDERS:
            assert _dict_bytes(expected_counts_sausage(packed, order)) == (
                _dict_bytes(expected_counts_sausage_reference(sausage, order))
            )


class TestSupervector:
    extractor = SupervectorExtractor(N_PHONES, orders=ORDERS)

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edges(self, edge):
        sausage = EDGES[edge]
        _assert_vectors_equal(
            self.extractor.extract(sausage),
            extract_reference(self.extractor, sausage),
        )

    @given(sausages())
    @settings(max_examples=60, deadline=None)
    def test_random_sausages(self, sausage):
        _assert_vectors_equal(
            self.extractor.extract(sausage),
            extract_reference(self.extractor, sausage),
        )


@st.composite
def sparse_matrices(draw, dim: int = 12) -> SparseMatrix:
    """Rows of unique columns; empty rows and stored zeros included."""
    n_rows = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_rows):
        cols = sorted(
            draw(st.lists(st.integers(0, dim - 1), max_size=5, unique=True))
        )
        values = draw(
            st.lists(
                st.sampled_from([0.0, 0.125, 0.5, 1.0]) | st.floats(0.0, 1.0),
                min_size=len(cols),
                max_size=len(cols),
            )
        )
        rows.append(
            SparseVector(
                dim,
                np.array(cols, dtype=np.int64),
                np.array(values, dtype=np.float64),
            )
        )
    return SparseMatrix.from_rows(rows, dim=dim)


def _assert_tfllr_equal(train: SparseMatrix, min_prob: float) -> None:
    fast = TFLLRScaler(min_prob=min_prob).fit(train)
    oracle = tfllr_fit_reference(TFLLRScaler(min_prob=min_prob), train)
    assert dense_scale(fast).tobytes() == dense_scale(oracle).tobytes()
    _assert_matrices_equal(
        fast.transform(train), tfllr_transform_reference(oracle, train)
    )


class TestTfllr:
    @pytest.mark.parametrize("min_prob", [1e-5, 0.3])
    def test_supervectors_with_all_zero_rows(self, min_prob):
        """Empty sausages extract to rows with no entries at all."""
        extractor = SupervectorExtractor(N_PHONES, orders=ORDERS)
        train = extractor.extract_matrix(
            [EDGES["empty"], single(1, 2, 3), EDGES["empty"], single(4)]
        )
        assert np.diff(train.indptr).tolist()[0] == 0
        _assert_tfllr_equal(train, min_prob)

    def test_every_row_empty(self):
        train = SparseMatrix.from_rows([SparseVector(9, [], [])] * 3, dim=9)
        _assert_tfllr_equal(train, 1e-5)

    @given(sparse_matrices(), st.sampled_from([1e-5, 0.05, 0.5]))
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, train, min_prob):
        _assert_tfllr_equal(train, min_prob)


@pytest.fixture(scope="module")
def recognizer() -> ConfusionChannelRecognizer:
    space = AcousticSpace(universal_phone_set(), seed=4)
    return ConfusionChannelRecognizer(
        "X", space, 12, ConfusionModel(top_k=3), seed=1
    )


@pytest.fixture(scope="module")
def base_utterance(recognizer):
    lang = make_language(
        "l", recognizer.acoustics.phone_set, 0, inventory_size=24
    )
    gen = UtteranceGenerator(SessionSampler(13, seed=7), frame_rate=20.0)
    return gen.sample_utterance("u", lang, 4.0, 3)


def _with_phones(utterance, phones):
    phones = np.asarray(phones, dtype=np.int64)
    return dataclasses.replace(
        utterance, phones=phones, phone_frames=np.ones_like(phones)
    )


def _assert_sausages_equal(got: Sausage, want: Sausage) -> None:
    assert len(got) == len(want)
    for gs, ws in zip(got.slots, want.slots):
        assert gs.phones.tobytes() == ws.phones.tobytes()
        assert gs.probs.tobytes() == ws.probs.tobytes()


class TestConfusionDecode:
    @pytest.mark.parametrize("n_phones", [0, 1, 2])
    def test_short_utterances(self, recognizer, base_utterance, n_phones):
        utt = _with_phones(base_utterance, base_utterance.phones[:n_phones])
        want = decode_reference(recognizer, utt, 3)
        _assert_sausages_equal(recognizer.decode(utt, 3), want)
        (batched,) = recognizer.decode_batch(
            [utt], [np.random.default_rng(3)]
        )
        _assert_sausages_equal(batched, want)

    @given(
        st.lists(
            st.lists(st.integers(0, 40), max_size=10), min_size=1, max_size=4
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_batches(self, recognizer, base_utterance, strings, seed):
        n_universal = len(recognizer.acoustics.phone_set)
        utts = [
            _with_phones(
                base_utterance, np.asarray(s, dtype=np.int64) % n_universal
            )
            for s in strings
        ]
        want = [
            decode_reference(recognizer, u, np.random.default_rng([seed, i]))
            for i, u in enumerate(utts)
        ]
        got = recognizer.decode_batch(
            utts, [np.random.default_rng([seed, i]) for i in range(len(utts))]
        )
        for g, w in zip(got, want):
            _assert_sausages_equal(g, w)
        for i, u in enumerate(utts):
            _assert_sausages_equal(
                recognizer.decode(u, np.random.default_rng([seed, i])),
                want[i],
            )


def _assert_prune_matches(recognizer, noisy: np.ndarray) -> None:
    phones, probs = recognizer._rank_slots(noisy)
    for i, row in enumerate(noisy):
        want = prune_slot_reference(row, recognizer.model.top_k)
        assert phones[i].tobytes() == want.phones.tobytes()
        assert probs[i].tobytes() == want.probs.tobytes()


class TestTopKPrune:
    """Ties in ``argsort`` must break the same way row-wise as per slot."""

    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                min_size=12,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_tied_and_all_zero_rows(self, recognizer, rows):
        _assert_prune_matches(recognizer, np.array(rows, dtype=np.float64))

    def test_full_tie_row(self, recognizer):
        noisy = np.ones((2, 12))
        noisy[1] = 0.0  # zero mass: the uniform fallback, also all tied
        _assert_prune_matches(recognizer, noisy)
