"""φ fast paths against the seed oracles in ``tests/oracles/phi.py``.

Every comparison is on bytes: the fast paths are contractually
bitwise-identical in float64.  Hypothesis draws the general cases; the
edges that broke fast paths elsewhere are pinned explicitly — the empty
sausage, T = 1, T < order, single-alternative slots, ragged slot widths
and batches that span several counting passes in ``extract_matrix``,
TFLLR over matrices with all-zero rows, and ties (at the k/k+1
boundary, inside the top k, all-zero rows, k >= the inventory) in the
top-k slot prune.  ``pytest --hypothesis-profile=ci`` deepens every
drawn case (:mod:`tests.budget`).
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
from repro.frontend.am.gmm import DiagonalGMM
from repro.frontend.am.hmm import GMMEmission, PhoneHMMSet
from repro.frontend.decoder import DecoderConfig, ViterbiDecoder
from repro.frontend.lattice import Sausage, SausageSlot
from repro.ngram import counts as counts_module
from repro.ngram.counts import expected_counts_sausage
from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
from repro.obs.metrics import default_registry
from repro.utils.sparse import SparseMatrix, SparseVector
from tests.budget import examples
from tests.oracles.phi import (
    decode_reference,
    dense_scale,
    expected_counts_sausage_reference,
    extract_matrix_reference,
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
    @settings(max_examples=examples(60), deadline=None)
    def test_random_sausages(self, sausage, order):
        _assert_counts_equal(sausage, order)

    @given(sausages(ordered=True))
    @settings(max_examples=examples(30), deadline=None)
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
    @settings(max_examples=examples(60), deadline=None)
    def test_random_sausages(self, sausage):
        _assert_vectors_equal(
            self.extractor.extract(sausage),
            extract_reference(self.extractor, sausage),
        )


def _counter_state() -> tuple[float, int, float]:
    """The supervector counters: extracted, nnz observations and sum."""
    registry = default_registry()
    nnz = registry.histogram("ngram.supervector.nnz", maxlen=512)
    return (
        registry.counter("ngram.supervector.extracted").value,
        nnz.count,
        nnz.total,
    )


def _assert_batch_matches_rows(extractor, sausages) -> None:
    """``extract_matrix`` == stacked ``extract`` == stacked oracle rows,
    and the counters advance alike."""
    before = _counter_state()
    got = extractor.extract_matrix(sausages)
    middle = _counter_state()
    rows = [extractor.extract(s) for s in sausages]
    after = _counter_state()
    assert [m - b for m, b in zip(middle, before)] == [
        a - m for a, m in zip(after, middle)
    ]
    assert middle[0] - before[0] == len(sausages)
    _assert_matrices_equal(
        got, SparseMatrix.from_rows(rows, dim=extractor.dim)
    )
    _assert_matrices_equal(got, extract_matrix_reference(extractor, sausages))


def _random_sausages(rng, phone_set, n, max_t=9, max_k=4) -> list[Sausage]:
    """``n`` sausages of mixed lengths (0 included) and slot widths."""
    out = []
    for _ in range(n):
        slots = []
        for _ in range(int(rng.integers(0, max_t + 1))):
            k = int(rng.integers(1, max_k + 1))
            phones = rng.choice(len(phone_set), size=k, replace=False)
            weights = rng.random(k) + 0.01
            slots.append(SausageSlot(phones, weights / weights.sum()))
        out.append(Sausage(slots, phone_set))
    return out


class TestExtractMatrix:
    """One batch pass per order against per-sausage extraction."""

    extractor = SupervectorExtractor(N_PHONES, orders=ORDERS)

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_batch_of_one(self, edge):
        _assert_batch_matches_rows(self.extractor, [EDGES[edge]])

    def test_every_edge_in_one_batch(self):
        batch = [EDGES[e] for e in sorted(EDGES)] * 2
        _assert_batch_matches_rows(self.extractor, batch)

    def test_empty_batch(self):
        matrix = self.extractor.extract_matrix([])
        assert matrix.n_rows == 0 and matrix.nnz == 0
        _assert_batch_matches_rows(self.extractor, [])

    @given(st.lists(sausages(), min_size=1, max_size=6))
    @settings(max_examples=examples(60), deadline=None)
    def test_random_batches(self, batch):
        """Widths differ between sausages, so the slots are ragged."""
        _assert_batch_matches_rows(self.extractor, batch)

    def test_acoustic_segment_slots(self):
        """Viterbi segments keep 1–3 alternatives: ragged widths."""
        decoder = _acoustic_decoder()
        rng = np.random.default_rng(3)
        frames = [
            np.vstack(
                [ACOUSTIC_MEANS[p] + rng.normal(size=(4, 2)) for p in phones]
            )
            for phones in ([0, 1, 2, 1, 0], [2], [1, 2], [0, 2, 1, 2, 0, 1])
        ]
        batch = decoder.decode_batch(frames)
        widths = {s.phones.size for sausage in batch for s in sausage.slots}
        assert len(widths) > 1
        extractor = SupervectorExtractor(3, orders=ORDERS)
        _assert_batch_matches_rows(extractor, batch)

    def test_batch_spanning_bincount_passes(self):
        """59 phones at order 3: five sausages' bins fill one pass."""
        phone_set = PhoneSet("big", tuple(f"p{i}" for i in range(59)))
        extractor = SupervectorExtractor(59, orders=ORDERS)
        per_pass = counts_module.MAX_BINS // 59**3
        batch = _random_sausages(
            np.random.default_rng(8), phone_set, 2 * per_pass + 1
        )
        _assert_batch_matches_rows(extractor, batch)

    @pytest.mark.parametrize("max_bins", [1, 2 * N_PHONES**3, 5 * N_PHONES**2])
    def test_small_passes(self, monkeypatch, max_bins):
        """Down to the ``np.unique`` path for codes beyond one pass."""
        monkeypatch.setattr(counts_module, "MAX_BINS", max_bins)
        batch = _random_sausages(np.random.default_rng(max_bins), PS, 7)
        _assert_batch_matches_rows(self.extractor, batch + [EDGES["t1"]])

    def test_inventory_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inventory"):
            SupervectorExtractor(N_PHONES + 1).extract_matrix([single(1, 2)])


#: Three 2-D phones, near enough that segments keep 1 to 3 alternatives.
ACOUSTIC_MEANS = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 20.0]])


def _acoustic_decoder() -> ViterbiDecoder:
    """One state per phone of :data:`ACOUSTIC_MEANS`, top-3 slots."""
    gmms = [
        DiagonalGMM.from_parameters(
            means=ACOUSTIC_MEANS[p : p + 1],
            variances=np.ones((1, 2)),
            weights=np.array([1.0]),
        )
        for p in range(3)
    ]
    hmms = PhoneHMMSet(3, 1, GMMEmission(gmms), self_loop=0.5)
    return ViterbiDecoder(
        hmms,
        PhoneSet("t3", ("a", "b", "c")),
        DecoderConfig(top_k=3, acoustic_scale=1.0),
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
    @settings(max_examples=examples(60), deadline=None)
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
    @settings(max_examples=examples(40), deadline=None)
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
    @settings(max_examples=examples(80), deadline=None)
    def test_tied_and_all_zero_rows(self, recognizer, rows):
        _assert_prune_matches(recognizer, np.array(rows, dtype=np.float64))

    def test_full_tie_row(self, recognizer):
        noisy = np.ones((2, 12))
        noisy[1] = 0.0  # zero mass: the uniform fallback, also all tied
        _assert_prune_matches(recognizer, noisy)

    def test_tie_at_the_k_boundary(self, recognizer):
        """top_k = 3: the 3rd and 4th largest are equal."""
        noisy = np.array([[0.5, 0.1, 0.3, 0.1, 0.2, 0.2, 0.05] + [0.0] * 5])
        _assert_prune_matches(recognizer, noisy)

    def test_ties_inside_the_top_k(self, recognizer):
        noisy = np.array(
            [
                [0.3, 0.1, 0.3, 0.05, 0.2] + [0.01] * 7,
                [0.2, 0.2, 0.2, 0.1] + [0.0] * 8,
                [0.1] * 3 + [0.4] + [0.05] * 8,
            ]
        )
        _assert_prune_matches(recognizer, noisy)

    def test_all_zero_rows_among_untied(self, recognizer):
        rng = np.random.default_rng(2)
        noisy = rng.gamma(0.5, size=(6, 12))
        noisy[[1, 4]] = 0.0
        _assert_prune_matches(recognizer, noisy)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_k_at_least_the_inventory(self, recognizer, width):
        """top_k = 3 over rows of ``width`` <= 3 local phones."""
        rng = np.random.default_rng(width)
        noisy = rng.gamma(0.5, size=(5, width))
        noisy[0] = 1.0
        _assert_prune_matches(recognizer, noisy)

    def test_input_left_unchanged(self, recognizer):
        noisy = np.random.default_rng(4).gamma(0.5, size=(9, 12))
        copy = noisy.copy()
        recognizer._rank_slots(noisy)
        assert noisy.tobytes() == copy.tobytes()

    @given(
        st.lists(
            st.lists(st.floats(0.0, 4.0), min_size=12, max_size=12),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=examples(80), deadline=None)
    def test_random_rows(self, recognizer, rows):
        _assert_prune_matches(recognizer, np.array(rows, dtype=np.float64))
