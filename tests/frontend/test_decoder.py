"""Tests for the Viterbi phone-loop decoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.phoneset import PhoneSet
from repro.frontend.am.gmm import DiagonalGMM
from repro.frontend.am.hmm import GMMEmission, PhoneHMMSet
from repro.frontend.decoder import (
    DecoderConfig,
    ViterbiDecoder,
    estimate_phone_bigram,
)
from repro.obs import trace
from tests.oracles.decoder import ScalarDecoder

PS3 = PhoneSet("t3", ("a", "b", "c"))


def separated_decoder(
    states_per_phone=2, self_loop=0.5, **cfg_kwargs
) -> tuple[ViterbiDecoder, np.ndarray]:
    """Three phones at well-separated means in 2-D; returns (decoder, means)."""
    means = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    gmms = []
    for p in range(3):
        for _ in range(states_per_phone):
            gmms.append(
                DiagonalGMM.from_parameters(
                    means=means[p : p + 1],
                    variances=np.ones((1, 2)),
                    weights=np.array([1.0]),
                )
            )
    hmms = PhoneHMMSet(
        3, states_per_phone, GMMEmission(gmms), self_loop=self_loop
    )
    return ViterbiDecoder(hmms, PS3, DecoderConfig(**cfg_kwargs)), means


def render(means, phone_seq, frames_per_phone, rng, noise=0.3):
    obs = []
    for p in phone_seq:
        obs.append(
            means[p] + rng.normal(0, noise, size=(frames_per_phone, 2))
        )
    return np.vstack(obs)


class TestEstimatePhoneBigram:
    def test_row_stochastic(self):
        lb = estimate_phone_bigram([np.array([0, 1, 2, 0])], 3)
        np.testing.assert_allclose(np.exp(lb).sum(axis=1), 1.0, atol=1e-12)

    def test_counts_dominate(self):
        seqs = [np.array([0, 1] * 50)]
        lb = estimate_phone_bigram(seqs, 3, smoothing=0.1)
        assert lb[0, 1] > lb[0, 0]
        assert lb[0, 1] > lb[0, 2]

    def test_empty_sequences_uniform(self):
        lb = estimate_phone_bigram([], 4)
        np.testing.assert_allclose(lb, np.log(0.25), atol=1e-12)


class TestViterbi:
    def test_recovers_clean_sequence(self, rng):
        decoder, means = separated_decoder()
        truth = [0, 1, 2, 1, 0]
        frames = render(means, truth, 5, rng)
        sausage = decoder.decode(frames)
        np.testing.assert_array_equal(sausage.best_phones(), truth)

    def test_repeated_phone_collapsed_sequence_correct(self, rng):
        # Two adjacent instances of the same phone are acoustically
        # indistinguishable from one long instance; the decoder may emit
        # either.  The collapsed phone sequence must still be right.
        decoder, means = separated_decoder()
        frames = render(means, [1, 1, 2], 6, rng, noise=0.2)
        decoded = decoder.decode(frames).best_phones()
        collapsed = decoded[np.insert(np.diff(decoded) != 0, 0, True)]
        np.testing.assert_array_equal(collapsed, [1, 2])

    def test_empty_input(self):
        decoder, _ = separated_decoder()
        assert len(decoder.decode(np.zeros((0, 2)))) == 0

    def test_path_and_posterior_shapes(self, rng):
        decoder, means = separated_decoder()
        frames = render(means, [0, 2], 4, rng)
        loglik = decoder.config.acoustic_scale * (
            decoder.hmms.emission.frame_log_likelihood(frames)
        )
        path, crossed = decoder.viterbi(loglik)
        assert path.shape == (8,)
        assert crossed[0]
        post = decoder.state_posteriors(loglik)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_mode_also_decodes(self, rng):
        decoder, means = separated_decoder(posterior_mode="softmax")
        truth = [2, 0, 1]
        frames = render(means, truth, 5, rng)
        np.testing.assert_array_equal(
            decoder.decode(frames).best_phones(), truth
        )

    def test_slot_probs_valid(self, rng):
        decoder, means = separated_decoder(top_k=3)
        frames = render(means, [0, 1], 5, rng, noise=1.5)
        for slot in decoder.decode(frames).slots:
            assert slot.probs.sum() == pytest.approx(1.0)
            assert slot.phones.size <= 3

    def test_single_state_phones(self, rng):
        decoder, means = separated_decoder(states_per_phone=1)
        truth = [0, 1, 2]
        frames = render(means, truth, 4, rng)
        np.testing.assert_array_equal(
            decoder.decode(frames).best_phones(), truth
        )

    def test_fb_posteriors_sum_to_one(self, rng):
        decoder, means = separated_decoder()
        frames = render(means, [0, 1, 2], 3, rng)
        loglik = decoder.hmms.emission.frame_log_likelihood(frames)
        gamma = decoder.state_posteriors(loglik)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-8)

    def test_mismatched_width_rejected(self, rng):
        decoder, _ = separated_decoder()
        with pytest.raises(ValueError):
            decoder.viterbi(np.zeros((5, 99)))

    def test_phone_set_size_checked(self, rng):
        decoder, _ = separated_decoder()
        with pytest.raises(ValueError):
            ViterbiDecoder(decoder.hmms, PhoneSet("bad", ("x",)))

    def test_noisier_frames_give_flatter_slots(self, rng):
        decoder, means = separated_decoder(top_k=3)
        clean = render(means, [0, 1, 2], 5, rng, noise=0.1)
        noisy = render(means, [0, 1, 2], 5, rng, noise=3.0)

        def mean_top_prob(sausage):
            return np.mean([slot.probs.max() for slot in sausage.slots])

        assert mean_top_prob(decoder.decode(noisy)) < mean_top_prob(
            decoder.decode(clean)
        )


class TestDecoderKnobs:
    def test_acoustic_scale_flattens_posteriors(self, rng):
        sharp, means = separated_decoder(acoustic_scale=1.0, top_k=3)
        flat, _ = separated_decoder(acoustic_scale=0.05, top_k=3)
        frames = render(means, [0, 1, 2], 5, rng, noise=1.0)

        def mean_top(decoder):
            return np.mean(
                [s.probs.max() for s in decoder.decode(frames).slots]
            )

        assert mean_top(flat) < mean_top(sharp)

    def test_insertion_penalty_reduces_segments(self, rng):
        from repro.frontend.am.hmm import PhoneHMMSet
        from repro.frontend.decoder import DecoderConfig, ViterbiDecoder

        base, means = separated_decoder(states_per_phone=1, self_loop=0.5)
        # Rebuild with a strong insertion penalty on cross-phone arcs.
        penalised_hmms = PhoneHMMSet(
            3,
            1,
            base.hmms.emission,
            self_loop=0.5,
            insertion_log_penalty=-8.0,
        )
        penalised = ViterbiDecoder(penalised_hmms, PS3, DecoderConfig())
        frames = render(means, [0, 1, 2, 1, 0], 3, rng, noise=1.2)
        n_base = len(base.decode(frames))
        n_penalised = len(penalised.decode(frames))
        assert n_penalised <= n_base


def _assert_sausages_bitwise_equal(batch, loop):
    assert len(batch) == len(loop)
    for sb, sl in zip(batch, loop):
        assert len(sb) == len(sl)
        for a, b in zip(sb.slots, sl.slots):
            assert a.phones.tobytes() == b.phones.tobytes()
            assert a.probs.tobytes() == b.probs.tobytes()


#: Float64 posteriors and slot probabilities may differ from the
#: log-domain reference DP by this much: the decoder sums cross-phone
#: arcs as a product with exp(cross), the reference as a log-sum-exp.
ORACLE_ATOL = 1e-12


def _assert_sausages_close(got, want, atol=ORACLE_ATOL):
    """Same slots, probabilities within ``atol``.

    A slot's phones must match, except that candidates whose segment
    posteriors tie within ``atol`` may be swapped at the top-k cut (the
    three-point lattices make exact ties common), so phones kept on one
    side only are compared as a sorted list of probabilities.
    """
    assert len(got) == len(want)
    for sg, sw in zip(got, want):
        assert len(sg) == len(sw)
        for a, b in zip(sg.slots, sw.slots):
            pa = dict(zip(a.phones.tolist(), a.probs))
            pb = dict(zip(b.phones.tolist(), b.probs))
            for phone in pa.keys() & pb.keys():
                assert abs(pa[phone] - pb[phone]) <= atol
            only_a = sorted(pa[p] for p in pa.keys() - pb.keys())
            only_b = sorted(pb[p] for p in pb.keys() - pa.keys())
            assert len(only_a) == len(only_b)
            np.testing.assert_allclose(only_a, only_b, rtol=0, atol=atol)


def _render_batch(means, rng):
    """Utterances exercising the padded-lattice edges: a 1-frame
    utterance, mixed lengths, and two rows tied at the maximum length."""
    return [
        render(means, [0], 1, rng)[:1],          # single frame
        render(means, [1, 2], 3, rng),           # short
        render(means, [0, 1, 2, 1], 5, rng),     # max length …
        render(means, [2, 0, 1, 0], 5, rng),     # … tied with this one
        render(means, [1], 2, rng),
    ]


def _oracle(decoder, frames_list):
    """The scalar reference DP, one utterance at a time."""
    scalar = ScalarDecoder(decoder)
    return [scalar.decode(f) for f in frames_list]


def _assert_batch_parity(decoder, frames_list):
    """Bitwise equal to decoding each utterance alone, and within
    :data:`ORACLE_ATOL` of the scalar reference DP."""
    batch = decoder.decode_batch(frames_list)
    _assert_sausages_bitwise_equal(
        batch, [decoder.decode(f) for f in frames_list]
    )
    _assert_sausages_close(batch, _oracle(decoder, frames_list))
    return batch


class TestBatchParity:
    """decode_batch must reproduce decoding each utterance alone bitwise;
    against the scalar reference DP it must agree within ORACLE_ATOL in
    float64 and within the documented tolerance in float32."""

    @pytest.mark.parametrize("mode", ["fb", "softmax"])
    def test_float64_bitwise(self, rng, mode):
        decoder, means = separated_decoder(posterior_mode=mode, top_k=3)
        _assert_batch_parity(decoder, _render_batch(means, rng))

    def test_float64_bitwise_with_beam(self, rng):
        decoder, means = separated_decoder(beam=40.0)
        _assert_batch_parity(decoder, _render_batch(means, rng))

    def test_single_frame_only_batch(self, rng):
        # Every row is one frame: T_max == 1, no padding headroom at all.
        decoder, means = separated_decoder()
        frames_list = [render(means, [p], 1, rng)[:1] for p in (0, 1, 2)]
        _assert_batch_parity(decoder, frames_list)

    def test_empty_utterance_in_batch(self, rng):
        decoder, means = separated_decoder()
        frames_list = [
            render(means, [0, 1], 3, rng),
            np.zeros((0, 2)),
            render(means, [2], 2, rng),
        ]
        batch = _assert_batch_parity(decoder, frames_list)
        assert len(batch[1]) == 0

    def test_float32_batch_matches_loop_within_tolerance(self, rng):
        decoder, means = separated_decoder(dtype="float32")
        frames_list = _render_batch(means, rng)
        batch = decoder.decode_batch(frames_list)
        loop = _oracle(decoder, frames_list)
        assert len(batch) == len(loop)
        for sb, sl in zip(batch, loop):
            assert len(sb) == len(sl)
            for a, b in zip(sb.slots, sl.slots):
                np.testing.assert_array_equal(a.phones, b.phones)
                np.testing.assert_allclose(a.probs, b.probs, atol=1e-5)

    def test_float32_tracks_float64_within_documented_tolerance(self, rng):
        # The tolerance policy the tables comparator encodes: float32
        # decode posteriors may drift from float64 by ~1e-5, no more.
        from repro.core.reporting import tables_match

        d32, means = separated_decoder(dtype="float32")
        d64, _ = separated_decoder(dtype="float64")
        frames_list = _render_batch(means, rng)
        out32 = d32.decode_batch(frames_list)
        out64 = d64.decode_batch(frames_list)
        probs32 = [[s.probs for s in sg.slots] for sg in out32]
        probs64 = [[s.probs for s in sg.slots] for sg in out64]
        phones32 = [[s.phones for s in sg.slots] for sg in out32]
        phones64 = [[s.phones for s in sg.slots] for sg in out64]
        assert tables_match(phones32, phones64)
        assert not tables_match(probs32, probs64)  # not bitwise …
        assert tables_match(probs32, probs64, atol=1e-4)  # … but close

    def test_float32_stage_params_mark_phi_keys(self):
        decoder, _ = separated_decoder(dtype="float32", beam=25.0)
        params = decoder.config.stage_params()
        assert params == {"decode_dtype": "float32", "decode_beam": 25.0}
        default, _ = separated_decoder()
        assert default.config.stage_params() == {}


class TestDecodeSpans:
    def test_decode_batch_splits_into_child_spans(self, rng):
        decoder, means = separated_decoder()
        frames_list = _render_batch(means, rng)
        trace.stop_trace()
        trace.start_trace("decode-spans")
        try:
            with trace.span("decoding"):
                decoder.decode_batch(frames_list)
        finally:
            root = trace.stop_trace()
        (decoding,) = root.children
        assert [c.name for c in decoding.children] == [
            "emission",
            "dp",
            "posteriors",
        ]


class LatticeEmission:
    """Emission model whose frames *are* the per-state log-likelihoods,
    so a test can hand the DP any lattice it likes."""

    def __init__(self, n_states: int) -> None:
        self.n_states = n_states

    def frame_log_likelihood(self, frames: np.ndarray) -> np.ndarray:
        return np.array(frames, dtype=np.float64)


def lattice_decoder(n_phones, states_per_phone, self_loop, **cfg_kwargs):
    bigram = np.full((n_phones, n_phones), 0.5 / max(n_phones - 1, 1))
    np.fill_diagonal(bigram, 0.5 if n_phones > 1 else 1.0)
    hmms = PhoneHMMSet(
        n_phones,
        states_per_phone,
        LatticeEmission(n_phones * states_per_phone),
        self_loop=self_loop,
        phone_log_bigram=np.log(bigram),
    )
    phone_set = PhoneSet(f"t{n_phones}", tuple(f"p{i}" for i in range(n_phones)))
    return ViterbiDecoder(hmms, phone_set, DecoderConfig(**cfg_kwargs))


@st.composite
def ragged_lattices(draw):
    """Batches of lattices with adversarial shapes and values.

    One long row next to short ones (T_max much larger than T_i), empty
    rows, values from a three-point set so argmax ties are common, and
    optionally a frame where every state scores -inf.  Ten phones make
    the cross-phone reductions long enough for summation order to show;
    a self-loop below 0.5 makes leaving a state beat staying in it.
    """
    n_phones = draw(st.sampled_from([3, 10]))
    s = draw(st.integers(1, 3))
    n_states = n_phones * s
    long_len = draw(st.integers(8, 24))
    short = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    lengths = [long_len, *short]
    order = draw(st.permutations(range(len(lengths))))
    lengths = [lengths[i] for i in order]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pick = lambda n: rng.choice([0.0, -1.0, -2.5], size=(n, n_states))
    else:
        pick = lambda n: rng.normal(0.0, 1.0, size=(n, n_states))
    frames = [pick(n) for n in lengths]
    if draw(st.booleans()):
        row = draw(st.sampled_from(range(len(lengths))))
        if lengths[row]:
            frames[row][draw(st.integers(0, lengths[row] - 1))] = -np.inf
    mode = draw(st.sampled_from(["fb", "softmax"]))
    beam = draw(st.sampled_from([None, 1.0, 40.0]))
    dp = dict(
        n_phones=n_phones,
        states_per_phone=s,
        self_loop=draw(st.sampled_from([0.1, 0.55])),
    )
    return dp, frames, mode, beam


def _lattice(frames):
    """Pad per-utterance frames into a ``(B, T_max, S)`` lattice."""
    lengths = np.array([f.shape[0] for f in frames])
    lattice = np.zeros(
        (len(frames), lengths.max(), frames[0].shape[1]), frames[0].dtype
    )
    for i, f in enumerate(frames):
        lattice[i, : f.shape[0]] = f
    return lattice, lengths


def _assert_dp_matches_oracle(decoder, frames):
    """Viterbi paths bytewise, posteriors within ORACLE_ATOL with the
    reference's NaN pattern."""
    scalar = ScalarDecoder(decoder)
    lattice, lengths = _lattice(frames)
    with np.errstate(invalid="ignore", divide="ignore"):
        paths, crosseds = decoder.viterbi_batch(lattice, lengths)
        post = decoder.state_posteriors_batch(lattice, lengths)
        for i, f in enumerate(frames):
            path, crossed = scalar.viterbi(f)
            assert paths[i].tobytes() == path.tobytes()
            assert crosseds[i].tobytes() == crossed.tobytes()
            if f.shape[0]:
                want = scalar.state_posteriors(f)
                np.testing.assert_allclose(
                    post[i, : f.shape[0]], want, rtol=0, atol=ORACLE_ATOL
                )


class TestOracleDifferential:
    @settings(max_examples=60, deadline=None)
    @given(case=ragged_lattices())
    def test_decode_batch_matches_scalar_oracle(self, case):
        dp, frames, mode, beam = case
        decoder = lattice_decoder(**dp, posterior_mode=mode, beam=beam, top_k=3)
        with np.errstate(invalid="ignore", divide="ignore"):
            batch = decoder.decode_batch(frames)
            oracle = _oracle(decoder, frames)
        _assert_sausages_close(batch, oracle)

    @settings(max_examples=30, deadline=None)
    @given(case=ragged_lattices())
    def test_dp_outputs_match_scalar_oracle(self, case):
        dp, frames, mode, beam = case
        decoder = lattice_decoder(**dp, posterior_mode=mode, beam=beam)
        _assert_dp_matches_oracle(decoder, frames)

    def test_asymmetric_bigram_matches_oracle(self):
        # ``lattice_decoder``'s bigram is symmetric, so it cannot tell
        # ``cross[p, q]`` from ``cross[q, p]``; a sampled one can.
        rng = np.random.default_rng(5)
        for n_phones, s in ((10, 2), (7, 3)):
            bigram = np.log(rng.dirichlet(np.full(n_phones, 0.3), n_phones))
            hmms = PhoneHMMSet(
                n_phones, s, LatticeEmission(n_phones * s), self_loop=0.3,
                phone_log_bigram=bigram,
            )
            assert not np.allclose(bigram, bigram.T)
            phone_set = PhoneSet(
                f"t{n_phones}", tuple(f"p{i}" for i in range(n_phones))
            )
            decoder = ViterbiDecoder(hmms, phone_set, DecoderConfig())
            frames = [
                rng.normal(0, 2, size=(n, n_phones * s)) for n in (30, 11, 1)
            ]
            _assert_dp_matches_oracle(decoder, frames)

    def test_neg_inf_frames_match_oracle_pattern(self):
        # A frame where every state scores -inf leaves its utterance
        # without a path (all-NaN posteriors); one where only some do
        # gives exact zeros.  Both must match the reference.
        rng = np.random.default_rng(3)
        decoder = lattice_decoder(10, 2, 0.55)
        frames = [rng.normal(size=(n, 20)) for n in (9, 6, 4)]
        frames[0][4] = -np.inf
        frames[1][2, ::3] = -np.inf
        frames[2][0, 1::2] = -np.inf
        _assert_dp_matches_oracle(decoder, frames)
        lattice, lengths = _lattice(frames)
        scalar = ScalarDecoder(decoder)
        with np.errstate(invalid="ignore", divide="ignore"):
            post = decoder.state_posteriors_batch(lattice, lengths)
            for i, f in enumerate(frames):
                got, want = post[i, : f.shape[0]], scalar.state_posteriors(f)
                assert (np.isnan(got) == np.isnan(want)).all()
                assert ((got == 0.0) == (want == 0.0)).all()
        assert np.isnan(post[0, :9]).all()
        assert (post[1, 2, ::3] == 0.0).all()
        assert np.isfinite(post[1:, :4]).all()

    def test_large_insertion_penalty_matches_oracle(self):
        # A constant penalty shifts every cross arc alike; the per-column
        # shift of the cross weights absorbs it without underflow.  The
        # first utterance may only be phone 0 for 4 frames, then phone 1,
        # so all of its mass crosses one penalised arc.
        rng = np.random.default_rng(4)
        for penalty in (-50.0, -900.0):
            hmms = PhoneHMMSet(
                10, 2, LatticeEmission(20), self_loop=0.3,
                insertion_log_penalty=penalty,
            )
            phone_set = PhoneSet("t10", tuple(f"p{i}" for i in range(10)))
            decoder = ViterbiDecoder(hmms, phone_set, DecoderConfig(top_k=3))
            frames = [rng.normal(0, 3, size=(n, 20)) for n in (12, 7, 1)]
            frames[0][:4, 2:] = -np.inf
            frames[0][4:, :2] = -np.inf
            frames[0][4:, 4:] = -np.inf
            _assert_dp_matches_oracle(decoder, frames)
            lattice, lengths = _lattice(frames)
            assert np.isfinite(
                decoder.state_posteriors_batch(lattice, lengths)
            ).all()
            _assert_sausages_close(
                decoder.decode_batch(frames), _oracle(decoder, frames)
            )

    @pytest.mark.parametrize(
        "dtype, spread", [("float64", 720.0), ("float32", 90.0)]
    )
    def test_cross_spread_beyond_normal_weights_rejected(self, dtype, spread):
        bigram = np.log(np.full((3, 3), 1.0 / 3.0))
        bigram[0, 1] -= spread
        hmms = PhoneHMMSet(3, 1, LatticeEmission(3), phone_log_bigram=bigram)
        decoder = ViterbiDecoder(hmms, PS3, DecoderConfig(dtype=dtype))
        lattice = np.zeros((4, 3), dtype=dtype)
        with pytest.raises(ValueError, match="span"):
            decoder.state_posteriors(lattice)
        # Only forward–backward sums in the linear domain.
        assert decoder.viterbi(lattice)[0].shape == (4,)
        softmax = ViterbiDecoder(
            hmms, PS3, DecoderConfig(dtype=dtype, posterior_mode="softmax")
        )
        assert len(softmax.decode(np.zeros((4, 3)))) > 0


@st.composite
def invariance_batches(draw):
    """1–8 ragged utterances whose frames are views into one buffer.

    Each utterance starts at an arbitrary offset of a shared array, so a
    kernel whose arithmetic follows memory alignment would decode the
    view and a fresh copy of the same bytes differently.
    """
    n_phones = draw(st.sampled_from([3, 10]))
    s = draw(st.integers(1, 3))
    n_states = n_phones * s
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    buffer = rng.normal(0.0, 2.0, size=(sum(lengths), n_states))
    cuts = np.cumsum([0, *lengths])
    frames = [buffer[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    dp = dict(
        n_phones=n_phones,
        states_per_phone=s,
        self_loop=draw(st.sampled_from([0.1, 0.55])),
    )
    return dp, frames, draw(st.sampled_from(["float64", "float32"]))


class TestBatchInvariance:
    """A row's output depends on its own utterance only: which other
    utterances share its batch, and where its bytes sit in memory, must
    not change a bit of it (corpus chunking follows ``workers`` and
    serve batches follow arrival times)."""

    @settings(max_examples=40, deadline=None)
    @given(case=invariance_batches())
    def test_state_posteriors_rows_match_alone(self, case):
        dp, frames, dtype = case
        decoder = lattice_decoder(**dp)
        frames = [f.astype(dtype) for f in frames]
        lattice, lengths = _lattice(frames)
        post = decoder.state_posteriors_batch(lattice, lengths)
        for i, f in enumerate(frames):
            row = post[i, : f.shape[0]].tobytes()
            assert row == decoder.state_posteriors(f).tobytes()
            assert row == decoder.state_posteriors(f.copy()).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=invariance_batches())
    def test_decode_batch_rows_match_alone(self, case):
        dp, frames, dtype = case
        decoder = lattice_decoder(**dp, dtype=dtype, top_k=3)
        batch = decoder.decode_batch(frames)
        for sausage, f in zip(batch, frames):
            for alone in (decoder.decode(f), decoder.decode(f.copy())):
                assert len(sausage) == len(alone)
                for a, b in zip(sausage.slots, alone.slots):
                    assert a.phones.tobytes() == b.phones.tobytes()
                    assert a.probs.tobytes() == b.probs.tobytes()
