"""Viterbi phone-loop decoding to posterior sausages.

This is the reproduction's HVite: frames go in, a phone confusion network
comes out.  The decoder runs over the composite state space of a
:class:`~repro.frontend.am.hmm.PhoneHMMSet` (phones × left-to-right
states) with three structural transition families — self-loop, within-phone
advance, and cross-phone arcs scored by a phone-bigram LM.  One DP serves
every caller: a batch of utterances is padded into a ``(B, T_max, S)``
lattice and each frame step advances all rows with whole-array numpy
operations.  The transition tables are built once per decode
(:class:`_DPTables`), and a single-utterance
:meth:`ViterbiDecoder.decode` is a batch of one.  Forward–backward sums
the cross-phone arcs as one ``(B, P) · (P, P)`` product per frame.  A
row's arithmetic follows its own utterance alone, so output is bitwise
independent of batching.  In float64, Viterbi paths equal the test
suite's log-domain scalar reference bitwise and posteriors lie within
1e-12 of it.

The emitted :class:`~repro.frontend.lattice.Sausage` has one slot per
Viterbi phone segment; slot posteriors are state-posterior mass (full
structured forward-backward, or a cheaper per-frame softmax) aggregated
over the segment and truncated to the top-k alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.phoneset import PhoneSet
from repro.frontend.am.hmm import PhoneHMMSet
from repro.frontend.lattice import Sausage
from repro.obs import trace
from repro.obs.metrics import default_registry
from repro.utils.validation import check_in, check_positive

__all__ = ["ViterbiDecoder", "DecoderConfig", "estimate_phone_bigram"]

# Always-on lightweight accounting of the hottest stage (paper Table 5
# puts decoding ~two orders of magnitude above everything else).  Counts
# recorded in process-pool workers are snapshotted per chunk and merged
# back into the parent registry by pmap, so the process view stays
# complete however the fan-out is sized.
_DECODES = default_registry().counter("frontend.decoder.decodes")
_DECODE_FRAMES = default_registry().histogram(
    "frontend.decoder.frames", maxlen=512
)


def estimate_phone_bigram(
    sequences: list[np.ndarray], n_phones: int, *, smoothing: float = 0.5
) -> np.ndarray:
    """Additively-smoothed log phone-bigram matrix from label sequences."""
    check_positive("n_phones", n_phones)
    counts = np.full((n_phones, n_phones), smoothing, dtype=np.float64)
    for seq in sequences:
        seq = np.asarray(seq, dtype=np.int64)
        if seq.size >= 2:
            np.add.at(counts, (seq[:-1], seq[1:]), 1.0)
    return np.log(counts / counts.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class DecoderConfig:
    """Decoding knobs.

    Attributes
    ----------
    acoustic_scale:
        Temperature on emission log-likelihoods (classic HTK-style acoustic
        scaling; keeps lattice posteriors from saturating).
    top_k:
        Maximum alternatives kept per sausage slot.
    posterior_mode:
        ``"fb"`` uses the structured forward-backward state posteriors;
        ``"softmax"`` uses per-frame emission softmax (cheaper, slightly
        less sharp).
    dtype:
        DP arithmetic width.  ``"float32"`` halves lattice memory and
        speeds the DP up, at a documented tolerance cost (tables compare
        within ``atol`` instead of bitwise) — it therefore enters stage
        keys via :meth:`stage_params`.
    beam:
        Optional Viterbi beam half-width (log domain).  States whose
        score falls more than ``beam`` below the frame-best are pruned to
        ``-inf``.  ``None`` (default) disables pruning; any finite beam
        changes numerics and enters stage keys.
    """

    acoustic_scale: float = 0.3
    top_k: int = 5
    posterior_mode: str = "fb"
    dtype: str = "float64"
    beam: float | None = None

    def __post_init__(self) -> None:
        check_positive("acoustic_scale", self.acoustic_scale)
        check_positive("top_k", self.top_k)
        check_in("posterior_mode", self.posterior_mode, ["fb", "softmax"])
        check_in("dtype", self.dtype, ["float64", "float32"])
        if self.beam is not None:
            check_positive("beam", self.beam)

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def stage_params(self) -> dict[str, object]:
        """Extra stage-key parameters for memoised decode artifacts.

        Only knobs that change the *numbers* are included:
        ``dtype="float32"`` and finite beams do change results and must
        key separate artifacts.
        """
        params: dict[str, object] = {}
        if self.dtype != "float64":
            params["decode_dtype"] = self.dtype
        if self.beam is not None:
            params["decode_beam"] = float(self.beam)
        return params


@dataclass(frozen=True)
class _DPTables:
    """The phone loop's structural transitions, cast to one DP dtype.

    Built once per decode and passed to every frame step, which then does
    arithmetic only.  Composite state ``p * s + j`` is state ``j`` of
    phone ``p``: entry states are the columns ``0::s``, exit states
    ``s-1::s``, and a within-phone advance runs to the next id.
    """

    init: np.ndarray  # (S,) log-prob of starting in each state
    log_self: np.ndarray  # 0-d self-loop log-prob
    log_leave: np.ndarray  # 0-d within-phone advance log-prob
    cross: np.ndarray  # (P, P) exit of phone p -> entry of phone q
    cross_t: np.ndarray  # (P, P) ``cross.T``, contiguous: rows are targets

    @classmethod
    def build(cls, hmms: PhoneHMMSet, dt: np.dtype) -> "_DPTables":
        log_self, log_leave, cross = hmms.transition_blocks()
        cross = np.asarray(cross, dtype=dt)
        return cls(
            init=hmms.initial_log_probs().astype(dt),
            log_self=np.asarray(log_self, dtype=dt),
            log_leave=np.asarray(log_leave, dtype=dt),
            cross=cross,
            cross_t=np.ascontiguousarray(cross.T),
        )


def _cross_weights(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(cross - shift)`` and ``shift``, each column's max (0 if -inf).

    A finite entry further below its column's max than the log of the
    dtype's smallest normal (708 nats in float64, 87 in float32) would
    underflow where the log-domain sum is finite, so it is refused.
    Smoothed phone bigrams span about 20 nats.
    """
    hi = cross.max(axis=0)
    shift = np.where(np.isfinite(hi), hi, 0.0)
    weights = np.exp(cross - shift)
    if np.any((weights < np.finfo(cross.dtype).tiny) & np.isfinite(cross)):
        raise ValueError(f"cross log-probs span too far for {cross.dtype}")
    return weights, shift


def _cross_term(
    scores: np.ndarray, weights: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """``log(exp(scores) · exp(cross))`` of ``(B, P)`` scores, one product.

    ``m`` is each row's max (0 if -inf).  ``einsum`` sums a row in an
    order that depends on the row alone; BLAS varies it with the batch
    size and memory alignment.
    """
    m = scores.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    total = np.einsum("bp,pq->bq", np.exp(scores - m), weights)
    return (m + shift) + np.log(total)


class ViterbiDecoder:
    """Phone-loop decoder producing posterior sausages."""

    def __init__(
        self,
        hmms: PhoneHMMSet,
        phone_set: PhoneSet,
        config: DecoderConfig | None = None,
    ) -> None:
        if len(phone_set) != hmms.n_phones:
            raise ValueError("phone set size must match the HMM set")
        self.hmms = hmms
        self.phone_set = phone_set
        self.config = config or DecoderConfig()

    def _check_lattice(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Validate a padded ``(B, T_max, S)`` lattice; int64 lengths."""
        b, _, n_states = log_likelihood.shape
        if n_states != self.hmms.n_states:
            raise ValueError("log_likelihood width must equal n_states")
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (b,):
            raise ValueError("lengths must have one entry per batch row")
        return lengths

    # ------------------------------------------------------------------
    # Viterbi
    # ------------------------------------------------------------------
    def viterbi(
        self, log_likelihood: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best composite-state path and per-frame cross-arc flags.

        A batch of one through :meth:`viterbi_batch`.

        Parameters
        ----------
        log_likelihood:
            Scaled emission scores, shape ``(T, n_states)``.

        Returns
        -------
        path:
            Best state id per frame, shape ``(T,)``.
        crossed:
            Boolean per frame; ``True`` where the path entered a *new
            phone instance* at this frame (used to split repeated phones
            into separate segments).
        """
        log_likelihood = np.asarray(log_likelihood)
        paths, crosseds = self.viterbi_batch(
            log_likelihood[None], [log_likelihood.shape[0]]
        )
        return paths[0], crosseds[0]

    def viterbi_batch(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Best paths of a padded lattice tensor, one DP over all rows.

        One vectorized DP advances *all* utterances per frame step; rows
        whose utterance already ended are frozen by an active mask, so
        each row's final ``delta`` is exactly the one-utterance DP's at
        that utterance's last frame.  All reductions run along
        batch-trailing axes, which numpy evaluates identically to a
        batch of one — in float64 the result is bitwise equal to the
        scalar reference DP kept in the test suite.

        Parameters
        ----------
        log_likelihood:
            Scaled emission scores, shape ``(B, T_max, n_states)``,
            zero-padded past each utterance's length.
        lengths:
            True frame counts per utterance, shape ``(B,)``.

        Returns
        -------
        paths, crosseds:
            Per-utterance best state paths and cross-arc flags, each
            trimmed to the utterance's own length.
        """
        lengths = self._check_lattice(log_likelihood, lengths)
        tables = _DPTables.build(self.hmms, log_likelihood.dtype)
        return self._viterbi(log_likelihood, lengths, tables)

    def _viterbi(
        self, log_likelihood: np.ndarray, lengths: np.ndarray, tab: _DPTables
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        b, _, n_states = log_likelihood.shape
        t_end = int(lengths.max(initial=0))
        if t_end == 0:
            return [np.empty(0, np.int64)] * b, [np.empty(0, bool)] * b
        dt = log_likelihood.dtype
        beam = self.config.beam
        s = self.hmms.states_per_phone
        entries, exits = slice(0, None, s), slice(s - 1, None, s)
        idx = np.arange(n_states, dtype=np.int32)
        is_entry = idx % s == 0
        live = lengths[:, None] > np.arange(t_end)  # (B, T): frame in row
        rows, phones = np.arange(b)[:, None], np.arange(self.hmms.n_phones)

        delta = tab.init[None, :] + log_likelihood[:, 0]
        bp = np.zeros((b, t_end, n_states), dtype=np.int32)
        was_cross = np.zeros((b, t_end, n_states), dtype=bool)
        # Best arc other than the self-loop into each state, and its
        # source: a cross-phone arc at entries, the advance elsewhere.
        arcs = np.empty((b, n_states), dtype=dt)
        pred = np.tile(idx - np.int32(1), (b, 1))
        for t in range(1, t_end):
            stay = delta + tab.log_self
            arcs[:, 1:] = delta[:, :-1] + tab.log_leave
            d_exit = delta[:, exits]
            # (B, P_to, P_from): one argmax over the contiguous last axis.
            from_phone = np.argmax(d_exit[:, None, :] + tab.cross_t, axis=2)
            # The max is the same add at the argmax, NaN included.
            arcs[:, entries] = d_exit[rows, from_phone] + tab.cross[
                from_phone, phones
            ]
            pred[:, entries] = from_phone * s + (s - 1)
            take = arcs > stay
            bp[:, t] = np.where(take, pred, idx)
            was_cross[:, t] = take & is_entry
            cand = np.where(take, arcs, stay) + log_likelihood[:, t]
            if beam is not None:
                cand = np.where(
                    cand >= cand.max(axis=1, keepdims=True) - beam, cand, -np.inf
                )
            # Frozen rows keep the delta of their own final frame.
            delta = np.where(live[:, t, None], cand, delta)

        # Backtrace every row at once.  A row joins at its own last frame:
        # until then ``cur`` holds its final best state unchanged.
        rows = np.arange(b)
        cur = np.argmax(delta, axis=1)
        path = np.empty((b, t_end), dtype=np.int64)
        crossed = np.empty((b, t_end), dtype=bool)
        for t in range(t_end - 1, 0, -1):
            path[:, t] = cur
            crossed[:, t] = was_cross[rows, t, cur]
            cur = np.where(live[:, t], bp[rows, t, cur], cur)
        path[:, 0] = cur
        crossed[:, 0] = True  # the first frame always opens a phone instance
        return (
            [path[i, :n] for i, n in enumerate(lengths)],
            [crossed[i, :n] for i, n in enumerate(lengths)],
        )

    # ------------------------------------------------------------------
    # posteriors
    # ------------------------------------------------------------------
    def state_posteriors(self, log_likelihood: np.ndarray) -> np.ndarray:
        """Per-frame state posteriors, shape ``(T, n_states)``.

        A batch of one through :meth:`state_posteriors_batch`.
        """
        log_likelihood = np.asarray(log_likelihood)
        return self.state_posteriors_batch(
            log_likelihood[None], [log_likelihood.shape[0]]
        )[0]

    def state_posteriors_batch(
        self, log_likelihood: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """State posteriors of a padded ``(B, T_max, S)`` lattice.

        Padded frames carry junk posteriors that callers must not read
        (each utterance's consumer slices ``[:length]``).
        """
        lengths = self._check_lattice(log_likelihood, lengths)
        tables = _DPTables.build(self.hmms, log_likelihood.dtype)
        return self._posteriors(log_likelihood, lengths, tables)

    def _posteriors(
        self, log_likelihood: np.ndarray, lengths: np.ndarray, tab: _DPTables
    ) -> np.ndarray:
        if self.config.posterior_mode == "softmax":
            scores = log_likelihood - log_likelihood.max(axis=2, keepdims=True)
            post = np.exp(scores)
            return post / post.sum(axis=2, keepdims=True)
        return self._forward_backward(log_likelihood, lengths, tab)

    def _forward_backward(
        self, log_likelihood: np.ndarray, lengths: np.ndarray, tab: _DPTables
    ) -> np.ndarray:
        """Structured forward–backward over a padded (B, T, S) tensor.

        The backward recursion re-anchors ``beta = 0`` at every row's own
        final frame, and each frame's cross-phone term is one product
        whose summation order depends on the row alone
        (:func:`_cross_term`), so valid frames are bitwise equal to a
        batch of one.  In float64 they lie within 1e-12 of the
        log-domain reference DP in the test suite, with its -inf/NaN
        pattern.
        """
        b, t_max, n_states = log_likelihood.shape
        dt = log_likelihood.dtype
        scaled = log_likelihood
        s = self.hmms.states_per_phone
        entries, exits = slice(0, None, s), slice(s - 1, None, s)
        fwd = _cross_weights(tab.cross)
        bwd = _cross_weights(tab.cross_t)

        alpha = np.empty((b, t_max, n_states), dtype=dt)
        beta = np.empty((b, t_max, n_states), dtype=dt)
        last = (lengths - 1)[:, None]
        # Arcs other than the self-loop, into (forward) or out of a state:
        # cross-phone arcs alone at entries (exits), advances elsewhere.
        arcs = np.empty((b, n_states), dtype=dt)
        # log(0) is the -inf of a phone that no path reaches.
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha[:, 0] = tab.init + scaled[:, 0]
            for t in range(1, t_max):
                prev = alpha[:, t - 1]
                arcs[:, 1:] = prev[:, :-1] + tab.log_leave
                arcs[:, entries] = _cross_term(prev[:, exits], *fwd)
                stay = prev + tab.log_self
                alpha[:, t] = np.logaddexp(stay, arcs) + scaled[:, t]

            beta[:, -1] = 0.0
            for t in range(t_max - 2, -1, -1):
                nxt = beta[:, t + 1] + scaled[:, t + 1]
                arcs[:, :-1] = nxt[:, 1:] + tab.log_leave
                arcs[:, exits] = _cross_term(nxt[:, entries], *bwd)
                step = np.logaddexp(nxt + tab.log_self, arcs)
                beta[:, t] = np.where(last == t, 0.0, step)

            log_gamma = alpha + beta
            log_gamma -= log_gamma.max(axis=2, keepdims=True)
            gamma = np.exp(log_gamma)
            gamma /= gamma.sum(axis=2, keepdims=True)
        return gamma

    # ------------------------------------------------------------------
    # end-to-end
    # ------------------------------------------------------------------
    def _scaled_loglik(self, frames: np.ndarray) -> np.ndarray:
        """Scaled emission scores in the configured DP dtype.

        Emissions are always evaluated in float64 (one code path, one
        GEMM blocking) and cast *after* scaling, so float32 runs differ
        from float64 only in DP arithmetic, not in emission order.
        """
        loglik = (
            self.config.acoustic_scale
            * self.hmms.emission.frame_log_likelihood(frames)
        )
        return loglik.astype(self.config.np_dtype, copy=False)

    def decode(self, frames: np.ndarray) -> Sausage:
        """Decode feature frames into a posterior sausage.

        A batch of one through :meth:`decode_batch`.
        """
        return self.decode_batch([frames])[0]

    def decode_batch(self, frames_list: list[np.ndarray]) -> list[Sausage]:
        """Decode a batch of utterances through one padded-lattice DP.

        Frames are padded into a ``(B, T_max, S)`` tensor and a single
        vectorized Viterbi (plus batched posteriors) runs over all rows
        at once — per-frame Python overhead is paid once per batch
        instead of once per utterance.  Emissions stay per-utterance
        (batching them would re-block the GEMM and perturb float sums),
        so each sausage is bitwise identical to decoding the utterance
        alone; in float64 its probabilities lie within 1e-12 of the
        log-domain reference DP.

        Under an active trace the work is split into ``emission``, ``dp``
        (Viterbi) and ``posteriors`` (state posteriors and sausage
        assembly) spans.
        """
        frames_list = [
            np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in frames_list
        ]
        if not frames_list:
            return []
        _DECODES.inc(len(frames_list))
        for f in frames_list:
            _DECODE_FRAMES.observe(float(f.shape[0]))
        b = len(frames_list)
        with trace.span("emission"):
            logliks = [self._scaled_loglik(f) for f in frames_list]
            lengths = np.array([ll.shape[0] for ll in logliks], dtype=np.int64)
            t_max = int(lengths.max())
            lattice = np.zeros(
                (b, t_max, self.hmms.n_states), dtype=self.config.np_dtype
            )
            for i, ll in enumerate(logliks):
                lattice[i, : ll.shape[0]] = ll
        if t_max == 0:
            return [Sausage([], self.phone_set) for _ in range(b)]
        tables = _DPTables.build(self.hmms, lattice.dtype)
        with trace.span("dp"):
            paths, crosseds = self._viterbi(lattice, lengths, tables)
        with trace.span("posteriors"):
            posteriors = self._posteriors(lattice, lengths, tables)
            s = self.hmms.states_per_phone
            phone_post = posteriors.reshape(
                b, t_max, self.hmms.n_phones, s
            ).sum(axis=3)
            return self._sausages(paths, crosseds, phone_post, lengths)

    def _sausages(
        self,
        paths: list[np.ndarray],
        crosseds: list[np.ndarray],
        phone_post: np.ndarray,
        lengths: np.ndarray,
    ) -> list[Sausage]:
        """One slot per Viterbi phone segment, the whole batch in one pass.

        A segment starts where the phone changes or a cross arc fired.
        Its posterior is the mean of its frames' phone posteriors, summed
        in frame order as ``np.mean`` sums them (``np.add.reduceat``
        groups its sums differently).  A slot keeps the ``top_k`` most
        probable phones with positive mass, plus the Viterbi phone (in
        place of the last one if the slot is full).  Its probabilities
        are renormalised (uniform if the kept mass is zero, e.g. a
        forced-in winner whose posterior underflowed) and sorted by
        phone.  Every slot's arithmetic is that of the slot alone, and
        each sausage pads to its own widest slot.
        """
        s = self.hmms.states_per_phone
        n_phones = self.hmms.n_phones
        top_k = self.config.top_k
        live = lengths[:, None] > np.arange(phone_post.shape[1])
        phone_path = np.concatenate(paths) // s
        boundary = np.concatenate(crosseds)
        boundary[1:] |= phone_path[1:] != phone_path[:-1]
        row_start = np.cumsum(lengths) - lengths
        boundary[row_start[lengths > 0]] = True
        starts = np.flatnonzero(boundary)
        frames_per_seg = np.diff(np.append(starts, phone_path.size))
        seg_post = np.zeros((starts.size, n_phones), dtype=phone_post.dtype)
        np.add.at(seg_post, np.cumsum(boundary) - 1, phone_post[live])
        np.true_divide(
            seg_post, frames_per_seg[:, None], out=seg_post, casting="unsafe"
        )

        rows = np.arange(starts.size)[:, None]
        ranked = np.argsort(seg_post, axis=1)[:, ::-1][:, :top_k]
        kept = seg_post[rows, ranked] > 0
        n_kept = kept.sum(axis=1)
        winner = phone_path[starts]
        forced = ~np.any((ranked == winner[:, None]) & kept, axis=1)
        top = np.full((starts.size, ranked.shape[1] + 1), -1, dtype=np.int64)
        r, c = np.nonzero(kept)
        top[r, np.cumsum(kept, axis=1)[r, c] - 1] = ranked[r, c]
        top[forced, np.minimum(n_kept, top_k - 1)[forced]] = winner[forced]
        width = np.where(forced & (n_kept < top_k), n_kept + 1, n_kept)

        valid = top >= 0
        probs = np.where(valid, seg_post[rows, top], 0.0).astype(np.float64)
        # A sum's grouping depends on its length, so each width sums alone.
        total = np.empty(starts.size)
        for w in np.unique(width).tolist():
            sel = np.flatnonzero(width == w)
            total[sel] = probs[sel, :w].sum(axis=1)
        mass = total > 0.0
        probs[mass] /= total[mass, None]
        probs[~mass] = np.where(valid[~mass], 1.0 / width[~mass, None], 0.0)
        order = np.argsort(np.where(valid, top, n_phones), axis=1)
        phones = np.take_along_axis(top, order, axis=1)
        probs = np.take_along_axis(probs, order, axis=1)
        Sausage._validate_slot_arrays(phones, probs, self.phone_set)

        first = np.searchsorted(starts, row_start).tolist()
        last = first[1:] + [starts.size]
        sausages = []
        for lo, hi in zip(first, last):
            k = int(width[lo:hi].max(initial=0))
            sausages.append(
                Sausage._from_validated_arrays(
                    np.ascontiguousarray(phones[lo:hi, :k]),
                    np.ascontiguousarray(probs[lo:hi, :k]),
                    self.phone_set,
                )
            )
        return sausages
