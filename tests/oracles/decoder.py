"""Scalar reference DP for :mod:`repro.frontend.decoder`.

One utterance at a time, one frame step at a time: the Viterbi and
structured forward–backward recursions as the decoder first implemented
them, and the slot segmentation one Viterbi segment at a time.
:class:`ScalarDecoder` wraps a
:class:`~repro.frontend.decoder.ViterbiDecoder` and reuses its emission
scaling.  In float64, ``ViterbiDecoder`` must reproduce its Viterbi
paths byte for byte, and its posteriors and slot probabilities within
1e-12: the decoder sums cross-phone arcs as a product with
``exp(cross)``, this reference as a log-sum-exp.  Given the same paths
and phone posteriors, the decoder's batched segmentation must
reproduce :meth:`ScalarDecoder._segment_slots` byte for byte, in either
DP dtype.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.decoder import ViterbiDecoder
from repro.frontend.lattice import Sausage, SausageSlot

__all__ = ["ScalarDecoder"]


class ScalarDecoder:
    """Per-utterance reference for a :class:`ViterbiDecoder`."""

    def __init__(self, decoder: ViterbiDecoder) -> None:
        self.hmms = decoder.hmms
        self.phone_set = decoder.phone_set
        self.config = decoder.config
        self._scaled_loglik = decoder._scaled_loglik

    def viterbi(
        self, log_likelihood: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best composite-state path and per-frame cross-arc flags.

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
        hmms = self.hmms
        t_total, n_states = log_likelihood.shape
        if n_states != hmms.n_states:
            raise ValueError("log_likelihood width must equal n_states")
        if t_total == 0:
            return np.empty(0, np.int64), np.empty(0, bool)
        dt = log_likelihood.dtype
        beam = self.config.beam
        log_self, log_leave, cross = hmms.transition_blocks()
        log_self = np.asarray(log_self, dtype=dt)
        log_leave = np.asarray(log_leave, dtype=dt)
        cross = np.asarray(cross, dtype=dt)
        entries = hmms.entry_states()
        exits = hmms.exit_states()
        s = hmms.states_per_phone
        non_entry = np.setdiff1d(np.arange(n_states), entries)

        delta = hmms.initial_log_probs().astype(dt) + log_likelihood[0]
        bp = np.zeros((t_total, n_states), dtype=np.int32)
        was_cross = np.zeros((t_total, n_states), dtype=bool)
        for t in range(1, t_total):
            stay = delta + log_self
            adv = np.full(n_states, -np.inf, dtype=dt)
            if s > 1:
                adv[non_entry] = delta[non_entry - 1] + log_leave
            # Cross-phone: from every exit state into every entry state.
            cross_scores = delta[exits][:, None] + cross  # (P, P)
            from_phone = np.argmax(cross_scores, axis=0)
            cross_best = cross_scores[from_phone, np.arange(hmms.n_phones)]
            new_delta = stay
            new_bp = np.arange(n_states, dtype=np.int32)
            adv_better = adv > new_delta
            new_delta = np.where(adv_better, adv, new_delta)
            new_bp = np.where(
                adv_better, np.arange(n_states, dtype=np.int32) - 1, new_bp
            )
            cross_flag = np.zeros(n_states, dtype=bool)
            cross_better = np.full(n_states, -np.inf, dtype=dt)
            cross_better[entries] = cross_best
            take_cross = cross_better > new_delta
            new_delta = np.where(take_cross, cross_better, new_delta)
            cross_pred = np.zeros(n_states, dtype=np.int32)
            cross_pred[entries] = exits[from_phone].astype(np.int32)
            new_bp = np.where(take_cross, cross_pred, new_bp)
            cross_flag |= take_cross
            delta = new_delta + log_likelihood[t]
            if beam is not None:
                delta = np.where(delta >= delta.max() - beam, delta, -np.inf)
            bp[t] = new_bp
            was_cross[t] = cross_flag

        path = np.empty(t_total, dtype=np.int64)
        crossed = np.zeros(t_total, dtype=bool)
        path[-1] = int(np.argmax(delta))
        for t in range(t_total - 1, 0, -1):
            crossed[t] = was_cross[t, path[t]]
            path[t - 1] = bp[t, path[t]]
        crossed[0] = True  # the first frame always opens a phone instance
        return path, crossed

    def state_posteriors(self, log_likelihood: np.ndarray) -> np.ndarray:
        """Per-frame state posteriors, shape ``(T, n_states)``."""
        if self.config.posterior_mode == "softmax":
            scores = log_likelihood - log_likelihood.max(axis=1, keepdims=True)
            post = np.exp(scores)
            return post / post.sum(axis=1, keepdims=True)
        return self._forward_backward(log_likelihood)

    def _structured_step_forward(
        self, prev: np.ndarray
    ) -> np.ndarray:
        """One forward log-sum step through the structured transitions."""
        hmms = self.hmms
        log_self, log_leave, cross = hmms.transition_blocks()
        entries, exits = hmms.entry_states(), hmms.exit_states()
        n_states = hmms.n_states
        stay = prev + log_self
        adv = np.full(n_states, -np.inf)
        if hmms.states_per_phone > 1:
            non_entry = np.setdiff1d(np.arange(n_states), entries)
            adv[non_entry] = prev[non_entry - 1] + log_leave
        cross_scores = prev[exits][:, None] + cross  # (P, P)
        m = cross_scores.max(axis=0)
        with np.errstate(over="ignore", divide="ignore"):
            cross_in = m + np.log(
                np.exp(cross_scores - np.where(np.isfinite(m), m, 0.0)).sum(axis=0)
            )
        combined = np.logaddexp(stay, adv)
        full_cross = np.full(n_states, -np.inf)
        full_cross[entries] = cross_in
        return np.logaddexp(combined, full_cross)

    def _structured_step_backward(self, nxt: np.ndarray) -> np.ndarray:
        """One backward log-sum step (``nxt`` already includes emissions)."""
        hmms = self.hmms
        log_self, log_leave, cross = hmms.transition_blocks()
        entries, exits = hmms.entry_states(), hmms.exit_states()
        n_states = hmms.n_states
        stay = nxt + log_self
        adv = np.full(n_states, -np.inf)
        if hmms.states_per_phone > 1:
            non_exit = np.setdiff1d(np.arange(n_states), exits)
            adv[non_exit] = nxt[non_exit + 1] + log_leave
        # From exit of phone p into entries of all phones q.
        cross_scores = cross + nxt[entries][None, :]  # (P, P)
        m = cross_scores.max(axis=1)
        with np.errstate(over="ignore", divide="ignore"):
            cross_out = m + np.log(
                np.exp(cross_scores - np.where(np.isfinite(m), m, 0.0)[:, None]).sum(
                    axis=1
                )
            )
        combined = np.logaddexp(stay, adv)
        full_cross = np.full(n_states, -np.inf)
        full_cross[exits] = cross_out
        return np.logaddexp(combined, full_cross)

    def _forward_backward(self, log_likelihood: np.ndarray) -> np.ndarray:
        t_total, n_states = log_likelihood.shape
        scaled = log_likelihood
        dt = log_likelihood.dtype
        alpha = np.empty((t_total, n_states), dtype=dt)
        alpha[0] = self.hmms.initial_log_probs().astype(dt) + scaled[0]
        for t in range(1, t_total):
            alpha[t] = self._structured_step_forward(alpha[t - 1]) + scaled[t]
        beta = np.empty((t_total, n_states), dtype=dt)
        beta[-1] = 0.0
        for t in range(t_total - 2, -1, -1):
            beta[t] = self._structured_step_backward(beta[t + 1] + scaled[t + 1])
        log_gamma = alpha + beta
        log_gamma -= log_gamma.max(axis=1, keepdims=True)
        gamma = np.exp(log_gamma)
        gamma /= gamma.sum(axis=1, keepdims=True)
        return gamma

    def decode(self, frames: np.ndarray) -> Sausage:
        """Decode feature frames into a posterior sausage."""
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        loglik = self._scaled_loglik(frames)
        path, crossed = self.viterbi(loglik)
        if path.size == 0:
            return Sausage([], self.phone_set)
        posteriors = self.state_posteriors(loglik)
        # Fold composite-state posteriors to phone posteriors.
        s = self.hmms.states_per_phone
        phone_post = posteriors.reshape(
            posteriors.shape[0], self.hmms.n_phones, s
        ).sum(axis=2)
        phone_path = path // s
        slots = self._segment_slots(phone_path, crossed, phone_post)
        return Sausage(slots, self.phone_set)

    def _segment_slots(
        self,
        phone_path: np.ndarray,
        crossed: np.ndarray,
        phone_post: np.ndarray,
    ) -> list[SausageSlot]:
        """Split the frame-level path at phone-instance boundaries."""
        cfg = self.config
        # A segment starts where the phone changes or a cross arc fired.
        boundary = np.zeros(phone_path.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = (phone_path[1:] != phone_path[:-1]) | crossed[1:]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], phone_path.size)
        slots = []
        for a, b in zip(starts, ends):
            seg_post = phone_post[a:b].mean(axis=0)
            top = np.argsort(seg_post)[::-1][: cfg.top_k]
            top = top[seg_post[top] > 0]
            winner = phone_path[a]
            if winner not in top:
                top = np.append(top[:-1] if top.size >= cfg.top_k else top, winner)
            probs = seg_post[top].astype(np.float64)
            total = probs.sum()
            if total > 0.0:
                probs = probs / total
            else:
                # All kept mass can be zero (a forced-in winner whose
                # posterior underflowed, e.g. under tight beams or
                # float32); fall back to uniform instead of 0/0 → NaN.
                probs = np.full(top.size, 1.0 / top.size)
            order = np.argsort(top)
            slots.append(SausageSlot(top[order], probs[order]))
        return slots
