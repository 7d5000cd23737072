"""Left-to-right phone HMMs with pluggable emission models.

Each recognizer phone is a left-to-right HMM of ``states_per_phone``
states; the composite decoding graph is a phone loop whose cross-phone
transitions carry phone-bigram language-model scores and an insertion
penalty.  Emissions come from either per-state diagonal GMMs ("GMM-HMM")
or a frame-classifying MLP used hybrid-style ("ANN-HMM" / "DNN-HMM":
state posterior / state prior = scaled likelihood, Dahl et al. 2012).

Training uses the flat-start alignment available in the synthetic corpus:
the generator knows every utterance's true phone segmentation, so each
phone segment is uniformly split across its HMM states (the standard
uniform-segmentation initializer) and emissions are trained on the
resulting state-labelled frames.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.frontend.am.gmm import _LOG_2PI, DiagonalGMM
from repro.frontend.am.mlp import MLPClassifier, MLPConfig
from repro.utils.rng import child_rng
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "EmissionModel",
    "GMMEmission",
    "NeuralEmission",
    "PhoneHMMSet",
    "uniform_state_alignment",
]


def uniform_state_alignment(
    local_phones: np.ndarray,
    phone_frames: np.ndarray,
    states_per_phone: int,
) -> np.ndarray:
    """Frame-level composite-state labels from a phone segmentation.

    Each phone segment of ``L`` frames is split into ``states_per_phone``
    near-equal contiguous runs; state ``s`` of phone ``p`` has composite id
    ``p * states_per_phone + s``.  Segments shorter than the state count
    assign their frames to the earliest states.
    """
    local_phones = np.asarray(local_phones, dtype=np.int64)
    phone_frames = np.asarray(phone_frames, dtype=np.int64)
    if local_phones.shape != phone_frames.shape:
        raise ValueError("phones and frames must align")
    # Frame i of an L-frame segment belongs to state floor(i * S / L),
    # which is monotone and uses all states when L >= S.
    length = np.repeat(phone_frames, phone_frames)
    start = np.repeat(np.cumsum(phone_frames) - phone_frames, phone_frames)
    offset = np.arange(length.size, dtype=np.int64) - start
    states = np.minimum(
        offset * states_per_phone // length, states_per_phone - 1
    )
    return np.repeat(local_phones, phone_frames) * states_per_phone + states


class EmissionModel(Protocol):
    """Anything that scores frames against composite HMM states."""

    def frame_log_likelihood(self, frames: np.ndarray) -> np.ndarray:
        """Return ``(T, n_states)`` scaled log-likelihoods."""
        ...

    @property
    def n_states(self) -> int:
        """Number of composite states covered."""
        ...


#: Float64 elements in the ``(frames, states, components, dims)`` temporary
#: of one stacked emission block (8 MiB).  A 39-dim, 111-state,
#: 4-component model evaluates 60 frames per block.
EMISSION_BLOCK_ELEMENTS = 1 << 20


class _StateGroup:
    """States whose GMMs share one ``(M, D)`` parameter shape, stacked."""

    def __init__(self, states: list[int], gmms: list[DiagonalGMM]) -> None:
        self.states = np.asarray(states, dtype=np.intp)
        self.means = np.stack([g.means for g in gmms])  # (G, M, D)
        self.variances = np.stack([g.variances for g in gmms])
        # Per-GMM reductions, exactly as component_log_likelihood forms them.
        self.log_det = np.stack(
            [np.sum(np.log(g.variances), axis=1) for g in gmms]
        )  # (G, M)
        self.log_weights = np.stack([g.log_weights for g in gmms])  # (G, M)
        self.block_frames = max(1, EMISSION_BLOCK_ELEMENTS // self.means.size)

    def log_likelihood(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``log p(x_t | state)`` for the group's states into ``out``.

        Each step repeats :meth:`DiagonalGMM.component_log_likelihood` and
        :meth:`DiagonalGMM.log_likelihood` with the same elementwise
        operations and the same last-axis reductions, so every value is
        bitwise equal to the per-state call.
        """
        t, d = x.shape
        buf = np.empty((min(t, self.block_frames),) + self.means.shape)
        for lo in range(0, t, self.block_frames):
            hi = min(lo + self.block_frames, t)
            diff = buf[: hi - lo]
            np.subtract(x[lo:hi, None, None, :], self.means, out=diff)
            diff *= diff
            diff /= self.variances
            quad = np.sum(diff, axis=3)  # (F, G, M)
            comp = -0.5 * (quad + self.log_det + d * _LOG_2PI) + self.log_weights
            m = comp.max(axis=2, keepdims=True)
            ll = m + np.log(np.exp(comp - m).sum(axis=2, keepdims=True))
            out[lo:hi, self.states] = ll[:, :, 0]


class GMMEmission:
    """Per-state diagonal GMM emissions.

    States are grouped by GMM parameter shape and each group is scored
    in one broadcast per frame block.  Ragged component counts are not
    padded to a common size: padding would change the length of the
    per-state sums and with it their floating-point grouping.
    """

    def __init__(self, gmms: list[DiagonalGMM]) -> None:
        if not gmms:
            raise ValueError("need at least one state GMM")
        self._gmms = gmms
        by_shape: dict[tuple[int, ...], list[int]] = {}
        for s, gmm in enumerate(gmms):
            gmm._check_fitted()
            by_shape.setdefault(gmm.means.shape, []).append(s)
        self._groups = [
            _StateGroup(states, [gmms[s] for s in states])
            for states in by_shape.values()
        ]

    @property
    def n_states(self) -> int:
        return len(self._gmms)

    def frame_log_likelihood(self, frames: np.ndarray) -> np.ndarray:
        """Per-state GMM log likelihoods, shape ``(T, n_states)``.

        Bitwise equal to ``gmms[s].log_likelihood(frames)`` per column.
        """
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        out = np.empty((frames.shape[0], self.n_states))
        for group in self._groups:
            group.log_likelihood(frames, out)
        return out

    @classmethod
    def train(
        cls,
        frames: np.ndarray,
        state_labels: np.ndarray,
        n_states: int,
        *,
        n_components: int = 4,
        n_iter: int = 8,
        seed: int = 0,
    ) -> "GMMEmission":
        """Fit one GMM per state on its aligned frames.

        States with too few frames for the requested mixture size fall back
        to a single-Gaussian model on the global statistics.
        """
        frames = np.atleast_2d(frames)
        global_mean = frames.mean(axis=0, keepdims=True)
        global_var = np.maximum(frames.var(axis=0, keepdims=True), 1e-3)
        # One stable sort splits the frames by state, each in frame order.
        state_labels = np.asarray(state_labels)
        order = np.argsort(state_labels, kind="stable")
        bounds = np.searchsorted(
            state_labels[order], np.arange(n_states + 1)
        ).tolist()
        gmms: list[DiagonalGMM] = []
        for s in range(n_states):
            sel = frames[order[bounds[s] : bounds[s + 1]]]
            if sel.shape[0] >= 2 * n_components:
                gmm = DiagonalGMM(n_components).fit(
                    sel, n_iter=n_iter, rng=child_rng(seed, f"state/{s}")
                )
            elif sel.shape[0] >= 2:
                gmm = DiagonalGMM.from_parameters(
                    sel.mean(axis=0, keepdims=True),
                    np.maximum(sel.var(axis=0, keepdims=True), 1e-3),
                    np.array([1.0]),
                )
            else:
                gmm = DiagonalGMM.from_parameters(
                    global_mean, global_var, np.array([1.0])
                )
            gmms.append(gmm)
        return cls(gmms)


class NeuralEmission:
    """Hybrid MLP emissions: log p(state|frame) - log p(state)."""

    def __init__(self, mlp: MLPClassifier, log_priors: np.ndarray) -> None:
        self._mlp = mlp
        self._log_priors = np.asarray(log_priors, dtype=np.float64)
        if self._log_priors.ndim != 1:
            raise ValueError("log_priors must be 1-D")

    @property
    def n_states(self) -> int:
        return int(self._log_priors.size)

    def frame_log_likelihood(self, frames: np.ndarray) -> np.ndarray:
        """Hybrid scaled log likelihoods (posterior − prior), ``(T, S)``."""
        log_post = self._mlp.predict_log_proba(np.atleast_2d(frames))
        if log_post.shape[1] != self.n_states:
            raise ValueError("MLP output size does not match state count")
        return log_post - self._log_priors[None, :]

    @classmethod
    def train(
        cls,
        frames: np.ndarray,
        state_labels: np.ndarray,
        n_states: int,
        *,
        config: MLPConfig | None = None,
        seed: int = 0,
        dev_fraction: float = 0.1,
    ) -> "NeuralEmission":
        """Train the frame classifier and estimate state priors."""
        frames = np.atleast_2d(frames)
        state_labels = np.asarray(state_labels, dtype=np.int64)
        if state_labels.max(initial=0) >= n_states:
            raise ValueError("state label out of range")
        rng = child_rng(seed, "mlp")
        n = frames.shape[0]
        n_dev = max(1, int(dev_fraction * n)) if n > 10 else 0
        order = rng.permutation(n)
        dev_idx, train_idx = order[:n_dev], order[n_dev:]
        dev = (frames[dev_idx], state_labels[dev_idx]) if n_dev else None
        mlp = MLPClassifier(config or MLPConfig())
        # Pad targets so the classifier allocates all n_states outputs even
        # if the tail states never occur in this training set.
        y = state_labels[train_idx].copy()
        x = frames[train_idx]
        if y.max(initial=0) < n_states - 1:
            x = np.vstack([x, frames[:1]])
            y = np.concatenate([y, [n_states - 1]])
        mlp.fit(x, y, rng=rng, dev=dev)
        counts = np.bincount(state_labels, minlength=n_states).astype(np.float64)
        priors = (counts + 1.0) / (counts.sum() + n_states)
        return cls(mlp, np.log(priors))


class PhoneHMMSet:
    """A phone-loop HMM over a recognizer inventory.

    Parameters
    ----------
    n_phones:
        Recognizer inventory size.
    states_per_phone:
        Left-to-right states per phone (paper AMs are 3-state; the
        reproduction defaults to 2 at its reduced frame rate).
    emission:
        Emission model over ``n_phones * states_per_phone`` states.
    self_loop:
        Within-state self-loop probability.
    phone_log_bigram:
        Optional ``(n_phones, n_phones)`` log phone-transition LM used on
        cross-phone arcs; uniform if omitted.
    insertion_log_penalty:
        Additive log penalty on every cross-phone arc (controls the
        insertion/deletion balance of the decoder).
    """

    def __init__(
        self,
        n_phones: int,
        states_per_phone: int,
        emission: EmissionModel,
        *,
        self_loop: float = 0.55,
        phone_log_bigram: np.ndarray | None = None,
        insertion_log_penalty: float = 0.0,
    ) -> None:
        check_positive("n_phones", n_phones)
        check_positive("states_per_phone", states_per_phone)
        check_probability("self_loop", self_loop)
        self.n_phones = int(n_phones)
        self.states_per_phone = int(states_per_phone)
        self.n_states = self.n_phones * self.states_per_phone
        if emission.n_states != self.n_states:
            raise ValueError(
                f"emission covers {emission.n_states} states, "
                f"HMM set needs {self.n_states}"
            )
        self.emission = emission
        self.self_loop = float(self_loop)
        if phone_log_bigram is None:
            phone_log_bigram = np.full(
                (n_phones, n_phones), -np.log(n_phones)
            )
        phone_log_bigram = np.asarray(phone_log_bigram, dtype=np.float64)
        if phone_log_bigram.shape != (n_phones, n_phones):
            raise ValueError("phone_log_bigram shape mismatch")
        self.phone_log_bigram = phone_log_bigram
        self.insertion_log_penalty = float(insertion_log_penalty)

    # ------------------------------------------------------------------
    # state-space helpers
    # ------------------------------------------------------------------
    def state_phone(self) -> np.ndarray:
        """Phone id of every composite state."""
        return np.repeat(np.arange(self.n_phones), self.states_per_phone)

    def entry_states(self) -> np.ndarray:
        """Composite id of each phone's first state."""
        return np.arange(self.n_phones) * self.states_per_phone

    def exit_states(self) -> np.ndarray:
        """Composite id of each phone's last state."""
        return self.entry_states() + self.states_per_phone - 1

    def initial_log_probs(self) -> np.ndarray:
        """Log probability of starting in each composite state."""
        out = np.full(self.n_states, -np.inf)
        out[self.entry_states()] = -np.log(self.n_phones)
        return out

    def transition_blocks(self) -> tuple[float, float, np.ndarray]:
        """Log-probs of the three structural transitions.

        Returns ``(log_self, log_advance, cross)`` where ``cross`` is the
        ``(n_phones, n_phones)`` log-prob of leaving phone ``p``'s exit
        state into phone ``q``'s entry state (LM score, exit mass and
        insertion penalty included).
        """
        log_self = float(np.log(self.self_loop))
        log_leave = float(np.log1p(-self.self_loop))
        cross = (
            self.phone_log_bigram + log_leave + self.insertion_log_penalty
        )
        return log_self, log_leave, cross
