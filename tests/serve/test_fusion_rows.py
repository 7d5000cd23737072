"""Fused rows do not depend on the batch they are fused in.

The engine caches the calibrated row a batch served for an utterance
and answers every later hit with it, while a batch fuses only its
misses; perfbench checks that a repeated utterance scores bitwise the
same.  Both rely on ``TrainedSystem.fusion.transform`` giving each row
the same bits at any batch size and row offset, so that a row cached
from one batch equals the row any other batch would serve.  A BLAS that
sent a 1-row product down a different kernel would break that; these
tests would catch it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.registry import decode_utterances

POOL = 40


@pytest.fixture(scope="module")
def score_stacks(serve_system, serve_trained):
    """``(POOL, N, K)`` raw subsystem score stacks of real utterances."""
    utts = list(serve_system.bundle.dev.utterances)
    utts += list(serve_system.bundle.test[3.0].utterances)
    utts = utts[:POOL]
    assert len(utts) == POOL
    seed = serve_trained.config.system.seed
    raw = {}
    for fe_name, vsm in serve_trained.subsystems:
        if fe_name not in raw:
            frontend = next(
                fe for fe in serve_trained.frontends if fe.name == fe_name
            )
            raw[fe_name] = vsm.extract(decode_utterances(frontend, seed, utts))
    return np.stack(
        [vsm.score_matrix(raw[fe]) for fe, vsm in serve_trained.subsystems],
        axis=1,
    )


def _fuse(trained, stacks: np.ndarray) -> np.ndarray:
    """Fuse ``(m, N, K)`` stacks as the engine's batch path does."""
    return trained.fusion.transform(
        [stacks[:, q, :] for q in range(stacks.shape[1])]
    )


@settings(max_examples=40, deadline=None)
@given(
    start=st.integers(0, POOL - 1),
    size=st.integers(1, POOL),
)
def test_contiguous_sub_batches_fuse_bitwise(
    serve_trained, score_stacks, start, size
):
    reference = _fuse(serve_trained, score_stacks)
    stop = min(start + size, POOL)
    rows = _fuse(serve_trained, score_stacks[start:stop])
    assert rows.tobytes() == reference[start:stop].tobytes()


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, POOL - 1), min_size=1, max_size=POOL))
def test_any_row_mix_fuses_bitwise(serve_trained, score_stacks, picks):
    reference = _fuse(serve_trained, score_stacks)
    rows = _fuse(serve_trained, score_stacks[picks])
    assert rows.tobytes() == reference[picks].tobytes()


def test_single_row_fusion_matches_the_admission_path(
    serve_trained, score_stacks
):
    """A lone miss fuses a 1-row batch; admission then serves that row."""
    reference = _fuse(serve_trained, score_stacks)
    for i, stack in enumerate(score_stacks):
        alone = serve_trained.fusion.transform([s[None, :] for s in stack])
        assert alone[0].tobytes() == reference[i].tobytes()
