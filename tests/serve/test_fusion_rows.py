"""Fused rows do not depend on the batch they are fused in.

The engine answers a score-cache hit by fusing its one cached stack on
the submitting thread, while a miss is fused inside a batch; perfbench
checks that a repeated utterance scores bitwise the same.  Both rely on
``TrainedSystem.fusion.transform`` giving each row the same bits at any
batch size and row offset.  A BLAS that sent a 1-row product down a
different kernel would break that; these tests would catch it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ScoringEngine
from repro.serve.protocol import utterance_digest

POOL = 40


@pytest.fixture(scope="module")
def score_stacks(serve_system, serve_trained):
    """``(POOL, N, K)`` raw subsystem score stacks of real utterances."""
    utts = list(serve_system.bundle.dev.utterances)
    utts += list(serve_system.bundle.test[3.0].utterances)
    utts = utts[:POOL]
    assert len(utts) == POOL
    engine = ScoringEngine(serve_trained, cache_entries=None)
    engine.score_utterances(utts)
    return np.stack([engine.cache.get(utterance_digest(u)) for u in utts])


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
    reference = _fuse(serve_trained, score_stacks)
    for i, stack in enumerate(score_stacks):
        alone = serve_trained.fusion.transform([s[None, :] for s in stack])
        assert alone[0].tobytes() == reference[i].tobytes()
