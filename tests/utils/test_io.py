"""Tests for score-matrix exchange files."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.io import load_scores, save_scores


class TestScoresRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        scores = {"dev": rng.normal(size=(4, 3)), "test": rng.normal(size=(6, 3))}
        save_scores(tmp_path / "s.npz", scores)
        loaded = load_scores(tmp_path / "s.npz")
        assert set(loaded) == {"dev", "test"}
        np.testing.assert_allclose(loaded["dev"], scores["dev"])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_scores(tmp_path / "s.npz", {"bad": np.zeros(3)})
