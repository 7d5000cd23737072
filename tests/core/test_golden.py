"""Golden digests of Table 4.

The sha256 of the text ``repro table4 --scale smoke --seed N`` prints
pins the whole campaign — corpus sampling, decoding, φ, TFLLR, SVM
training, DBA and fusion — to the float64 bitwise table contract.  A
change that moves any table byte fails here; such a change must bump
the digest in the same commit and say why in CHANGES.md.

The acoustic digests pin the same command over a corpus small enough
to decode with the trained GMM/MLP-HMM frontends in a few seconds, the
only campaign that runs the Viterbi decoder and its forward–backward
posteriors.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.cli
from repro.cli import main
from repro.core import ExperimentConfig, smoke_scale
from repro.corpus.splits import CorpusConfig

GOLDEN = {
    2009: "6377cb359d68a6af2cedfe6021093975377d93bb66664472a1f148a3c3f572f5",
    2010: "075c7cf152909498ad06ba5b7ef5c7cacc6015bce7199522abaf15c52560f2b8",
}

ACOUSTIC_GOLDEN = {
    3: "5e986a2b7226235dbc7c00719ae944fdec08fdbef4813d23712581469de6fa2d",
    4: "15537dedd2b0ec35387fa9834fd36324d6a67110956e0bf66794cb298187878a",
}


def acoustic_config(seed: int) -> ExperimentConfig:
    """Three languages, two utterances per language and split."""
    return ExperimentConfig(
        corpus=CorpusConfig(
            n_languages=3,
            n_families=2,
            train_per_language=2,
            dev_per_language=2,
            test_per_language=2,
            durations=(1.0, 0.5),
            train_duration=2.0,
            seed=seed,
        ),
        system=smoke_scale(seed).system,
        frontend_mode="acoustic",
    )


def _table4_digest(seed, capsys, monkeypatch) -> str:
    # A traced run appends a "runlog written to" line; pin the table only.
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert main(["table4", "--scale", "smoke", "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_table4_smoke_digest(seed, capsys, monkeypatch):
    assert _table4_digest(seed, capsys, monkeypatch) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(ACOUSTIC_GOLDEN))
def test_table4_acoustic_digest(seed, capsys, monkeypatch):
    monkeypatch.setattr(repro.cli, "smoke_scale", acoustic_config)
    assert _table4_digest(seed, capsys, monkeypatch) == ACOUSTIC_GOLDEN[seed]
