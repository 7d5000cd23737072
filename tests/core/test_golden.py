"""Golden digests of the smoke-scale Table 4.

The sha256 of the text ``repro table4 --scale smoke --seed N`` prints
pins the whole campaign — corpus sampling, decoding, φ, TFLLR, SVM
training, DBA and fusion — to the float64 bitwise table contract.  A
change that moves any table byte fails here; such a change must bump
the digest in the same commit and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

GOLDEN = {
    2009: "6377cb359d68a6af2cedfe6021093975377d93bb66664472a1f148a3c3f572f5",
    2010: "075c7cf152909498ad06ba5b7ef5c7cacc6015bce7199522abaf15c52560f2b8",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_table4_smoke_digest(seed, capsys, monkeypatch):
    # A traced run appends a "runlog written to" line; pin the table only.
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert main(["table4", "--scale", "smoke", "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[seed]
