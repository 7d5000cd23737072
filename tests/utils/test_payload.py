"""The flat payload codec: one encoding, a verified-buffer and an mmap
decode that agree byte for byte, every member an aligned view."""

from __future__ import annotations

import hashlib
import json
import mmap
import uuid

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.payload import (
    ALIGN,
    PayloadMismatch,
    decode_members,
    encode_members,
    file_problem,
    map_members,
    read_verified,
)

_DTYPES = ["<f8", ">f8", "<i4", "|b1", "<U7"]
_SHAPES = st.sampled_from([(), (0,), (0, 3), (3, 0)]) | hnp.array_shapes(
    min_dims=1, max_dims=2, min_side=0, max_side=5
)


@st.composite
def _member(draw) -> np.ndarray:
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    elements = st.floats(width=64) if dtype.kind == "f" else None
    return draw(hnp.arrays(dtype, draw(_SHAPES), elements=elements))


def _write(tmp_path, members) -> tuple[str, bytes]:
    """Encode ``members`` to a file of its own (a mapped file is never
    rewritten under its views); returns the path and the bytes."""
    data = encode_members(members)
    path = tmp_path / f"{uuid.uuid4().hex}.bin"
    path.write_bytes(data)
    return str(path), data


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _same(loaded: np.ndarray, original: np.ndarray) -> None:
    assert loaded.dtype == original.dtype
    assert loaded.shape == original.shape
    assert loaded.tobytes() == original.tobytes()


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    members=st.dictionaries(
        st.text(max_size=6), _member(), min_size=1, max_size=5
    )
)
@example(
    members={
        "odd": np.arange(3, dtype="<i4"),
        "w": np.linspace(-1.0, 1.0, 7),
        "be": np.arange(5.0).astype(">f8"),
        "flag": np.array(True),
        "loss": np.array("hinge", dtype="<U7"),
        "empty": np.empty((0, 4)),
    }
)
def test_verified_and_mapped_decodes_agree(tmp_path, members):
    path, data = _write(tmp_path, members)
    buf, begin = read_verified(path, hashlib.sha256(data).hexdigest())
    verified = decode_members(buf, begin)
    mapped = map_members(path, len(data))
    assert list(verified) == list(mapped) == list(members)
    for name, original in members.items():
        for loaded in (verified[name], mapped[name]):
            _same(loaded, original)
            assert loaded.ctypes.data % ALIGN == 0
            assert loaded.flags.aligned and loaded.flags.c_contiguous
        # Views, never copies: the owned buffer on one path …
        assert _owner(verified[name]) is _owner(buf)
        assert verified[name].flags.writeable
        # … a read-only map on the other.
        assert isinstance(mapped[name].base, mmap.mmap)
        assert not mapped[name].flags.writeable


def test_members_start_at_aligned_file_offsets(tmp_path):
    # An odd-length int32 and a 1-byte bool ahead of float64 weights:
    # the padding keeps the weights mappable without a copy.
    members = {
        "odd": np.arange(3, dtype="<i4"),
        "tfllr": np.array(True),
        "weights": np.ones((2, 3)),
    }
    data = encode_members(members)
    (header_len,) = np.frombuffer(data[:4], dtype="<u4")
    table = json.loads(data[4 : 4 + header_len])
    assert (4 + header_len) % ALIGN == 0
    assert [row[3] % ALIGN for row in table] == [0, 0, 0]
    assert [row[4] for row in table] == [12, 1, 48]


def test_unpadded_payload_still_decodes(tmp_path):
    # The layout written before members were padded: buffers back to
    # back, so "w" starts 12 bytes into the data.  It decodes, and the
    # member that sits off its alignment comes back as an aligned copy.
    odd, w = np.arange(3, dtype="<i4"), np.arange(4.0)
    header = json.dumps(
        [["odd", "<i4", [3], 0, 12], ["w", "<f8", [4], 12, 32]],
        separators=(",", ":"),
    ).encode()
    data = len(header).to_bytes(4, "little") + header + odd.tobytes()
    data += w.tobytes()
    path = tmp_path / "old.bin"
    path.write_bytes(data)
    buf, begin = read_verified(str(path), hashlib.sha256(data).hexdigest())
    members = decode_members(buf, begin)
    _same(members["odd"], odd)
    _same(members["w"], w)
    assert members["w"].flags.aligned


def test_checksum_mismatch_is_refused(tmp_path):
    path, data = _write(tmp_path, {"w": np.arange(4.0)})
    with pytest.raises(PayloadMismatch, match="sha256"):
        read_verified(path, hashlib.sha256(data + b"x").hexdigest())


def test_map_checks_the_exact_size(tmp_path):
    path, data = _write(tmp_path, {"w": np.arange(4.0)})
    with pytest.raises(PayloadMismatch, match="bytes"):
        map_members(path, len(data) + 1)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_verified(str(tmp_path / "gone.bin"), "0" * 64)
    with pytest.raises(FileNotFoundError):
        map_members(str(tmp_path / "gone.bin"), 0)


def test_object_dtype_has_no_encoding():
    with pytest.raises(TypeError, match="dtype"):
        encode_members({"ragged": np.array([1, "two", None], dtype=object)})


def test_file_problem_audits_the_whole_file(tmp_path):
    path, data = _write(tmp_path, {"w": np.arange(1000.0)})
    assert file_problem(path, hashlib.sha256(data).hexdigest()) is None
    assert file_problem(path, hashlib.sha256(b"").hexdigest()) == "checksum"
    assert file_problem(tmp_path / "gone.bin", "0" * 64) == "missing"
