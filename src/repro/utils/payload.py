"""The flat payload codec of store payloads and saved systems.

A payload is a 4-byte little-endian header length, a JSON member table
of ``[name, dtype.str, shape, offset, nbytes]`` rows, then the members'
raw C-order buffers; offsets count from the end of the header.  Members
keep their exact dtype, byte order included.  :func:`encode_members`
pads so every member starts at a file offset that is a multiple of
:data:`ALIGN`; decoders read the offsets from the table, so unpadded
payloads still decode (an unaligned member is copied).

:func:`read_verified` reads a file once into an owned buffer and checks
its SHA-256, and :func:`decode_members` returns writable views over that
buffer, so what is returned is exactly what was verified.
:func:`map_members` checks a file's exact size and returns read-only
views over a read-only ``mmap.mmap``, which processes mapping one file
share; it hashes nothing.  :func:`file_problem` is the full audit.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from typing import Any

import numpy as np

__all__ = [
    "ALIGN",
    "PayloadMismatch",
    "decode_members",
    "encode_members",
    "file_problem",
    "map_members",
    "read_verified",
]

HEADER_LEN = struct.Struct("<I")
#: Alignment of every member's data (any numpy dtype's).
ALIGN = 16


class PayloadMismatch(ValueError):
    """A payload file's digest or size differs from the expected one."""


def encode_members(members: dict[str, Any]) -> bytes:
    """Flat payload of named arrays (see the module docstring)."""
    table: list[list[Any]] = []
    buffers: list[bytes] = []
    offset = 0
    for name, value in members.items():
        arr = np.asarray(value)
        if arr.dtype.hasobject or np.dtype(arr.dtype.str) != arr.dtype:
            raise TypeError(
                f"payload member {name!r} has dtype {arr.dtype}, which has "
                "no flat encoding"
            )
        pad = -offset % ALIGN
        buf = arr.tobytes()  # C order, in the array's own byte order
        table.append(
            [str(name), arr.dtype.str, list(arr.shape), offset + pad, len(buf)]
        )
        buffers += [bytes(pad), buf]
        offset += pad + len(buf)
    header = json.dumps(table, separators=(",", ":")).encode()
    header += b" " * (-(HEADER_LEN.size + len(header)) % ALIGN)
    return b"".join([HEADER_LEN.pack(len(header)), header, *buffers])


def decode_members(
    buf: np.ndarray | mmap.mmap, begin: int = 0
) -> dict[str, np.ndarray]:
    """Named arrays of the payload at ``buf[begin:]``, as views over
    ``buf``: an owned buffer (writable) or an ``mmap.mmap`` (read-only).
    """
    (header_len,) = HEADER_LEN.unpack_from(buf, begin)
    start = begin + HEADER_LEN.size
    data = start + header_len
    members: dict[str, np.ndarray] = {}
    for name, dtype_str, shape, offset, _ in json.loads(
        bytes(memoryview(buf)[start:data])
    ):
        # ``base`` is ``buf`` itself: a mapped member leads to its map.
        member = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=buf, offset=data + offset
        )
        members[name] = member if member.flags.aligned else member.copy()
    return members


def read_verified(path: str, sha256: str) -> tuple[np.ndarray, int]:
    """``(buf, begin)``: the file's bytes, read once, are ``buf[begin:]``,
    with the member data at an :data:`ALIGN`-aligned address.

    Raises :class:`PayloadMismatch` when they do not hash to ``sha256``.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER_LEN.size)
        buf = np.empty(size + ALIGN, dtype=np.uint8)
        begin = 0
        if len(head) == HEADER_LEN.size:
            (header_len,) = HEADER_LEN.unpack(head)
            data_at = buf.ctypes.data + HEADER_LEN.size + header_len
            begin = -data_at % ALIGN
        view = memoryview(buf)[begin : begin + size]
        view[: len(head)] = head
        read = len(head)
        # One read(2) returns at most about 2 GiB, so large payloads
        # take several; a file that shrank under the read comes back
        # short and fails its checksum.
        while read < size:
            n = fh.readinto(view[read:])
            if not n:
                break
            read += n
    actual = hashlib.sha256(view[:read]).hexdigest()
    if actual != sha256:
        raise PayloadMismatch(f"sha256 {actual[:12]}… != {sha256[:12]}…")
    return buf[: begin + read], begin


def map_members(path: str, nbytes: int) -> dict[str, np.ndarray]:
    """The members of ``path`` as read-only views over a read-only map.

    Raises :class:`PayloadMismatch` unless the file holds ``nbytes``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != nbytes:
            raise PayloadMismatch(f"{size} bytes != {nbytes}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return decode_members(mapped)


def file_problem(path, sha256: str) -> str | None:
    """``"missing"``, ``"checksum"``, or ``None`` when the file at
    ``path`` hashes to ``sha256`` (read in 1 MiB blocks)."""
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    except FileNotFoundError:
        return "missing"
    return None if h.hexdigest() == sha256 else "checksum"
