"""Append-only ``.npy`` shard segments.

A shard is a single standard NumPy ``.npy`` (format 1.0) file holding one
flat ``float64`` column.  Standard ``.npy`` headers are variable-length
(the header dict embeds the shape), which would make appending impossible
without rewriting the file — so shards fix the header at exactly
:data:`HEADER_SIZE` bytes by space-padding the dict string.  Appends are
then plain ``O_APPEND``-style writes of raw little-endian float64 bytes,
and sealing a shard rewrites only the first :data:`HEADER_SIZE` bytes
with the final row count.

The payoff of staying inside the ``.npy`` envelope (rather than inventing
a raw format) is that every sealed shard is loadable by stock
``numpy.load`` / ``np.load(mmap_mode="r")`` with no repro code at all —
the store's manifest adds integrity and addressing on top, it is not
required to read the data back.

Integrity is a BLAKE2b digest over the *payload* bytes (everything after
the header), chunked so digesting a multi-gigabyte shard never buffers
more than :data:`DIGEST_CHUNK` bytes.  The header is excluded on purpose:
the same payload must digest identically before and after sealing, so a
crash between "last append" and "seal" cannot silently invalidate data
that is in fact intact.  A :class:`ShardWriter` hashes the payload as it
writes it, so sealing records the digest without reading the shard back.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import numpy as np

from ..errors import ValidationError

__all__ = [
    "HEADER_SIZE",
    "ShardWriter",
    "check_size",
    "open_shard",
    "payload_digest",
    "read_header_rows",
]

#: ``.npy`` magic + format version 1.0.
_MAGIC = b"\x93NUMPY\x01\x00"

#: Fixed byte length of every shard header (magic + length word + padded
#: dict).  64-byte aligned; large enough for any row count below 10^88.
HEADER_SIZE = 128

#: Bytes hashed per read while digesting a shard payload.
DIGEST_CHUNK = 1 << 20

_DTYPE = np.dtype("<f8")


def _header_bytes(rows: int) -> bytes:
    """The fixed-length ``.npy`` v1.0 header describing ``(rows,)`` float64."""
    if rows < 0:
        raise ValidationError(f"shard row count must be >= 0, got {rows}")
    dict_str = "{'descr': '<f8', 'fortran_order': False, 'shape': (%d,), }" % rows
    # magic(6) + version(2) + HLEN(2) + dict + padding + '\n' == HEADER_SIZE
    hlen = HEADER_SIZE - len(_MAGIC) - 2
    padding = hlen - len(dict_str) - 1
    if padding < 0:  # pragma: no cover - needs rows >= 10^88
        raise ValidationError(f"row count {rows} overflows the fixed shard header")
    header = _MAGIC + int(hlen).to_bytes(2, "little") + dict_str.encode("latin1")
    header += b" " * padding + b"\n"
    assert len(header) == HEADER_SIZE
    return header


def read_header_rows(path: str | Path) -> int:
    """Row count recorded in the shard header at *path*.

    Raises :class:`ValidationError` when the file is not a fixed-header
    shard (wrong magic, malformed dict, foreign dtype).
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE or not header.startswith(_MAGIC):
        raise ValidationError(f"{path.name}: not a repro shard (bad magic/short header)")
    hlen = int.from_bytes(header[len(_MAGIC) : len(_MAGIC) + 2], "little")
    if len(_MAGIC) + 2 + hlen != HEADER_SIZE:
        raise ValidationError(f"{path.name}: unexpected header length {hlen}")
    try:
        spec = ast.literal_eval(header[len(_MAGIC) + 2 :].decode("latin1"))
        descr, fortran, shape = spec["descr"], spec["fortran_order"], spec["shape"]
    except Exception as exc:
        raise ValidationError(f"{path.name}: malformed shard header ({exc})") from exc
    if descr != "<f8" or fortran or len(shape) != 1:
        raise ValidationError(f"{path.name}: foreign npy layout {spec!r}")
    return int(shape[0])


class ShardWriter:
    """Writes one shard: create, append float64 blocks, seal.

    The header is written at creation with shape ``(0,)`` so a shard that
    is mid-write (or orphaned by a crash) is still a valid, empty-looking
    ``.npy`` file to foreign readers; the manifest carries the true row
    count for unsealed shards.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.exists():
            raise ValidationError(f"shard {self.path.name} already exists")
        self._fh = self.path.open("wb")
        self._fh.write(_header_bytes(0))
        self._payload = hashlib.blake2b(digest_size=16)
        self.rows = 0
        self.sealed = False

    def append(self, values: np.ndarray) -> int:
        """Append a block; returns the row offset the block starts at."""
        if self.sealed:
            raise ValidationError(f"shard {self.path.name} is sealed")
        x = np.ascontiguousarray(values, dtype=_DTYPE)
        if x.ndim != 1:
            raise ValidationError(f"shard blocks must be 1-D, got shape {x.shape}")
        offset = self.rows
        self._fh.write(x.tobytes())
        self._payload.update(x)
        self.rows += int(x.size)
        return offset

    def digest(self) -> str:
        """:func:`payload_digest` of the rows appended so far, kept as they
        are written, so sealing never reads the shard back."""
        return self._payload.hexdigest()

    def flush(self) -> None:
        if not self.sealed:
            self._fh.flush()

    def seal(self) -> str:
        """Finalize: rewrite the header with the true count, return the digest."""
        if self.sealed:
            raise ValidationError(f"shard {self.path.name} already sealed")
        self._fh.flush()
        self._fh.seek(0)
        self._fh.write(_header_bytes(self.rows))
        self._fh.close()
        self.sealed = True
        return self.digest()

    def abort(self) -> None:
        """Close the handle without sealing (the store quarantines/removes)."""
        if not self.sealed:
            self._fh.close()
            self.sealed = True


def check_size(path: str | Path, rows: int) -> None:
    """Raise unless the shard at *path* is long enough to hold *rows* values.

    Raises :class:`ValidationError` on a short file — the truncation
    signature the store turns into a quarantine — and ``OSError`` when
    the file is missing.
    """
    path = Path(path)
    expected = HEADER_SIZE + rows * _DTYPE.itemsize
    actual = path.stat().st_size
    if actual < expected:
        raise ValidationError(
            f"{path.name}: truncated shard ({actual} bytes < {expected} expected)"
        )


def open_shard(path: str | Path, rows: int) -> np.ndarray:
    """Memory-map *rows* float64 values from the shard at *path* (read-only).

    Raises as :func:`check_size` does when the file is too short for *rows*.
    """
    path = Path(path)
    check_size(path, rows)
    if rows == 0:
        return np.empty(0, dtype=np.float64)
    mm = np.memmap(path, dtype=_DTYPE, mode="r", offset=HEADER_SIZE, shape=(rows,))
    mm.flags.writeable = False
    return mm


def payload_digest(path: str | Path, rows: int | None = None) -> str:
    """BLAKE2b-16 digest of the shard payload (bytes after the header).

    With *rows* given, digests exactly that many values — so an unsealed
    shard digests identically to its sealed self.  Bounded memory: reads
    in :data:`DIGEST_CHUNK` pieces.
    """
    path = Path(path)
    h = hashlib.blake2b(digest_size=16)
    remaining = None if rows is None else rows * _DTYPE.itemsize
    with path.open("rb") as fh:
        fh.seek(HEADER_SIZE)
        while remaining is None or remaining > 0:
            want = DIGEST_CHUNK if remaining is None else min(DIGEST_CHUNK, remaining)
            chunk = fh.read(want)
            if not chunk:
                if remaining:
                    raise ValidationError(
                        f"{path.name}: truncated shard ({remaining} payload bytes missing)"
                    )
                break
            h.update(chunk)
            if remaining is not None:
                remaining -= len(chunk)
    return h.hexdigest()
