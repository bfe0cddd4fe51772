"""Lossless block compression with two built-in codecs.

Container layout (see docs/codec.md for golden vectors):

    ┌──────────┬───────┬────────────┬──────┐
    │ codec_id │ flags │ raw_len    │ body │
    │ u8       │ u8=0  │ u32 LE     │ …    │
    └──────────┴───────┴────────────┴──────┘

codec_id 0 is the stored form (body == raw input verbatim); 1 is
`rle0`, a zero-run-length code; 2 is `lz`, a greedy LZ77 over a 4 KiB
window.  `flags` is reserved and must be zero.  `compress` applies a
stored fallback whenever the codec's body would be as large as the
input, so output never exceeds input by more than the 6-byte header.

rle0 token stream: a 0x00 byte followed by a count byte 1..255 expands
to that many zero bytes; any nonzero byte stands for itself.  A valid
body therefore has no two adjacent zero bytes and does not end in 0x00:
every zero byte in it is a marker.

lz token stream: a tag byte below 0x80 introduces a literal run of
(tag + 1) bytes, copied verbatim from the next (tag + 1) stream bytes;
a tag byte 0x80|code introduces a back-reference of length (code + 3)
(3..130) at a distance given by the following u16 LE (1..4096, counted
from the end of the output so far; distances shorter than the length
repeat the pattern).
"""

from __future__ import annotations

import re
import struct

HEADER_SIZE = 6
_HEADER = struct.Struct("<BBI")

CODEC_STORED = 0
CODEC_RLE0 = 1
CODEC_LZ = 2

CODEC_NAMES = {"stored": CODEC_STORED, "rle0": CODEC_RLE0, "lz": CODEC_LZ}

_LZ_WINDOW = 4096
_LZ_MIN_MATCH = 3
_LZ_MAX_MATCH = 130
_LZ_MAX_LITERAL_RUN = 128

# rle0 works on windows of this many input (or body) bytes, so that the
# pieces a split makes never outgrow one window.
_WINDOW = 1 << 16
# The first \x00 is spelled out so that sre searches for it as a literal
# at C speed; rb"\x00{1,255}" splits the same but tries every position.
_SHORT_RUNS = re.compile(rb"(\x00\x00{0,254})")
_ZERO_RUN = re.compile(rb"\x00+")
# In a valid body every zero byte is a marker and the next its count.
_MARKED_RUNS = re.compile(rb"\x00(.)", re.S)
_RUN_TOKEN = [bytes((0, n)) for n in range(256)]
_ZEROS = [bytes(n) for n in range(256)]


class CodecError(Exception):
    """Base class for compression-container errors."""


class UnsupportedCodec(CodecError):
    """codec_id names no known codec (or one not valid in this context)."""


class MalformedBlock(CodecError):
    """Block too short to contain the 6-byte header, or reserved
    flags set."""


class CorruptBlock(CodecError):
    """Header parsed but the body does not decode to raw_len bytes."""


def compress(data: bytes, codec_id: int) -> bytes:
    """Encode data as a compressed block.

    Args:
        data: Input bytes.
        codec_id: CODEC_RLE0 or CODEC_LZ.  The stored form cannot be
            requested directly; it is applied automatically whenever
            the codec fails to shrink the input.

    Returns:
        A serialized block: 6-byte header plus body.  Always at most
        len(data) + 6 bytes, and decompress() inverts it exactly.

    Raises:
        UnsupportedCodec: codec_id is not a compressing codec.
    """
    if codec_id == CODEC_RLE0:
        body = _rle0_encode(data)
    elif codec_id == CODEC_LZ:
        body = _lz_encode(data)
    else:
        raise UnsupportedCodec(f"cannot compress with codec_id {codec_id}")
    if len(body) >= len(data) and data:
        return _HEADER.pack(CODEC_STORED, 0, len(data)) + data
    return _HEADER.pack(codec_id, 0, len(data)) + body


def read_header(block: bytes) -> tuple[int, int]:
    """The codec_id and raw_len that a block's header declares.

    Reads the header alone: the body is neither checked nor decoded.

    Raises:
        MalformedBlock: Shorter than the 6-byte header, or nonzero
            reserved flags.
    """
    if len(block) < HEADER_SIZE:
        raise MalformedBlock(f"{len(block)} bytes is shorter than the header")
    codec_id, flags, raw_len = _HEADER.unpack_from(block)
    if flags != 0:
        raise MalformedBlock(f"reserved flags byte is {flags:#04x}")
    return codec_id, raw_len


def decompress(block: bytes) -> bytes:
    """Decode a compressed block back to the original bytes.

    Args:
        block: Untrusted serialized block.

    Returns:
        Exactly raw_len bytes.

    Raises:
        MalformedBlock: Shorter than the 6-byte header, or nonzero
            reserved flags.
        UnsupportedCodec: Unknown codec_id.
        CorruptBlock: Body fails to decode, decodes to a length other
            than raw_len, or (stored form) has length != raw_len.
    """
    codec_id, raw_len = read_header(block)
    body = memoryview(block)[HEADER_SIZE:]  # no copy of a large body
    if codec_id == CODEC_STORED:
        if len(body) != raw_len:
            raise CorruptBlock(f"stored body is {len(body)} bytes, header says {raw_len}")
        return bytes(body)
    if codec_id == CODEC_RLE0:
        out = _rle0_decode(body, raw_len)
    elif codec_id == CODEC_LZ:
        out = _lz_decode(body, raw_len)
    else:
        raise UnsupportedCodec(f"unknown codec_id {codec_id}")
    if len(out) != raw_len:
        raise CorruptBlock(f"body decoded to {len(out)} bytes, header says {raw_len}")
    return out


# --- rle0 ------------------------------------------------------------------

def _rle0_encode(data: bytes) -> bytes:
    out = []
    pos, n = 0, len(data)
    while pos < n:
        end = min(pos + _WINDOW, n)
        if data[end - 1 : end + 1] == b"\x00\x00":
            # The cut splits a zero run, whose tokens depend on its whole
            # length: cut at the run's start instead, or, when the run
            # fills the window, emit the whole run here.
            end = pos + len(data[pos:end].rstrip(b"\x00"))
            if end == pos:
                end = _ZERO_RUN.match(data, pos).end()
                full, rest = divmod(end - pos, 255)
                out.append(_RUN_TOKEN[255] * full + (_RUN_TOKEN[rest] if rest else b""))
                pos = end
                continue
        pieces = _SHORT_RUNS.split(data[pos:end])
        pieces[1::2] = map(_RUN_TOKEN.__getitem__, map(len, pieces[1::2]))
        out.append(b"".join(pieces))
        pos = end
    return b"".join(out)


def _rle0_decode(body: bytes | memoryview, raw_len: int) -> bytes:
    if body[-1:] == b"\x00":
        raise CorruptBlock("zero-run marker at end of body")
    out = []
    size = 0
    pos, n = 0, len(body)
    while pos < n:
        end = min(pos + _WINDOW, n)
        if body[end - 1] == 0:  # a marker: keep its count in this window
            end += 1
        pieces = _MARKED_RUNS.split(body[pos:end])
        counts = b"".join(pieces[1::2])
        if 0 in counts:
            raise CorruptBlock("zero-length zero run")
        size += end - pos - 2 * len(counts) + sum(counts)
        if size > raw_len:
            raise CorruptBlock("body decodes past raw_len")
        pieces[1::2] = map(_ZEROS.__getitem__, counts)
        out.append(b"".join(pieces))
        pos = end
    return b"".join(out)


# --- lz ---------------------------------------------------------------------

def _lz_encode(data: bytes) -> bytes:
    out = bytearray()
    literals = bytearray()
    # Last position each 3-byte sequence was seen at; one candidate is
    # enough for a greedy matcher and keeps the scan O(n).
    last_seen: dict[bytes, int] = {}
    i = 0
    n = len(data)
    while i < n:
        key = data[i : i + _LZ_MIN_MATCH]
        candidate = last_seen.get(key, -1) if len(key) == _LZ_MIN_MATCH else -1
        if candidate >= 0 and i - candidate <= _LZ_WINDOW:
            limit = min(n - i, _LZ_MAX_MATCH)
            length = _LZ_MIN_MATCH
            while length < limit and data[candidate + length] == data[i + length]:
                length += 1
            _flush_literals(out, literals)
            out.append(0x80 | (length - _LZ_MIN_MATCH))
            out += (i - candidate).to_bytes(2, "little")
            stop = min(i + length, n - _LZ_MIN_MATCH + 1)
            for j in range(i, stop):
                last_seen[data[j : j + _LZ_MIN_MATCH]] = j
            i += length
        else:
            if len(key) == _LZ_MIN_MATCH:
                last_seen[key] = i
            literals.append(data[i])
            i += 1
    _flush_literals(out, literals)
    return bytes(out)


def _flush_literals(out: bytearray, literals: bytearray) -> None:
    pos = 0
    while pos < len(literals):
        chunk = literals[pos : pos + _LZ_MAX_LITERAL_RUN]
        out.append(len(chunk) - 1)
        out += chunk
        pos += len(chunk)
    literals.clear()


def _lz_decode(body: bytes | memoryview, raw_len: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(body)
    while i < n:
        tag = body[i]
        i += 1
        if tag < 0x80:
            run = tag + 1
            if i + run > n:
                raise CorruptBlock("literal run extends past body")
            out += body[i : i + run]
            i += run
        else:
            length = (tag & 0x7F) + _LZ_MIN_MATCH
            if i + 2 > n:
                raise CorruptBlock("match token missing distance")
            distance = int.from_bytes(body[i : i + 2], "little")
            i += 2
            if not 1 <= distance <= _LZ_WINDOW:
                raise CorruptBlock(f"match distance {distance} out of range")
            if distance > len(out):
                raise CorruptBlock("match distance reaches before output start")
            start = len(out) - distance
            if distance >= length:
                out += out[start : start + length]
            else:
                pattern = out[start:]
                repeats = -(-length // distance)
                out += (bytes(pattern) * repeats)[:length]
        if len(out) > raw_len:
            raise CorruptBlock("body decodes past raw_len")
    return bytes(out)
