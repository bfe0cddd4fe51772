"""Binary wire format for function requests and responses.

Every message on the wire is one frame:

    ┌──────────────────────── 25-byte header ─────────────────────────┐
    │ magic │ version │ kind │ status │ function_id │ correlation_id  │
    │ 4B    │ u8      │ u8   │ u8     │ u16 LE      │ u32 LE          │
    ├───────┴─────────┴──────┴────────┴─────────────┴─────────────────┤
    │ params_len │ payload_len │ checksum                             │
    │ u32 LE     │ u32 LE      │ u32 LE (CRC-32)                      │
    └──────────────────────────────────────────────────────────────────┘
    followed by `params_len` parameter bytes, then `payload_len`
    payload bytes.

All multi-byte integers are little-endian.  `magic` is the constant
``MSFM``.  `kind` is 1 for requests, 2 for responses.  `status` is 0 in
requests and on success; a nonzero status in a response carries an error
code (see the STATUS_* constants), in which case the response params
field holds an optional UTF-8 error detail and the payload is empty.

The checksum is CRC-32 (IEEE polynomial, reflected, init 0xFFFFFFFF,
final XOR 0xFFFFFFFF; i.e. `zlib.crc32`) computed over the entire
encoded frame, header included, with the four checksum bytes zeroed.

Function parameters (the `params` field of requests) use a fixed layout
per function_id:

    1 compress     codec_id:u8
    2 decompress   codec_id:u8
    3 ec_encode    k:u8 m:u8
    4 ec_decode    k:u8 m:u8 shard_size:u32 present_bitmap:u32

See docs/wire.md for golden vectors.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum

from .gfec import code_fits

MAGIC = b"MSFM"
VERSION = 1

KIND_REQUEST = 1
KIND_RESPONSE = 2

# magic, version, kind, status, function_id, correlation_id,
# params_len, payload_len, checksum
_HEADER = struct.Struct("<4sBBBHIIII")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 25

_CHECKSUM_OFFSET = 21  # checksum occupies header bytes [21:25]

# Largest frame body (params + payload) accepted by default when
# decoding untrusted input.  Configurable per call / per decoder.
DEFAULT_MAX_BODY = 64 * 1024 * 1024

_U32_MAX = 0xFFFFFFFF


class FunctionId(IntEnum):
    """Registered function ids.  0 and values >= 5 are reserved."""

    COMPRESS = 1
    DECOMPRESS = 2
    EC_ENCODE = 3
    EC_DECODE = 4


class Status(IntEnum):
    """Response status codes."""

    OK = 0
    UNSUPPORTED_FUNCTION = 1
    MALFORMED_PARAMS = 2
    FUNCTION_FAILURE = 3
    SERVER_BUSY = 4


class ProtocolError(Exception):
    """Base class for wire-format errors."""


class MalformedFrame(ProtocolError):
    """Structurally invalid frame: bad magic, version, kind, or lengths."""


class Truncated(MalformedFrame):
    """Fewer bytes than the header or the declared lengths require."""


class FrameTooLarge(MalformedFrame):
    """Declared or actual body exceeds the permitted maximum."""


class ChecksumMismatch(ProtocolError):
    """Frame parsed but its CRC-32 does not verify."""


class MalformedParams(ProtocolError):
    """Parameter bytes do not match the function's expected layout."""


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    `magic`, `params_len`, `payload_len` and `checksum` are not stored:
    they are fixed or derived, and recomputed on encode.
    """

    kind: int
    status: int
    function_id: int
    correlation_id: int
    params: bytes = b""
    payload: bytes = b""
    version: int = VERSION


def _check_u8(name: str, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"{name} out of range for u8: {value}")


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to bytes.

    Args:
        frame: Frame whose invariants hold (kind 1 or 2, version 1,
            all integer fields within their wire widths).

    Returns:
        The 25-byte header followed by params and payload, with the
        CRC-32 checksum filled in.

    Raises:
        ValueError: An integer field is out of range for its width,
            or kind/version is invalid.
        FrameTooLarge: params or payload exceeds 2^32 - 1 bytes.
    """
    if frame.version != VERSION:
        raise ValueError(f"unsupported version: {frame.version}")
    if frame.kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ValueError(f"invalid kind: {frame.kind}")
    _check_u8("status", frame.status)
    if not 0 <= frame.function_id <= 0xFFFF:
        raise ValueError(f"function_id out of range for u16: {frame.function_id}")
    if not 0 <= frame.correlation_id <= _U32_MAX:
        raise ValueError(
            f"correlation_id out of range for u32: {frame.correlation_id}"
        )
    if len(frame.params) > _U32_MAX or len(frame.payload) > _U32_MAX:
        raise FrameTooLarge("params or payload exceeds u32 length")

    header = _HEADER.pack(
        MAGIC,
        frame.version,
        frame.kind,
        frame.status,
        frame.function_id,
        frame.correlation_id,
        len(frame.params),
        len(frame.payload),
        0,  # checksum placeholder
    )
    crc = zlib.crc32(header)
    crc = zlib.crc32(frame.params, crc)
    crc = zlib.crc32(frame.payload, crc)
    return b"".join(
        (header[:_CHECKSUM_OFFSET], struct.pack("<I", crc), frame.params, frame.payload)
    )


def decode_frame(data: bytes, *, max_body: int = DEFAULT_MAX_BODY) -> Frame:
    """Parse bytes that must contain exactly one encoded frame.

    Args:
        data: Untrusted bytes.
        max_body: Reject frames whose declared params + payload exceed
            this many bytes.

    Returns:
        The unique Frame whose encoding equals `data`.

    Raises:
        Truncated: Input shorter than the header or the declared lengths.
        MalformedFrame: Bad magic, version, kind, trailing bytes after
            the declared lengths, or (FrameTooLarge) body over max_body.
        ChecksumMismatch: The frame's CRC-32 does not verify.
    """
    if len(data) >= 4 and data[:4] != MAGIC:
        raise MalformedFrame(f"bad magic: {data[:4]!r}")
    if len(data) < HEADER_SIZE:
        raise Truncated(f"need {HEADER_SIZE} header bytes, have {len(data)}")

    (
        _magic,
        version,
        kind,
        status,
        function_id,
        correlation_id,
        params_len,
        payload_len,
        checksum,
    ) = _HEADER.unpack_from(data)
    _validate_header(version, kind, params_len, payload_len, max_body)

    total = HEADER_SIZE + params_len + payload_len
    if len(data) < total:
        raise Truncated(f"declared {total} bytes, have {len(data)}")
    if len(data) > total:
        raise MalformedFrame(f"{len(data) - total} trailing bytes after frame")

    _verify_checksum(data, total, checksum)
    params = data[HEADER_SIZE : HEADER_SIZE + params_len]
    payload = data[HEADER_SIZE + params_len : total]
    return Frame(
        kind=kind,
        status=status,
        function_id=function_id,
        correlation_id=correlation_id,
        params=bytes(params),
        payload=bytes(payload),
        version=version,
    )


def _validate_header(
    version: int, kind: int, params_len: int, payload_len: int, max_body: int
) -> None:
    if version != VERSION:
        raise MalformedFrame(f"unsupported version: {version}")
    if kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise MalformedFrame(f"invalid kind: {kind}")
    if params_len + payload_len > max_body:
        raise FrameTooLarge(
            f"declared body {params_len + payload_len} exceeds limit {max_body}"
        )


def _verify_checksum(data: bytes, total: int, declared: int) -> None:
    crc = zlib.crc32(data[:_CHECKSUM_OFFSET])
    crc = zlib.crc32(b"\x00\x00\x00\x00", crc)
    crc = zlib.crc32(data[HEADER_SIZE:total], crc)
    if crc != declared:
        raise ChecksumMismatch(f"declared {declared:#010x}, computed {crc:#010x}")


class FrameDecoder:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks with `feed`; pull completed frames with
    `next_frame`, which returns None while the buffered bytes are only a
    frame prefix and raises as soon as the stream head is invalid.
    Iterating the concatenation of N encoded frames yields exactly those
    N frames in order.
    """

    def __init__(self, max_body: int = DEFAULT_MAX_BODY):
        self._buf = bytearray()
        self._max_body = max_body

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next_frame(self) -> Frame | None:
        buf = self._buf
        if len(buf) >= 4 and buf[:4] != MAGIC:
            raise MalformedFrame(f"bad magic: {bytes(buf[:4])!r}")
        if len(buf) < HEADER_SIZE:
            return None
        version, kind = buf[4], buf[5]
        params_len, payload_len = struct.unpack_from("<II", buf, 13)
        # Reject garbage before buffering up to a bogus declared length.
        _validate_header(version, kind, params_len, payload_len, self._max_body)
        total = HEADER_SIZE + params_len + payload_len
        if len(buf) < total:
            return None
        frame = decode_frame(bytes(buf[:total]), max_body=self._max_body)
        del buf[:total]
        return frame


# --- function parameters -------------------------------------------------

@dataclass(frozen=True)
class CompressParams:
    codec_id: int


@dataclass(frozen=True)
class DecompressParams:
    codec_id: int


@dataclass(frozen=True)
class EcEncodeParams:
    k: int
    m: int


@dataclass(frozen=True)
class EcDecodeParams:
    k: int
    m: int
    shard_size: int
    present_bitmap: int


FunctionParams = (
    CompressParams | DecompressParams | EcEncodeParams | EcDecodeParams
)

_EC_DECODE = struct.Struct("<BBII")


def _check_ec_bounds(k: int, m: int) -> None:
    if not code_fits(k, m):
        raise MalformedParams(f"invalid code parameters k={k} m={m}")


def encode_params(params: FunctionParams) -> bytes:
    """Serialize function parameters to their fixed per-variant layout."""
    if isinstance(params, CompressParams):
        _check_u8("codec_id", params.codec_id)
        return bytes((params.codec_id,))
    if isinstance(params, DecompressParams):
        _check_u8("codec_id", params.codec_id)
        return bytes((params.codec_id,))
    if isinstance(params, EcEncodeParams):
        _check_ec_bounds(params.k, params.m)
        return bytes((params.k, params.m))
    if isinstance(params, EcDecodeParams):
        _check_ec_bounds(params.k, params.m)
        if params.shard_size < 1 or params.shard_size > _U32_MAX:
            raise MalformedParams(f"invalid shard_size {params.shard_size}")
        if params.present_bitmap >> (params.k + params.m):
            raise MalformedParams("present_bitmap has bits beyond k+m set")
        return _EC_DECODE.pack(
            params.k, params.m, params.shard_size, params.present_bitmap
        )
    raise TypeError(f"not a FunctionParams: {params!r}")


def decode_params(function_id: int, data: bytes) -> FunctionParams:
    """Parse a request's parameter bytes for the given function id.

    Raises:
        MalformedParams: Unknown function id, wrong length for the
            function's layout, or invariant-violating field values.
    """
    if function_id in (FunctionId.COMPRESS, FunctionId.DECOMPRESS):
        if len(data) != 1:
            raise MalformedParams(f"expected 1 byte, got {len(data)}")
        cls = CompressParams if function_id == FunctionId.COMPRESS else DecompressParams
        return cls(codec_id=data[0])
    if function_id == FunctionId.EC_ENCODE:
        if len(data) != 2:
            raise MalformedParams(f"expected 2 bytes, got {len(data)}")
        k, m = data[0], data[1]
        _check_ec_bounds(k, m)
        return EcEncodeParams(k=k, m=m)
    if function_id == FunctionId.EC_DECODE:
        if len(data) != _EC_DECODE.size:
            raise MalformedParams(f"expected {_EC_DECODE.size} bytes, got {len(data)}")
        k, m, shard_size, bitmap = _EC_DECODE.unpack(data)
        _check_ec_bounds(k, m)
        if shard_size < 1:
            raise MalformedParams("shard_size must be >= 1")
        if bitmap >> (k + m):
            raise MalformedParams("present_bitmap has bits beyond k+m set")
        return EcDecodeParams(k=k, m=m, shard_size=shard_size, present_bitmap=bitmap)
    raise MalformedParams(f"unknown function_id {function_id}")


def request(
    function_id: int,
    correlation_id: int,
    params: FunctionParams | bytes,
    payload: bytes = b"",
) -> Frame:
    """Build a request frame, encoding params if given structurally."""
    raw = params if isinstance(params, bytes) else encode_params(params)
    return Frame(
        kind=KIND_REQUEST,
        status=Status.OK,
        function_id=function_id,
        correlation_id=correlation_id,
        params=raw,
        payload=payload,
    )


def response(
    req: Frame, status: int, payload: bytes = b"", detail: str = ""
) -> Frame:
    """Build the response frame for `req`.

    On failure (nonzero status) the payload is empty and `detail`, if
    any, travels in the params field as UTF-8.
    """
    return Frame(
        kind=KIND_RESPONSE,
        status=status,
        function_id=req.function_id,
        correlation_id=req.correlation_id,
        params=detail.encode("utf-8") if status != Status.OK else b"",
        payload=payload if status == Status.OK else b"",
    )
