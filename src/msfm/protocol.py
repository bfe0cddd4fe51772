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
per function_id, given once in PARAMS_LAYOUTS and tabled in
docs/wire.md, which also has golden vectors.
"""

from __future__ import annotations

import functools
import struct
import zlib
from enum import IntEnum
from typing import NamedTuple

from .gfec import code_fits

MAGIC = b"MSFM"
VERSION = 1

KIND_REQUEST = 1
KIND_RESPONSE = 2

# Unpacks to (magic, version, kind, status, function_id,
# correlation_id, params_len, payload_len, checksum).
_HEADER = struct.Struct("<4sBBBHIIII")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 25

# Encoding packs the header in two parts, the fields before the
# checksum and the checksum, so that no packed bytes are sliced.
_PREFIX = struct.Struct("<4sBBBHIII")
_CHECKSUM = struct.Struct("<I")
_CHECKSUM_OFFSET = _PREFIX.size  # checksum occupies header bytes [21:25]
_ZERO_CHECKSUM = bytes(_CHECKSUM.size)

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


class Frame(NamedTuple):
    """One decoded wire frame, immutable.

    `magic`, `version`, `params_len`, `payload_len` and `checksum` are
    not stored: they are fixed or derived, and recomputed on encode.
    A Frame is a NamedTuple, so it also compares equal to the plain
    tuple of its six fields.
    """

    kind: int
    status: int
    function_id: int
    correlation_id: int
    params: bytes = b""
    payload: bytes = b""


# Builds a Frame from a tuple of all six fields, at half the cost of
# the NamedTuple's own __new__; used where frames are made per call.
_new_frame = tuple.__new__

# Enum member lookups cost a class attribute search each; these do not.
_OK = Status.OK


def _check_frame(frame: Frame) -> None:
    """Raise unless every field of `frame` fits its wire width."""
    if frame.kind not in (KIND_REQUEST, KIND_RESPONSE):
        raise ValueError(f"invalid kind: {frame.kind}")
    if not 0 <= frame.status <= 0xFF:
        raise ValueError(f"status out of range for u8: {frame.status}")
    if not 0 <= frame.function_id <= 0xFFFF:
        raise ValueError(f"function_id out of range for u16: {frame.function_id}")
    if not 0 <= frame.correlation_id <= _U32_MAX:
        raise ValueError(
            f"correlation_id out of range for u32: {frame.correlation_id}"
        )
    if len(frame.params) > _U32_MAX or len(frame.payload) > _U32_MAX:
        raise FrameTooLarge("params or payload exceeds u32 length")


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to bytes.

    Args:
        frame: Frame whose invariants hold (kind 1 or 2, all integer
            fields within their wire widths).

    Returns:
        The 25-byte header, with magic, version and the CRC-32 checksum
        filled in, followed by params and payload.

    Raises:
        ValueError: An integer field is out of range for its width,
            or kind is invalid.
        FrameTooLarge: params or payload exceeds 2^32 - 1 bytes.
    """
    kind, status, function_id, correlation_id, params, payload = frame
    if kind != KIND_REQUEST and kind != KIND_RESPONSE:
        raise ValueError(f"invalid kind: {kind}")
    try:
        prefix = _PREFIX.pack(
            MAGIC, VERSION, kind, status, function_id, correlation_id,
            len(params), len(payload),
        )
    except struct.error:
        # The struct checks every width; name the field that broke it.
        _check_frame(frame)
        raise
    crc = zlib.crc32(_ZERO_CHECKSUM, zlib.crc32(prefix))
    crc = zlib.crc32(payload, zlib.crc32(params, crc))
    return b"".join((prefix, _CHECKSUM.pack(crc), params, payload))


def _parse_header(
    buf: bytes | bytearray | memoryview, max_body: int, offset: int = 0
) -> tuple | None:
    """Check the header at `offset` in `buf` and return its fields.

    Returns None while fewer than a header's bytes follow `offset`, else
    the tuple that `_HEADER` unpacks.  Raises, in the order docs/wire.md
    gives, MalformedFrame for a bad magic (seen in the first four bytes
    alone), version or kind, and FrameTooLarge for a declared body over
    `max_body`.
    """
    if len(buf) - offset < HEADER_SIZE:
        if len(buf) - offset >= len(MAGIC):
            # A copy, not a view: a view in the traceback would pin `buf`.
            magic = bytes(buf[offset : offset + len(MAGIC)])
            if magic != MAGIC:
                raise MalformedFrame(f"bad magic: {magic!r}")
        return None
    header = _HEADER.unpack_from(buf, offset)
    magic, version, kind, _, _, _, params_len, payload_len, _ = header
    if magic != MAGIC:
        raise MalformedFrame(f"bad magic: {magic!r}")
    if version != VERSION:
        raise MalformedFrame(f"unsupported version: {version}")
    if kind != KIND_REQUEST and kind != KIND_RESPONSE:
        raise MalformedFrame(f"invalid kind: {kind}")
    if params_len + payload_len > max_body:
        raise FrameTooLarge(
            f"declared body {params_len + payload_len} exceeds limit {max_body}"
        )
    return header


def decode_frame(
    data: bytes | bytearray | memoryview,
    *,
    max_body: int = DEFAULT_MAX_BODY,
    header: tuple | None = None,
) -> Frame:
    """Parse bytes that must contain exactly one encoded frame.

    Args:
        data: Untrusted bytes.
        max_body: Reject frames whose declared params + payload exceed
            this many bytes.
        header: The fields of `data`'s header, as `_parse_header`
            returned them after checking them against the same
            `max_body`.  FrameDecoder passes them so that a streamed
            header is parsed once.

    Returns:
        The unique Frame whose encoding equals `data`.  Its params and
        payload are the only copies made: the checksum runs over a view.

    Raises:
        Truncated: Input shorter than the header or the declared lengths.
        MalformedFrame: Bad magic, version, kind, trailing bytes after
            the declared lengths, or (FrameTooLarge) body over max_body.
        ChecksumMismatch: The frame's CRC-32 does not verify.
    """
    if header is None:
        header = _parse_header(data, max_body)
        if header is None:
            raise Truncated(f"need {HEADER_SIZE} header bytes, have {len(data)}")
    (_, _, kind, status, function_id, correlation_id,
     params_len, payload_len, checksum) = header
    params_end = HEADER_SIZE + params_len
    total = params_end + payload_len
    if len(data) != total:
        if len(data) < total:
            raise Truncated(f"declared {total} bytes, have {len(data)}")
        raise MalformedFrame(f"{len(data) - total} trailing bytes after frame")

    view = data if isinstance(data, memoryview) else memoryview(data)
    crc = zlib.crc32(_ZERO_CHECKSUM, zlib.crc32(view[:_CHECKSUM_OFFSET]))
    crc = zlib.crc32(view[HEADER_SIZE:], crc)
    if crc != checksum:
        raise ChecksumMismatch(f"declared {checksum:#010x}, computed {crc:#010x}")
    params = bytes(view[HEADER_SIZE:params_end])
    payload = bytes(view[params_end:])
    return _new_frame(Frame, (kind, status, function_id, correlation_id, params, payload))


class FrameDecoder:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks with `feed`; take every completed frame at
    once with `frames`, which runs one parse loop over one view of the
    buffer and compacts it once.  A bad frame raises; the frames decoded
    before it are returned first, and the bad frame stays at the head,
    so the next call raises.
    Decoding the concatenation of N encoded frames, however it is
    chunked, yields exactly those N frames in order.
    """

    def __init__(self, max_body: int = DEFAULT_MAX_BODY):
        self._buf = bytearray()
        self._max_body = max_body

    @property
    def buffered(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self) -> list[Frame]:
        """Every complete frame buffered, in order; [] while none is."""
        buf, max_body = self._buf, self._max_body
        out: list[Frame] = []
        start = 0
        # Release every view even when decode_frame raises, or the
        # buffer could not be resized while the traceback lives.
        with memoryview(buf) as view:
            try:
                while True:
                    # Reject garbage before buffering up to a bogus
                    # declared length.
                    header = _parse_header(view, max_body, start)
                    if header is None:
                        break
                    end = start + HEADER_SIZE + header[6] + header[7]
                    if end > len(view):
                        break
                    with view[start:end] as frame_bytes:
                        out.append(
                            decode_frame(frame_bytes, max_body=max_body, header=header)
                        )
                    start = end
            except ProtocolError:
                if not out:
                    raise
        del buf[:start]
        return out


# --- function parameters -------------------------------------------------

class CompressParams(NamedTuple):
    codec_id: int


class DecompressParams(NamedTuple):
    codec_id: int


class EcEncodeParams(NamedTuple):
    k: int
    m: int


class EcDecodeParams(NamedTuple):
    k: int
    m: int
    shard_size: int
    present_bitmap: int


FunctionParams = (
    CompressParams | DecompressParams | EcEncodeParams | EcDecodeParams
)

# Each function's params type and wire layout: the type's fields, in
# order, packed with the struct.  docs/wire.md lists the same table.
PARAMS_LAYOUTS: dict[int, tuple[type, struct.Struct]] = {
    FunctionId.COMPRESS: (CompressParams, struct.Struct("<B")),
    FunctionId.DECOMPRESS: (DecompressParams, struct.Struct("<B")),
    FunctionId.EC_ENCODE: (EcEncodeParams, struct.Struct("<BB")),
    FunctionId.EC_DECODE: (EcDecodeParams, struct.Struct("<BBII")),
}

_LAYOUT_OF_TYPE = dict(PARAMS_LAYOUTS.values())


def _check_params(params: FunctionParams) -> None:
    """Raise MalformedParams unless `params` obeys docs/wire.md's rules."""
    ec = isinstance(params, (EcEncodeParams, EcDecodeParams))
    if ec and not code_fits(params.k, params.m):
        raise MalformedParams(f"invalid code parameters k={params.k} m={params.m}")
    if isinstance(params, EcDecodeParams):
        if not 1 <= params.shard_size <= _U32_MAX:
            raise MalformedParams(f"invalid shard_size {params.shard_size}")
        if params.present_bitmap >> (params.k + params.m):
            raise MalformedParams("present_bitmap has bits beyond k+m set")


def encode_params(params: FunctionParams) -> bytes:
    """Serialize function parameters to their fixed per-variant layout.

    Raises:
        TypeError: `params` is not a FunctionParams.
        MalformedParams: A field breaks a rule of docs/wire.md.
        ValueError: Another field does not fit its wire width.
    """
    try:
        layout = _LAYOUT_OF_TYPE[type(params)]
    except KeyError:
        raise TypeError(f"not a FunctionParams: {params!r}") from None
    _check_params(params)
    try:
        return layout.pack(*params)
    except struct.error as exc:
        raise ValueError(f"{params!r} does not fit its layout: {exc}") from None


def decode_params(function_id: int, data: bytes) -> FunctionParams:
    """Parse a request's parameter bytes for the given function id.

    Equal arguments give the same (immutable) params object.

    Raises:
        MalformedParams: Unknown function id, wrong length for the
            function's layout, or invariant-violating field values.
    """
    # The cache keeps its key: another buffer could change after the call.
    return _decode_params(function_id, data if type(data) is bytes else bytes(data))


# Requests repeat a handful of params bytes.  A call that raises is
# not cached.
@functools.lru_cache(maxsize=256)
def _decode_params(function_id: int, data: bytes) -> FunctionParams:
    if function_id not in PARAMS_LAYOUTS:
        raise MalformedParams(f"unknown function_id {function_id}")
    cls, layout = PARAMS_LAYOUTS[function_id]
    if len(data) != layout.size:
        raise MalformedParams(f"expected {layout.size} bytes, got {len(data)}")
    params = cls(*layout.unpack(data))
    _check_params(params)
    return params


def request(
    function_id: int,
    correlation_id: int,
    params: FunctionParams | bytes,
    payload: bytes = b"",
) -> Frame:
    """Build a request frame, encoding params if given structurally.

    Raises what encode_params and encode_frame would, so that a request
    that cannot go on the wire fails where it is built.
    """
    raw = params if isinstance(params, bytes) else encode_params(params)
    frame = _new_frame(
        Frame, (KIND_REQUEST, _OK, function_id, correlation_id, raw, payload)
    )
    _check_frame(frame)
    return frame


def response(
    req: Frame, status: int, payload: bytes = b"", detail: str = ""
) -> Frame:
    """Build the response frame for `req`.

    On failure (nonzero status) the payload is empty and `detail`, if
    any, travels in the params field as UTF-8.
    """
    _, _, function_id, correlation_id, _, _ = req
    if status == _OK:
        params = b""
    else:
        params, payload = detail.encode("utf-8"), b""
    return _new_frame(
        Frame, (KIND_RESPONSE, status, function_id, correlation_id, params, payload)
    )
