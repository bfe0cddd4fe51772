"""Wire format tests: golden vectors, round-trips, corruption, streaming."""

import re
import struct
import sys
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfm import protocol as p

DOCS = Path(__file__).resolve().parent.parent / "docs" / "wire.md"


def doc_hex_blocks() -> list[bytes]:
    """All fenced hex blocks from docs/wire.md, in order."""
    text = DOCS.read_text()
    blocks = re.findall(r"```\n([0-9a-f\n]+?)```", text)
    return [bytes.fromhex("".join(b.split())) for b in blocks]


def doc_params_table() -> dict[int, tuple[str, list[list[str]]]]:
    """The "Functions and their params layouts" table of docs/wire.md.

    Maps each function id to its name and its [field, width] pairs.
    """
    text = DOCS.read_text()
    section = text.split("## Functions and their params layouts")[1].split("\n## ")[0]
    rows = re.findall(r"^\|\s*(\d+)\s*\|\s*(\w+)\s*\|\s*`([^`]*)`\s*\|", section, re.M)
    return {
        int(fid): (name, [field.split(":") for field in layout.split()])
        for fid, name, layout in rows
    }


def crc32_reference(data: bytes) -> int:
    """Bit-at-a-time CRC-32 (reflected 0xEDB88320), independent of zlib."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 * (crc & 1))
    return crc ^ 0xFFFFFFFF


REQUEST = p.request(
    p.FunctionId.COMPRESS, 7, p.CompressParams(codec_id=1), b"hello"
)


# --- golden vectors -------------------------------------------------------

def test_golden_request_matches_docs():
    golden = doc_hex_blocks()[0]
    assert p.encode_frame(REQUEST) == golden


def test_golden_response_matches_docs():
    golden = doc_hex_blocks()[1]
    resp = p.response(REQUEST, p.Status.OK, b"hi")
    assert p.encode_frame(resp) == golden


def test_golden_error_response_matches_docs():
    golden = doc_hex_blocks()[2]
    resp = p.response(REQUEST, p.Status.FUNCTION_FAILURE, b"dropped", "boom")
    assert p.encode_frame(resp) == golden
    decoded = p.decode_frame(golden)
    assert decoded.status == p.Status.FUNCTION_FAILURE
    assert decoded.params == b"boom"
    assert decoded.payload == b""


def _typed(params):
    # Params are NamedTuples, and CompressParams(1) == DecompressParams(1)
    # == (1,), so a decode must be checked for its type as well as its fields.
    return type(params), params


def test_golden_ec_decode_params_match_docs():
    golden = doc_hex_blocks()[3]
    params = p.EcDecodeParams(k=4, m=2, shard_size=1024, present_bitmap=0b110111)
    assert p.encode_params(params) == golden
    assert _typed(p.decode_params(p.FunctionId.EC_DECODE, golden)) == _typed(params)


_WIDTHS = {"u8": ("B", 1), "u32": ("I", 4)}


def test_params_layouts_match_docs_table():
    table = doc_params_table()
    assert table and sorted(table) == sorted(p.PARAMS_LAYOUTS)
    for function_id, (name, doc_fields) in table.items():
        cls, layout = p.PARAMS_LAYOUTS[function_id]
        assert p.FunctionId(function_id).name.lower() == name
        names = [field for field, _ in doc_fields]
        assert list(cls._fields) == names
        assert layout.format == "<" + "".join(_WIDTHS[w][0] for _, w in doc_fields)
        # All ones is a valid value of every field of every layout.
        encoded = p.encode_params(cls(*[1] * len(names)))
        assert len(encoded) == sum(_WIDTHS[w][1] for _, w in doc_fields)
        assert type(p.decode_params(function_id, encoded)) is cls


def test_header_is_25_bytes():
    assert p.HEADER_SIZE == 25
    assert len(p.encode_frame(p.request(1, 0, b""))) == 25


def test_frame_length_is_header_plus_fields():
    enc = p.encode_frame(p.request(1, 9, b"\x01\x02\x03\x04", b"\x00" * 4096))
    assert len(enc) == 25 + 4 + 4096


def test_checksum_against_independent_crc():
    enc = p.encode_frame(REQUEST)
    declared = struct.unpack_from("<I", enc, 21)[0]
    zeroed = enc[:21] + b"\x00\x00\x00\x00" + enc[25:]
    assert declared == crc32_reference(zeroed)
    assert declared == zlib.crc32(zeroed)


# --- round-trips ----------------------------------------------------------

frames = st.builds(
    p.Frame,
    kind=st.sampled_from([p.KIND_REQUEST, p.KIND_RESPONSE]),
    status=st.integers(0, 255),
    function_id=st.integers(0, 0xFFFF),
    correlation_id=st.integers(0, 0xFFFFFFFF),
    params=st.binary(max_size=64),
    payload=st.binary(max_size=2048),
)


@given(frames)
def test_encode_decode_round_trip(frame):
    assert p.decode_frame(p.encode_frame(frame)) == frame


@given(frames, st.data())
def test_any_single_byte_corruption_is_detected(frame, data):
    """Flipping any one byte raises ChecksumMismatch or MalformedFrame."""
    enc = bytearray(p.encode_frame(frame))
    pos = data.draw(st.integers(0, len(enc) - 1))
    flip = data.draw(st.integers(1, 255))
    enc[pos] ^= flip
    with pytest.raises((p.ChecksumMismatch, p.MalformedFrame)):
        p.decode_frame(bytes(enc))


@given(frames, st.data())
def test_truncation_raises_truncated(frame, data):
    enc = p.encode_frame(frame)
    cut = data.draw(st.integers(0, len(enc) - 1))
    with pytest.raises(p.Truncated):
        p.decode_frame(enc[:cut])


def test_frame_is_immutable_and_equals_its_tuple():
    with pytest.raises(AttributeError):
        REQUEST.kind = p.KIND_RESPONSE
    assert REQUEST == (p.KIND_REQUEST, 0, p.FunctionId.COMPRESS, 7, b"\x01", b"hello")
    assert p.Frame(1, 0, 1, 7) == p.Frame(
        kind=1, status=0, function_id=1, correlation_id=7, params=b"", payload=b""
    )


def test_trailing_bytes_rejected():
    with pytest.raises(p.MalformedFrame):
        p.decode_frame(p.encode_frame(REQUEST) + b"x")


def test_bad_magic_rejected_even_when_short():
    with pytest.raises(p.MalformedFrame):
        p.decode_frame(b"JUNKjunk")


def test_declared_body_over_limit_rejected_without_checksum_pass():
    enc = p.encode_frame(p.request(1, 1, b"", b"\x00" * 100))
    with pytest.raises(p.FrameTooLarge):
        p.decode_frame(enc, max_body=99)
    assert isinstance(p.FrameTooLarge("x"), p.MalformedFrame)


def test_unknown_version_rejected():
    enc = bytearray(p.encode_frame(REQUEST))
    enc[4] = 2
    with pytest.raises(p.MalformedFrame):
        p.decode_frame(bytes(enc))


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        p.encode_frame(p.Frame(kind=3, status=0, function_id=1, correlation_id=0))
    with pytest.raises(ValueError):
        p.encode_frame(
            p.Frame(kind=1, status=0, function_id=1, correlation_id=2**32)
        )


@pytest.mark.parametrize(
    "function_id, correlation_id",
    [(1 << 16, 1), (-1, 1), (1, 1 << 32), (1, -1)],
)
def test_request_rejects_fields_beyond_their_width(function_id, correlation_id):
    with pytest.raises(ValueError):
        p.request(function_id, correlation_id, b"")


# --- streaming decoder ----------------------------------------------------

@given(
    st.lists(frames, min_size=1, max_size=6),
    st.integers(1, 64),
)
def test_stream_decoder_yields_frames_regardless_of_chunking(frame_list, chunk):
    stream = b"".join(p.encode_frame(f) for f in frame_list)
    dec = p.FrameDecoder()
    out = []
    for i in range(0, len(stream), chunk):
        dec.feed(stream[i : i + chunk])
        out += dec.frames()
    assert out == frame_list
    assert dec.buffered == 0


def test_stream_decoder_raises_on_bad_head_after_good_frames():
    dec = p.FrameDecoder()
    dec.feed(p.encode_frame(REQUEST) + b"GARBAGE-NOT-A-FRAME")
    assert dec.frames() == [REQUEST]
    with pytest.raises(p.MalformedFrame):
        dec.frames()


def test_frames_returns_every_complete_frame_and_keeps_a_prefix():
    second = p.response(REQUEST, p.Status.OK, b"x" * 300)
    stream = p.encode_frame(REQUEST) + p.encode_frame(second)
    dec = p.FrameDecoder()
    dec.feed(stream + stream[:30])
    assert dec.frames() == [REQUEST, second]
    assert dec.buffered == 30
    assert dec.frames() == []
    dec.feed(stream[30:])
    assert dec.frames() == [REQUEST, second]
    assert dec.buffered == 0


def test_frames_returns_the_frames_before_a_bad_checksum_then_raises():
    bad = bytearray(p.encode_frame(REQUEST))
    bad[-1] ^= 1
    good = p.encode_frame(REQUEST)
    dec = p.FrameDecoder()
    dec.feed(good + good + bytes(bad) + good)
    assert dec.frames() == [REQUEST, REQUEST]
    assert dec.buffered == len(bad) + len(good)
    with pytest.raises(p.ChecksumMismatch):
        dec.frames()


def test_frames_takes_more_bytes_while_a_checksum_error_is_held():
    # The frame is checked through views of the decoder's buffer; the
    # caught error's traceback must not keep the buffer from growing.
    enc = bytearray(p.encode_frame(REQUEST))
    enc[-1] ^= 1
    dec = p.FrameDecoder()
    dec.feed(bytes(enc))
    with pytest.raises(p.ChecksumMismatch) as caught:
        dec.frames()
    dec.feed(b"more")
    assert dec.buffered == len(enc) + 4
    assert caught.value is not None


def test_frames_takes_more_bytes_while_a_short_bad_magic_error_is_held():
    dec = p.FrameDecoder()
    dec.feed(p.encode_frame(REQUEST) + b"XXXXX")
    assert dec.frames() == [REQUEST]
    with pytest.raises(p.MalformedFrame, match="bad magic") as caught:
        dec.frames()
    dec.feed(b"more")
    assert dec.buffered == 9
    assert caught.value is not None


def test_stream_decoder_enforces_body_limit_before_buffering():
    dec = p.FrameDecoder(max_body=10)
    enc = p.encode_frame(p.request(1, 1, b"", b"\x00" * 11))
    dec.feed(enc[:25])
    with pytest.raises(p.FrameTooLarge):
        dec.frames()


@pytest.mark.parametrize(
    "offset, value, error",
    [
        (0, ord("X"), p.MalformedFrame),  # magic
        (4, 2, p.MalformedFrame),  # version
        (5, 3, p.MalformedFrame),  # kind
        (16, 0x10, p.FrameTooLarge),  # params_len over the 64 MiB default
    ],
)
def test_stream_and_whole_frame_decoders_reject_a_header_alike(offset, value, error):
    header = bytearray(p.encode_frame(REQUEST)[: p.HEADER_SIZE])
    header[offset] = value
    with pytest.raises(p.ProtocolError) as whole:
        p.decode_frame(bytes(header))
    dec = p.FrameDecoder()
    dec.feed(bytes(header))
    with pytest.raises(p.ProtocolError) as streamed:
        dec.frames()
    assert whole.type is streamed.type is error


# --- params ---------------------------------------------------------------

@given(st.integers(0, 255))
def test_compress_params_round_trip(codec_id):
    raw = p.encode_params(p.CompressParams(codec_id))
    assert raw == bytes([codec_id])
    assert _typed(p.decode_params(p.FunctionId.COMPRESS, raw)) == _typed(
        p.CompressParams(codec_id)
    )
    assert _typed(p.decode_params(p.FunctionId.DECOMPRESS, raw)) == _typed(
        p.DecompressParams(codec_id)
    )


@given(st.integers(1, 32), st.integers(0, 31))
def test_ec_encode_params_round_trip(k, m):
    if k + m > 32:
        m = 32 - k
    raw = p.encode_params(p.EcEncodeParams(k, m))
    assert raw == bytes([k, m])
    assert _typed(p.decode_params(p.FunctionId.EC_ENCODE, raw)) == _typed(
        p.EcEncodeParams(k, m)
    )


@given(st.data())
def test_ec_decode_params_round_trip(data):
    k = data.draw(st.integers(1, 32))
    m = data.draw(st.integers(0, 32 - k))
    shard_size = data.draw(st.integers(1, 2**32 - 1))
    bitmap = data.draw(st.integers(0, (1 << (k + m)) - 1))
    params = p.EcDecodeParams(k, m, shard_size, bitmap)
    decoded = p.decode_params(p.FunctionId.EC_DECODE, p.encode_params(params))
    assert _typed(decoded) == _typed(params)


@pytest.mark.parametrize(
    "raw",
    [
        b"",  # too short
        b"\x01\x02",  # wrong length for compress
    ],
)
def test_compress_params_wrong_length(raw):
    with pytest.raises(p.MalformedParams):
        p.decode_params(p.FunctionId.COMPRESS, raw)


@pytest.mark.parametrize(
    "raw",
    [
        b"\x00\x00",  # k = 0
        b"\x21\x00",  # k = 33
        b"\x10\x11",  # k + m = 33
    ],
)
def test_ec_encode_params_invariants(raw):
    with pytest.raises(p.MalformedParams):
        p.decode_params(p.FunctionId.EC_ENCODE, raw)


def test_ec_decode_params_invariants():
    good = p.EcDecodeParams(k=2, m=1, shard_size=8, present_bitmap=0b111)
    raw = bytearray(p.encode_params(good))
    # bitmap bit 3 set with k + m = 3
    bad = raw.copy()
    bad[6] = 0b1111
    with pytest.raises(p.MalformedParams):
        p.decode_params(p.FunctionId.EC_DECODE, bytes(bad))
    # shard_size = 0
    bad = raw.copy()
    bad[2:6] = b"\x00\x00\x00\x00"
    with pytest.raises(p.MalformedParams):
        p.decode_params(p.FunctionId.EC_DECODE, bytes(bad))


@pytest.mark.parametrize(
    "params, error",
    [
        (p.CompressParams(256), ValueError),
        (p.DecompressParams(-1), ValueError),
        (p.EcEncodeParams(0, 1), p.MalformedParams),
        (p.EcDecodeParams(2, 1, 0, 0b111), p.MalformedParams),
        (p.EcDecodeParams(2, 1, 1 << 32, 0b111), p.MalformedParams),
        (p.EcDecodeParams(2, 1, 8, 0b1000), p.MalformedParams),
        (b"\x01", TypeError),
    ],
)
def test_encode_params_rejections(params, error):
    with pytest.raises(Exception) as raised:
        p.encode_params(params)
    assert raised.type is error


def test_unknown_function_id_params():
    with pytest.raises(p.MalformedParams):
        p.decode_params(99, b"\x01")


def test_malformed_params_raise_on_every_call():
    # A failure is not cached, so the same bytes fail the same way again.
    for _ in range(3):
        with pytest.raises(p.MalformedParams, match="expected 1 bytes, got 2"):
            p.decode_params(p.FunctionId.COMPRESS, b"\x01\x02")
        with pytest.raises(p.MalformedParams, match="invalid code parameters"):
            p.decode_params(p.FunctionId.EC_ENCODE, b"\x00\x01")


def test_equal_params_bytes_decode_to_equal_params():
    raw = p.encode_params(p.EcDecodeParams(4, 2, 16, 0b111011))
    first = p.decode_params(p.FunctionId.EC_DECODE, raw)
    again = p.decode_params(p.FunctionId.EC_DECODE, bytes(bytearray(raw)))
    expected = _typed(p.EcDecodeParams(4, 2, 16, 0b111011))
    assert _typed(first) == _typed(again) == expected
    # The same bytes under another function id decode to that function's type.
    decompress = p.decode_params(p.FunctionId.DECOMPRESS, b"\x01")
    compress = p.decode_params(p.FunctionId.COMPRESS, b"\x01")
    assert _typed(decompress) == _typed(p.DecompressParams(1))
    assert _typed(compress) == _typed(p.CompressParams(1))


def test_an_invalid_params_object_raises_on_every_call():
    bad = p.EcEncodeParams(0, 1)
    wide = p.CompressParams(256)
    for _ in range(3):
        with pytest.raises(p.MalformedParams):
            p.encode_params(bad)
        with pytest.raises(ValueError):
            p.encode_params(wide)


def test_params_equal_to_encoded_ones_are_still_checked():
    # 1.0 == 1, but a float does not fit the u8 layout.
    assert p.encode_params(p.CompressParams(1)) == b"\x01"
    with pytest.raises(ValueError):
        p.encode_params(p.CompressParams(1.0))


def test_the_params_decode_cache_stays_bounded():
    maxsize = p._decode_params.cache_info().maxsize
    for shard_size in range(1, 4 * maxsize):
        params = p.EcDecodeParams(4, 2, shard_size, 0b1111)
        raw = p.encode_params(params)
        decoded = p.decode_params(p.FunctionId.EC_DECODE, raw)
        assert _typed(decoded) == _typed(params)
    assert p._decode_params.cache_info().currsize <= maxsize


@pytest.mark.parametrize(
    "wrap",
    [lambda buf: buf, memoryview, lambda buf: memoryview(buf).toreadonly()],
    ids=["bytearray", "memoryview", "readonly-memoryview"],
)
def test_a_buffer_decodes_like_its_bytes_and_is_not_kept(wrap):
    raw = struct.pack("<BBII", 4, 2, 77, 0b110111)
    backing = bytearray(raw)
    buf = wrap(backing)
    params = p.decode_params(p.FunctionId.EC_DECODE, buf)
    assert _typed(params) == _typed(p.decode_params(p.FunctionId.EC_DECODE, raw))
    # The cache must key on a copy: once the buffer changes, neither
    # the original bytes nor the buffer may see the other's params.
    backing[2] = 78
    assert _typed(p.decode_params(p.FunctionId.EC_DECODE, raw)) == _typed(params)
    changed = p.decode_params(p.FunctionId.EC_DECODE, buf)
    assert _typed(changed) == _typed(p.EcDecodeParams(4, 2, 78, 0b110111))


def test_threads_sharing_the_params_caches_get_their_own_params():
    # Each thread's params differ, so a cache entry handed to the wrong
    # thread, or bytes paired with the wrong object, shows.
    errors = []

    def work(base):
        for shard_size in range(base, base + 200):
            params = p.EcDecodeParams(4, 2, shard_size, 0b110111)
            expected = struct.pack("<BBII", 4, 2, shard_size, 0b110111)
            for _ in range(3):  # a pipelined caller reuses its params
                if p.encode_params(params) != expected:
                    errors.append(("encode", shard_size))
                decoded = p.decode_params(p.FunctionId.EC_DECODE, expected)
                if _typed(decoded) != _typed(params):
                    errors.append(("decode", shard_size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(1 + 1000 * n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
