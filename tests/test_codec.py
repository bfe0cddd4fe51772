"""Compression container tests: goldens, roundtrips, adversarial decode."""

import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from msfm import codec
from msfm.codec import (
    CODEC_LZ,
    CODEC_RLE0,
    CODEC_STORED,
    CorruptBlock,
    MalformedBlock,
    UnsupportedCodec,
    compress,
    decompress,
)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "codec.md"


def doc_hex_blocks() -> list[bytes]:
    text = DOCS.read_text()
    return [
        bytes.fromhex("".join(b.split()))
        for b in re.findall(r"```\n([0-9a-f\n]+?)```", text)
    ]


# --- golden vectors --------------------------------------------------------

def test_golden_rle0_matches_docs():
    data = b"\x00" * 8 + b"AB" + b"\x00" * 300
    assert compress(data, CODEC_RLE0) == doc_hex_blocks()[0]
    assert decompress(doc_hex_blocks()[0]) == data


def test_golden_lz_matches_docs():
    data = b"abcabcabcabcXYZ"
    assert compress(data, CODEC_LZ) == doc_hex_blocks()[1]
    assert decompress(doc_hex_blocks()[1]) == data


def test_golden_stored_fallback_matches_docs():
    data = bytes.fromhex("8f3a19c4e7025bd6")
    block = compress(data, CODEC_RLE0)
    assert block == doc_hex_blocks()[2]
    assert block[0] == CODEC_STORED
    assert decompress(block) == data


def test_golden_empty_matches_docs():
    block = compress(b"", CODEC_RLE0)
    assert block == doc_hex_blocks()[3]
    assert len(block) == 6
    assert decompress(block) == b""


# --- compress behavior -----------------------------------------------------

def test_zero_block_compresses_well():
    block = compress(bytes(4096), CODEC_RLE0)
    assert len(block) < 4096 + 6
    assert len(block) == 6 + 2 * 17  # 16 full runs of 255 plus one of 16
    assert decompress(block) == bytes(4096)


def test_random_block_hits_stored_fallback():
    data = random.Random(99).randbytes(4096)
    for codec_id in (CODEC_RLE0, CODEC_LZ):
        block = compress(data, codec_id)
        assert len(block) == 4096 + 6
        assert block[0] == CODEC_STORED
        assert decompress(block) == data


def test_compress_rejects_non_compressing_codec_ids():
    for codec_id in (CODEC_STORED, 3, 255):
        with pytest.raises(UnsupportedCodec):
            compress(b"data", codec_id)


def test_compress_deterministic():
    data = random.Random(5).randbytes(10000)
    assert compress(data, CODEC_LZ) == compress(data, CODEC_LZ)
    assert compress(data, CODEC_RLE0) == compress(data, CODEC_RLE0)


def test_lz_handles_overlapping_copies():
    data = b"ab" * 2000
    block = compress(data, CODEC_LZ)
    assert len(block) < 128  # ~31 maximum-length match tokens plus header
    assert decompress(block) == data


def test_lz_long_range_matches_stay_within_window():
    # Repeat at a distance beyond 4096: must still roundtrip (encoder
    # simply cannot reference that far back).
    unit = random.Random(1).randbytes(5000)
    data = unit + unit
    assert decompress(compress(data, CODEC_LZ)) == data


# --- roundtrip properties ----------------------------------------------------

def patterned(draw) -> bytes:
    kind = draw(st.integers(0, 4))
    size = draw(st.integers(0, 4096))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    if kind == 0:
        return bytes(size)
    if kind == 1:
        return b"\xff" * size
    if kind == 2:
        period = rng.randbytes(draw(st.integers(1, 16)))
        return (period * (size // len(period) + 1))[:size]
    if kind == 3:
        return rng.randbytes(size)
    out = bytearray()
    while len(out) < size:
        out += bytes(rng.randrange(1, 64))
        out += rng.randbytes(rng.randrange(1, 64))
    return bytes(out[:size])


buffers = st.composite(patterned)()


@settings(max_examples=200, deadline=None)
@given(buffers, st.sampled_from([CODEC_RLE0, CODEC_LZ]))
@example(b"", CODEC_RLE0)
@example(b"\x00", CODEC_LZ)
def test_roundtrip_and_expansion_bound(data, codec_id):
    block = compress(data, codec_id)
    assert decompress(block) == data
    assert len(block) <= len(data) + 6


# --- rle0 against a reference taken from the token rules in docs/codec.md ---

def reference_rle0_encode(data: bytes) -> bytes:
    out = bytearray()
    run = 0
    for byte in data:
        if byte == 0:
            run += 1
            if run == 255:
                out += b"\x00\xff"
                run = 0
            continue
        if run:
            out += bytes((0, run))
            run = 0
        out.append(byte)
    if run:
        out += bytes((0, run))
    return bytes(out)


def reference_rle0_decode(body: bytes) -> bytes | None:
    """The decoded bytes, or None where a decoder must reject the body."""
    out = bytearray()
    i = 0
    while i < len(body):
        if body[i]:
            out.append(body[i])
            i += 1
        elif i + 1 < len(body) and body[i + 1]:
            out += bytes(body[i + 1])
            i += 2
        else:  # a marker without a count, or a count of 0
            return None
    return bytes(out)


# Window sizes small enough that nearly every input crosses window
# edges, plus the module's own.
WINDOWS = pytest.mark.parametrize("window", [1, 2, 3, 257, pytest.param(None, id="default")])


def straddling(n: int) -> bytes:
    """n bytes whose trailing zero run crosses a 64 KiB edge when n > 65536."""
    return b"\x07" * 65_000 + bytes(n - 65_000)


@WINDOWS
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(buffers)
@example(bytes(255))
@example(b"A" + bytes(256) + b"B")
@example(bytes(510) + b"C")
@example(straddling(65_535))
@example(straddling(65_536))
@example(straddling(65_537))
@example(bytes(65_537))
def test_rle0_encoder_matches_reference(monkeypatch, window, data):
    if window:
        monkeypatch.setattr(codec, "_WINDOW", window)
    body = reference_rle0_encode(data)
    if len(body) >= len(data) and data:
        expected = bytes((CODEC_STORED, 0)) + len(data).to_bytes(4, "little") + data
    else:
        expected = bytes((CODEC_RLE0, 0)) + len(data).to_bytes(4, "little") + body
    assert compress(data, CODEC_RLE0) == expected


@WINDOWS
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(st.sampled_from([0, 0, 1, 2, 255]) | st.integers(0, 255), max_size=16).map(bytes),
    st.data(),
)
def test_rle0_decoder_matches_reference(monkeypatch, window, body, data):
    if window:
        monkeypatch.setattr(codec, "_WINDOW", window)
    expected = reference_rle0_decode(body)
    raw_len = data.draw(st.integers(0, 16) | st.integers(0, 2040) | st.just(len(expected or b"")))
    block = bytes((CODEC_RLE0, 0)) + raw_len.to_bytes(4, "little") + body
    if expected is None or len(expected) != raw_len:
        with pytest.raises(CorruptBlock):
            decompress(block)
    else:
        assert decompress(block) == expected


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_rle0_memory_stays_bounded():
    # Every zero is a run of one: one split over the whole input would
    # make a piece per byte.
    data = b"\x00\x01" * (2 << 20)
    assert traced_peak(compress, data, CODEC_RLE0) <= 4 * len(data)
    body = codec._rle0_encode(data)

    def reject():
        with pytest.raises(CorruptBlock):
            codec._rle0_decode(body, 10)

    assert traced_peak(reject) <= 4 << 20
    # The same rejection through decompress: a copy of the 6 MiB body
    # alone would break the bound.
    block = codec._HEADER.pack(CODEC_RLE0, 0, 10) + body

    def reject_block():
        with pytest.raises(CorruptBlock):
            decompress(block)

    assert traced_peak(reject_block) <= len(body) // 2
    # One run longer than a window: growing the window to the run's end
    # would make a piece per 255 input bytes.
    zeros = bytes(4 << 20)
    assert traced_peak(compress, zeros, CODEC_RLE0) <= 1 << 20


# --- adversarial decompress --------------------------------------------------

def test_decompress_short_blocks():
    for n in range(6):
        with pytest.raises(MalformedBlock):
            decompress(b"\x01" * n)


def test_decompress_stored_passthrough():
    assert decompress(b"\x00\x00\x03\x00\x00\x00abc") == b"abc"


def test_decompress_rejects_reserved_flags():
    with pytest.raises(MalformedBlock):
        decompress(b"\x00\x01\x03\x00\x00\x00abc")


def test_decompress_rejects_unknown_codec():
    with pytest.raises(UnsupportedCodec):
        decompress(b"\x07\x00\x00\x00\x00\x00")


def test_decompress_rejects_stored_length_mismatch():
    with pytest.raises(CorruptBlock):
        decompress(b"\x00\x00\x04\x00\x00\x00abc")


def test_decompress_rejects_wrong_decoded_length():
    block = bytearray(compress(bytes(100), CODEC_RLE0))
    block[2:6] = (99).to_bytes(4, "little")
    with pytest.raises(CorruptBlock):
        decompress(bytes(block))


@pytest.mark.parametrize(
    "body",
    [
        b"\x00",  # marker without count
        b"\x00\x00",  # zero-length run
        b"\x00\xff\x00\x2c\x00",  # 299 zeros, then a marker read as byte 300
    ],
)
def test_rle0_rejects_malformed_bodies(body):
    block = b"\x01\x00" + (300).to_bytes(4, "little") + body
    with pytest.raises(CorruptBlock):
        decompress(block)


@pytest.mark.parametrize(
    "body",
    [
        b"\x05ab",  # literal run declared 6, only 2 bytes follow
        b"\x80",  # match token with no distance
        b"\x80\x00\x00",  # distance 0
        b"\x00A\x80\x01\x10",  # distance 4097, beyond the window
    ],
)
def test_lz_rejects_malformed_bodies(body):
    block = b"\x02\x00" + (500).to_bytes(4, "little") + body
    with pytest.raises(CorruptBlock):
        decompress(block)


def test_lz_rejects_distance_before_output_start():
    # One literal byte, then a match at distance 2.
    body = b"\x00A\x80\x02\x00"
    block = b"\x02\x00" + (10).to_bytes(4, "little") + body
    with pytest.raises(CorruptBlock):
        decompress(block)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256))
def test_decompress_never_crashes_on_garbage(blob):
    try:
        decompress(blob)
    except (MalformedBlock, CorruptBlock, UnsupportedCodec):
        pass


@settings(max_examples=150, deadline=None)
@given(buffers, st.sampled_from([CODEC_RLE0, CODEC_LZ]), st.data())
def test_decompress_never_crashes_on_corrupted_blocks(data, codec_id, draw):
    block = bytearray(compress(data, codec_id))
    pos = draw.draw(st.integers(0, len(block) - 1))
    block[pos] ^= draw.draw(st.integers(1, 255))
    try:
        decompress(bytes(block))
    except (MalformedBlock, CorruptBlock, UnsupportedCodec):
        pass
