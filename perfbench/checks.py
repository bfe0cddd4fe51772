"""Output checks made apart from the program under test.

`rle0_decode` is written from docs/codec.md, not from msfm.codec, and
the erasure-code and placement checks follow the documented layout of
msfm.miniobj and msfm.gfec: systematic shards, shard i of an object on
OSD (crc32(name) + i) mod osd_count while every OSD is up.
"""

from __future__ import annotations

import zlib

HEADER_BYTES = 6
CODEC_STORED = 0
CODEC_RLE0 = 1


class CheckFailed(Exception):
    """An output of the program is not what the method requires."""


def rle0_decode(block: bytes) -> bytes:
    """Decode a stored-form or rle0 block, one token at a time.

    Raises:
        CheckFailed: The block is malformed, names another codec, or
            does not decode to exactly its declared raw length.
    """
    if len(block) < HEADER_BYTES:
        raise CheckFailed(f"block of {len(block)} bytes has no header")
    codec_id, flags = block[0], block[1]
    raw_len = int.from_bytes(block[2:6], "little")
    body = block[HEADER_BYTES:]
    if flags != 0:
        raise CheckFailed(f"reserved flags byte is {flags}")
    if codec_id == CODEC_STORED:
        out = bytes(body)
    elif codec_id == CODEC_RLE0:
        decoded = bytearray()
        i = 0
        while i < len(body):
            byte = body[i]
            if byte:
                decoded.append(byte)
                i += 1
                continue
            if i + 1 >= len(body) or body[i + 1] == 0:
                raise CheckFailed(f"bad zero-run token at body offset {i}")
            decoded.extend(bytes(body[i + 1]))
            i += 2
        out = bytes(decoded)
    else:
        raise CheckFailed(f"codec_id {codec_id} is neither stored nor rle0")
    if len(out) != raw_len:
        raise CheckFailed(f"decoded {len(out)} bytes, header says {raw_len}")
    return out


def check_rle0_block(block: bytes, raw: bytes) -> None:
    """A compressed block must decode to `raw` and add at most 6 bytes."""
    if len(block) > len(raw) + HEADER_BYTES:
        raise CheckFailed(f"{len(block)}-byte block for {len(raw)} raw bytes")
    if rle0_decode(block) != raw:
        raise CheckFailed("block does not decode to its input")


def shard_osd(name: str, index: int, osd_count: int) -> int:
    """The OSD that holds shard `index` of `name` when all OSDs are up."""
    return (zlib.crc32(name.encode("utf-8")) + index) % osd_count


def check_ec_shards(raw: bytes, shards: list[bytes], k: int) -> None:
    """Systematic layout: every shard ceil(len/k) bytes, data shards first."""
    size = max(1, -(-len(raw) // k))
    for i, shard in enumerate(shards):
        if len(shard) != size:
            raise CheckFailed(f"shard {i} is {len(shard)} bytes, expected {size}")
    if b"".join(shards[:k]) != raw.ljust(k * size, b"\x00"):
        raise CheckFailed("data shards are not the zero-padded input")


def predict_degraded(names: list[str], dead_osd: int, k: int, osd_count: int) -> int:
    """How many gets must rebuild a data shard while `dead_osd` is down.

    An object put with every OSD up loses data shard i to the dead OSD
    exactly when shard_osd(name, i) == dead_osd for some i < k; losing
    only a parity shard needs no rebuild.
    """
    return sum(
        any(shard_osd(name, i, osd_count) == dead_osd for i in range(k))
        for name in names
    )
