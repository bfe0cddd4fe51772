"""The benchmark's own checks agree with the documentation and the store."""

import re
from pathlib import Path

import pytest

from msfm.miniobj import ObjectPolicy, ObjectStore
from perfbench import checks
from perfbench.workloads import RebuildCountingClient

DOCS = Path(__file__).resolve().parents[2] / "docs" / "codec.md"


def golden_blocks() -> list[bytes]:
    text = DOCS.read_text()
    return [
        bytes.fromhex("".join(block.split()))
        for block in re.findall(r"```\n([0-9a-f\n]+?)```", text)
    ]


def test_rle0_decoder_reproduces_the_golden_vectors():
    rle0, lz, stored, empty = golden_blocks()
    assert checks.rle0_decode(rle0) == b"\x00" * 8 + b"AB" + b"\x00" * 300
    assert checks.rle0_decode(stored) == bytes.fromhex("8f3a19c4e7025bd6")
    assert checks.rle0_decode(empty) == b""
    with pytest.raises(checks.CheckFailed, match="neither stored nor rle0"):
        checks.rle0_decode(lz)


@pytest.mark.parametrize(
    "block",
    [
        b"\x01\x00",  # shorter than the header
        bytes.fromhex("010100000000"),  # reserved flags set
        bytes.fromhex("01000300000000"),  # zero marker without a count
        bytes.fromhex("0100030000000000"),  # zero-length run
        bytes.fromhex("0100030000000002"),  # decodes to 2 bytes, not 3
    ],
)
def test_rle0_decoder_rejects_malformed_blocks(block):
    with pytest.raises(checks.CheckFailed):
        checks.rle0_decode(block)


def test_rle0_block_check_enforces_the_expansion_bound():
    raw = bytes(range(1, 9))
    stored = bytes.fromhex("000008000000") + raw
    checks.check_rle0_block(stored, raw)
    with pytest.raises(checks.CheckFailed, match="block for"):
        checks.check_rle0_block(stored + b"\x01", raw)
    with pytest.raises(checks.CheckFailed, match="does not decode"):
        checks.check_rle0_block(stored, bytes(reversed(raw)))


def test_ec_shard_check_accepts_real_shards_and_rejects_a_changed_one():
    raw = bytes(range(256)) * 3 + b"tail"
    store = ObjectStore(osd_count=6)
    manifest = store.put("obj", raw, ObjectPolicy.ec(4, 2))
    shards = [store.osds[p.osd].read(p.key) for p in manifest.placements]
    checks.check_ec_shards(raw, shards, 4)
    shards[1] = bytes(len(shards[1]))
    with pytest.raises(checks.CheckFailed, match="zero-padded"):
        checks.check_ec_shards(raw, shards, 4)
    with pytest.raises(checks.CheckFailed, match="shard 0"):
        checks.check_ec_shards(raw, [shards[0][1:]] + shards[1:], 4)


def test_degraded_read_predictor_matches_the_store_with_each_osd_killed():
    store = ObjectStore(osd_count=6)
    names = [f"object-{i}" for i in range(12)]
    data = {name: name.encode() * 50 for name in names}
    for name in names:
        manifest = store.put(name, data[name], ObjectPolicy.ec(4, 2))
        assert [p.osd for p in manifest.placements] == [
            checks.shard_osd(name, i, 6) for i in range(6)
        ]
    client = RebuildCountingClient()
    seen = []
    for dead in range(6):
        store.kill_osd(dead)
        before = client.rebuilds
        for name in names:
            assert store.get(name, client) == data[name]
        seen.append(client.rebuilds - before)
        store.revive_osd(dead)
    client.close()
    assert seen == [checks.predict_degraded(names, dead, 4, 6) for dead in range(6)]
    # Each object keeps its four data shards on four distinct OSDs.
    assert sum(seen) == 4 * len(names)
