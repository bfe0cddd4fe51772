"""Object store tests: transforms, placement, fault injection, manifests."""

import itertools
import json
import os
import random
import sys
import tempfile
import threading
import urllib.parse
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfm import bench, codec, miniobj, protocol
from msfm.client import Client, ClientConfig
from msfm.miniobj import (
    NotFound,
    ObjectManifest,
    ObjectPolicy,
    ObjectStore,
    OsdTarget,
    PlacementError,
    StoreError,
    Unrecoverable,
)
from msfm.protocol import FunctionId
from msfm.server import Server, ServerConfig, default_registry

POLICIES = [
    ObjectPolicy.none(),
    ObjectPolicy.compress(codec.CODEC_RLE0),
    ObjectPolicy.compress(codec.CODEC_LZ),
    ObjectPolicy.ec(4, 2),
    ObjectPolicy.ec(6, 3),
]


# --- basic roundtrips --------------------------------------------------------

def test_passthrough_roundtrip():
    store = ObjectStore(osd_count=4)
    store.put("doc", b"hello world", ObjectPolicy.none())
    assert store.get("doc") == b"hello world"


def test_compress_shrinks_zero_heavy_object():
    store = ObjectStore()
    data = bytes(65536)
    manifest = store.put("zeros", data, ObjectPolicy.compress(codec.CODEC_RLE0))
    assert manifest.placements[0].length < 65536
    assert store.get("zeros") == data


def test_roundtrip_grid_all_policies():
    rng = random.Random(17)
    store = ObjectStore(osd_count=9)
    for i, policy in enumerate(POLICIES):
        for size in (0, 1, 10, 4096, 70000):
            data = rng.randbytes(size)
            name = f"obj-{i}-{size}"
            store.put(name, data, policy)
            assert store.get(name) == data, (policy.transform, size)


def test_put_overwrites_previous_version():
    store = ObjectStore()
    store.put("x", b"old", ObjectPolicy.none())
    store.put("x", b"new-bytes", ObjectPolicy.compress())
    assert store.get("x") == b"new-bytes"


def test_get_unknown_name():
    with pytest.raises(NotFound):
        ObjectStore().get("ghost")


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        ObjectStore().put("", b"x", ObjectPolicy.none())


@pytest.mark.parametrize("codec_id", [codec.CODEC_STORED, 9], ids=["stored", "9"])
def test_compress_policy_refuses_a_codec_compress_refuses(codec_id):
    # Accepted, such a policy would fail only at the put's transform call.
    with pytest.raises(ValueError, match=f"cannot compress with codec id {codec_id}"):
        ObjectPolicy.compress(codec_id)


# --- EC specifics ---------------------------------------------------------------

def test_ec_padding_arithmetic():
    store = ObjectStore()
    manifest = store.put("pad", b"0123456789", ObjectPolicy.ec(4, 2))
    assert manifest.shard_size == 3
    assert manifest.padding == 2
    assert len(manifest.placements) == 6
    assert len({p.osd for p in manifest.placements}) == 6
    assert store.get("pad") == b"0123456789"


def test_ec_empty_object():
    store = ObjectStore()
    manifest = store.put("void", b"", ObjectPolicy.ec(4, 2))
    assert manifest.shard_size == 1
    assert manifest.padding == 4
    assert store.get("void") == b""


def test_ec_placement_is_deterministic_and_distinct():
    a = ObjectStore(osd_count=8)
    b = ObjectStore(osd_count=8)
    data = random.Random(3).randbytes(1000)
    ma = a.put("same-name", data, ObjectPolicy.ec(4, 2))
    mb = b.put("same-name", data, ObjectPolicy.ec(4, 2))
    assert [p.osd for p in ma.placements] == [p.osd for p in mb.placements]


def test_ec_insufficient_osds():
    store = ObjectStore(osd_count=5)
    with pytest.raises(PlacementError):
        store.put("x", b"data", ObjectPolicy.ec(4, 2))


def test_ec_survives_any_two_kills():
    rng = random.Random(23)
    data = rng.randbytes(5000)
    for pair in itertools.combinations(range(6), 2):
        store = ObjectStore(osd_count=6)
        store.put("obj", data, ObjectPolicy.ec(4, 2))
        for osd_id in pair:
            store.kill_osd(osd_id)
        assert store.get("obj") == data, pair


def test_ec_triple_kill_is_unrecoverable():
    data = random.Random(29).randbytes(3000)
    for triple in itertools.combinations(range(6), 3):
        store = ObjectStore(osd_count=6)
        store.put("obj", data, ObjectPolicy.ec(4, 2))
        for osd_id in triple:
            store.kill_osd(osd_id)
        with pytest.raises(Unrecoverable):
            store.get("obj")


def test_kill_revive_restores_service():
    store = ObjectStore(osd_count=6)
    data = b"payload" * 100
    store.put("a", data, ObjectPolicy.ec(4, 2))
    store.kill_osd(0)
    store.kill_osd(1)
    assert store.get("a") == data
    store.revive_osd(0)
    store.revive_osd(1)
    store.put("b", data, ObjectPolicy.ec(4, 2))
    assert store.get("b") == data


def test_kill_does_not_touch_other_osds_blobs():
    store = ObjectStore(osd_count=4)
    manifest = store.put("solo", b"important", ObjectPolicy.none())
    holder = manifest.placements[0].osd
    victim = (holder + 1) % 4
    store.kill_osd(victim)
    assert store.get("solo") == b"important"
    store.kill_osd(holder)
    with pytest.raises(NotFound):
        store.get("solo")


def test_kill_unknown_osd():
    with pytest.raises(NotFound):
        ObjectStore(osd_count=2).kill_osd(7)


# --- execution-mode equivalence ---------------------------------------------------

def test_stored_bytes_identical_in_process_vs_remote():
    rng = random.Random(41)
    data = rng.randbytes(30000)
    with Server(ServerConfig(), default_registry()) as server:
        with Client(ClientConfig(mode="remote", address=server.address)) as remote:
            for make_policy in (
                lambda c: ObjectPolicy.compress(codec.CODEC_LZ, c),
                lambda c: ObjectPolicy.ec(6, 3, c),
            ):
                local_store = ObjectStore(osd_count=9)
                remote_store = ObjectStore(osd_count=9)
                local_store.put("obj", data, make_policy(None))
                remote_store.put("obj", data, make_policy(remote))
                local_blobs = [
                    (p.osd, p.key, local_store.osds[p.osd].read(p.key))
                    for p in local_store.manifest("obj").placements
                ]
                remote_blobs = [
                    (p.osd, p.key, remote_store.osds[p.osd].read(p.key))
                    for p in remote_store.manifest("obj").placements
                ]
                assert local_blobs == remote_blobs
                assert remote_store.get("obj", remote) == data


def test_every_call_sends_its_functions_params_type():
    calls = []

    class RecordingClient(Client):
        def submit(self, function_id, params, payload=b""):
            calls.append((function_id, type(params)))
            return super().submit(function_id, params, payload)

    store = ObjectStore(osd_count=6)
    with RecordingClient(ClientConfig(mode="in-process")) as client:
        for name, policy in (
            ("packed", ObjectPolicy.compress(codec.CODEC_RLE0, client)),
            ("coded", ObjectPolicy.ec(4, 2, client)),
        ):
            store.put(name, bytes(5000), policy)
            assert store.get(name, client) == bytes(5000)
        # A healthy EC get makes no call; one with a data blob lost decodes.
        store.kill_osd(store.manifest("coded").placements[0].osd)
        assert store.get("coded", client) == bytes(5000)
    assert sorted({function_id for function_id, _ in calls}) == [1, 2, 3, 4]
    for function_id, params_type in calls:
        assert params_type is protocol.PARAMS_LAYOUTS[function_id][0]


def counting(registry, requests):
    """`registry` with each handler appending its function id to `requests`."""

    def wrap(function_id, handler):
        def counted(params, payload):
            requests.append(function_id)
            return handler(params, payload)

        return counted

    return {function_id: wrap(function_id, h) for function_id, h in registry.items()}


def test_a_get_sends_ec_decode_only_when_a_data_blob_is_lost():
    data = random.Random(17).randbytes(65536)
    requests = []
    with Server(ServerConfig(), counting(default_registry(), requests)) as server:
        with Client(ClientConfig(mode="remote", address=server.address)) as remote:
            store = ObjectStore(osd_count=6)
            manifest = store.put("obj", data, ObjectPolicy.ec(4, 2, remote))
            assert requests == [FunctionId.EC_ENCODE]
            osds = [p.osd for p in manifest.placements]
            for lost, sent in [
                (None, []),
                (osds[4], []),
                (osds[5], []),
                (osds[0], [FunctionId.EC_DECODE]),
                (osds[3], [FunctionId.EC_DECODE]),
            ]:
                requests.clear()
                if lost is not None:
                    store.kill_osd(lost)
                assert store.get("obj", remote) == data
                assert requests == sent, lost
                if lost is not None:
                    store.revive_osd(lost)


def blob_path(root, placement):
    key = urllib.parse.quote(placement.key, safe="")
    return root / f"osd-{placement.osd:03d}" / key


@pytest.mark.parametrize(
    "change", [lambda b: b[:-1], lambda b: b + b"\x00"], ids=["truncated", "grown"]
)
def test_a_blob_of_the_wrong_length_counts_as_lost(tmp_path, change):
    store = ObjectStore(osd_count=6, root=tmp_path)
    data = random.Random(19).randbytes(65536)
    # An EC object rebuilds its data blob 0 from parity.
    placement = store.put("coded", data, ObjectPolicy.ec(4, 2)).placements[0]
    path = blob_path(tmp_path, placement)
    path.write_bytes(change(path.read_bytes()))
    assert store.get("coded") == data
    assert ObjectStore(osd_count=6, root=tmp_path).get("coded") == data
    # An object of one blob has nothing to rebuild it from.
    for policy in (ObjectPolicy.none(), ObjectPolicy.compress(codec.CODEC_RLE0)):
        placement = store.put("lone", data, policy).placements[0]
        path = blob_path(tmp_path, placement)
        path.write_bytes(change(path.read_bytes()))
        with pytest.raises(Unrecoverable):
            store.get("lone")


# --- manifests ---------------------------------------------------------------------

def test_manifest_roundtrips_canonically():
    store = ObjectStore()
    manifest = store.put("m", b"0123456789", ObjectPolicy.ec(4, 2))
    text = manifest.to_json()
    again = ObjectManifest.from_json(text)
    assert again == manifest
    assert again.to_json() == text


def test_manifest_rejects_unknown_version():
    store = ObjectStore()
    manifest = store.put("m", b"abc", ObjectPolicy.none())
    record = json.loads(manifest.to_json())
    record["version"] = 99
    with pytest.raises(Exception):
        ObjectManifest.from_json(json.dumps(record))


CORRUPT_MANIFESTS = {
    "truncated": lambda text: '{"trunc',
    "not-an-object": lambda text: "[1]",
    "version-only": lambda text: '{"version":1}',
    "placements-not-a-list": lambda text: json.dumps(
        json.loads(text) | {"placements": {"osd": 0}}
    ),
    "raw-len-short": lambda text: json.dumps(json.loads(text) | {"raw_len": 2}),
}


@pytest.mark.parametrize(
    "corrupt", CORRUPT_MANIFESTS.values(), ids=list(CORRUPT_MANIFESTS)
)
def test_a_corrupt_manifest_is_a_store_error(tmp_path, capsys, corrupt):
    from msfm.miniobj import main

    root = tmp_path / "store"
    ObjectStore(root=root).put("a", b"data", ObjectPolicy.none())
    path = root / "manifests" / "a.json"
    path.write_text(corrupt(path.read_text()))
    store = ObjectStore(root=root)
    with pytest.raises(StoreError, match="a.json"):
        store.get("a")
    with pytest.raises(StoreError, match="a.json"):
        store.put("a", b"new", ObjectPolicy.none())
    assert len(held_blobs(store)) == 1  # the put wrote nothing
    assert main(["--root", str(root), "get", "a", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_stats_accumulate():
    store = ObjectStore()
    store.put("a", bytes(1000), ObjectPolicy.compress(codec.CODEC_RLE0))
    store.put("b", bytes(500), ObjectPolicy.none())
    assert store.stats.raw_bytes == 1500
    assert 0 < store.stats.stored_bytes < 1500 + 12


# --- file-backed store ---------------------------------------------------------------

def test_file_backed_store_persists_across_instances(tmp_path):
    data = random.Random(7).randbytes(2000)
    first = ObjectStore(osd_count=6, root=tmp_path)
    first.put("durable", data, ObjectPolicy.ec(4, 2))
    second = ObjectStore(osd_count=6, root=tmp_path)
    assert second.get("durable") == data


def test_file_backed_kill_state_persists(tmp_path):
    first = ObjectStore(osd_count=3, root=tmp_path)
    first.put("x", b"blob-bytes", ObjectPolicy.none())
    first.kill_osd(0)
    second = ObjectStore(osd_count=3, root=tmp_path)
    assert [osd.alive for osd in second.osds] == [False, True, True]


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    store = ObjectStore(osd_count=6, root=tmp_path)
    first = store.put("obj", b"first version", ObjectPolicy.none())
    write_text = Path.write_text

    def torn_write(path, text, *args, **kwargs):
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError):
        store.put("obj", b"a longer second version", ObjectPolicy.none())
    monkeypatch.undo()
    assert store.manifest("obj") == first
    assert ObjectStore(osd_count=6, root=tmp_path).manifest("obj") == first


def test_failed_blob_write_keeps_the_previous_blob(tmp_path, monkeypatch):
    osd = OsdTarget(0, tmp_path)
    osd.write("obj/0", b"first blob")
    write_bytes = Path.write_bytes

    def torn_write(path, data):
        write_bytes(path, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", torn_write)
    with pytest.raises(OSError):
        osd.write("obj/0", b"a longer second blob")
    monkeypatch.undo()
    assert osd.read("obj/0") == b"first blob"
    assert OsdTarget(0, tmp_path).read("obj/0") == b"first blob"
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_roundtrip(tmp_path, capsys):
    from msfm.miniobj import main

    source = tmp_path / "in.bin"
    source.write_bytes(b"\x00" * 5000 + b"tail")
    root = str(tmp_path / "store")
    assert main(["--root", root, "put", "obj", str(source), "--transform", "rle0"]) == 0
    out = tmp_path / "out.bin"
    assert main(["--root", root, "get", "obj", str(out)]) == 0
    assert out.read_bytes() == source.read_bytes()
    assert main(["--root", root, "kill-osd", "1"]) == 0
    assert main(["--root", root, "revive-osd", "1"]) == 0
    text = capsys.readouterr().out
    assert "stored 'obj'" in text and "osd 1 is up" in text


def test_cli_ec_with_kills(tmp_path):
    from msfm.miniobj import main

    source = tmp_path / "in.bin"
    source.write_bytes(random.Random(13).randbytes(9000))
    root = str(tmp_path / "store")
    args = ["--root", root, "--osds", "6"]
    assert main(args + ["put", "obj", str(source), "--transform", "ec"]) == 0
    assert main(args + ["kill-osd", "0"]) == 0
    assert main(args + ["kill-osd", "3"]) == 0
    out = tmp_path / "out.bin"
    assert main(args + ["get", "obj", str(out)]) == 0
    assert out.read_bytes() == source.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["--server", "nonsense", "get", "a", "o"],
        ["--server", "127.0.0.1:port", "get", "a", "o"],
        ["--osds", "0", "get", "a", "o"],
        ["put", "a", "in.bin", "--transform", "ec", "--k", "0"],
        pytest.param(["put", "", "in.bin"], id="put-empty-name"),
        pytest.param(["get", "", "o"], id="get-empty-name"),
    ],
)
def test_cli_rejects_bad_arguments_before_touching_the_store(tmp_path, capsys, argv):
    from msfm.miniobj import main

    root = tmp_path / "store"
    with pytest.raises(SystemExit) as exit_info:
        main(["--root", str(root), *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: msfm-obj") and "error:" in err
    assert not root.exists()


def test_cli_reports_an_unreachable_server_before_touching_the_store(tmp_path, capsys):
    from msfm.miniobj import main

    root = tmp_path / "store"
    # Nothing listens on port 1, so the connect is refused.
    assert main(["--root", str(root), "--server", "127.0.0.1:1", "get", "a", "o"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot connect")
    assert not root.exists()


@pytest.mark.parametrize("command", ["put", "get"])
def test_cli_reports_a_file_it_cannot_open(tmp_path, capsys, command):
    from msfm.miniobj import main

    store = ["--root", str(tmp_path / "store")]
    source = tmp_path / "in.bin"
    source.write_bytes(b"data")
    assert main([*store, "put", "a", str(source)]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "nonexistent" / "file")
    assert main([*store, command, "a", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


# --- one placement rule, generations and commit order ---------------------------

STORE_KINDS = ["memory", "disk", "disk-reopened"]


@pytest.fixture(params=STORE_KINDS)
def open_store(request, tmp_path):
    """A factory for the store each step uses.

    "memory" and "disk" hand out one store; "disk-reopened" opens a fresh
    store over the same root at every call, as each msfm-obj command does.
    """
    root = None if request.param == "memory" else tmp_path / "store"
    first = ObjectStore(osd_count=6, root=root)
    if request.param == "disk-reopened":
        return lambda: ObjectStore(osd_count=6, root=root)
    return lambda: first


def held_blobs(store):
    """Every (osd, key) the store's OSDs hold, read beneath the store API."""
    held = set()
    for osd in store.osds:
        if osd._dir is None:
            keys = list(osd._blobs)
        else:
            keys = [
                urllib.parse.unquote(path.name)
                for path in osd._dir.iterdir()
                if path.name != ".down"
            ]
        held.update((osd.id, key) for key in keys)
    return held


def named_blobs(store, names):
    return {(p.osd, p.key) for name in names for p in store.manifest(name).placements}


def test_blob_i_sits_on_the_crc32_th_live_osd():
    store = ObjectStore(osd_count=8)
    store.kill_osd(2)
    live = [0, 1, 3, 4, 5, 6, 7]
    for policy in (ObjectPolicy.none(), ObjectPolicy.compress(), ObjectPolicy.ec(2, 1)):
        for name in ("a", "photo.jpg", "dir/obj-17"):
            manifest = store.put(name, bytes(100), policy)
            offset = zlib.crc32(name.encode("utf-8"))
            assert [p.osd for p in manifest.placements] == [
                live[(offset + i) % len(live)] for i in range(len(manifest.placements))
            ]
            assert [p.key for p in manifest.placements] == [
                f"{name}/{manifest.generation}/{i}"
                for i in range(len(manifest.placements))
            ]


def test_placement_error_comes_before_any_transform_call():
    calls = []

    class CountingClient(Client):
        def submit(self, function_id, params, payload=b""):
            calls.append(function_id)
            return super().submit(function_id, params, payload)

    store = ObjectStore(osd_count=5)
    with CountingClient(ClientConfig(mode="in-process")) as client:
        with pytest.raises(PlacementError):
            store.put("x", bytes(100), ObjectPolicy.ec(4, 2, client))
        for osd_id in range(5):
            store.kill_osd(osd_id)
        with pytest.raises(PlacementError):
            store.put("x", bytes(100), ObjectPolicy.compress(client=client))
    assert calls == []


def test_failed_ec_overwrite_keeps_the_previous_version(open_store, monkeypatch):
    old = random.Random(101).randbytes(4096)
    store = open_store()
    store.put("obj", old, ObjectPolicy.ec(4, 2))
    write = OsdTarget.write
    writes = itertools.count(1)

    def third_write_fails(osd, key, data):
        if next(writes) == 3:
            raise OSError("disk full")
        write(osd, key, data)

    monkeypatch.setattr(OsdTarget, "write", third_write_fails)
    with pytest.raises(OSError):
        new = random.Random(102).randbytes(4096)
        open_store().put("obj", new, ObjectPolicy.ec(4, 2))
    monkeypatch.undo()
    store = open_store()
    assert store.get("obj") == old
    assert held_blobs(store) == named_blobs(store, ["obj"])
    assert len(held_blobs(store)) == 6


def test_failed_manifest_write_keeps_a_compressed_object_readable(
    tmp_path, monkeypatch
):
    # Each put runs on a fresh store, as each msfm-obj command does.  With
    # keys that a new version reuses, the raw bytes of the second put
    # would sit under the first put's compress manifest.
    old = bytes(3000) + b"tail"
    ObjectStore(osd_count=6, root=tmp_path).put(
        "obj", old, ObjectPolicy.compress(codec.CODEC_RLE0)
    )

    def failing_write(path, text, *args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(OSError):
        ObjectStore(osd_count=6, root=tmp_path).put(
            "obj", b"raw second version", ObjectPolicy.none()
        )
    monkeypatch.undo()
    store = ObjectStore(osd_count=6, root=tmp_path)
    assert store.get("obj") == old
    assert held_blobs(store) == named_blobs(store, ["obj"])


def test_overwrites_leave_only_the_blobs_manifests_name(open_store):
    rng = random.Random(103)
    open_store().put("other", rng.randbytes(777), ObjectPolicy.ec(4, 2))
    for policy in (
        ObjectPolicy.ec(4, 2),
        ObjectPolicy.ec(2, 1),
        ObjectPolicy.compress(codec.CODEC_RLE0),
        ObjectPolicy.none(),
        ObjectPolicy.ec(4, 2),
    ):
        data = rng.randbytes(5000)
        open_store().put("x", data, policy)
        store = open_store()
        assert store.get("x") == data, policy.transform
        assert held_blobs(store) == named_blobs(store, ["x", "other"]), policy.transform


def test_rle0_rounds_leave_one_blob_per_object(open_store):
    # The offload-rle0-64k pattern: 16 names, each put once a round from
    # 32 distinct 64 KiB blocks, over 50 rounds.
    blocks = [bench.make_block(65536, 0.5, seed) for seed in range(32)]
    names = [f"obj-{slot}" for slot in range(16)]
    policy = ObjectPolicy.compress(codec.CODEC_RLE0)
    for index in range(50):
        for slot, name in enumerate(names):
            open_store().put(name, blocks[(index * 16 + slot) % 32], policy)
        store = open_store()
        assert held_blobs(store) == named_blobs(store, names), index
    assert len(held_blobs(store)) == 16


def test_concurrent_puts_of_one_name_leave_one_whole_version():
    store = ObjectStore(osd_count=6)
    rounds = 200
    start = threading.Barrier(2)
    errors = []

    versions = {
        (thread, i): random.Random(thread * 1000 + i).randbytes(4000)
        for thread in (1, 2)
        for i in range(rounds)
    }
    known = set(versions.values())

    def writer(thread):
        try:
            start.wait()
            for i in range(rounds):
                store.put("shared", versions[thread, i], ObjectPolicy.ec(4, 2))
                # A get that races the other thread's put may find its
                # blobs deleted, but never returns bytes nobody put.
                try:
                    data = store.get("shared")
                except NotFound:
                    continue
                if data not in known:
                    errors.append(f"thread {thread} round {i}: torn read")
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert store.get("shared") in (versions[1, rounds - 1], versions[2, rounds - 1])
    assert held_blobs(store) == named_blobs(store, ["shared"])
    assert len(held_blobs(store)) == 6


def test_generation_moves_past_the_stored_manifest(tmp_path):
    first = ObjectStore(osd_count=6, root=tmp_path)
    for _ in range(3):
        first.put("x", b"abc", ObjectPolicy.none())
    assert first.manifest("x").generation == 3
    second = ObjectStore(osd_count=6, root=tmp_path)
    assert second.put("x", b"abcd", ObjectPolicy.none()).generation == 4
    assert second.put("y", b"y", ObjectPolicy.none()).generation == 5
    record = json.loads(first.manifest("x").to_json())
    assert record.pop("generation") == 3
    assert ObjectManifest.from_json(json.dumps(record)).generation == 0


def test_disk_put_fsyncs_each_file_before_its_rename(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        parent = Path(dst).parent
        events.append(("replace", os.stat(src).st_ino, os.stat(parent).st_ino, dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    ObjectStore(osd_count=6).put("obj", bytes(5000), ObjectPolicy.ec(4, 2))
    assert events == []

    disk_store = ObjectStore(osd_count=6, root=tmp_path)
    disk_store.put("obj", bytes(5000), ObjectPolicy.ec(4, 2))
    renames = [i for i, event in enumerate(events) if event[0] == "replace"]
    assert len(renames) == 7  # six shards, then the manifest
    assert Path(events[renames[-1]][3]).parent.name == "manifests"
    for i in renames:
        _, file_inode, dir_inode, _ = events[i]
        assert events[i - 1] == ("fsync", file_inode)
        assert events[i + 1] == ("fsync", dir_inode)


def test_a_put_whose_manifest_rename_is_not_synced_is_committed(tmp_path, monkeypatch):
    # The manifest's rename succeeds but the fsync of its directory fails:
    # the put raises, yet a crash may keep either manifest, so the new one
    # is current and the blobs of both stay.
    store = ObjectStore(osd_count=6, root=tmp_path)
    old = store.put("x", random.Random(110).randbytes(5000), ObjectPolicy.ec(4, 2))
    new = random.Random(111).randbytes(5000)
    fsync = miniobj._fsync

    def failing_fsync(path):
        if path.name == "manifests":
            raise OSError("injected directory fsync failure")
        fsync(path)

    monkeypatch.setattr(miniobj, "_fsync", failing_fsync)
    with pytest.raises(OSError, match="injected"):
        store.put("x", new, ObjectPolicy.ec(4, 2))
    monkeypatch.undo()
    reopened = ObjectStore(osd_count=6, root=tmp_path)
    for view in (store, reopened):
        assert view.get("x") == new
        assert view.manifest("x").generation > old.generation
        named = {(p.osd, p.key) for p in old.placements + view.manifest("x").placements}
        assert named <= held_blobs(view)


# --- pending puts, racing gets and failed steps ---------------------------------


@pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
def test_the_last_put_to_finish_wins(tmp_path, disk):
    store = ObjectStore(osd_count=6, root=tmp_path if disk else None)
    store.put("x", b"first version", ObjectPolicy.ec(4, 2))
    a = random.Random(106).randbytes(5000)
    b = random.Random(107).randbytes(5000)
    finish_a = store.submit_put("x", a, ObjectPolicy.ec(4, 2))
    finish_b = store.submit_put("x", b, ObjectPolicy.ec(4, 2))
    manifest_b = finish_b()
    manifest_a = finish_a()
    assert manifest_a.generation < manifest_b.generation
    stores = [store, ObjectStore(osd_count=6, root=tmp_path)] if disk else [store]
    for view in stores:
        assert view.manifest("x") == manifest_a
        assert view.get("x") == a
        assert held_blobs(view) == {(p.osd, p.key) for p in manifest_a.placements}


def test_get_reads_the_version_a_racing_put_committed(monkeypatch):
    store = ObjectStore(osd_count=6)
    store.put("x", random.Random(108).randbytes(4096), ObjectPolicy.ec(4, 2))
    new = random.Random(109).randbytes(4096)
    read = OsdTarget.read
    raced = []

    def read_then_put(osd, key):
        blob = read(osd, key)
        if not raced:
            raced.append(key)
            store.put("x", new, ObjectPolicy.ec(4, 2))
        return blob

    monkeypatch.setattr(OsdTarget, "read", read_then_put)
    assert store.get("x") == new
    assert raced == [f"x/{store.manifest('x').generation - 1}/0"]


FAILED_PUT_POLICIES = [
    ObjectPolicy.none(),
    ObjectPolicy.compress(codec.CODEC_RLE0),
    ObjectPolicy.ec(4, 2),
    ObjectPolicy.ec(2, 1),
]


@settings(max_examples=80, deadline=None)
@given(
    disk=st.booleans(),
    old_policy=st.sampled_from(FAILED_PUT_POLICIES),
    new_policy=st.sampled_from(FAILED_PUT_POLICIES),
    submitted=st.booleans(),
    step=st.integers(0, 7),
    after_write=st.booleans(),
    error=st.sampled_from([OSError, NotFound]),
)
def test_a_failed_put_leaves_exactly_the_old_or_the_new_version(
    disk, old_policy, new_policy, submitted, step, after_write, error
):
    # Steps of the new put, counted from 0: each OsdTarget.write, then
    # (on disk) the manifest replace.  Step `step` raises `error`; a
    # blob write may raise after its blob landed.  A step past the last
    # leaves the put whole.
    rng = random.Random(step)
    old, new, other = rng.randbytes(3000), bytes(2000) + rng.randbytes(999), b"o" * 70
    count = new_policy.k + new_policy.m if new_policy.transform == "ec" else 1
    steps = itertools.count()
    write, replace_file = OsdTarget.write, miniobj._replace_file

    def failing_write(osd, key, data):
        if next(steps) != step:
            return write(osd, key, data)
        if after_write:
            write(osd, key, data)
        raise error("injected blob write failure")

    def failing_replace_file(path, fill):
        if path.parent.name == "manifests" and next(steps) == step:
            raise error("injected manifest replace failure")
        replace_file(path, fill)

    with tempfile.TemporaryDirectory() as root:
        store = ObjectStore(osd_count=6, root=root if disk else None)
        store.put("other", other, ObjectPolicy.ec(2, 1))
        store.put("x", old, old_policy)
        with mock.patch.object(OsdTarget, "write", failing_write), mock.patch.object(
            miniobj, "_replace_file", failing_replace_file
        ):
            try:
                if submitted:
                    store.submit_put("x", new, new_policy)()
                else:
                    store.put("x", new, new_policy)
                failed = False
            except (OSError, NotFound):
                failed = True
        assert failed == (step < count + disk)
        views = [store, ObjectStore(osd_count=6, root=root)] if disk else [store]
        for view in views:
            assert view.get("x") == (old if failed else new)
            assert view.get("other") == other
            assert held_blobs(view) == named_blobs(view, ["x", "other"])


# --- transform outputs of the wrong shape -------------------------------------

def answering(function_id, wrong):
    """The default registry, with `function_id` answering `wrong(params, payload, good)`."""
    registry = default_registry()
    good = registry[function_id]
    registry[function_id] = lambda params, payload: wrong(params, payload, good)
    return registry


@pytest.mark.parametrize(
    "registry, policy, error",
    [
        (
            answering(FunctionId.EC_ENCODE, lambda p, d, good: good(p, d)[:-1]),
            lambda client: ObjectPolicy.ec(4, 2, client),
            "ec output is 24575 bytes, not 6 shards of 4096",
        ),
        (
            answering(
                FunctionId.COMPRESS,
                lambda p, d, good: codec.compress(d[1:], p.codec_id),
            ),
            lambda client: ObjectPolicy.compress(codec.CODEC_RLE0, client),
            "compress output declares 16383 bytes, the object has 16384",
        ),
        (
            answering(FunctionId.COMPRESS, lambda p, d, good: b"\x01\x00"),
            lambda client: ObjectPolicy.compress(codec.CODEC_RLE0, client),
            "compress output is not a block",
        ),
    ],
    ids=["ec-one-byte-short", "compress-other-bytes", "compress-no-block"],
)
def test_a_transform_output_of_the_wrong_shape_is_never_stored(registry, policy, error):
    store = ObjectStore(osd_count=6)
    store.put("obj", b"first version", ObjectPolicy.none())
    before = held_blobs(store)
    data = random.Random(8).randbytes(8192) + bytes(8192)
    with Server(ServerConfig(), registry) as server:
        with Client(ClientConfig(mode="remote", address=server.address)) as client:
            with pytest.raises(StoreError, match=f"^{error}"):
                store.put("obj", data, policy(client))
    assert held_blobs(store) == before
    assert store.get("obj") == b"first version"
