"""Object store tests: transforms, placement, fault injection, manifests."""

import itertools
import random
from pathlib import Path

import pytest

from msfm import codec, protocol
from msfm.client import Client, ClientConfig
from msfm.miniobj import (
    NotFound,
    ObjectManifest,
    ObjectPolicy,
    ObjectStore,
    OsdTarget,
    PlacementError,
    Unrecoverable,
)
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
        def call(self, function_id, params, payload=b"", timeout_ms=None):
            calls.append((function_id, type(params)))
            return super().call(function_id, params, payload, timeout_ms)

    store = ObjectStore(osd_count=6)
    with RecordingClient(ClientConfig(mode="in-process")) as client:
        for name, policy in (
            ("packed", ObjectPolicy.compress(codec.CODEC_RLE0, client)),
            ("coded", ObjectPolicy.ec(4, 2, client)),
        ):
            store.put(name, bytes(5000), policy)
            assert store.get(name, client) == bytes(5000)
    assert sorted({function_id for function_id, _ in calls}) == [1, 2, 3, 4]
    for function_id, params_type in calls:
        assert params_type is protocol.PARAMS_LAYOUTS[function_id][0]


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
    import json

    record = json.loads(manifest.to_json())
    record["version"] = 99
    with pytest.raises(Exception):
        ObjectManifest.from_json(json.dumps(record))


def test_stats_accumulate():
    store = ObjectStore()
    store.put("a", bytes(1000), ObjectPolicy.compress(codec.CODEC_RLE0))
    store.put("b", bytes(500), ObjectPolicy.none())
    assert store.stats.puts == 2
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
