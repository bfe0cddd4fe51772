"""Release gate: the eight end-to-end checks this package must pass.

Each check asserts both the behavior and its wall-time budget, and
prints one PASS/FAIL line (collected into the terminal summary by
conftest.py).  Tolerances and budgets are part of the contract; the
unit suites cover the same ground in much finer grain.
"""

import itertools
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from loopback import JitterTransport
from msfm import bench, codec, gfec, protocol
from msfm.bench import BenchSpec, SimParams
from msfm.client import MODE_REMOTE, Client, ClientConfig
from msfm.miniobj import ObjectPolicy, ObjectStore, Unrecoverable
from msfm.protocol import ChecksumMismatch, Frame, MalformedFrame
from msfm.server import Server, ServerConfig, default_registry


@contextmanager
def budget(seconds: float):
    """Fail the check if its body exceeds the wall-time budget."""
    begin = time.perf_counter()
    yield
    elapsed = time.perf_counter() - begin
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


def random_frame(rng: random.Random) -> Frame:
    return Frame(
        kind=rng.choice((protocol.KIND_REQUEST, protocol.KIND_RESPONSE)),
        status=rng.randrange(5),
        function_id=rng.randrange(1 << 16),
        correlation_id=rng.randrange(1 << 32),
        params=rng.randbytes(rng.randrange(12)),
        payload=rng.randbytes(rng.randrange(200)),
    )


def test_frame_roundtrip_and_corruption_rejection():
    with budget(30):
        rng = random.Random(0xACCE55)
        for _ in range(10_000):
            frame = random_frame(rng)
            assert protocol.decode_frame(protocol.encode_frame(frame)) == frame
        for _ in range(10_000):
            wire = bytearray(protocol.encode_frame(random_frame(rng)))
            wire[rng.randrange(len(wire))] ^= rng.randrange(1, 256)
            with pytest.raises((ChecksumMismatch, MalformedFrame)):
                protocol.decode_frame(bytes(wire))


def test_field_inverses_and_full_erasure_recovery():
    with budget(120):
        for a in range(1, 256):
            assert gfec.gf_mul(a, gfec.gf_inv(a)) == 1

        rng = random.Random(0xEC)
        data = rng.randbytes(1 << 20)
        for k, m in [(1, 0), (1, 1), (2, 1), (4, 2), (6, 3), (10, 4)]:
            shard_size = -(-len(data) // k)
            padded = data.ljust(k * shard_size, b"\x00")
            profile = gfec.EcProfile(k, m, shard_size)
            encoded = gfec.ec_encode(padded, profile)
            for loss in range(m + 1):
                for pattern in itertools.combinations(range(k + m), loss):
                    recovered = gfec.ec_decode(encoded.erase(*pattern))
                    assert recovered == padded
                    assert recovered[: len(data)] == data


def test_codec_roundtrip_and_expansion_bound():
    with budget(60):
        rng = random.Random(0xC0DEC)
        makers = (
            lambda n: bytes(n),
            lambda n: rng.randbytes(n),
            lambda n: (b"\xffZiggurat\x00\x00\x00" * (n // 12 + 1))[:n],
            lambda n: b"".join(
                bytes(rng.randint(1, 300))
                if rng.random() < 0.5
                else rng.randbytes(rng.randint(1, 300))
                for _ in range(n // 150 + 1)
            )[:n],
        )
        for i in range(1_000):
            size = rng.choice((0, rng.randrange(512), rng.randrange(65537)))
            data = makers[i % len(makers)](size)
            for codec_id in (codec.CODEC_RLE0, codec.CODEC_LZ):
                block = codec.compress(data, codec_id)
                assert len(block) <= len(data) + 6
                assert codec.decompress(block) == data


def test_remote_and_in_process_execution_are_byte_identical():
    with budget(60):
        rng = random.Random(0x10DE)
        with Server(ServerConfig(), default_registry()) as server:
            remote = Client(
                ClientConfig(mode=MODE_REMOTE, address=server.address,
                             timeout_ms=30_000.0)
            )
            local = Client(ClientConfig())
            try:
                for size in (4096, 65536, 1 << 20):
                    data = rng.randbytes(size)
                    for codec_id in (codec.CODEC_RLE0, codec.CODEC_LZ):
                        params = protocol.CompressParams(codec_id)
                        assert remote.call(
                            protocol.FunctionId.COMPRESS, params, data
                        ) == local.call(protocol.FunctionId.COMPRESS, params, data)
                    for k, m in ((4, 2), (6, 3)):
                        shard_size = -(-size // k)
                        padded = data.ljust(k * shard_size, b"\x00")
                        params = protocol.EcEncodeParams(k, m)
                        assert remote.call(
                            protocol.FunctionId.EC_ENCODE, params, padded
                        ) == local.call(protocol.FunctionId.EC_ENCODE, params, padded)
            finally:
                remote.close()
                local.close()


def test_erasure_objects_survive_double_kills_only():
    with budget(60):
        rng = random.Random(0x05D)
        store = ObjectStore(osd_count=6)
        policy = ObjectPolicy.ec(4, 2)
        original = rng.randbytes(65536)
        store.put("victim", original, policy)

        holders = sorted({p.osd for p in store.manifest("victim").placements})
        assert len(holders) == 6

        for pair in itertools.combinations(holders, 2):
            for osd in pair:
                store.kill_osd(osd)
            assert store.get("victim") == original
            for osd in pair:
                store.revive_osd(osd)

        for triple in itertools.combinations(holders, 3):
            for osd in triple:
                store.kill_osd(osd)
            with pytest.raises(Unrecoverable):
                store.get("victim")
            for osd in triple:
                store.revive_osd(osd)


def test_pipelined_responses_pair_with_requests_under_reordering():
    with budget(30):
        with Server(ServerConfig(), default_registry()) as server:
            # The server answers each connection in order; the transport
            # reorders its responses on the way to the client.
            transport = JitterTransport(*server.address, jitter_ms=2.0, seed=7)
            client = Client(
                ClientConfig(mode=MODE_REMOTE, timeout_ms=30_000.0),
                transport=transport,
            )
            failures: list[str] = []

            def submit(worker: int) -> None:
                rng = random.Random(worker)
                params = protocol.CompressParams(codec.CODEC_RLE0)
                for i in range(125):
                    nonce = f"{worker}:{i}:".encode() + rng.randbytes(24)
                    block = client.call(
                        protocol.FunctionId.COMPRESS, params, nonce
                    )
                    if codec.decompress(block) != nonce:
                        failures.append(f"worker {worker} op {i} mispaired")

            try:
                threads = [
                    threading.Thread(target=submit, args=(w,)) for w in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                client.close()
            assert failures == []
            assert transport.reordered > 0


def test_offload_cost_trends_match_published_shape():
    with budget(300):
        depths = [1, 2, 4, 8, 16, 32, 64]

        # 64 KiB sequential write: offloading always costs bandwidth,
        # but the gap narrows as depth hides the network round trip.
        write = BenchSpec(
            workload="write", block_size=65536, ops=400, transport="sim", seed=7
        )
        instance = bench.sweep(write, depths)
        compressor = bench.sweep(replace(write, mode="compressor"), depths)
        for inst, comp in zip(instance, compressor):
            assert inst.bandwidth_mbps < comp.bandwidth_mbps
        ratios = [row.ratio for row in bench.compare(instance, compressor)]
        assert ratios[-1] > ratios[0]

        # 4 KiB random write: service time dominates, so the two modes
        # converge once the pipe is deep enough.
        rand = BenchSpec(
            workload="randwrite", block_size=4096, ops=1200,
            transport="sim", seed=3,
        )
        inst32 = bench.sweep(rand, [32, 64])
        comp32 = bench.sweep(replace(rand, mode="compressor"), [32, 64])
        for inst, comp in zip(inst32, comp32):
            assert abs(inst.iops - comp.iops) <= 0.25 * comp.iops

        # Same seed, same report, bit for bit.
        probe = replace(write, iodepth=16)
        assert bench.run(probe) == bench.run(probe)


def test_latency_bound_round_trip_rate_is_closed_form():
    with budget(30):
        spec = BenchSpec(
            block_size=4096,
            iodepth=1,
            mode="instance",
            ops=250,
            transport="sim",
            seed=1,
            sim=SimParams(
                latency_us=1000.0,
                bandwidth_mbps=1e5,
                service_fixed_us=0.0,
                service_us_per_byte=0.0,
                client_overhead_us=0.0,
            ),
        )
        # Two 1000 us one-way trips bound each op: 500 IOPS +/- 10%.
        assert bench.run(spec).iops == pytest.approx(500.0, rel=0.10)
