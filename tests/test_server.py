"""Dispatch semantics and the TCP server's connection behavior."""

import os
import random
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfm import codec, gfec, protocol
from msfm.client import MODE_REMOTE, Client, ClientConfig
from msfm.protocol import Frame, FrameDecoder, FunctionId, Status
from msfm.server import Server, ServerConfig, default_registry, dispatch

REGISTRY = default_registry()


def req(function_id, cid, params, payload=b""):
    return protocol.request(function_id, cid, params, payload)


# --- dispatch: pure core ----------------------------------------------------

def test_unknown_function_id():
    resp = dispatch(req(0xFFFF, 42, b""), REGISTRY)
    assert resp.status == Status.UNSUPPORTED_FUNCTION
    assert resp.correlation_id == 42
    assert resp.payload == b""


def test_compress_roundtrips_through_codec():
    data = random.Random(0).randbytes(3000)
    resp = dispatch(
        req(FunctionId.COMPRESS, 1, protocol.CompressParams(codec.CODEC_LZ), data),
        REGISTRY,
    )
    assert resp.status == Status.OK
    assert codec.decompress(resp.payload) == data


def test_decompress_inverts_compress():
    data = bytes(500) + b"tail"
    block = codec.compress(data, codec.CODEC_RLE0)
    resp = dispatch(
        req(
            FunctionId.DECOMPRESS,
            2,
            protocol.DecompressParams(codec.CODEC_RLE0),
            block,
        ),
        REGISTRY,
    )
    assert resp.status == Status.OK
    assert resp.payload == data


def test_dispatch_matches_direct_calls_for_all_functions():
    rng = random.Random(1)
    data = rng.randbytes(4096)

    compressed = dispatch(
        req(FunctionId.COMPRESS, 1, protocol.CompressParams(1), data), REGISTRY
    ).payload
    assert compressed == codec.compress(data, 1)

    decompressed = dispatch(
        req(FunctionId.DECOMPRESS, 2, protocol.DecompressParams(1), compressed),
        REGISTRY,
    ).payload
    assert decompressed == codec.decompress(compressed)

    encoded = dispatch(
        req(FunctionId.EC_ENCODE, 3, protocol.EcEncodeParams(4, 2), data), REGISTRY
    ).payload
    direct = gfec.ec_encode(data, gfec.EcProfile(4, 2, 1024))
    assert encoded == b"".join(direct.shards)

    present = [0, 2, 3, 5]  # drop shards 1 and 4
    payload = b"".join(direct.shards[i] for i in present)
    decoded = dispatch(
        req(
            FunctionId.EC_DECODE,
            4,
            protocol.EcDecodeParams(4, 2, 1024, 0b101101),
            payload,
        ),
        REGISTRY,
    ).payload
    assert decoded == gfec.ec_decode(direct.erase(1, 4)) == data


def test_ec_decode_below_threshold_reports_too_few_shards():
    ss = gfec.ec_encode(bytes(64), gfec.EcProfile(4, 2, 16))
    payload = b"".join(ss.shards[i] for i in (0, 5))
    resp = dispatch(
        req(
            FunctionId.EC_DECODE,
            9,
            protocol.EcDecodeParams(4, 2, 16, 0b100001),
            payload,
        ),
        REGISTRY,
    )
    assert resp.status == Status.FUNCTION_FAILURE
    assert b"TooFewShards" in resp.params
    assert resp.payload == b""


def test_ec_decode_payload_bitmap_disagreement():
    resp = dispatch(
        req(
            FunctionId.EC_DECODE,
            1,
            protocol.EcDecodeParams(4, 2, 16, 0b111111),
            b"short",
        ),
        REGISTRY,
    )
    assert resp.status == Status.FUNCTION_FAILURE
    assert b"InvalidLength" in resp.params


def test_ec_encode_indivisible_payload():
    resp = dispatch(
        req(FunctionId.EC_ENCODE, 1, protocol.EcEncodeParams(3, 1), b"12345"),
        REGISTRY,
    )
    assert resp.status == Status.FUNCTION_FAILURE


def test_malformed_params_status():
    resp = dispatch(
        Frame(kind=1, status=0, function_id=1, correlation_id=5, params=b"\x01\x02"),
        REGISTRY,
    )
    assert resp.status == Status.MALFORMED_PARAMS
    assert resp.payload == b""


def test_unsupported_codec_id_is_function_failure():
    resp = dispatch(req(FunctionId.COMPRESS, 1, protocol.CompressParams(9), b"x"), REGISTRY)
    assert resp.status == Status.FUNCTION_FAILURE
    assert b"UnsupportedCodec" in resp.params


def test_non_request_frame_answered_not_raised():
    frame = Frame(kind=2, status=0, function_id=1, correlation_id=3)
    resp = dispatch(frame, REGISTRY)
    assert resp.status == Status.MALFORMED_PARAMS


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 0xFFFF),
    st.binary(max_size=16),
    st.binary(max_size=512),
    st.integers(0, 2**32 - 1),
)
def test_dispatch_never_raises(function_id, params, payload, cid):
    frame = Frame(
        kind=1, status=0, function_id=function_id, correlation_id=cid,
        params=params, payload=payload,
    )
    resp = dispatch(frame, REGISTRY)
    assert resp.kind == protocol.KIND_RESPONSE
    assert resp.correlation_id == cid
    if resp.status != Status.OK:
        assert resp.payload == b""


def test_registry_groups():
    assert set(default_registry("compress")) == {1, 2}
    assert set(default_registry("ec")) == {3, 4}
    assert set(default_registry("compress,ec")) == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        default_registry("compress,frobnicate")


# --- TCP server ---------------------------------------------------------------

class RawClient:
    """Bare socket speaking the frame protocol, for server tests."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.decoder = FrameDecoder()

    def send(self, *frames: Frame) -> None:
        self.sock.sendall(b"".join(protocol.encode_frame(f) for f in frames))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_frames(self, count: int) -> list[Frame]:
        out = []
        while len(out) < count:
            if (frame := self.decoder.next_frame()) is not None:
                out.append(frame)
                continue
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            self.decoder.feed(data)
        return out

    def recv_until_closed(self) -> list[Frame]:
        out = []
        while True:
            try:
                data = self.sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            self.decoder.feed(data)
            while (frame := self.decoder.next_frame()) is not None:
                out.append(frame)
        return out

    def close(self):
        self.sock.close()


def test_smoke_one_request():
    with Server(ServerConfig(), REGISTRY) as server:
        client = RawClient(server.address)
        data = bytes(1000)
        client.send(req(FunctionId.COMPRESS, 7, protocol.CompressParams(1), data))
        (resp,) = client.recv_frames(1)
        assert resp.correlation_id == 7
        assert resp.status == Status.OK
        assert codec.decompress(resp.payload) == data
        client.close()


def test_hundred_pipelined_requests_one_connection():
    rng = random.Random(3)
    with Server(ServerConfig(), REGISTRY) as server:
        client = RawClient(server.address)
        payloads = {cid: rng.randbytes(rng.randrange(1, 2000)) for cid in range(100)}
        client.send(
            *(
                req(FunctionId.COMPRESS, cid, protocol.CompressParams(2), data)
                for cid, data in payloads.items()
            )
        )
        responses = client.recv_frames(100)
        assert sorted(r.correlation_id for r in responses) == list(range(100))
        for resp in responses:
            assert codec.decompress(resp.payload) == payloads[resp.correlation_id]
        client.close()


def test_accepted_socket_disables_nagle():
    accepted = []

    class RecordingServer(Server):
        def verify_request(self, request, client_address):
            accepted.append(request)
            return super().verify_request(request, client_address)

    with RecordingServer(ServerConfig(), REGISTRY) as server:
        client = RawClient(server.address)
        client.send(req(FunctionId.COMPRESS, 1, protocol.CompressParams(1), b"a"))
        client.recv_frames(1)
        (sock,) = accepted
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        client.close()


def served(client, cid):
    """True if a compress call on `client` is answered correctly."""
    data = bytes([cid % 256]) * 64
    client.send(req(FunctionId.COMPRESS, cid, protocol.CompressParams(1), data))
    (resp,) = client.recv_frames(1)
    return resp.correlation_id == cid and codec.decompress(resp.payload) == data


def live_readers():
    return [t for t in threading.enumerate() if t.name == "msfm-conn-reader"]


def test_connections_past_the_limit_are_closed_unanswered():
    with Server(ServerConfig(max_connections=1), REGISTRY) as server:
        first = RawClient(server.address)
        assert served(first, 1)
        second = RawClient(server.address)
        second.send(req(FunctionId.COMPRESS, 2, protocol.CompressParams(1), b"x"))
        assert second.recv_until_closed() == []
        second.close()
        assert served(first, 3)  # the first is still served
        first.close()
        deadline = time.monotonic() + 5
        while live_readers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not live_readers()
        third = RawClient(server.address)
        assert served(third, 4)  # the first one's slot is free again
        third.close()


def test_stop_joins_every_thread_the_server_started():
    before = set(threading.enumerate())
    server = Server(ServerConfig(), REGISTRY).start()
    clients = [RawClient(server.address) for _ in range(3)]
    for cid, client in enumerate(clients, start=1):
        assert served(client, cid)
    started = set(threading.enumerate()) - before
    assert sorted(t.name for t in started) == ["msfm-accept"] + ["msfm-conn-reader"] * 3
    server.stop()  # the clients are still connected
    assert not [t.name for t in started if t.is_alive()]
    for client in clients:
        assert client.recv_until_closed() == []
        client.close()
    server.stop()  # idempotent


def test_stop_does_not_answer_a_request_that_arrives_after_it_began():
    started = threading.Event()
    release = threading.Event()

    def stalling_echo(params, payload):
        started.set()
        release.wait(10)
        return payload

    server = Server(ServerConfig(), {1: stalling_echo}).start()
    client = RawClient(server.address)
    client.send(req(1, 1, b"\x01", b"first"))
    assert started.wait(5)
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    stopper.join(0.2)
    assert stopper.is_alive()
    client.send(req(1, 2, b"\x01", b"second"))
    time.sleep(0.05)  # let it reach the server's receive queue
    release.set()
    stopper.join(5)
    assert not stopper.is_alive()
    responses = client.recv_until_closed()
    assert [(r.correlation_id, r.payload) for r in responses] == [(1, b"first")]
    client.close()


def test_an_unexpected_reader_error_reaches_threading_excepthook(monkeypatch):
    def broken_dispatch(frame, registry):
        raise RuntimeError("dispatch broke")

    monkeypatch.setattr("msfm.server.dispatch", broken_dispatch)
    seen = []
    hook, threading.excepthook = threading.excepthook, seen.append
    try:
        with Server(ServerConfig(), REGISTRY) as server:
            client = RawClient(server.address)
            client.send(req(FunctionId.COMPRESS, 1, protocol.CompressParams(1), b"a"))
            assert client.recv_until_closed() == []
            client.close()
    finally:
        threading.excepthook = hook
    assert [(args.exc_type, args.thread.name) for args in seen] == [
        (RuntimeError, "msfm-conn-reader")
    ]


def test_default_server_dispatches_inline_in_request_order():
    rng = random.Random(5)
    before = set(threading.enumerate())
    with Server(ServerConfig(), REGISTRY) as server:
        client = RawClient(server.address)
        payloads = [rng.randbytes(rng.randrange(1, 4096)) for _ in range(16)]
        client.send(
            *(
                req(FunctionId.COMPRESS, cid, protocol.CompressParams(1), data)
                for cid, data in enumerate(payloads, start=1)
            )
        )
        responses = client.recv_frames(16)
        started = set(threading.enumerate()) - before
        assert not [t.name for t in started if t.name.startswith("msfm-worker")]
        assert [r.correlation_id for r in responses] == list(range(1, 17))
        for resp, data in zip(responses, payloads):
            assert resp.status == Status.OK
            assert codec.decompress(resp.payload) == data
        client.close()


# One dispatch path is left; the id keeps the test's established name.
@pytest.mark.parametrize("path", ["inline"])
def test_frames_before_a_corrupt_frame_are_answered(path):
    def slow_compress(params, payload):
        # Still running when the reader meets the corrupt frame.
        time.sleep(0.1)
        return codec.compress(payload, params.codec_id)

    with Server(ServerConfig(), {FunctionId.COMPRESS: slow_compress}) as server:
        client = RawClient(server.address)
        good = protocol.encode_frame(
            req(FunctionId.COMPRESS, 1, protocol.CompressParams(1), b"a" * 100)
        )
        bad = bytearray(
            protocol.encode_frame(
                req(FunctionId.COMPRESS, 2, protocol.CompressParams(1), b"b" * 100)
            )
        )
        bad[30] ^= 0xFF  # corrupt inside the body
        client.send_raw(good + bytes(bad))
        first, *trailing = client.recv_until_closed()
        assert (first.correlation_id, first.status) == (1, Status.OK)
        assert codec.decompress(first.payload) == b"a" * 100
        assert len(trailing) <= 1
        assert all(
            (f.correlation_id, f.status) == (0, Status.MALFORMED_PARAMS)
            for f in trailing
        )
        client.close()


def test_corrupt_frame_closes_connection_after_prior_responses():
    with Server(ServerConfig(), REGISTRY) as server:
        client = RawClient(server.address)
        client.send(req(FunctionId.COMPRESS, 1, protocol.CompressParams(1), b"a" * 100))
        (first,) = client.recv_frames(1)
        assert first.status == Status.OK

        bad = bytearray(
            protocol.encode_frame(
                req(FunctionId.COMPRESS, 2, protocol.CompressParams(1), b"b" * 100)
            )
        )
        bad[30] ^= 0xFF  # corrupt inside the body
        client.send_raw(bytes(bad))
        trailing = client.recv_until_closed()
        # Best-effort error frame before close, nothing else.
        assert all(f.status == Status.MALFORMED_PARAMS for f in trailing)
        assert len(trailing) <= 1
        client.close()


# One dispatch path is left; the id keeps the test's established name.
@pytest.mark.parametrize("path", ["inline"])
def test_stop_flushes_admitted_requests_before_closing(path):
    started = threading.Event()
    release = threading.Event()

    def stalling_handler(params, payload):
        started.set()
        release.wait(10)
        return b"done"

    server = Server(ServerConfig(), {1: stalling_handler}).start()
    client = RawClient(server.address)
    client.send(req(1, 1, b"\x01"))
    assert started.wait(5)
    stopper = threading.Thread(target=server.stop)
    stopper.start()
    stopper.join(0.5)
    assert stopper.is_alive(), "stop() returned while a request was in flight"
    release.set()
    stopper.join(5)
    assert not stopper.is_alive()
    responses = client.recv_until_closed()
    assert [(r.correlation_id, r.status, r.payload) for r in responses] == [
        (1, Status.OK, b"done")
    ]
    client.close()


def test_many_concurrent_connections():
    with Server(ServerConfig(), REGISTRY) as server:
        results = []
        lock = threading.Lock()

        def one_client(n):
            client = RawClient(server.address)
            data = bytes([n]) * 512
            client.send(req(FunctionId.COMPRESS, n, protocol.CompressParams(1), data))
            (resp,) = client.recv_frames(1)
            with lock:
                results.append(codec.decompress(resp.payload) == data)
            client.close()

        threads = [threading.Thread(target=one_client, args=(n,)) for n in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [True] * 16


def test_config_rejects_zero_limits():
    for limit in ("max_connections", "max_frame_bytes"):
        with pytest.raises(ValueError):
            ServerConfig(**{limit: 0})


def test_server_cli_reports_its_port_through_a_pipe_and_stops_on_sigterm():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "msfm.server", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no listening line within 5 s"
        line = proc.stdout.readline().decode()
        assert line.startswith("msfm-server listening on "), line
        host, _, port = line.split()[-1].rpartition(":")
        config = ClientConfig(mode=MODE_REMOTE, address=(host, int(port)))
        with Client(config) as client:
            data = bytes(1000) + b"tail"
            block = client.call(FunctionId.COMPRESS, protocol.CompressParams(1), data)
        assert codec.decompress(block) == data
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
