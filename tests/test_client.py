"""Client SDK tests: both execution modes, pipelining, timeouts, failure paths."""

import itertools
import random
import socket
import sys
import threading
import time

import pytest

from loopback import LoopbackTransport
from msfm import codec, gfec, protocol
from msfm.client import (
    Backpressure,
    Client,
    ClientClosed,
    ClientConfig,
    Clock,
    FunctionFailed,
    Instance,
    InstanceState,
    TcpTransport,
    TimedOut,
    Transport,
    TransportError,
    UnsupportedFunction,
)
from msfm.protocol import CompressParams, EcDecodeParams, EcEncodeParams, FunctionId
from msfm.server import Server, ServerConfig, default_registry


def in_process_client(**overrides) -> Client:
    return Client(ClientConfig(mode="in-process", **overrides))


def loopback_client(transport=None, clock=None, **overrides) -> Client:
    config = ClientConfig(mode="remote", **overrides)
    return Client(config, transport=transport or LoopbackTransport(), clock=clock)


class SteppingClock(Clock):
    """Virtual clock: sleep() never sleeps, it just advances time."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


class SilentTransport(Transport):
    """Swallows every request; recv(timeout) lets `timeout` pass on a virtual clock."""

    def __init__(self, clock):
        self.clock = clock

    def send(self, data, stalled):
        pass

    def recv(self, timeout):
        self.clock.t += timeout
        return None

    def close(self):
        pass


class HeldTransport(LoopbackTransport):
    """Loopback that holds each response until its correlation id's gate opens.

    `readers` collects the names of the threads that called recv().
    """

    def __init__(self, gates):
        super().__init__(workers=len(gates))
        self.gates = gates
        self.readers = set()

    def _serve(self, frame, delay):
        self.gates[frame.correlation_id].wait(10)
        super()._serve(frame, delay)

    def recv(self, timeout):
        self.readers.add(threading.current_thread().name)
        return super().recv(timeout)


class RecordingTransport(LoopbackTransport):
    """Loopback that keeps the bytes of every send, one entry per call."""

    def __init__(self):
        super().__init__()
        self.sends = []

    def send(self, data, stalled):
        self.sends.append(bytes(data))
        super().send(data, stalled)

    def frames_of(self, index):
        """The frames that send number `index` carried, in order."""
        decoder = protocol.FrameDecoder()
        decoder.feed(self.sends[index])
        return list(iter(decoder.next_frame, None))


class WaitSignallingCondition(threading.Condition):
    """A Condition that sets `entered` whenever a thread starts to wait on it."""

    def __init__(self):
        super().__init__(threading.Lock())
        self.entered = threading.Event()

    def wait(self, timeout=None):
        self.entered.set()
        return super().wait(timeout)


# --- in-process mode --------------------------------------------------------

def test_local_compress_roundtrip():
    with in_process_client() as client:
        data = bytes(2000) + b"xyz"
        block = client.call(FunctionId.COMPRESS, CompressParams(1), data)
        assert codec.decompress(block) == data
        back = client.call(FunctionId.DECOMPRESS, CompressParams(1), block)
        assert back == data


def test_local_unknown_function():
    with in_process_client() as client:
        with pytest.raises(UnsupportedFunction):
            client.call(0xFFFF, b"")


def test_local_ec_end_to_end():
    rng = random.Random(11)
    data = rng.randbytes(4096)
    with in_process_client() as client:
        shards = client.call(FunctionId.EC_ENCODE, EcEncodeParams(4, 2), data)
        assert len(shards) == 6 * 1024
        # drop shards 1 and 4
        keep = [0, 2, 3, 5]
        payload = b"".join(
            shards[i * 1024 : (i + 1) * 1024] for i in keep
        )
        out = client.call(
            FunctionId.EC_DECODE, EcDecodeParams(4, 2, 1024, 0b101101), payload
        )
        assert out == data


def test_submit_after_close():
    client = in_process_client()
    client.close()
    with pytest.raises(ClientClosed):
        client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")


def test_instance_states_in_process():
    with in_process_client() as client:
        instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"abc")
        assert instance.state is InstanceState.COMPLETED
        assert instance.correlation_id == 1
        second = client.submit(FunctionId.COMPRESS, CompressParams(1), b"def")
        assert second.correlation_id == 2  # monotonic per client


# --- remote mode over the loopback transport ---------------------------------

def test_remote_equals_in_process_byte_for_byte():
    data = bytes(4096)
    with in_process_client() as local, loopback_client() as remote:
        local_block = local.call(FunctionId.COMPRESS, CompressParams(1), data)
        remote_block = remote.call(FunctionId.COMPRESS, CompressParams(1), data)
        assert local_block == remote_block


def test_remote_and_local_agree_on_errors():
    garbage = b"\x07\x00\x00\x00\x00\x00"
    with in_process_client() as local, loopback_client() as remote:
        with pytest.raises(FunctionFailed) as local_err:
            local.call(FunctionId.DECOMPRESS, CompressParams(1), garbage)
        with pytest.raises(FunctionFailed) as remote_err:
            remote.call(FunctionId.DECOMPRESS, CompressParams(1), garbage)
        assert str(local_err.value) == str(remote_err.value)


def test_backpressure_when_queue_full():
    gate = threading.Event()
    transport = LoopbackTransport(send_gate=gate)
    client = loopback_client(transport=transport, max_queue_depth=1)
    results = []
    first = threading.Thread(
        target=lambda: results.append(
            client.call(FunctionId.COMPRESS, CompressParams(1), b"a" * 100, 2000)
        )
    )
    first.start()
    assert transport.send_entered.wait(5)  # the first call holds the only slot
    with pytest.raises(Backpressure):
        client.submit(FunctionId.COMPRESS, CompressParams(1), b"b" * 100)
    gate.set()  # unblock the first send, then that call completes normally
    first.join(5)
    assert not first.is_alive()
    assert [codec.decompress(block) for block in results] == [b"a" * 100]
    client.close()


def test_pipelined_submits_go_out_in_one_send():
    transport = RecordingTransport()
    with loopback_client(transport=transport) as client:
        blocks = [bytes([n]) * 100 for n in range(16)]
        instances = [
            client.submit(FunctionId.COMPRESS, CompressParams(1), block)
            for block in blocks
        ]
        assert transport.sends == []
        assert codec.decompress(instances[0].await_result(2000)) == blocks[0]
        assert len(transport.sends) == 1
        frames = transport.frames_of(0)
        assert [f.correlation_id for f in frames] == [
            i.correlation_id for i in instances
        ]
        assert [f.payload for f in frames] == blocks
        results = [codec.decompress(i.await_result(2000)) for i in instances]
        assert results == blocks
        assert len(transport.sends) == 1


def test_a_request_queued_by_one_thread_goes_out_when_another_awaits():
    transport = RecordingTransport()
    with loopback_client(transport=transport) as client:
        queued = []
        a = threading.Thread(
            target=lambda: queued.append(
                client.submit(FunctionId.COMPRESS, CompressParams(1), b"from a")
            )
        )
        a.start()
        a.join(5)
        assert not a.is_alive() and transport.sends == []
        awaited = []

        def b():
            own = client.submit(FunctionId.COMPRESS, CompressParams(1), b"from b")
            awaited.append((own, own.await_result(2000)))

        b_thread = threading.Thread(target=b)
        b_thread.start()
        b_thread.join(5)
        assert not b_thread.is_alive()
        own, result = awaited[0]
        assert codec.decompress(result) == b"from b"
        assert len(transport.sends) == 1
        assert [f.correlation_id for f in transport.frames_of(0)] == [
            queued[0].correlation_id,
            own.correlation_id,
        ]
        assert codec.decompress(queued[0].await_result(2000)) == b"from a"
        assert len(transport.sends) == 1


def test_a_full_queue_is_written_at_submit():
    transport = RecordingTransport()
    with loopback_client(transport=transport, max_queue_depth=4) as client:
        for n in range(3):
            client.submit(FunctionId.COMPRESS, CompressParams(1), bytes([n]))
        assert transport.sends == []
        client.submit(FunctionId.COMPRESS, CompressParams(1), b"fourth")
        assert len(transport.sends) == 1 and len(transport.frames_of(0)) == 4
        # A request of 64 KiB leaves at once, even alone in the queue.
        client.submit(FunctionId.COMPRESS, CompressParams(1), bytes(64 * 1024))
        assert len(transport.sends) == 2 and len(transport.frames_of(1)) == 1


def test_close_fails_queued_requests_without_sending_them():
    transport = RecordingTransport()
    client = loopback_client(transport=transport)
    instances = [
        client.submit(FunctionId.COMPRESS, CompressParams(1), bytes([n]))
        for n in range(3)
    ]
    client.close()
    assert transport.sends == []
    for instance in instances:
        assert instance.state is InstanceState.FAILED
        with pytest.raises(ClientClosed):
            instance.await_result(2000)
    assert transport.sends == []


def test_await_timeout_marks_instance_and_discards_late_response():
    release = threading.Event()
    transport = LoopbackTransport(response_gate=release)
    client = loopback_client(transport=transport)
    instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"late")
    with pytest.raises(TimedOut):
        instance.await_result(timeout_ms=60)
    assert instance.state is InstanceState.TIMED_OUT
    release.set()
    time.sleep(0.1)  # give the late response time to arrive
    assert instance.state is InstanceState.TIMED_OUT
    # The client remains usable afterwards.
    assert codec.decompress(
        client.call(FunctionId.COMPRESS, CompressParams(1), b"fresh")
    ) == b"fresh"
    client.close()


def test_timeout_soundness_with_virtual_clock():
    clock = SteppingClock()
    transport = SilentTransport(clock)
    client = loopback_client(transport=transport, clock=clock, timeout_ms=5000)
    instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")
    before = clock.now()
    with pytest.raises(TimedOut):
        instance.await_result()
    assert clock.now() - before == pytest.approx(5.0)
    client.close()


def test_await_twice_returns_cached_result():
    with loopback_client() as client:
        instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"zz")
        first = instance.await_result(2000)
        second = instance.await_result(2000)
        assert first == second

    transport = LoopbackTransport(drop_all=True)
    client = loopback_client(transport=transport)
    instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")
    for _ in range(2):
        with pytest.raises(TimedOut):
            instance.await_result(timeout_ms=40)
    client.close()


def test_a_caller_never_sees_an_ended_instance_without_its_result(monkeypatch):
    paused, resume = threading.Event(), threading.Event()

    class PausingInstance(Instance):
        """Holds the thread that ends call 2 right after it stores the state."""

        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "_state" and value is not InstanceState.SENT:
                if self.correlation_id == 2:
                    paused.set()
                    resume.wait(10)

    monkeypatch.setattr("msfm.client.Instance", PausingInstance)
    gates = {1: threading.Event(), 2: threading.Event()}
    gates[2].set()  # call 2 is answered, call 1 is held
    client = loopback_client(transport=HeldTransport(gates))
    data = bytes(100) + b"tail"
    first = client.submit(FunctionId.COMPRESS, CompressParams(1), data)
    second = client.submit(FunctionId.COMPRESS, CompressParams(1), data)
    reader = threading.Thread(target=first.await_result, args=(5000,))
    reader.start()
    try:
        assert paused.wait(5)  # the reader is delivering call 2's response
        assert codec.decompress(second.await_result(2000)) == data
    finally:
        resume.set()
        gates[1].set()
        reader.join(5)
        client.close()
    assert not reader.is_alive()


def test_transport_failure_fails_pending_instances():
    transport = LoopbackTransport(drop_all=True)
    client = loopback_client(transport=transport)
    instance = client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")
    transport.close()  # server goes away
    with pytest.raises(TransportError):
        instance.await_result(2000)
    with pytest.raises(ClientClosed):
        client.submit(FunctionId.COMPRESS, CompressParams(1), b"y")


def test_correlation_safety_under_reordering():
    transport = LoopbackTransport(jitter_ms=8, workers=4, seed=3)
    client = loopback_client(transport=transport, max_queue_depth=128)
    rng = random.Random(5)
    nonces = {}
    instances = {}
    for n in range(64):
        nonce = rng.randbytes(48)
        instance = client.submit(FunctionId.COMPRESS, CompressParams(1), nonce)
        nonces[n] = nonce
        instances[n] = instance
    for n, instance in instances.items():
        assert codec.decompress(instance.await_result(5000)) == nonces[n]
    client.close()


def test_concurrent_callers_pair_correctly():
    transport = LoopbackTransport(jitter_ms=4, workers=4, seed=9)
    client = loopback_client(transport=transport, max_queue_depth=128)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(8):
                nonce = rng.randbytes(32)
                block = client.call(FunctionId.COMPRESS, CompressParams(1), nonce)
                assert codec.decompress(block) == nonce
        except Exception as exc:  # noqa: BLE001 — collected for the assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    client.close()


def test_remote_client_starts_no_thread():
    before = set(threading.enumerate())
    with loopback_client() as client:
        for n in range(8):
            instance = client.submit(
                FunctionId.COMPRESS, CompressParams(1), bytes([n]) * 64
            )
            assert codec.decompress(instance.await_result()) == bytes([n]) * 64
            assert not any(
                isinstance(value, threading.Event) for value in vars(instance).values()
            )
        started = set(threading.enumerate()) - before
        assert [t.name for t in started if not t.name.startswith("loopback")] == []


def test_reader_wakes_waiting_callers_and_hands_over_when_it_leaves():
    gates = {cid: threading.Event() for cid in (1, 2, 3)}
    transport = HeldTransport(gates)
    client = loopback_client(transport=transport)
    client._turn = turn = WaitSignallingCondition()
    results = {}

    def call(data):
        try:
            block = client.call(FunctionId.COMPRESS, CompressParams(1), data, 5000)
            result = codec.decompress(block)
        except Exception as exc:  # noqa: BLE001 — checked below
            result = exc
        results[threading.current_thread().name] = (result, time.monotonic())

    def start(name, data):
        thread = threading.Thread(target=call, args=(data,), name=name)
        thread.start()
        return thread

    def finishes_promptly(name, thread, gate, data):
        released = time.monotonic()
        gate.set()
        thread.join(5)
        result, finished = results[name]
        assert result == data
        assert finished - released < 1.0  # well inside its 5 s timeout

    first = start("first", b"one")  # correlation id 1
    for _ in range(500):
        if "first" in transport.readers:
            break
        time.sleep(0.01)
    second = start("second", b"two")  # correlation id 2
    assert turn.entered.wait(5)  # the second caller sleeps on the condition
    # The reader delivers a waiting caller's response before its own.
    finishes_promptly("second", second, gates[2], b"two")
    assert first.is_alive()
    turn.entered.clear()
    third = start("third", b"three")  # correlation id 3
    assert turn.entered.wait(5)
    # The reader's own response arrives first; the third caller must
    # take over reading to get its response.
    gates[1].set()
    first.join(5)
    assert results["first"][0] == b"one"
    finishes_promptly("third", third, gates[3], b"three")
    assert transport.readers == {"first", "third"}
    client.close()


def test_close_wakes_a_caller_blocked_reading():
    release = threading.Event()

    def stuck(params, payload):
        release.wait(10)
        return payload

    class SignallingTransport(TcpTransport):
        reading = threading.Event()

        def recv(self, timeout):
            self.reading.set()
            return super().recv(timeout)

    outcome = []
    with Server(ServerConfig(), {FunctionId.COMPRESS: stuck}) as server:
        transport = SignallingTransport(*server.address)
        client = Client(ClientConfig(mode="remote"), transport=transport)

        def call():
            try:
                client.call(FunctionId.COMPRESS, CompressParams(1), b"x", 30_000)
            except (ClientClosed, TransportError) as exc:
                outcome.append((type(exc), time.monotonic()))

        caller = threading.Thread(target=call)
        caller.start()
        try:
            assert transport.reading.wait(5)
            time.sleep(0.05)  # let the caller block inside recv
            closed = time.monotonic()
            client.close()
            caller.join(5)
        finally:
            release.set()
    assert len(outcome) == 1
    assert outcome[0][1] - closed < 1.0


def test_wrapped_correlation_ids_skip_calls_still_in_flight():
    with loopback_client(transport=LoopbackTransport(drop_all=True)) as client:
        stuck = client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")
        assert stuck.correlation_id == 1
        client._ids = itertools.count((1 << 32) - 1)  # one call below the wrap
        last = client.submit(FunctionId.COMPRESS, CompressParams(1), b"y")
        wrapped = client.submit(FunctionId.COMPRESS, CompressParams(1), b"z")
        assert (last.correlation_id, wrapped.correlation_id) == ((1 << 32) - 1, 2)
        assert client._pending[1] is stuck


@pytest.mark.parametrize("mode", ["in-process", "remote"])
def test_correlation_ids_wrap_past_u32_and_skip_zero(mode):
    client = in_process_client() if mode == "in-process" else loopback_client()
    with client:
        client._ids = itertools.count((1 << 32) - 2)  # two calls below the wrap
        seen = []
        for n in range(3):
            data = bytes([n]) * 32
            instance = client.submit(FunctionId.COMPRESS, CompressParams(1), data)
            assert codec.decompress(instance.await_result(2000)) == data
            seen.append(instance.correlation_id)
        assert seen == [(1 << 32) - 2, (1 << 32) - 1, 1]


@pytest.mark.parametrize("mode", ["in-process", "remote"])
def test_unencodable_request_fails_alone(mode):
    client = in_process_client() if mode == "in-process" else loopback_client()
    with client:
        with pytest.raises(ValueError):
            client.submit(1 << 16, b"")  # function_id does not fit u16
        block = client.call(FunctionId.COMPRESS, CompressParams(1), b"still works")
        assert codec.decompress(block) == b"still works"


# --- remote mode against the real TCP server ----------------------------------

def test_tcp_client_against_live_server():
    with Server(ServerConfig(), default_registry()) as server:
        config = ClientConfig(mode="remote", address=server.address)
        with Client(config) as client:
            data = random.Random(1).randbytes(10000)
            block = client.call(FunctionId.COMPRESS, CompressParams(2), data)
            assert codec.decompress(block) == data
            with in_process_client() as local:
                assert block == local.call(FunctionId.COMPRESS, CompressParams(2), data)


def test_tcp_transport_disables_nagle():
    with Server(ServerConfig(), default_registry()) as server:
        transport = TcpTransport(*server.address)
        try:
            assert transport._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            transport.close()


def test_tcp_concurrent_senders_keep_frames_whole():
    errors = []
    ids = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(3):
                # Large enough that sendall makes partial writes, which
                # interleave unless sends are serialized.
                data = rng.randbytes(64) + bytes(4 << 20)
                instance = client.submit(FunctionId.COMPRESS, CompressParams(1), data)
                assert codec.decompress(instance.await_result(10_000)) == data
                ids.append(instance.correlation_id)
        except Exception as exc:  # noqa: BLE001 — collected for the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(ServerConfig(), default_registry()) as server:
            config = ClientConfig(mode="remote", address=server.address)
            with Client(config) as client:
                threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sorted(ids) == list(range(1, 13))


def test_one_thread_may_submit_more_than_the_socket_buffers_hold():
    # Incompressible blocks come back as large as they went out, and the
    # server stops reading requests while its answers go unread: the
    # submitting thread must read them itself while its send is stalled.
    blocks = [random.Random(n).randbytes(64 * 1024) for n in range(4)]
    outcome = []

    def pipeline():
        instances = [
            client.submit(FunctionId.COMPRESS, CompressParams(1), blocks[n % 4])
            for n in range(400)
        ]
        outcome.extend(instance.await_result(10_000) for instance in instances)

    with Server(ServerConfig(), default_registry()) as server:
        config = ClientConfig(mode="remote", address=server.address, max_queue_depth=4)
        with Client(config) as client:
            thread = threading.Thread(target=pipeline, daemon=True)
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
    assert [codec.decompress(block) for block in outcome] == blocks * 100


def test_threads_sharing_a_small_queue_lose_no_request():
    # More threads than the queue holds: submits meet Backpressure and
    # retry, batches mix small and >64 KiB requests, and sends stall.
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30):
                data = rng.randbytes(rng.choice([16, 3000, 70_000]))
                while True:
                    try:
                        instance = client.submit(
                            FunctionId.COMPRESS, CompressParams(1), data
                        )
                        break
                    except Backpressure:
                        time.sleep(0.001)
                assert codec.decompress(instance.await_result(10_000)) == data
        except Exception as exc:  # noqa: BLE001 — collected for the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(ServerConfig(), default_registry()) as server:
            config = ClientConfig(
                mode="remote", address=server.address, max_queue_depth=4
            )
            with Client(config) as client:
                threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                left = (client._unwritten, client._outbox, client._pending)
                assert left == (0, [], {})
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_tcp_connect_failure_raises_transport_error():
    config = ClientConfig(
        mode="remote",
        address=("127.0.0.1", 1),  # nothing listens on port 1
    )
    with pytest.raises(TransportError):
        Client(config)


# --- config validation ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ClientConfig(mode="telepathy")
    with pytest.raises(ValueError):
        ClientConfig(timeout_ms=0)
    with pytest.raises(ValueError):
        ClientConfig(max_queue_depth=0)
    with pytest.raises(ValueError):
        Client(ClientConfig(mode="remote"))  # no address, no transport
