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
    """Virtual clock: time moves only when a test advances `t`."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


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
        return decoder.frames()


class WaitSignallingCondition(threading.Condition):
    """A Condition over `lock` that sets `entered` whenever a thread waits on it."""

    def __init__(self, lock):
        super().__init__(lock)
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


def test_in_process_calls_meet_no_queue_limit(monkeypatch):
    # In-process calls run before submit returns and queue nothing, so
    # a call still running takes no slot from another thread's call.
    from msfm import client as client_module

    entered, release = threading.Event(), threading.Event()
    original = client_module.dispatch

    def held(frame, registry):
        if frame.payload == b"held":
            entered.set()
            assert release.wait(5)
        return original(frame, registry)

    monkeypatch.setattr(client_module, "dispatch", held)
    with in_process_client() as client:
        results = []
        first = threading.Thread(
            target=lambda: results.append(
                client.call(FunctionId.COMPRESS, CompressParams(1), b"held")
            )
        )
        first.start()
        try:
            assert entered.wait(5)
            block = client.call(FunctionId.COMPRESS, CompressParams(1), b"free")
            assert codec.decompress(block) == b"free"
        finally:
            release.set()
            first.join(5)
        assert not first.is_alive()
        assert [codec.decompress(block) for block in results] == [b"held"]


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


def start_a_gated_call(client, transport):
    """Start a thread whose call holds the send lock until the gate opens."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(
            client.call(FunctionId.COMPRESS, CompressParams(1), b"a" * 100, 5000)
        )
    )
    thread.start()
    assert transport.send_entered.wait(5)
    return thread, results


def test_submits_behind_a_gated_send_are_never_refused():
    gate = threading.Event()
    transport = LoopbackTransport(send_gate=gate)
    client = loopback_client(transport=transport)
    try:
        first, results = start_a_gated_call(client, transport)
        # About 12 KiB of requests queue behind the held send; none is refused.
        blocks = [bytes([n]) * 100 for n in range(100)]
        instances = [
            client.submit(FunctionId.COMPRESS, CompressParams(1), block)
            for block in blocks
        ]
        gate.set()
        first.join(5)
        assert not first.is_alive()
        assert [codec.decompress(block) for block in results] == [b"a" * 100]
        done = [codec.decompress(i.await_result(5000)) for i in instances]
        assert done == blocks
    finally:
        gate.set()
        client.close()


def test_a_submit_that_fills_the_queue_waits_for_the_send_in_progress():
    gate = threading.Event()
    transport = LoopbackTransport(send_gate=gate)
    client = loopback_client(transport=transport)
    blocks = [bytes([n]) * 1000 for n in range(100)]
    request = protocol.request(FunctionId.COMPRESS, 1, CompressParams(1), blocks[0])
    size = len(protocol.encode_frame(request))
    filling = -(-64 * 1024 // size)  # the submit that brings the queue to 64 KiB
    instances = []

    def submit_all():
        for block in blocks:
            instances.append(
                client.submit(FunctionId.COMPRESS, CompressParams(1), block)
            )

    second = threading.Thread(target=submit_all)
    try:
        first, results = start_a_gated_call(client, transport)
        second.start()
        # The filling submit waits for the held send, so it has not returned.
        for _ in range(500):
            if len(instances) == filling - 1:
                break
            time.sleep(0.01)
        time.sleep(0.1)
        assert second.is_alive() and len(instances) == filling - 1
        gate.set()
        second.join(5)
        first.join(5)
        assert not second.is_alive() and not first.is_alive()
        assert [codec.decompress(block) for block in results] == [b"a" * 100]
        done = [codec.decompress(i.await_result(5000)) for i in instances]
        assert done == blocks
    finally:
        gate.set()
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
    with loopback_client(transport=transport) as client:
        # A request of 64 KiB leaves at once, even alone in the queue.
        client.submit(FunctionId.COMPRESS, CompressParams(1), bytes(64 * 1024))
        assert len(transport.sends) == 1 and len(transport.frames_of(0)) == 1


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


class ScriptedTransport(Transport):
    """Swallows requests; each recv returns the next scripted chunk, or None."""

    def __init__(self):
        self.chunks = []

    def send(self, data, stalled):
        pass

    def recv(self, timeout):
        return self.chunks.pop(0) if self.chunks else None

    def close(self):
        self.chunks.append(b"")


def answer(correlation_id, payload):
    frame = protocol.Frame(
        protocol.KIND_RESPONSE, protocol.Status.OK, FunctionId.COMPRESS,
        correlation_id, b"", payload,
    )
    return protocol.encode_frame(frame)


def test_one_chunk_completes_only_its_live_calls():
    transport = ScriptedTransport()
    client = loopback_client(transport=transport)
    timed_out = client.submit(FunctionId.COMPRESS, CompressParams(1), b"a")
    with pytest.raises(TimedOut):
        timed_out.await_result(timeout_ms=50)
    done = client.submit(FunctionId.COMPRESS, CompressParams(1), b"b")
    transport.chunks.append(answer(done.correlation_id, b"first"))
    assert done.await_result(2000) == b"first"
    live = client.submit(FunctionId.COMPRESS, CompressParams(1), b"c")
    # A late answer, a duplicate and the live one, in one chunk.
    transport.chunks.append(
        answer(timed_out.correlation_id, b"late")
        + answer(done.correlation_id, b"again")
        + answer(live.correlation_id, b"live")
    )
    assert live.await_result(2000) == b"live"
    assert timed_out.state is InstanceState.TIMED_OUT
    with pytest.raises(TimedOut):
        timed_out.await_result(2000)
    assert done.await_result(2000) == b"first"
    assert client._pending == {}
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
    client = loopback_client(transport=transport)
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
    client = loopback_client(transport=transport)
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
    client._turn = turn = WaitSignallingCondition(client._lock)
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


def test_a_waiter_woken_past_its_deadline_passes_the_turn_on():
    gates = {cid: threading.Event() for cid in (1, 2, 3)}
    transport = HeldTransport(gates)
    clock = SteppingClock()
    client = loopback_client(transport=transport, clock=clock)
    client._turn = turn = WaitSignallingCondition(client._lock)
    results = {}

    def call(data, timeout_ms):
        try:
            params = CompressParams(1)
            block = client.call(FunctionId.COMPRESS, params, data, timeout_ms)
            result = codec.decompress(block)
        except Exception as exc:  # noqa: BLE001 — checked below
            result = exc
        results[threading.current_thread().name] = (result, time.monotonic())

    def start(name, data, timeout_ms):
        thread = threading.Thread(target=call, args=(data, timeout_ms), name=name)
        thread.start()
        return thread

    try:
        reader = start("reader", b"one", 5000)  # correlation id 1
        for _ in range(500):
            if "reader" in transport.readers:
                break
            time.sleep(0.01)
        early = start("early", b"two", 1000)  # correlation id 2
        assert turn.entered.wait(5)
        turn.entered.clear()
        late = start("late", b"three", 5000)  # correlation id 3
        assert turn.entered.wait(5)
        # The reader's leave wakes the first waiter, "early", which is
        # past its deadline by now; it must pass the turn on to "late".
        clock.t += 2.0
        gates[1].set()
        reader.join(5)
        early.join(5)
        assert not reader.is_alive() and not early.is_alive()
        assert results["reader"][0] == b"one"
        assert isinstance(results["early"][0], TimedOut)
        released = time.monotonic()
        gates[3].set()
        late.join(10)
        assert not late.is_alive()
        result, finished = results["late"]
        assert result == b"three"
        assert finished - released < 1.0  # not when its own wait runs out
    finally:
        for gate in gates.values():
            gate.set()
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


def counting(monkeypatch, module, name, counts):
    """Replace module.name, as the benchmark's tracer does, with a counter."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_wrappers_on_the_traced_layers_see_every_frame(monkeypatch):
    # A fast path that called these through another name would hide its
    # frames from a benchmark's per-layer trace.
    from msfm import client as client_module, server as server_module

    counts = {}
    counting(monkeypatch, protocol, "encode_frame", counts)
    counting(monkeypatch, protocol, "decode_frame", counts)
    counting(monkeypatch, server_module, "dispatch", counts)
    blocks = [bytes([n]) * 4096 for n in range(16)]
    with Server(ServerConfig(), default_registry()) as server:
        config = ClientConfig(mode="remote", address=server.address)
        with Client(config) as client:
            calls = [
                client.submit(FunctionId.COMPRESS, CompressParams(1), block)
                for block in blocks
            ]
            packed = [call.await_result() for call in calls]
    assert [codec.decompress(block) for block in packed] == blocks
    assert counts == {"encode_frame": 32, "decode_frame": 32, "dispatch": 16}

    local = {}
    counting(monkeypatch, client_module, "dispatch", local)
    with in_process_client() as client:
        calls = [
            client.submit(FunctionId.COMPRESS, CompressParams(1), block)
            for block in blocks
        ]
        assert [call.await_result() for call in calls] == packed
    assert local == {"dispatch": 16}


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
        config = ClientConfig(mode="remote", address=server.address)
        with Client(config) as client:
            thread = threading.Thread(target=pipeline, daemon=True)
            thread.start()
            thread.join(30)
            assert not thread.is_alive()
    assert [codec.decompress(block) for block in outcome] == blocks * 100


def test_threads_sharing_a_small_queue_lose_no_request():
    # Eight threads share one queue: batches mix small and >64 KiB
    # requests, submits wait on each other's sends, and sends stall.
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30):
                data = rng.randbytes(rng.choice([16, 3000, 70_000]))
                instance = client.submit(FunctionId.COMPRESS, CompressParams(1), data)
                assert codec.decompress(instance.await_result(10_000)) == data
        except Exception as exc:  # noqa: BLE001 — collected for the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(ServerConfig(), default_registry()) as server:
            config = ClientConfig(mode="remote", address=server.address)
            with Client(config) as client:
                threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                assert (client._outbox, client._pending) == ([], {})
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_the_server_s_reason_for_closing_reaches_the_caller():
    # The whole request arrives in one server read, so the server's
    # close after its connection-level error response is a clean FIN.
    with Server(ServerConfig(max_frame_bytes=4096), default_registry()) as server:
        with Client(ClientConfig(mode="remote", address=server.address)) as client:
            with pytest.raises(
                TransportError,
                match="^server closed the connection: "
                "declared body 8193 exceeds limit 4096$",
            ):
                client.call(FunctionId.COMPRESS, CompressParams(1), bytes(8192))
            with pytest.raises(ClientClosed):
                client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")


def test_the_server_s_reason_reaches_the_caller_after_a_failed_send():
    # The server closes while the client is still writing 8 MiB, so the
    # send fails; the reason the server sent first is still readable.
    with Server(ServerConfig(max_frame_bytes=1 << 20), default_registry()) as server:
        with Client(ClientConfig(mode="remote", address=server.address)) as client:
            with pytest.raises(
                TransportError,
                match="^server closed the connection: "
                "declared body 8388609 exceeds limit 1048576$",
            ):
                client.call(FunctionId.COMPRESS, CompressParams(1), bytes(8 << 20))


def serve_one_request(answer):
    """A raw listener that reads one request, writes `answer(request)`, closes.

    Returns the listener's address and the thread serving it.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        with listener:
            connection, _ = listener.accept()
        with connection:
            connection.settimeout(5)
            decoder = protocol.FrameDecoder()
            while not (frames := decoder.frames()):
                decoder.feed(connection.recv(1 << 16))
            connection.sendall(answer(frames[0]))

    thread = threading.Thread(target=serve)
    thread.start()
    return listener.getsockname(), thread


def test_a_server_that_closes_unanswered_fails_the_call():
    address, thread = serve_one_request(lambda request: b"")
    with Client(ClientConfig(mode="remote", address=address)) as client:
        with pytest.raises(TransportError, match="^connection closed by server$"):
            client.call(FunctionId.COMPRESS, CompressParams(1), b"abc", timeout_ms=5000)
        with pytest.raises(ClientClosed):
            client.submit(FunctionId.COMPRESS, CompressParams(1), b"x")
    thread.join(5)
    assert not thread.is_alive()


def test_a_corrupt_response_fails_the_call():
    def flipped(request):
        frame = protocol.response(request, protocol.Status.OK, b"reply")
        data = bytearray(protocol.encode_frame(frame))
        data[-1] ^= 0x01  # the last payload byte, under the checksum
        return bytes(data)

    address, thread = serve_one_request(flipped)
    with Client(ClientConfig(mode="remote", address=address)) as client:
        with pytest.raises(TransportError, match="^undecodable response stream: "):
            client.call(FunctionId.COMPRESS, CompressParams(1), b"abc", timeout_ms=5000)
    thread.join(5)
    assert not thread.is_alive()


def test_tcp_connect_failure_raises_transport_error():
    config = ClientConfig(
        mode="remote",
        address=("127.0.0.1", 1),  # nothing listens on port 1
    )
    with pytest.raises(TransportError):
        Client(config)


def test_a_refused_connect_is_tried_once_without_sleeping(monkeypatch):
    from msfm import client as client_module

    attempts = []

    def refused(host, port):
        attempts.append((host, port))
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr(client_module, "TcpTransport", refused)
    clock = SteppingClock()
    config = ClientConfig(mode="remote", address=("127.0.0.1", 9))
    with pytest.raises(TransportError, match="cannot connect to 127.0.0.1:9: refused"):
        Client(config, clock=clock)
    assert attempts == [("127.0.0.1", 9)]
    assert clock.t == 0.0


# --- config validation ---------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ClientConfig(mode="telepathy")
    with pytest.raises(ValueError):
        ClientConfig(timeout_ms=0)
    with pytest.raises(ValueError):
        Client(ClientConfig(mode="remote"))  # no address, no transport
