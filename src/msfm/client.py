"""Client SDK: per-call Instances, sent and awaited on the caller's thread.

The caller-facing half of the offload path:

    caller ──submit──▶ request frame ──send──▶ transport ──▶ server
                                                             │
    caller ◀─await── Instance ◀───recv────── transport ◀─────┘

`submit` assigns the call a correlation id, encodes its request frame
and appends it to an outbound queue, so many requests may be in flight
at once (pipelined).  The queue goes out in one write, under a send
lock, at the first of: a caller awaiting any Instance, the queue
holding `max_queue_depth` requests, or the queue holding 64 KiB.  So a
batch of pipelined calls costs one send, and a caller never reads
before its own request is on the wire.  Responses are read by the
callers themselves, in the leader/followers pattern: of the threads
awaiting an Instance, one at a time holds the read lock and reads the
connection, pairing each response to its Instance by correlation id
regardless of arrival order; the others sleep on one condition until a
response of theirs arrives or the reader leaves and one of them takes
over.  A remote Client therefore starts no thread.  The server stops
reading requests while its answers go unread, so a sender whose write
stalls reads them too: one thread may pipeline any number of calls
before it awaits any.

Two execution modes share one API.  Remote mode sends frames through a
Transport (TCP, or a test double).  In-process mode — the monolithic
baseline — skips the wire entirely and hands the very same request
frame to the very same `server.dispatch` used remotely, so any
behavioral difference between the modes is a bug, not a mode property.

Both the clock and the transport are injectable, which keeps timeout
logic and network behavior testable without real sleeping or sockets.

Failure policy: at most `max_queue_depth` requests may be queued or
being written at once (in-process: being run in submit), and one more
raises Backpressure instead of blocking.  A response that arrives after
its Instance timed out is discarded.  A transport failure fails every
in-flight Instance with TransportError, queued ones included, and
close() fails them with ClientClosed without sending them; the client
does not reconnect mid-stream (a failed initial connect is retried
with backoff; failover is out of scope).
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import protocol
from .protocol import Frame, FrameDecoder, Status
from .server import default_registry, dispatch


class ClientError(Exception):
    """Base class for client-side errors."""


class Backpressure(ClientError):
    """max_queue_depth requests are already queued or being written."""


class ClientClosed(ClientError):
    """The client was closed (or its connection failed) before the call."""


class TimedOut(ClientError):
    """No response within the deadline; the request may still execute."""


class TransportError(ClientError):
    """The connection failed while requests were outstanding."""


class RemoteError(ClientError):
    """The server answered with a nonzero status."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail or f"status {status}")
        self.status = status
        self.detail = detail


class UnsupportedFunction(RemoteError):
    pass


class RemoteMalformedParams(RemoteError):
    pass


class FunctionFailed(RemoteError):
    pass


class ServerBusy(RemoteError):
    pass


_STATUS_ERRORS: dict[int, type[RemoteError]] = {
    Status.UNSUPPORTED_FUNCTION: UnsupportedFunction,
    Status.MALFORMED_PARAMS: RemoteMalformedParams,
    Status.FUNCTION_FAILURE: FunctionFailed,
    Status.SERVER_BUSY: ServerBusy,
}


def error_for_status(status: int, detail: str) -> RemoteError:
    return _STATUS_ERRORS.get(status, RemoteError)(status, detail)


class Clock:
    """Time source for deadlines and connect backoff; swap out in tests.

    Awaits do not sleep through the clock: they block in the
    transport's `recv` or on the client's condition, each bounded by
    the time left before the deadline that `now` measures.
    """

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class Transport:
    """Duplex byte stream to a server.  All methods may block."""

    def send(self, data: bytes, stalled: Callable[[], None]) -> None:
        """Write all of `data`, calling `stalled` while the peer takes none.

        A server stops reading requests while its answers go unread, so
        `stalled` is called when answers are waiting and the write cannot
        go on; it should read them.
        """
        raise NotImplementedError

    def recv(self, timeout: float) -> bytes | None:
        """Next chunk of response bytes, waiting at most `timeout` seconds.

        Returns None if the timeout passes first, and b'' once the peer
        is gone or close() was called, which also wakes a blocked recv.
        The chunk may be a view that the next recv overwrites.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class TcpTransport(Transport):
    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        # No socket timeout: recv bounds its own wait in poll, and a send
        # may take as long as the server needs to read the request.
        self._sock.settimeout(None)
        # Pipelined requests are small writes sent back to back; with
        # Nagle on, each burst would wait for the server's delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._poll = select.poll()
        self._poll.register(self._sock, select.POLLIN)
        self._send_poll = select.poll()
        self._send_poll.register(self._sock, select.POLLIN | select.POLLOUT)
        # One read takes in a whole 64 KiB frame, with no allocation.
        self._chunk = memoryview(bytearray(1 << 17))

    def send(self, data: bytes, stalled: Callable[[], None]) -> None:
        view = memoryview(data)
        while True:
            try:
                view = view[self._sock.send(view, socket.MSG_DONTWAIT) :]
            except BlockingIOError:
                pass
            if not view:
                return
            for _, events in self._send_poll.poll():
                if events & select.POLLIN and not events & select.POLLOUT:
                    stalled()

    def recv(self, timeout: float) -> bytes | None:
        try:
            if not self._poll.poll(max(timeout, 0.0) * 1000.0):
                return None
            return self._chunk[: self._sock.recv_into(self._chunk)]
        except OSError:
            return b""

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


MODE_REMOTE = "remote"
MODE_IN_PROCESS = "in-process"

_U32_MAX = 0xFFFFFFFF

# A failed connect is retried this often, after 50 ms, then 100 ms, ...
_CONNECT_RETRIES = 2
_BACKOFF_BASE_MS = 50.0

# Queued requests go out once they reach this size, awaited or not, so
# a 64 KiB request leaves at submit and one send joins little more.
_FLUSH_BYTES = 64 * 1024


@dataclass
class ClientConfig:
    """Execution mode and limits.  timeout_ms > 0, max_queue_depth >= 1.

    max_queue_depth bounds the requests that are queued or being
    written (in-process mode: being run in submit); a full queue is
    written at once, so it also caps the requests one send carries.
    """

    mode: str = MODE_IN_PROCESS
    address: tuple[str, int] | None = None
    timeout_ms: float = 5000.0
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.mode not in (MODE_REMOTE, MODE_IN_PROCESS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


class InstanceState(Enum):
    SENT = "sent"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed-out"


class Instance:
    """Handle for one submitted call.

    Created sent, once its request frame is built (remote: queued, then
    written when any caller awaits or the queue fills); exactly one of
    completed/failed/timed-out ends it, and the result slot (payload or
    error) is written at most once.  await_result blocks only its
    caller and is idempotent once terminal.
    """

    def __init__(self, client: "Client", function_id: int, correlation_id: int):
        self.function_id = function_id
        self.correlation_id = correlation_id
        self.submitted_at = client._clock.now()
        self._client = client
        self._state = InstanceState.SENT
        self._payload: bytes | None = None
        self._error: ClientError | None = None

    @property
    def state(self) -> InstanceState:
        return self._state

    def __repr__(self) -> str:
        return (
            f"<Instance fn={self.function_id} cid={self.correlation_id} "
            f"{self._state.value}>"
        )

    def _finish(
        self,
        state: InstanceState,
        payload: bytes | None = None,
        error: ClientError | None = None,
    ) -> None:
        """Move to a terminal state; the result is stored before the state.

        await_result reads the state without a lock.  The caller holds
        `_pending_lock` and has just taken this Instance out of
        `_pending` (in-process: submit has not returned it yet).
        Whoever finishes another thread's Instance must then notify the
        client's `_turn` condition, which its waiter sleeps on.
        """
        self._payload = payload
        self._error = error
        self._state = state

    def await_result(self, timeout_ms: float | None = None) -> bytes:
        """Block until terminal; return the payload or raise the error.

        In remote mode the caller may read the connection itself while
        it waits (see Client), never past its deadline.

        Args:
            timeout_ms: Deadline for this wait; defaults to the
                client's configured request timeout.

        Raises:
            TimedOut: Deadline passed first.  The instance is marked
                timed-out and any later response is discarded.
            RemoteError: The server answered with a nonzero status
                (subclass picked by the status code).
            TransportError, ClientClosed: The connection or client
                went away before a response arrived.
        """
        if self._state is InstanceState.SENT:
            client = self._client
            if timeout_ms is None:
                timeout_ms = client.config.timeout_ms
            client._await(self, client._clock.now() + timeout_ms / 1000.0)
            client._expire(self, TimedOut(f"no response within {timeout_ms:g} ms"))
        if self._error is not None:
            raise self._error
        return self._payload if self._payload is not None else b""


class Client:
    """One connection's worth of pipelined function calls.

    Remote mode starts no thread: submit encodes and queues each
    request on the caller's own thread, the queue goes out in one send
    on the thread that awaits or fills it, and the callers awaiting
    Instances take turns reading responses (see the module docstring).
    In-process mode executes during submit.  Thread-safe: submit/call
    may run from many threads at once.
    """

    def __init__(
        self,
        config: ClientConfig,
        *,
        transport: Transport | None = None,
        clock: Clock | None = None,
    ):
        self.config = config
        self._clock = clock or Clock()
        self._ids = itertools.count(1)
        self._closed = threading.Event()
        # Under _pending_lock: the calls awaiting a response, the
        # encoded requests not yet handed to a send, their total size,
        # and the requests queued or being written (<= max_queue_depth).
        self._pending: dict[int, Instance] = {}
        self._outbox: list[bytes] = []
        self._outbox_bytes = 0
        self._unwritten = 0
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        # Held by the one awaiting thread that reads the connection.
        self._read_lock = threading.Lock()
        # Awaiting threads that do not read sleep here until a response
        # of theirs arrives or the read lock is handed over.
        self._turn = threading.Condition(threading.Lock())
        self._decoder = FrameDecoder()
        self._transport: Transport | None = None

        if config.mode == MODE_IN_PROCESS:
            self._registry = default_registry()
            return
        self._registry = {}
        self._transport = transport or self._connect()

    def _connect(self) -> Transport:
        if self.config.address is None:
            raise ValueError("remote mode needs an address or an explicit transport")
        host, port = self.config.address
        last: Exception | None = None
        for attempt in range(_CONNECT_RETRIES + 1):
            try:
                return TcpTransport(host, port)
            except OSError as exc:
                last = exc
                self._clock.sleep(_BACKOFF_BASE_MS * (2**attempt) / 1000.0)
        raise TransportError(f"cannot connect to {host}:{port}: {last}")

    # --- public API ---------------------------------------------------------

    def submit(
        self,
        function_id: int,
        params: protocol.FunctionParams | bytes,
        payload: bytes = b"",
    ) -> Instance:
        """Queue one call; returns its Instance without awaiting the response.

        The request frame is built and encoded on the calling thread and
        queued; the queue is written in one send when a caller awaits
        any Instance, or at once if it now holds max_queue_depth
        requests or 64 KiB.  In-process mode executes the call before
        returning.

        Raises:
            Backpressure: max_queue_depth requests are already queued
                or being written (in-process: being run).
            ClientClosed: close() was called or the connection died.
            ValueError: The request cannot be encoded as a frame (for
                example a function id beyond u16), in either mode;
                nothing was sent or run.
        """
        if self._closed.is_set():
            raise ClientClosed("client is closed")
        if self.config.mode == MODE_IN_PROCESS:
            with self._pending_lock:
                self._take_slot()
            try:
                frame = protocol.request(function_id, self._next_id(), params, payload)
                instance = Instance(self, function_id, frame.correlation_id)
                self._deliver(instance, dispatch(frame, self._registry))
            finally:
                with self._pending_lock:
                    self._unwritten -= 1
            return instance
        frame = protocol.request(function_id, self._next_id(), params, payload)
        instance = Instance(self, function_id, frame.correlation_id)
        self._enqueue(instance, protocol.encode_frame(frame))
        return instance

    def call(
        self,
        function_id: int,
        params: protocol.FunctionParams | bytes,
        payload: bytes = b"",
        timeout_ms: float | None = None,
    ) -> bytes:
        """submit + await_result in one step."""
        return self.submit(function_id, params, payload).await_result(timeout_ms)

    def close(self) -> None:
        """Stop the client; all non-terminal instances fail ClientClosed.

        Safe from any thread: closing the transport wakes a caller that
        is blocked reading it.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self.config.mode == MODE_REMOTE:
            self._fail_all(ClientClosed("client closed"))
            assert self._transport is not None
            self._transport.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- remote path -----------------------------------------------------------

    def _next_id(self) -> int:
        """The next correlation id that is not still in flight.

        Ids run 1 .. 2^32 - 1 and wrap back to 1: they must fit the u32
        header field, and 0 is the id the server answers an
        undecodable frame with.  After a wrap, an id whose call is
        still pending is skipped, so no response can pair with the
        wrong call.
        """
        while True:
            correlation_id = (next(self._ids) - 1) % _U32_MAX + 1
            if correlation_id not in self._pending:
                return correlation_id

    def _take_slot(self) -> None:
        """Count one more unwritten request; the caller holds _pending_lock."""
        depth = self.config.max_queue_depth
        if self._unwritten >= depth:
            raise Backpressure(f"{depth} requests already queued or being written")
        self._unwritten += 1

    def _enqueue(self, instance: Instance, data: bytes) -> None:
        """Queue an encoded request; write the queue if it is full."""
        with self._pending_lock:
            # Checked under the lock that _fail_all takes, so a request
            # queued after close() cannot be left unfailed.
            if self._closed.is_set():
                raise ClientClosed("client is closed")
            self._take_slot()
            self._pending[instance.correlation_id] = instance
            self._outbox.append(data)
            self._outbox_bytes += len(data)
            full = (
                len(self._outbox) >= self.config.max_queue_depth
                or self._outbox_bytes >= _FLUSH_BYTES
            )
        if full:
            self._flush()

    def _flush(self) -> None:
        """Write every queued request in one send.

        Taking the send lock first means that once this returns, every
        request queued before the call is on the wire (or failed): a
        batch that another thread took is written by the time it
        releases the lock.
        """
        assert self._transport is not None
        with self._send_lock:
            with self._pending_lock:
                batch = self._outbox
                if not batch:
                    return
                self._outbox = []
                self._outbox_bytes = 0
            try:
                self._transport.send(b"".join(batch), self._read_for_stalled_send)
            except OSError as exc:
                self._transport_failed(f"send failed: {exc}")
            finally:
                with self._pending_lock:
                    self._unwritten -= len(batch)

    def _read_for_stalled_send(self) -> None:
        """Read the answers that keep the server from taking a request.

        The sender holds the send lock, and a reader writes the queue
        before it reads, so any call a reader awaits was sent before
        this batch and is answered first: that reader leaves, and the
        sender waits for the read lock.
        """
        if self._closed.is_set():
            raise OSError("client closed")
        self._read_lock.acquire()
        try:
            self._read_once(0.0)
        finally:
            self._hand_over()

    def _await(self, instance: Instance, deadline: float) -> None:
        """Return once `instance` is terminal or `deadline` has passed.

        The queue is written first, so the request awaited (and every
        other request queued so far) is on the wire before this thread
        reads or waits: a stalled sender can then rely on every reader
        leaving once it is answered.  The calling thread reads the
        connection itself if no other thread does; otherwise it sleeps
        on `_turn` until a reader delivers a response or leaves.  A
        leaving reader releases the read lock and notifies while it
        holds `_turn`'s lock, and a thread sleeps there only after it
        saw, under that same lock, the read lock held and its instance
        still sent; so no thread misses its response or the hand-over.
        """
        self._flush()
        while instance._state is InstanceState.SENT:
            remaining = deadline - self._clock.now()
            if remaining <= 0:
                if not self._read_lock.locked():
                    # A hand-over may have woken this thread as it timed
                    # out; pass it on to a thread still waiting.
                    with self._turn:
                        self._turn.notify()
                return
            if self._read_lock.acquire(blocking=False):
                try:
                    while instance._state is InstanceState.SENT:
                        remaining = deadline - self._clock.now()
                        own = instance.correlation_id
                        if remaining <= 0 or not self._read_once(remaining, own):
                            break
                finally:
                    self._hand_over()
                return
            with self._turn:
                if instance._state is InstanceState.SENT and self._read_lock.locked():
                    self._turn.wait(remaining)

    def _hand_over(self) -> None:
        """Release the read lock and wake one waiter to take it."""
        with self._turn:
            self._read_lock.release()
            self._turn.notify()

    def _read_once(self, timeout: float, own: int = 0) -> bool:
        """Read one chunk and deliver every response it completes.

        The caller holds the read lock.  The waiters are woken if the
        chunk held a response other than to `own`, the reader's own
        correlation id (0 matches no call).  Returns False if nothing
        came within `timeout` or the connection is gone.
        """
        assert self._transport is not None
        data = self._transport.recv(timeout)
        if data is None:
            return False
        if not data:
            if not self._closed.is_set():
                self._transport_failed("connection closed by server")
            return False
        others = False
        try:
            self._decoder.feed(data)
            while (frame := self._decoder.next_frame()) is not None:
                self._dispatch_response(frame)
                others |= frame.correlation_id != own
        except protocol.ProtocolError as exc:
            self._transport_failed(f"undecodable response stream: {exc}")
        if others:
            with self._turn:
                self._turn.notify_all()
        return True

    def _dispatch_response(self, frame: Frame) -> None:
        with self._pending_lock:
            instance = self._pending.pop(frame.correlation_id, None)
            # None: a duplicate, or the response to a timed-out call.
            if instance is not None:
                self._deliver(instance, frame)

    def _deliver(self, instance: Instance, frame: Frame) -> None:
        if frame.status == Status.OK:
            instance._finish(InstanceState.COMPLETED, payload=frame.payload)
        else:
            detail = frame.params.decode("utf-8", errors="replace")
            instance._finish(
                InstanceState.FAILED,
                error=error_for_status(frame.status, detail),
            )

    def _transport_failed(self, detail: str) -> None:
        self._closed.set()
        self._fail_all(TransportError(detail))

    def _fail_all(self, error: ClientError) -> None:
        """Fail every pending call; the queued requests are never sent."""
        with self._pending_lock:
            for instance in self._pending.values():
                instance._finish(InstanceState.FAILED, error=error)
            self._pending.clear()
            self._unwritten -= len(self._outbox)
            self._outbox = []
            self._outbox_bytes = 0
        with self._turn:
            self._turn.notify_all()

    def _expire(self, instance: Instance, error: ClientError) -> None:
        """Time out `instance` unless a response or failure ended it first."""
        with self._pending_lock:
            # Still sent means still pending: both change under this lock.
            if instance._state is InstanceState.SENT:
                del self._pending[instance.correlation_id]
                instance._finish(InstanceState.TIMED_OUT, error=error)
