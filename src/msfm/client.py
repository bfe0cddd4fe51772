"""Client SDK: per-call Instances, sent and awaited on the caller's thread.

The caller-facing half of the offload path:

    caller ──submit──▶ request frame ──send──▶ transport ──▶ server
                                                             │
    caller ◀─await── Instance ◀───recv────── transport ◀─────┘

`submit` assigns the call a correlation id, encodes its request frame
and appends it to an outbound queue, so many requests may be in flight
at once (pipelined).  The queue goes out in one write, under a send
lock, at the first of: a caller awaiting any Instance, or the queue
holding 64 KiB.  So a batch of pipelined calls costs one send, and a
caller never reads before its own request is on the wire.  Responses
are read by the callers themselves, in the leader/followers pattern:
of the threads awaiting an Instance, one at a time has the turn to
read the connection, pairing each response to its Instance by
correlation id regardless of arrival order; the others sleep on one
condition until a response of theirs arrives or the reader leaves and
one of them takes the turn.  The reader decodes every frame of a chunk
in one pass and finishes their Instances under one lock acquisition,
with one wake-up.
A remote Client therefore starts no thread.  That condition's lock,
taken directly as `_lock`, guards all of the client's shared state;
only the send lock is separate, so that a reader can deliver responses
while a send blocks.
The server stops reading requests while its answers go unread, so a
sender whose write stalls reads them too: one thread may pipeline any
number of calls before it awaits any.

Two execution modes share one API.  Remote mode sends frames through a
Transport (TCP, or a test double).  In-process mode — the monolithic
baseline — skips the wire entirely and hands the very same request
frame to the very same `server.dispatch` used remotely, so any
behavioral difference between the modes is a bug, not a mode property.
The one exception is the server's frame limit, which holds remotely
only: a response over it is refused there (docs/wire.md).

Both the clock and the transport are injectable, which keeps timeout
logic and network behavior testable without real sleeping or sockets.

Failure policy: submit never refuses a call for the number already in
flight, in either mode.  In-process mode runs each call before submit
returns.  In remote mode a submit that fills the queue to 64 KiB
writes it, waiting on the send lock for any send in progress; so the
queue holds at most 64 KiB plus one request per submitting thread.  A
response that arrives after its Instance timed out is discarded.  A
transport failure fails every in-flight Instance with TransportError,
queued ones included, and close() fails them with ClientClosed without
sending them.  A server that closes the connection over a request it
cannot decode first sends a failure response with correlation id 0,
the connection-level error response (docs/wire.md); its detail is the
reason that TransportError gives ("server closed the connection: ...").
That holds also when the server closes while the client still writes
the request, as it does over one larger than its limit: a send that
fails first reads what the connection holds, and the calls that this
leaves pending fail with "send failed: ..." (or "connection closed by
server", if that read finds the connection closed).
A failed connect raises TransportError at once: the client neither
retries a connect nor reconnects (failover is out of scope).
"""

from __future__ import annotations

import contextlib
import itertools
import select
import socket
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import protocol
from .protocol import KIND_REQUEST, Frame, FrameDecoder, Status
from .server import default_registry, dispatch


class ClientError(Exception):
    """Base class for client-side errors."""


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


class Clock:
    """Time source for deadlines; swap out in tests.

    Nothing sleeps through the clock: an await blocks in the
    transport's `recv` or on the client's condition, each bounded by
    the time left before the deadline that `now` measures.
    """

    def now(self) -> float:
        return time.monotonic()


# How long a connect may take before it fails.
_CONNECT_TIMEOUT_S = 5.0


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
        """Release the connection; later calls do nothing more."""
        raise NotImplementedError


class TcpTransport(Transport):
    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT_S)
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

# Queued requests go out once they reach this size, awaited or not, so
# a 64 KiB request leaves at submit and one send joins little more.
_FLUSH_BYTES = 64 * 1024


@dataclass
class ClientConfig:
    """Execution mode, server address (remote) and request timeout > 0."""

    mode: str = MODE_IN_PROCESS
    address: tuple[str, int] | None = None
    timeout_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_REMOTE, MODE_IN_PROCESS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")


class InstanceState(Enum):
    SENT = "sent"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed-out"


# Enum member lookups cost a class attribute search each; these do not.
_SENT = InstanceState.SENT
_COMPLETED = InstanceState.COMPLETED
_FAILED = InstanceState.FAILED
_OK = Status.OK
_new_frame = tuple.__new__  # Frame from a 6-tuple, as protocol builds them


class Instance:
    """Handle for one submitted call.

    Created sent, once its request frame is built (remote: queued, then
    written when any caller awaits or the queue reaches 64 KiB);
    exactly one of completed/failed/timed-out ends it, and the result
    slot (payload or error) is written at most once.  await_result
    blocks only its caller and is idempotent once terminal.
    """

    def __init__(self, client: "Client", function_id: int, correlation_id: int):
        self.function_id = function_id
        self.correlation_id = correlation_id
        self._client = client
        self._state = _SENT
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
        the client's `_lock` and has just taken this Instance out of
        `_pending` (in-process: submit has not returned it yet).
        Whoever finishes another thread's Instance must notify `_turn`,
        which its waiter sleeps on, before releasing `_lock`.
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
        if self._state is _SENT:
            client = self._client
            if timeout_ms is None:
                timeout_ms = client.config.timeout_ms
            client._await(self, client._clock.now() + timeout_ms / 1000.0)
            if self._state is _SENT:
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
    A reader takes `_lock`, the lock of the `_turn` condition, once per
    chunk it reads, not once per response, and wakes the waiters at
    most once.
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
        # Under _lock: whether the client is closed, the calls awaiting
        # a response, the encoded requests not yet handed to a send,
        # their total size, and whether a thread is reading the
        # connection.  Awaiting threads that do not read sleep on _turn
        # until a response of theirs arrives or the reader leaves.
        self._closed = False
        self._pending: dict[int, Instance] = {}
        self._outbox: list[bytes] = []
        self._outbox_bytes = 0
        self._reading = False
        # Blocks take the Lock itself, whose context manager is C code;
        # waits and notifies go through the Condition over it.
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        # Taken before _lock, which is never held across a send or recv.
        self._send_lock = threading.Lock()
        self._decoder = FrameDecoder()
        self._transport: Transport | None = None

        if config.mode == MODE_IN_PROCESS:
            self._registry = default_registry()
            return
        self._transport = transport or self._connect()

    def _connect(self) -> Transport:
        if self.config.address is None:
            raise ValueError("remote mode needs an address or an explicit transport")
        host, port = self.config.address
        try:
            return TcpTransport(host, port)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from None

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
        any Instance, or at once if it now holds 64 KiB, after any send
        in progress.  In-process mode executes the call before
        returning.  No count of calls in flight is ever refused.

        Raises:
            ClientClosed: close() was called or the connection died.
            ValueError: The request cannot be encoded as a frame (for
                example a function id beyond u16), in either mode;
                nothing was sent or run.
        """
        if self._closed:
            raise ClientClosed("client is closed")
        if self.config.mode == MODE_IN_PROCESS:
            frame = protocol.request(function_id, self._next_id(), params, payload)
            instance = Instance(self, function_id, frame.correlation_id)
            self._deliver(instance, dispatch(frame, self._registry))
            return instance
        # encode_frame checks every field as protocol.request would.
        raw = params if isinstance(params, bytes) else protocol.encode_params(params)
        correlation_id = self._next_id()
        frame = (KIND_REQUEST, _OK, function_id, correlation_id, raw, payload)
        data = protocol.encode_frame(_new_frame(Frame, frame))
        instance = Instance(self, function_id, correlation_id)
        self._enqueue(instance, data)
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

        Safe from any thread, and more than once: closing the transport
        wakes a caller that is blocked reading it.  A client whose
        connection failed is closed too, and its transport with it.
        """
        if self.config.mode == MODE_IN_PROCESS:
            self._closed = True
            return
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
        wrong call.  `_pending` is read without the lock: an id enters
        it only through the submit that picked it.
        """
        while True:
            correlation_id = (next(self._ids) - 1) % _U32_MAX + 1
            if correlation_id not in self._pending:
                return correlation_id

    def _enqueue(self, instance: Instance, data: bytes) -> None:
        """Queue an encoded request; write the queue once it holds 64 KiB."""
        with self._lock:
            # Checked under the lock that _fail_all takes, so a request
            # queued after close() cannot be left unfailed.
            if self._closed:
                raise ClientClosed("client is closed")
            self._pending[instance.correlation_id] = instance
            self._outbox.append(data)
            self._outbox_bytes += len(data)
            full = self._outbox_bytes >= _FLUSH_BYTES
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
            with self._lock:
                batch = self._outbox
                if not batch:
                    return
                self._outbox = []
                self._outbox_bytes = 0
            try:
                self._transport.send(b"".join(batch), self._read_for_stalled_send)
            except OSError as exc:
                # A server that closed over this batch may have said why
                # first; its reason fails the calls if it is readable.
                with contextlib.suppress(OSError):
                    while self._read_for_stalled_send():
                        pass
                self._fail_all(TransportError(f"send failed: {exc}"))

    def _read_for_stalled_send(self) -> bool:
        """Read the answers that keep the server from taking a request.

        The sender holds the send lock, and a reader writes the queue
        before it reads, so any call a reader awaits was sent before
        this batch and is answered first: that reader leaves, and the
        sender waits on `_turn` for its turn.  Returns whether a chunk
        came.
        """
        if self._closed:
            raise OSError("client closed")
        with self._lock:
            while self._reading:
                self._turn.wait()
            self._reading = True
        try:
            return self._read_once(0.0)
        finally:
            self._leave()

    def _await(self, instance: Instance, deadline: float) -> None:
        """Return once `instance` is terminal or `deadline` has passed.

        The queue is written first, unless nothing is queued or being
        written, so the request awaited (and every other request queued
        so far) is on the wire before this thread reads or waits: a
        stalled sender can then rely on every reader leaving once it is
        answered.  That test takes no lock: a batch leaves the queue only
        while its taker holds the send lock, so an empty queue seen
        before a free send lock means every request queued earlier has
        been written.  The calling thread takes the turn and reads the
        connection itself if no other thread is reading; otherwise it
        sleeps on `_turn` until a reader delivers a response or leaves.
        A reader delivers and leaves while it holds `_lock`, and
        a thread sleeps there only after it saw, under that same lock,
        another thread reading and its instance still sent; so no thread
        misses its response or the turn.  A thread woken past its
        deadline while no one reads takes the turn and leaves at once:
        the wake-up may have been the turn, which then passes on to a
        thread still waiting.
        """
        if self._outbox or self._send_lock.locked():
            self._flush()
        while instance._state is _SENT:
            remaining = deadline - self._clock.now()
            with self._lock:
                if self._reading:
                    if remaining <= 0:
                        return
                    if instance._state is _SENT:
                        self._turn.wait(remaining)
                    continue
                self._reading = True
            try:
                own = instance.correlation_id
                while instance._state is _SENT:
                    remaining = deadline - self._clock.now()
                    if remaining <= 0 or not self._read_once(remaining, own):
                        break
            finally:
                self._leave()
            return

    def _leave(self) -> None:
        """Give up the turn to read and wake one waiter to take it."""
        with self._lock:
            self._reading = False
            self._turn.notify()

    def _read_once(self, timeout: float, own: int = 0) -> bool:
        """Read one chunk and deliver every response it completes.

        The caller has the turn.  The waiters are woken, once, if the
        chunk completed a call other than `own`, the reader's own
        correlation id (0 matches no call).  Returns False if nothing
        came within `timeout` or the connection is gone.
        """
        assert self._transport is not None
        data = self._transport.recv(timeout)
        if data is None:
            return False
        if not data:
            if not self._closed:
                self._fail_all(TransportError("connection closed by server"))
            return False
        try:
            self._decoder.feed(data)
            # A bad frame is raised by the call after the one that
            # returns the frames before it.
            while frames := self._decoder.frames():
                self._complete(frames, own)
        except protocol.ProtocolError as exc:
            self._fail_all(TransportError(f"undecodable response stream: {exc}"))
        return True

    def _complete(self, frames: list[Frame], own: int) -> None:
        """Finish the Instance of each response, under one lock acquisition.

        Wakes the waiters if a call other than `own` was completed.  A
        failure with correlation id 0, which no call has, is the server's
        reason for closing the connection: it fails every pending call.
        """
        others = False
        closing = None
        pending = self._pending
        with self._lock:
            for frame in frames:
                correlation_id = frame.correlation_id
                instance = pending.pop(correlation_id, None)
                # None: a duplicate, the response to a timed-out call, or
                # the connection's last frame.
                if instance is not None:
                    self._deliver(instance, frame)
                    others |= correlation_id != own
                elif correlation_id == 0 and frame.status != _OK:
                    closing = frame
            if others:
                self._turn.notify_all()
        if closing is not None:
            detail = closing.params.decode("utf-8", errors="replace")
            self._fail_all(TransportError(f"server closed the connection: {detail}"))

    def _deliver(self, instance: Instance, frame: Frame) -> None:
        if frame.status == _OK:
            instance._finish(_COMPLETED, frame.payload)
        else:
            detail = frame.params.decode("utf-8", errors="replace")
            error = _STATUS_ERRORS.get(frame.status, RemoteError)(frame.status, detail)
            instance._finish(_FAILED, error=error)

    def _fail_all(self, error: ClientError) -> None:
        """Close the client and fail every pending call.

        The queued requests are never sent.
        """
        with self._lock:
            self._closed = True
            for instance in self._pending.values():
                instance._finish(_FAILED, error=error)
            self._pending.clear()
            self._outbox = []
            self._outbox_bytes = 0
            self._turn.notify_all()

    def _expire(self, instance: Instance, error: ClientError) -> None:
        """Time out `instance` unless a response or failure ended it first."""
        with self._lock:
            # Still sent means still pending: both change under this lock.
            if instance._state is _SENT:
                del self._pending[instance.correlation_id]
                instance._finish(InstanceState.TIMED_OUT, error=error)
