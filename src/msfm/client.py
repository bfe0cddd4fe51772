"""Client SDK: per-call Instances sent from the caller's own thread.

The caller-facing half of the offload path:

    caller ──submit──▶ request frame ──send──▶ transport ──▶ server
                                                             │
    caller ◀─await── Instance ◀───reader──── transport ◀─────┘

`submit` assigns the call a correlation id, builds its request frame
and writes it onto the single connection under a send lock before
returning the Instance, so many requests may be in flight at once
(pipelined).  One reader thread pairs each response to its Instance by
correlation id, regardless of arrival order.

Two execution modes share one API.  Remote mode sends frames through a
Transport (TCP, or a test double).  In-process mode — the monolithic
baseline — skips the wire entirely and hands the very same request
frame to the very same `server.dispatch` used remotely, so any
behavioral difference between the modes is a bug, not a mode property.

Both the clock and the transport are injectable, which keeps timeout
logic and network behavior testable without real sleeping or sockets.

Failure policy: at most `max_queue_depth` calls may be in submit at
once — building and sending their frames — and one more raises
Backpressure instead of blocking.  A response that arrives after its
Instance timed out is discarded.  A transport failure fails every
in-flight Instance with TransportError; the client does not reconnect
mid-stream (initial connection attempts honor the retry/backoff
settings, failover is out of scope).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass
from enum import Enum

from . import protocol
from .protocol import Frame, FrameDecoder, Status
from .server import Handler, default_registry, dispatch


class ClientError(Exception):
    """Base class for client-side errors."""


class Backpressure(ClientError):
    """max_queue_depth calls are already being sent; retry once one returns."""


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
    """Time source used for timeouts; swap out for deterministic tests."""

    def now(self) -> float:
        return time.monotonic()

    def wait(self, event: threading.Event, timeout: float | None) -> bool:
        """Block until the event is set or timeout seconds pass."""
        return event.wait(timeout)

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class Transport:
    """Duplex byte stream to a server.  All methods may block."""

    def send(self, data: bytes) -> None:
        raise NotImplementedError

    def recv(self) -> bytes:
        """Next chunk of response bytes; b'' once the peer is gone."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class TcpTransport(Transport):
    def __init__(self, host: str, port: int, connect_timeout: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        # Pipelined requests are small writes sent back to back; with
        # Nagle on, each burst would wait for the server's delayed ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self) -> bytes:
        try:
            return self._sock.recv(65536)
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


@dataclass
class ClientConfig:
    """Execution mode and limits.  timeout_ms > 0, max_queue_depth >= 1."""

    mode: str = MODE_IN_PROCESS
    address: tuple[str, int] | None = None
    timeout_ms: float = 5000.0
    max_queue_depth: int = 64
    connect_retries: int = 2
    backoff_base_ms: float = 50.0

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

    Created sent, once its request frame is built; exactly one of
    completed/failed/timed-out ends it, and the result slot (payload or
    error) is written at most once.  await_result blocks only its
    caller and is idempotent once terminal.
    """

    def __init__(self, client: "Client", function_id: int, correlation_id: int):
        self.function_id = function_id
        self.correlation_id = correlation_id
        self.submitted_at = client._clock.now()
        self._client = client
        self._lock = threading.Lock()
        self._state = InstanceState.SENT
        self._done = threading.Event()
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
    ) -> bool:
        """Move to a terminal state; False if one was already reached."""
        with self._lock:
            if self._state is not InstanceState.SENT:
                return False
            self._state = state
            self._payload = payload
            self._error = error
        self._done.set()
        return True

    def await_result(self, timeout_ms: float | None = None) -> bytes:
        """Block until terminal; return the payload or raise the error.

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
        if timeout_ms is None:
            timeout_ms = self._client.config.timeout_ms
        if not self._done.is_set():
            if not self._client._clock.wait(self._done, timeout_ms / 1000.0):
                if self._finish(InstanceState.TIMED_OUT, error=TimedOut(
                    f"no response within {timeout_ms:g} ms"
                )):
                    self._client._forget(self)
        if self._error is not None:
            raise self._error
        return self._payload if self._payload is not None else b""


class Client:
    """One connection's worth of pipelined function calls.

    Remote mode runs one daemon thread, the response reader; submit
    builds and sends each request on the caller's own thread.
    In-process mode has no thread and executes during submit.
    Thread-safe: submit/call may run from many threads at once.
    """

    def __init__(
        self,
        config: ClientConfig,
        *,
        transport: Transport | None = None,
        clock: Clock | None = None,
        registry: dict[int, Handler] | None = None,
    ):
        self.config = config
        self._clock = clock or Clock()
        self._ids = itertools.count(1)
        self._slots = threading.Semaphore(config.max_queue_depth)
        self._closed = threading.Event()
        self._pending: dict[int, Instance] = {}
        self._pending_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._transport: Transport | None = None
        self._reader: threading.Thread | None = None

        if config.mode == MODE_IN_PROCESS:
            self._registry = registry if registry is not None else default_registry()
            return
        self._registry = {}
        self._transport = transport or self._connect()
        self._reader = threading.Thread(
            target=self._recv_loop, name="msfm-reader", daemon=True
        )
        self._reader.start()

    def _connect(self) -> Transport:
        if self.config.address is None:
            raise ValueError("remote mode needs an address or an explicit transport")
        host, port = self.config.address
        last: Exception | None = None
        for attempt in range(self.config.connect_retries + 1):
            try:
                return TcpTransport(host, port)
            except OSError as exc:
                last = exc
                backoff = self.config.backoff_base_ms * (2**attempt) / 1000.0
                self._clock.sleep(backoff)
        raise TransportError(f"cannot connect to {host}:{port}: {last}")

    # --- public API ---------------------------------------------------------

    def submit(
        self,
        function_id: int,
        params: protocol.FunctionParams | bytes,
        payload: bytes = b"",
    ) -> Instance:
        """Send one call; returns its Instance without awaiting the response.

        The request frame is built and written on the calling thread;
        in-process mode executes the call before returning.

        Raises:
            Backpressure: max_queue_depth calls are already being
                built or sent.
            ClientClosed: close() was called or the connection died.
            ValueError: The request cannot be encoded as a frame (for
                example a function id beyond u16), in either mode;
                nothing was sent or run.
        """
        if self._closed.is_set():
            raise ClientClosed("client is closed")
        if not self._slots.acquire(blocking=False):
            raise Backpressure(
                f"{self.config.max_queue_depth} calls already being sent"
            )
        try:
            # Correlation ids run 1 .. 2^32 - 1 and wrap back to 1: they
            # must fit the u32 header field, and 0 is the id the server
            # answers an undecodable frame with.
            correlation_id = (next(self._ids) - 1) % _U32_MAX + 1
            frame = protocol.request(function_id, correlation_id, params, payload)
            instance = Instance(self, function_id, correlation_id)
            if self.config.mode == MODE_IN_PROCESS:
                self._deliver(instance, dispatch(frame, self._registry))
            else:
                self._send(instance, frame)
        finally:
            # The slot is held through serialization so that
            # max_queue_depth bounds client-side buffering.
            self._slots.release()
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
        """Stop the client; all non-terminal instances fail ClientClosed."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self.config.mode == MODE_REMOTE:
            self._fail_all(ClientClosed("client closed"))
            assert self._transport is not None and self._reader is not None
            self._transport.close()
            if self._reader is not threading.current_thread():
                self._reader.join(timeout=5)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- remote path -----------------------------------------------------------

    def _send(self, instance: Instance, frame: Frame) -> None:
        assert self._transport is not None
        data = protocol.encode_frame(frame)
        with self._pending_lock:
            self._pending[frame.correlation_id] = instance
        try:
            with self._send_lock:
                self._transport.send(data)
        except OSError as exc:
            self._transport_failed(f"send failed: {exc}")

    def _recv_loop(self) -> None:
        assert self._transport is not None
        decoder = FrameDecoder()
        while not self._closed.is_set():
            data = self._transport.recv()
            if not data:
                if not self._closed.is_set():
                    self._transport_failed("connection closed by server")
                return
            try:
                decoder.feed(data)
                while (frame := decoder.next_frame()) is not None:
                    self._dispatch_response(frame)
            except protocol.ProtocolError as exc:
                self._transport_failed(f"undecodable response stream: {exc}")
                return

    def _dispatch_response(self, frame: Frame) -> None:
        with self._pending_lock:
            instance = self._pending.pop(frame.correlation_id, None)
        if instance is None:
            return  # duplicate, or response for a timed-out instance
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
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for instance in pending:
            instance._finish(InstanceState.FAILED, error=error)

    def _forget(self, instance: Instance) -> None:
        with self._pending_lock:
            self._pending.pop(instance.correlation_id, None)
