"""Function service: frame dispatch and a threaded TCP server.

The server side of the offload path.  `dispatch` is the pure core —
one request frame in, one response frame out, never raising — and maps
function ids onto the codec and erasure-coding modules:

    1 compress     payload -> compressed block
    2 decompress   compressed block -> payload
    3 ec_encode    k*shard_size data bytes -> k+m shards, concatenated
    4 ec_decode    present shards (ascending index) -> data bytes

`Server` is a `socketserver.ThreadingTCPServer` around dispatch.  Each
connection gets a reader thread, and that reader is the only dispatch
path: it runs dispatch on every frame decoded from one recv and answers
them with one write, in request order, before it reads again, so each
connection holds at most one batch.  The correlation id, not the
order, is the pairing contract.  Reader threads are not daemons, and
stop() joins them, so a started Server must be stopped.

A frame that fails to decode kills its connection: the frames decoded
before it are still answered, then the server sends a best-effort
status-2 response with correlation_id 0 and closes.

A response body never exceeds the server's own `max_frame_bytes`, the
limit its peer's requests are held to.  A request whose output it can
tell from the request alone is refused before it runs: DECOMPRESS by
the block header's raw_len, EC_ENCODE by its payload split into k + m
shards.  Any other result over the limit is refused once it is made.
A refusal is a status-3 response to that request, and the connection
stays open.  An in-process call has no such limit.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import signal
import socket
import socketserver
import sys
import threading
from dataclasses import dataclass
from typing import Callable

from . import codec, gfec, protocol
from .protocol import Frame, FrameDecoder, FunctionId, Status

log = logging.getLogger(__name__)

Handler = Callable[[protocol.FunctionParams, bytes], bytes]


def _handle_compress(params: protocol.FunctionParams, payload: bytes) -> bytes:
    assert isinstance(params, protocol.CompressParams)
    return codec.compress(payload, params.codec_id)


def _handle_decompress(params: protocol.FunctionParams, payload: bytes) -> bytes:
    # The block header names its own codec; the params field is advisory.
    return codec.decompress(payload)


def _handle_ec_encode(params: protocol.FunctionParams, payload: bytes) -> bytes:
    assert isinstance(params, protocol.EcEncodeParams)
    k, m = params.k, params.m
    if not payload or len(payload) % k:
        raise gfec.InvalidLength(
            f"payload of {len(payload)} bytes does not split into {k} shards"
        )
    profile = gfec.EcProfile(k, m, len(payload) // k)
    shard_set = gfec.ec_encode(payload, profile)
    return b"".join(shard_set.shards)  # type: ignore[arg-type]


def _handle_ec_decode(params: protocol.FunctionParams, payload: bytes) -> bytes:
    assert isinstance(params, protocol.EcDecodeParams)
    k, m, size = params.k, params.m, params.shard_size
    bitmap = params.present_bitmap
    present = [i for i in range(k + m) if bitmap & (1 << i)]
    if len(payload) != len(present) * size:
        raise gfec.InvalidLength(
            f"payload is {len(payload)} bytes, bitmap promises {len(present)} "
            f"shards of {size}"
        )
    shards: list[bytes | None] = [None] * (k + m)
    for slot, index in enumerate(present):
        shards[index] = payload[slot * size : (slot + 1) * size]
    return gfec.ec_decode(gfec.ShardSet(gfec.EcProfile(k, m, size), shards))


FUNCTION_GROUPS = {
    "compress": {
        FunctionId.COMPRESS: _handle_compress,
        FunctionId.DECOMPRESS: _handle_decompress,
    },
    "ec": {
        FunctionId.EC_ENCODE: _handle_ec_encode,
        FunctionId.EC_DECODE: _handle_ec_decode,
    },
}


def default_registry(functions: str = "compress,ec") -> dict[int, Handler]:
    """Handlers for the named function groups ("compress", "ec")."""
    registry: dict[int, Handler] = {}
    for name in functions.split(","):
        name = name.strip()
        if name not in FUNCTION_GROUPS:
            raise ValueError(f"unknown function group {name!r}")
        registry.update(FUNCTION_GROUPS[name])
    return registry


# An enum member lookup costs a class attribute search each; these do not.
_OK = Status.OK
_DECOMPRESS = FunctionId.DECOMPRESS
_EC_ENCODE = FunctionId.EC_ENCODE


def dispatch(request: Frame, registry: dict[int, Handler]) -> Frame:
    """Execute one request frame and build its response frame.

    Never raises: malformed params, unknown functions, and handler
    failures all come back as response frames with a nonzero status and
    a UTF-8 error detail in the params field.  Deterministic for a
    given (function_id, params, payload).

    The server's readers call it once per request frame as this
    module's `dispatch`, and an in-process Client as `client.dispatch`,
    so a wrapper put on either attribute sees every call.  Params come
    from `protocol.decode_params`, which decodes each distinct
    (function_id, params bytes) once.
    """
    kind, _, function_id, _, raw_params, payload = request
    if kind != protocol.KIND_REQUEST:
        return protocol.response(
            request, Status.MALFORMED_PARAMS, detail="frame is not a request"
        )
    handler = registry.get(function_id)
    if handler is None:
        return protocol.response(
            request,
            Status.UNSUPPORTED_FUNCTION,
            detail=f"function_id {function_id} not registered",
        )
    try:
        params = protocol.decode_params(function_id, raw_params)
    except protocol.MalformedParams as exc:
        return protocol.response(request, Status.MALFORMED_PARAMS, detail=str(exc))
    try:
        result = handler(params, payload)
    except Exception as exc:  # noqa: BLE001 — all failures become frames
        detail = f"{type(exc).__name__}: {exc}"
        return protocol.response(request, Status.FUNCTION_FAILURE, detail=detail)
    return protocol.response(request, _OK, result)


def _answer(request: Frame, registry: dict[int, Handler], limit: int) -> Frame:
    """dispatch(request), refused if its response payload would exceed `limit`.

    A DECOMPRESS or EC_ENCODE request fixes its output size, so it is
    refused before it runs: by the block header's raw_len, or by the
    payload expanded to k + m shards.  Any other result is refused once
    it is made.
    """
    _, _, function_id, _, raw_params, payload = request
    size = 0
    try:
        if function_id == _DECOMPRESS and function_id in registry:
            size = codec.read_header(payload)[1]
        elif function_id == _EC_ENCODE and function_id in registry:
            params = protocol.decode_params(function_id, raw_params)
            size = len(payload) // params.k * (params.k + params.m)
    except (codec.CodecError, protocol.MalformedParams):
        pass  # dispatch refuses the request itself
    if size <= limit:
        response = dispatch(request, registry)
        size = len(response.payload)
        if size <= limit:
            return response
    detail = f"response of {size} bytes exceeds limit {limit}"
    return protocol.response(request, Status.FUNCTION_FAILURE, detail=detail)


@dataclass
class ServerConfig:
    """Listener and resource limits; every limit must be >= 1."""

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 64
    max_frame_bytes: int = protocol.DEFAULT_MAX_BODY

    def __post_init__(self) -> None:
        if min(self.max_connections, self.max_frame_bytes) < 1:
            raise ValueError("all server limits must be >= 1")


class Server(socketserver.ThreadingTCPServer):
    """Threaded TCP server around a function registry; binds on creation.

    Use as a context manager or call start()/stop().  start() serves on
    a daemon thread; each connection is read by its own thread, named
    "msfm-conn-reader", and one past `max_connections` is closed
    unanswered.  stop() drains: each reader answers the requests it has
    already read, then the socket closes and the reader is joined; a
    request not yet read when stop() begins sees the connection close.
    """

    allow_reuse_address = True

    def __init__(self, config: ServerConfig, registry: dict[int, Handler]):
        self.config = config
        self.registry = dict(registry)
        self._serve_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        super().__init__((config.host, config.port), _Connection)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port)."""
        return self.server_address[:2]

    def start(self) -> "Server":
        self._serve_thread = threading.Thread(
            target=self.serve_forever, args=(0.2,), name="msfm-accept", daemon=True
        )
        self._serve_thread.start()
        log.info("serving on %s:%d", *self.address)
        return self

    def stop(self) -> None:
        """Stop accepting, answer what each connection has read, close."""
        serve_thread, self._serve_thread = self._serve_thread, None
        if serve_thread is not None:
            # On Linux this wakes serve_forever's select at once; where
            # it does not, shutdown() waits out the 0.2 s poll.
            with contextlib.suppress(OSError):
                self.socket.shutdown(socket.SHUT_RD)
            self.shutdown()  # waits for serve_forever, so only once it ran
            serve_thread.join()
        # Readers stop once _serve_thread is None; SHUT_RD wakes them in recv.
        with self._conn_lock:
            for sock in self._connections:
                with contextlib.suppress(OSError):  # the peer reset it
                    sock.shutdown(socket.SHUT_RD)
        self.server_close()  # closes the listener, joins every reader

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def server_activate(self) -> None:
        self.socket.listen()  # listen()'s own backlog, not request_queue_size

    def verify_request(self, request, client_address) -> bool:
        with self._conn_lock:
            if len(self._connections) >= self.config.max_connections:
                log.warning("connection limit reached; refused %s", client_address)
                return False
            self._connections.add(request)
        return True

    def close_request(self, request) -> None:
        with self._conn_lock:
            self._connections.discard(request)
        super().close_request(request)

    def handle_error(self, request, client_address) -> None:
        # Let the exception reach threading.excepthook, not stderr.
        raise


class _Connection(socketserver.BaseRequestHandler):
    """Serves one client connection on its own reader thread."""

    def handle(self) -> None:
        threading.current_thread().name = "msfm-conn-reader"
        server, sock = self.server, self.request
        # Responses are small writes the client waits on; with Nagle
        # on, each burst would wait for the peer's delayed ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        limit = server.config.max_frame_bytes
        decoder = FrameDecoder(limit)
        registry = server.registry
        # One read takes in a whole 64 KiB frame, with no allocation.
        chunk = memoryview(bytearray(1 << 17))
        try:
            while server._serve_thread is not None:
                try:
                    size = sock.recv_into(chunk)
                except OSError:
                    break
                if not size:
                    break
                decoder.feed(chunk[:size])
                # Frames decoded before a bad one are still answered: the
                # call after the one that returns them raises.
                while frames := decoder.frames():
                    self._write([_answer(frame, registry, limit) for frame in frames])
        except protocol.ProtocolError as exc:
            log.warning("closing connection after decode error: %s", exc)
            # Best effort; correlation id 0 stands for the connection.
            detail = str(exc).encode("utf-8")
            self._write(
                [Frame(protocol.KIND_RESPONSE, Status.MALFORMED_PARAMS, 0, 0, detail)]
            )

    def _write(self, frames: list[Frame]) -> None:
        encoded = b"".join([protocol.encode_frame(frame) for frame in frames])
        try:
            self.request.sendall(encoded)
        except OSError:
            pass  # peer went away; nothing useful left to do


def parse_address(text: str) -> tuple[str, int]:
    """argparse type for ADDR:PORT; ADDR may be left out for 127.0.0.1."""
    host, _, port = text.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
        raise argparse.ArgumentTypeError(f"bad ADDR:PORT {text!r}")
    return host or "127.0.0.1", int(port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msfm-server",
        description="Serve compression and erasure-coding functions over TCP.",
    )
    parser.add_argument(
        "--listen",
        type=parse_address,
        default="127.0.0.1:9620",
        metavar="ADDR:PORT",
        help="listen address (default %(default)s)",
    )
    parser.add_argument(
        "--functions",
        default="compress,ec",
        help="comma-separated function groups to enable (default %(default)s)",
    )
    parser.add_argument("--max-frame-mb", type=int, default=64, metavar="N")
    parser.add_argument("--max-connections", type=int, default=64, metavar="N")
    args = parser.parse_args(argv)
    host, port = args.listen
    try:
        config = ServerConfig(
            host=host,
            port=port,
            max_connections=args.max_connections,
            max_frame_bytes=args.max_frame_mb * 1024 * 1024,
        )
        registry = default_registry(args.functions)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        server = Server(config, registry)
    except OSError as exc:  # the port is taken, or the host is not local
        print(f"error: cannot listen on {host}:{port}: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    server.start()
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # Flushed, so a supervisor reading a pipe learns an ephemeral port,
    # and printed last, so it may send SIGTERM as soon as it does.
    print("msfm-server listening on %s:%d" % server.address, flush=True)
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
