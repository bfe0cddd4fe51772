"""Function service: frame dispatch and a threaded TCP server.

The server side of the offload path.  `dispatch` is the pure core —
one request frame in, one response frame out, never raising — and maps
function ids onto the codec and erasure-coding modules:

    1 compress     payload -> compressed block
    2 decompress   compressed block -> payload
    3 ec_encode    k*shard_size data bytes -> k+m shards, concatenated
    4 ec_decode    present shards (ascending index) -> data bytes

`Server` wraps dispatch in a TCP front end with one reader thread per
connection.  By default (workers=1) that reader runs dispatch itself
and answers every frame decoded from one recv with one write, in
request order.  With workers > 1 the reader feeds a shared worker pool
instead, and each response is written under a per-connection lock as
it finishes — possibly out of request order; the correlation id is the
pairing contract.  Requests beyond the per-connection in-flight limit
are answered immediately with ServerBusy rather than queued, keeping
memory bounded by (connections x in-flight x frame size); an inline
reader reads nothing more until its batch is answered.

A frame that fails to decode kills its connection: the frames decoded
before it are still answered, then the server sends a best-effort
status-2 response with correlation_id 0 and closes.
"""

from __future__ import annotations

import argparse
import logging
import random
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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


def dispatch(request: Frame, registry: dict[int, Handler]) -> Frame:
    """Execute one request frame and build its response frame.

    Never raises: malformed params, unknown functions, and handler
    failures all come back as response frames with a nonzero status and
    a UTF-8 error detail in the params field.  Deterministic for a
    given (function_id, params, payload).
    """
    if request.kind != protocol.KIND_REQUEST:
        return protocol.response(
            request, Status.MALFORMED_PARAMS, detail="frame is not a request"
        )
    handler = registry.get(request.function_id)
    if handler is None:
        return protocol.response(
            request,
            Status.UNSUPPORTED_FUNCTION,
            detail=f"function_id {request.function_id} not registered",
        )
    try:
        params = protocol.decode_params(request.function_id, request.params)
    except protocol.MalformedParams as exc:
        return protocol.response(request, Status.MALFORMED_PARAMS, detail=str(exc))
    try:
        result = handler(params, request.payload)
    except Exception as exc:  # noqa: BLE001 — all failures become frames
        detail = f"{type(exc).__name__}: {exc}"
        return protocol.response(request, Status.FUNCTION_FAILURE, detail=detail)
    return protocol.response(request, Status.OK, result)


@dataclass
class ServerConfig:
    """Listener and resource limits; every limit must be >= 1.

    workers=1 dispatches on each connection's reader thread and answers
    all the frames decoded from one recv with one write; workers=N > 1
    dispatches on a shared pool of N threads, one write per response.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 64
    max_inflight: int = 32
    max_frame_bytes: int = protocol.DEFAULT_MAX_BODY
    workers: int = 1
    response_jitter_ms: float = 0.0
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        limits = (
            self.max_connections,
            self.max_inflight,
            self.max_frame_bytes,
            self.workers,
        )
        if min(limits) < 1:
            raise ValueError("all server limits must be >= 1")


class Server:
    """Threaded TCP server around a function registry.

    Use as a context manager or call start()/stop().  stop() drains:
    requests already admitted finish and their responses are flushed
    before sockets close; a request that arrives while a connection
    drains is answered with ServerBusy.
    """

    def __init__(self, config: ServerConfig, registry: dict[int, Handler]):
        self.config = config
        self.registry = dict(registry)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._stopping = threading.Event()
        self._jitter = (
            random.Random(config.jitter_seed) if config.response_jitter_ms else None
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after start()."""
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()[:2]

    def start(self) -> "Server":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen()
        # Closing a listening socket does not reliably wake a blocked
        # accept(); poll with a timeout so stop() terminates the loop.
        listener.settimeout(0.2)
        self._listener = listener
        if self.config.workers > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers, thread_name_prefix="msfm-worker"
            )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="msfm-accept", daemon=True
        )
        self._accept_thread.start()
        log.info("serving on %s:%d", *self.address)
        return self

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, close everything."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.drain_and_close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break  # listener closed by stop()
            sock.settimeout(None)
            # Responses are small writes the client waits on; with Nagle
            # on, each burst would wait for the peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                if len(self._connections) >= self.config.max_connections:
                    sock.close()
                    log.warning("connection limit reached; refused %s", peer)
                    continue
                conn = _Connection(self, sock)
                self._connections.add(conn)
            conn.start()

    def _forget(self, conn: "_Connection") -> None:
        with self._conn_lock:
            self._connections.discard(conn)

    def _sleep_jitter(self) -> None:
        if self._jitter is not None:
            time.sleep(self._jitter.uniform(0, self.config.response_jitter_ms) / 1000)


class _Connection:
    """One client connection: reader thread, in-flight count, writer lock."""

    def __init__(self, server: Server, sock: socket.socket):
        self._server = server
        self._sock = sock
        self._write_lock = threading.Lock()
        # Admitted batches whose responses are not yet written.
        self._inflight = 0
        self._idle = threading.Condition()
        self._reader: threading.Thread | None = None
        self._closed = threading.Event()

    def start(self) -> None:
        self._reader = threading.Thread(
            target=self._read_loop, name="msfm-conn-reader", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        decoder = FrameDecoder(self._server.config.max_frame_bytes)
        inline = self._server._pool is None
        try:
            while not self._closed.is_set():
                try:
                    data = self._sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                decoder.feed(data)
                frames: list[Frame] = []
                try:
                    while (frame := decoder.next_frame()) is not None:
                        frames.append(frame)
                finally:
                    # Frames decoded before a bad one are still answered.
                    for batch in [frames] if inline else [[f] for f in frames]:
                        self._admit(batch)
        except protocol.ProtocolError as exc:
            log.warning("closing connection after decode error: %s", exc)
            self._wait_idle()
            # Best effort; correlation id 0 stands for the connection.
            detail = str(exc).encode("utf-8")
            self._write(
                [Frame(protocol.KIND_RESPONSE, Status.MALFORMED_PARAMS, 0, 0, detail)]
            )
        finally:
            self._finish()

    def _admit(self, frames: list[Frame]) -> None:
        """Run one batch on the reader or the pool, or answer it busy."""
        if not frames:
            return
        with self._idle:
            admitted = (
                self._inflight < self._server.config.max_inflight
                and not self._closed.is_set()
            )
            if admitted:
                self._inflight += 1
        if not admitted:
            why = "in-flight limit reached"
            self._write(
                [protocol.response(f, Status.SERVER_BUSY, detail=why) for f in frames]
            )
        elif self._server._pool is None:
            self._process(frames)
        else:
            self._server._pool.submit(self._process, frames)

    def _process(self, frames: list[Frame]) -> None:
        try:
            responses = [dispatch(frame, self._server.registry) for frame in frames]
            self._server._sleep_jitter()
            self._write(responses)
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()

    def _write(self, frames: list[Frame]) -> None:
        encoded = b"".join(protocol.encode_frame(frame) for frame in frames)
        try:
            with self._write_lock:
                self._sock.sendall(encoded)
        except OSError:
            pass  # peer went away; nothing useful left to do

    def _wait_idle(self) -> None:
        with self._idle:
            self._idle.wait_for(lambda: not self._inflight)

    def drain_and_close(self) -> None:
        """Wait for admitted requests to answer, then close the socket.

        Each admitted batch counts as in flight until its responses are
        written; once closed is set no batch is admitted, so a frame
        read meanwhile is answered with ServerBusy.
        """
        self._closed.set()
        self._wait_idle()
        self._shutdown_socket()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5)

    def _finish(self) -> None:
        self._closed.set()
        self._shutdown_socket()
        self._server._forget(self)

    def _shutdown_socket(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msfm-server",
        description="Serve compression and erasure-coding functions over TCP.",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:9620",
        metavar="ADDR:PORT",
        help="listen address (default %(default)s)",
    )
    parser.add_argument(
        "--functions",
        default="compress,ec",
        help="comma-separated function groups to enable (default %(default)s)",
    )
    parser.add_argument("--max-inflight", type=int, default=32, metavar="N")
    parser.add_argument("--max-frame-mb", type=int, default=64, metavar="N")
    parser.add_argument("--max-connections", type=int, default=64, metavar="N")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="1 dispatches on each connection's reader, one write per batch of "
        "requests; N > 1 dispatches on a pool of N threads (default %(default)s)",
    )
    parser.add_argument(
        "--jitter-ms",
        type=float,
        default=0.0,
        help="random extra delay before each response, for reorder testing",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    host, _, port = args.listen.rpartition(":")
    config = ServerConfig(
        host=host or "127.0.0.1",
        port=int(port),
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        max_frame_bytes=args.max_frame_mb * 1024 * 1024,
        workers=args.workers,
        response_jitter_ms=args.jitter_ms,
    )
    server = Server(config, default_registry(args.functions))
    server.start()
    print(f"msfm-server listening on {server.address[0]}:{server.address[1]}")

    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
