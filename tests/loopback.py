"""Test transports: an in-memory msfm server, and a TCP link that reorders."""

import heapq
import itertools
import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from msfm import protocol
from msfm.client import TcpTransport, Transport
from msfm.protocol import Frame, FrameDecoder
from msfm.server import Handler, default_registry, dispatch


class LoopbackTransport(Transport):
    """In-memory server: frames in, dispatched responses out.

    Knobs for tests: `latency_ms` delays each response; `jitter_ms`
    adds a seeded random extra delay (with several workers this
    reorders responses); `send_gate`, when given, blocks send() until
    the event is set, and `send_entered` is set as soon as a send()
    begins; `response_gate` holds all responses until set; `drop_all`
    swallows requests entirely.  Worker threads are named "loopback-*".
    """

    def __init__(
        self,
        registry: dict[int, Handler] | None = None,
        *,
        latency_ms: float = 0.0,
        jitter_ms: float = 0.0,
        seed: int = 0,
        workers: int = 2,
        send_gate: threading.Event | None = None,
        response_gate: threading.Event | None = None,
        drop_all: bool = False,
    ):
        self._registry = registry if registry is not None else default_registry()
        self._latency = latency_ms / 1000.0
        self._jitter = jitter_ms / 1000.0
        self._rng = random.Random(seed)
        self._send_gate = send_gate
        self.send_entered = threading.Event()
        self._response_gate = response_gate
        self._drop_all = drop_all
        self._decoder = FrameDecoder()
        self._out: queue.SimpleQueue[bytes] = queue.SimpleQueue()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="loopback"
        )
        self._closed = False

    def send(self, data: bytes, stalled) -> None:
        self.send_entered.set()
        if self._send_gate is not None:
            self._send_gate.wait()
        if self._closed:
            raise OSError("transport closed")
        self._decoder.feed(data)
        for frame in self._decoder.frames():
            if not self._drop_all:
                delay = self._latency + self._rng.uniform(0, self._jitter)
                self._pool.submit(self._serve, frame, delay)

    def _serve(self, frame: Frame, delay: float) -> None:
        if delay:
            time.sleep(delay)
        if self._response_gate is not None:
            self._response_gate.wait()
        response = dispatch(frame, self._registry)
        if not self._closed:
            self._out.put(protocol.encode_frame(response))

    def recv(self, timeout: float) -> bytes | None:
        try:
            return self._out.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return None

    def close(self) -> None:
        self._closed = True
        self._pool.shutdown(wait=False)
        self._out.put(b"")


class JitterTransport(TcpTransport):
    """A TCP connection that holds each response frame for a random delay.

    Every frame read from the server is released a seeded uniform
    0..`jitter_ms` after it arrived, so frames that arrive close
    together come out of recv() in a different order.  `reordered`
    counts the frames released while an earlier arrival was still held.
    """

    def __init__(self, host: str, port: int, *, jitter_ms: float, seed: int = 0):
        super().__init__(host, port)
        self._jitter = jitter_ms / 1000.0
        self._rng = random.Random(seed)
        self._arrivals = itertools.count()
        self._decoder = FrameDecoder()
        self._held: list[tuple[float, int, bytes]] = []  # (due, arrival, frame)
        self._eof = False
        self.reordered = 0

    def recv(self, timeout: float) -> bytes | None:
        deadline = time.monotonic() + timeout
        while True:
            now = time.monotonic()
            if self._held and (self._eof or self._held[0][0] <= now):
                _, arrival, data = heapq.heappop(self._held)
                if any(earlier < arrival for _, earlier, _ in self._held):
                    self.reordered += 1
                return data
            if self._eof:
                return b""
            if now >= deadline:
                return None
            due = min(self._held[0][0], deadline) if self._held else deadline
            chunk = super().recv(due - now)
            if chunk is not None:
                self._read(chunk)

    def _read(self, chunk: bytes) -> None:
        if not chunk:
            self._eof = True
            return
        self._decoder.feed(chunk)
        now = time.monotonic()
        for frame in self._decoder.frames():
            due = now + self._rng.uniform(0, self._jitter)
            entry = (due, next(self._arrivals), protocol.encode_frame(frame))
            heapq.heappush(self._held, entry)
