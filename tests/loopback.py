"""In-memory stand-in for a TCP connection to an msfm server, for client tests."""

import queue
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from msfm import protocol
from msfm.client import Transport
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

    def send(self, data: bytes) -> None:
        self.send_entered.set()
        if self._send_gate is not None:
            self._send_gate.wait()
        if self._closed:
            raise OSError("transport closed")
        self._decoder.feed(data)
        while (frame := self._decoder.next_frame()) is not None:
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

    def recv(self) -> bytes:
        return self._out.get()

    def close(self) -> None:
        self._closed = True
        self._pool.shutdown(wait=False)
        self._out.put(b"")
