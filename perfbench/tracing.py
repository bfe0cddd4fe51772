"""Spans around calls into the msfm layers, recorded from outside them.

A `Tracer` replaces a module function or a class method with a wrapper
that records one span per call: id, name, start, end, parent span id
(the innermost open span on the same thread, or -1), correlation id
(0 where none applies) and whether the call raised.  Spans stay in
memory until the run ends.  `uninstall` puts every original back.

Nothing here runs unless a traced run asks for it, so untraced runs
execute the program unchanged.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable

# Span tuple fields.
ID, NAME, START, END, PARENT, CID, RAISED = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int, float]:
        """Open a span on this thread: (id, parent id, start time)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(
        self, name: str, opened: tuple[int, int, float], cid: int = 0, raised: bool = False
    ) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, start = opened
        self.spans.append((span_id, name, start, end, parent, cid, raised))

    def record(self, name: str, start: float, end: float, cid: int = 0) -> None:
        """Add a span timed by the caller, as a child of the open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append((next(self._ids), name, start, end, parent, cid, False))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        cid_of: Callable[[tuple], int] | None = None,
    ) -> None:
        """Trace every call of owner.attr under `name`."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = tracer.begin()
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
                return result
            finally:
                tracer.end(name, opened, cid_of(args) if cid_of else 0, raised)

        self._replace(owner, attr, traced)

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Install make(original) in place of owner.attr."""
        self._replace(owner, attr, make(getattr(owner, attr)))

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _frame_cid(args: tuple) -> int:
    return args[0].correlation_id


def install_function_layers(tracer: Tracer) -> None:
    """Trace protocol, codec, gfec and dispatch: the server-side layers.

    An `ec_decode` call whose shard set lacks a data shard must rebuild
    it; each such call also records a zero-length "gfec.rebuild" span
    inside its own.
    """
    from msfm import codec, gfec, protocol, server

    tracer.wrap(protocol, "encode_frame", "protocol.encode_frame")
    tracer.wrap(protocol, "decode_frame", "protocol.decode_frame")
    tracer.wrap(codec, "compress", "codec.compress")
    tracer.wrap(codec, "decompress", "codec.decompress")
    tracer.wrap(gfec, "ec_encode", "gfec.ec_encode")

    def make_decode(original: Any) -> Any:
        def ec_decode(shard_set):
            if None in shard_set.shards[: shard_set.profile.k]:
                now = time.perf_counter()
                tracer.record("gfec.rebuild", now, now)
            return original(shard_set)

        return ec_decode

    tracer.replace(gfec, "ec_decode", make_decode)
    tracer.wrap(gfec, "ec_decode", "gfec.ec_decode")
    tracer.wrap(server, "dispatch", "server.dispatch", _frame_cid)


def install_client_layers(tracer: Tracer) -> None:
    """Trace every layer the benchmark process runs.

    Adds, on top of the function layers: the in-process path's own
    reference to dispatch, `Client.call` (timed as submit plus
    await_result, which is what it does, so that the span learns the
    call's correlation id), the store's put and get, and OSD reads that
    find their OSD down, as zero-length "miniobj.read_miss" spans.
    """
    from msfm import client, miniobj

    install_function_layers(tracer)
    tracer.wrap(client, "dispatch", "server.dispatch", _frame_cid)

    def make_call(original: Any) -> Any:
        def call(self, function_id, params, payload=b"", timeout_ms=None):
            opened = tracer.begin()
            instance = None
            raised = True
            try:
                instance = self.submit(function_id, params, payload)
                result = instance.await_result(timeout_ms)
                raised = False
                return result
            finally:
                cid = instance.correlation_id if instance is not None else 0
                tracer.end("client.call", opened, cid or 0, raised)

        return call

    tracer.replace(client.Client, "call", make_call)
    tracer.wrap(miniobj.ObjectStore, "put", "miniobj.put")
    tracer.wrap(miniobj.ObjectStore, "get", "miniobj.get")

    def make_read(original: Any) -> Any:
        def read(self, key):
            try:
                return original(self, key)
            except miniobj.NotFound:
                now = time.perf_counter()
                tracer.record("miniobj.read_miss", now, now)
                raise

        return read

    tracer.replace(miniobj.OsdTarget, "read", make_read)
