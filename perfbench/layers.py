"""Per-layer metrics from the spans of one traced phase.

Times are medians over the calls of one layer, in microseconds, taken
over both processes where a layer runs in both.  A layer a workload
never calls reads 0.  Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .tracing import CID, END, ID, NAME, PARENT, START

STALL_S = 0.020


def _duration(span) -> float:
    return span[END] - span[START]


def _self_times(spans: list, name: str) -> list[float]:
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span in spans:
        if span[NAME] != name:
            continue
        covered = 0.0
        reach = span[START]
        for start, end in sorted(children[span[ID]]):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(_duration(span) - covered)
    return out


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(
    client_spans: list,
    server_spans: list,
    phase,
    server_report: dict | None,
    plain_ops_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as name -> (value, unit)."""
    durations = defaultdict(list)
    for span in client_spans + server_spans:
        durations[span[NAME]].append(_duration(span))

    def median(name: str) -> float:
        return _median_us(durations[name])

    # Dispatch runs on the server in offload workloads and inside the
    # benchmark process on the in-process path; correlation ids are
    # unique per connection either way.
    dispatch = {
        span[CID]: _duration(span)
        for span in client_spans + server_spans
        if span[NAME] == "server.dispatch" and span[CID]
    }
    wire = [
        _duration(span) - dispatch[span[CID]]
        for span in client_spans
        if span[NAME] == "client.call" and span[CID] in dispatch
    ]
    missed = {span[PARENT] for span in client_spans if span[NAME] == "miniobj.read_miss"}
    degraded = sum(
        1 for span in client_spans if span[NAME] == "miniobj.get" and span[ID] in missed
    )
    ops = max(phase.completed, 1)
    traced_ops_s = phase.completed / phase.elapsed_s
    return {
        "protocol.encode_frame_us": (median("protocol.encode_frame"), "us"),
        "protocol.decode_frame_us": (median("protocol.decode_frame"), "us"),
        "protocol.frames": (len(durations["protocol.encode_frame"]), "count"),
        "codec.compress_us": (median("codec.compress"), "us"),
        "codec.decompress_us": (median("codec.decompress"), "us"),
        "gfec.ec_encode_us": (median("gfec.ec_encode"), "us"),
        "gfec.ec_decode_us": (median("gfec.ec_decode"), "us"),
        "gfec.rebuilds": (len(durations["gfec.rebuild"]), "count"),
        "server.dispatch_us": (median("server.dispatch"), "us"),
        "server.dispatch_self_us": (
            _median_us(
                _self_times(client_spans, "server.dispatch")
                + _self_times(server_spans, "server.dispatch")
            ),
            "us",
        ),
        "server.cpu_us_per_op": (phase.server_cpu_s / ops * 1e6, "us/op"),
        "server.peak_rss_mb": (
            server_report["peak_rss_kb"] / 1024 if server_report else 0.0,
            "MB",
        ),
        "client.call_us": (median("client.call"), "us"),
        "client.wire_us": (_median_us(wire), "us"),
        "client.stalled_calls": (sum(w > STALL_S for w in wire), "count"),
        "client.app_cpu_us_per_op": (phase.app_cpu_s / ops * 1e6, "us/op"),
        "miniobj.put_self_us": (
            _median_us(_self_times(client_spans, "miniobj.put")),
            "us",
        ),
        "miniobj.get_self_us": (
            _median_us(_self_times(client_spans, "miniobj.get")),
            "us",
        ),
        "miniobj.degraded_reads": (degraded, "count"),
        "miniobj.stored_bytes": (phase.stored_bytes, "bytes"),
        "trace.overhead": (plain_ops_s / traced_ops_s, "ratio"),
    }
