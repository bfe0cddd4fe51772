"""Closed-loop benchmark driver for the object store's two execution modes.

Measures put throughput and latency with a fixed number of in-flight
operations (`iodepth`), comparing "instance" mode — the transform runs
behind the wire protocol on a separate server — against "compressor"
mode, where the same code runs in-process.  Every operation performs a
real put against a real ObjectStore, so stored bytes are identical
across modes and only the timing model differs.

Both transports run one closed loop, `_drive`: the calling thread
keeps `iodepth` puts pending through `ObjectStore.submit_put`, as fio's
iodepth does with an async engine, finishes the oldest, and starts no
thread of its own.  The two differ only in the clock that loop reads:

* ``sim`` — a deterministic virtual clock.  The network is a pair of
  FIFO links (serialization at a configured bandwidth, then a fixed
  propagation latency each way) and the side that runs the transform
  does so on a small worker pool with an affine service-time cost;
  each put is priced on them when it finishes.  Identical spec and
  seed produce identical reports, byte for byte.
* ``tcp`` — the wall clock, over a real loopback Server and remote
  Client on one pipelined connection.  Not deterministic; useful for
  sanity against the model.

Each run yields one `BenchReport`, and `--mode both` adds one
`ComparisonRow` per iodepth.  `--out` writes them as one JSON document,
each record in the shape its class gives it, and is the one
machine-readable output.

A run's transform rules are the store's: `BenchSpec.policy` is the
`ObjectPolicy` its puts use, and that policy's checks are the spec's.
The sim's costs come from `SimParams` alone, whose fixed, documented
defaults keep every sim report reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import math
import random
import re
import statistics
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from . import codec, miniobj, protocol
from .client import Client, ClientConfig, ClientError, MODE_REMOTE
from .miniobj import ObjectManifest, ObjectPolicy, ObjectStore, StoreError, StoreStats
from .server import Server, ServerConfig, default_registry

WORKLOAD_RANDWRITE = "randwrite"
WORKLOAD_WRITE = "write"
MODE_INSTANCE = "instance"
MODE_COMPRESSOR = "compressor"
TRANSPORT_SIM = "sim"
TRANSPORT_TCP = "tcp"

# Each workload's headline metric, by its report field: IOPS for random
# writes and bandwidth for sequential ones, as each is conventionally
# reported.  `compare` takes the ratio of it.
_HEADLINE_METRIC = {WORKLOAD_RANDWRITE: "iops", WORKLOAD_WRITE: "bandwidth_mbps"}

_WORKLOADS = tuple(_HEADLINE_METRIC)
_MODES = (MODE_INSTANCE, MODE_COMPRESSOR)
_TRANSPORTS = (TRANSPORT_SIM, TRANSPORT_TCP)

# randwrite picks overwrite targets from a bounded name pool so the
# store footprint stays flat no matter how long the run is.
_NAME_POOL = 4096

# Spreads per-op seeds so op i of seed s never collides with op 0 of
# seed s+i (sweeps derive seeds by small offsets).
_SEED_STRIDE = 0x9E3779B1

# The stored form is what compress falls back to, not a codec to ask for.
_CODEC_BY_NAME = {
    name: cid for name, cid in codec.CODEC_NAMES.items() if cid != codec.CODEC_STORED
}
_CODEC_NAME_BY_ID = {codec_id: name for name, codec_id in _CODEC_BY_NAME.items()}


class BenchError(Exception):
    """Base for benchmark configuration errors."""


class InvalidSpec(BenchError):
    """The benchmark spec is internally inconsistent."""


class InvalidComparison(BenchError):
    """Two result sets cannot be meaningfully compared."""


@dataclass(frozen=True)
class SimParams:
    """Virtual-time model constants.

    The link is full-duplex: independent request and response
    directions, each serializing at `bandwidth_mbps` (decimal MB/s)
    and then adding `latency_us` of propagation delay.  Transform
    service time is `service_fixed_us + service_us_per_byte * n` on a
    pool of `server_workers` (instance mode) or `local_workers`
    (compressor mode); the pools are sized equally by default because
    both modes are assumed to run on equivalent CPUs.
    """

    latency_us: float = 200.0
    bandwidth_mbps: float = 100.0
    server_workers: int = 3
    local_workers: int = 3
    service_fixed_us: float = 50.0
    service_us_per_byte: float = 0.022
    client_overhead_us: float = 20.0

    def __post_init__(self) -> None:
        if self.latency_us < 0:
            raise InvalidSpec("latency_us must be >= 0")
        if self.bandwidth_mbps <= 0:
            raise InvalidSpec("bandwidth_mbps must be > 0")
        if self.server_workers < 1 or self.local_workers < 1:
            raise InvalidSpec("worker counts must be >= 1")
        if self.service_fixed_us < 0 or self.service_us_per_byte < 0:
            raise InvalidSpec("service costs must be >= 0")
        if self.client_overhead_us < 0:
            raise InvalidSpec("client_overhead_us must be >= 0")


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark configuration.

    Exactly one of `ops` / `runtime_s` bounds the run: an op count, or
    a duration (virtual seconds under the sim transport, wall seconds
    under tcp).  `zero_fraction` dials how compressible generated
    blocks are; `seed` makes block content — and under sim, the whole
    report — reproducible.
    """

    workload: str = WORKLOAD_RANDWRITE
    block_size: int = 4096
    iodepth: int = 1
    mode: str = MODE_INSTANCE
    transform: str = "compress"
    codec_id: int = codec.CODEC_RLE0
    k: int = 4
    m: int = 2
    ops: int | None = None
    runtime_s: float | None = None
    zero_fraction: float = 0.5
    transport: str = TRANSPORT_SIM
    sim: SimParams = field(default_factory=SimParams)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise InvalidSpec(f"unknown workload {self.workload!r}")
        if self.mode not in _MODES:
            raise InvalidSpec(f"unknown mode {self.mode!r}")
        if self.transport not in _TRANSPORTS:
            raise InvalidSpec(f"unknown transport {self.transport!r}")
        if self.block_size < 1:
            raise InvalidSpec("block_size must be >= 1")
        if self.iodepth < 1:
            raise InvalidSpec("iodepth must be >= 1")
        if (self.ops is None) == (self.runtime_s is None):
            raise InvalidSpec("exactly one of ops / runtime_s must be set")
        if self.ops is not None and self.ops < 1:
            raise InvalidSpec("ops must be >= 1")
        if self.runtime_s is not None and self.runtime_s <= 0:
            raise InvalidSpec("runtime_s must be > 0")
        if not 0.0 <= self.zero_fraction <= 1.0:
            raise InvalidSpec("zero_fraction must be within [0, 1]")
        try:
            self.policy
        except ValueError as exc:
            raise InvalidSpec(str(exc)) from None

    @property
    def policy(self) -> ObjectPolicy:
        """The in-process policy of this run's puts."""
        return ObjectPolicy(self.transform, self.codec_id, self.k, self.m)

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload,
            "block_size": self.block_size,
            "iodepth": self.iodepth,
            "mode": self.mode,
            "transform": self.transform,
            "ops": self.ops,
            "runtime_s": self.runtime_s,
            "zero_fraction": self.zero_fraction,
            "transport": self.transport,
            "seed": self.seed,
        }
        if self.transform == "compress":
            out["codec"] = _CODEC_NAME_BY_ID[self.codec_id]
        elif self.transform == "ec":
            out["k"], out["m"] = self.k, self.m
        if self.transport == TRANSPORT_SIM:
            out["sim"] = asdict(self.sim)
        return out


@dataclass(frozen=True)
class BenchReport:
    """Results of one run, in the shape `to_dict` writes them.

    `latency_us` summarizes the completed puts' latencies in
    microseconds under the keys min, mean, p50, p95, p99 and max; a run
    with none reads zeros.  `untimed_s` is the time spent making inputs,
    left out of `elapsed_s`; the report leaves it out under sim, whose
    virtual clock does not move while inputs are made.
    """

    spec: BenchSpec
    completed: int
    errors: int
    elapsed_s: float
    iops: float
    bandwidth_mbps: float
    latency_us: dict[str, float]
    raw_bytes: int
    stored_bytes: int
    untimed_s: float

    def to_dict(self) -> dict:
        out = {**vars(self), "spec": self.spec.to_dict()}
        if self.spec.transport != TRANSPORT_TCP:
            del out["untimed_s"]
        return out


@dataclass(frozen=True)
class ComparisonRow:
    """One iodepth's head-to-head result, named as `--out` writes it.

    `compare(a, b)` puts a's headline metric under `instance` and b's
    under `compressor`, as `--mode both` runs them; ratio = a / b.
    """

    iodepth: int
    metric: str
    instance: float
    compressor: float
    ratio: float


# Published reference measurements for the deployment that motivated
# the two execution modes: offloaded ("instance") vs in-process
# ("compressor") compression on Ceph, by queue depth.  Values are
# (instance, compressor) pairs.  They are context for reading our
# model's output, not targets: absolute numbers depend on hardware.
REFERENCE_RANDWRITE_4K_IOPS: dict[int, tuple[float, float]] = {
    1: (1000, 657),
    2: (1680, 1845),
    4: (2538, 2836),
    8: (2827, 2967),
    16: (2006, 2709),
    32: (2601, 2587),
    64: (2512, 2443),
    128: (2457, 2300),
}

REFERENCE_WRITE_64K_MBPS: dict[int, tuple[float, float]] = {
    1: (10.8, 21.2),
    2: (18.7, 37.5),
    4: (18.8, 36.6),
    8: (19.8, 35.0),
    16: (19.5, 36.0),
    32: (19.1, 36.2),
    64: (27.0, 35.2),
    128: (24.2, 35.5),
}


def _op_seed(seed: int, index: int) -> int:
    return seed * _SEED_STRIDE + index


def _fill_block(rng: random.Random, size: int, zero_fraction: float) -> bytes:
    """Alternating zero runs and random runs, 128-384 bytes each."""
    out = bytearray()
    while len(out) < size:
        run = rng.randint(128, 384)
        if rng.random() < zero_fraction:
            out += bytes(run)
        else:
            out += rng.randbytes(run)
    return bytes(out[:size])


def make_block(size: int, zero_fraction: float, seed: int) -> bytes:
    """A reproducible test block, `zero_fraction` compressible by runs."""
    return _fill_block(random.Random(seed), size, zero_fraction)


def _build_store(spec: BenchSpec) -> ObjectStore:
    osd_count = max(6, spec.k + spec.m) if spec.transform == "ec" else 6
    return ObjectStore(osd_count=osd_count)


def _object_name(spec: BenchSpec, rng: random.Random, index: int) -> str:
    if spec.workload == WORKLOAD_RANDWRITE:
        return f"blk-{rng.randrange(_NAME_POOL)}"
    return f"seq-{index}"


def _op_input(spec: BenchSpec, index: int) -> tuple[str, bytes]:
    """The object name and block of operation `index`, reproducibly."""
    rng = random.Random(_op_seed(spec.seed, index))
    name = _object_name(spec, rng, index)
    return name, _fill_block(rng, spec.block_size, spec.zero_fraction)


# The function whose request a put sends, per transform ("none" sends none).
_PUT_FUNCTION = {
    "compress": protocol.FunctionId.COMPRESS,
    "ec": protocol.FunctionId.EC_ENCODE,
}


def _params_overhead(spec: BenchSpec) -> int:
    function_id = _PUT_FUNCTION.get(spec.transform)
    return 0 if function_id is None else protocol.PARAMS_LAYOUTS[function_id][1].size


def _percentile(sorted_us: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (exact, no interpolation)."""
    rank = math.ceil(q * len(sorted_us))
    return sorted_us[max(rank, 1) - 1]


def _finish(
    spec: BenchSpec,
    errors: int,
    elapsed_s: float,
    latencies_s: list[float],
    stats: StoreStats,
    untimed_s: float,
) -> BenchReport:
    completed = len(latencies_s)
    iops = completed / elapsed_s if elapsed_s > 0 else 0.0
    bandwidth = iops * spec.block_size / 1e6
    us = sorted(lat * 1e6 for lat in latencies_s) or [0.0]  # no put: all zeros
    return BenchReport(
        spec=spec,
        completed=completed,
        errors=errors,
        elapsed_s=elapsed_s,
        iops=iops,
        bandwidth_mbps=bandwidth,
        latency_us={
            "min": us[0],
            "mean": statistics.fmean(us),
            "p50": _percentile(us, 0.50),
            "p95": _percentile(us, 0.95),
            "p99": _percentile(us, 0.99),
            "max": us[-1],
        },
        raw_bytes=stats.raw_bytes,
        stored_bytes=stats.stored_bytes,
        untimed_s=untimed_s,
    )


class _FifoLink:
    """One direction of the modeled pipe: serialize, then propagate.

    A transfer occupies the link for size/bandwidth seconds starting
    no earlier than the link is free — transfers queue in the order
    they are presented — and arrives a fixed latency after its last
    byte leaves.
    """

    def __init__(self, bandwidth_bytes_s: float, latency_s: float):
        self._bandwidth = bandwidth_bytes_s
        self._latency = latency_s
        self._free_at = 0.0

    def deliver(self, now: float, size: int) -> float:
        start = max(now, self._free_at)
        self._free_at = start + size / self._bandwidth
        return self._free_at + self._latency


class _WorkerPool:
    """Fixed pool of workers, each busy until its current job's end time."""

    def __init__(self, workers: int):
        self._free_at = [0.0] * workers

    def run(self, now: float, service_s: float) -> float:
        start = max(now, heapq.heappop(self._free_at))
        done = start + service_s
        heapq.heappush(self._free_at, done)
        return done


def _drive(
    spec: BenchSpec,
    store: ObjectStore,
    policy: ObjectPolicy,
    now: Callable[[], float],
    finished_at: Callable[[float, ObjectManifest], float],
) -> BenchReport:
    """The closed loop both transports run, on the clock `now`.

    Submits puts through `ObjectStore.submit_put` until `iodepth` are
    pending or the op or time budget is spent, then finishes the oldest,
    as fio's iodepth does with an async engine.  A put's latency runs
    from its submit to `finished_at(submit time, manifest)`.  Failed
    puts count as errors and contribute no latency sample.

    Making an operation's name and block is not timed: each input is
    made just before its submit, and the time spent making it is
    reported as `untimed_s` and left out of both the elapsed time and
    the runtime budget.
    """
    latencies: list[float] = []
    errors = 0
    pending = deque()  # (submit time, finisher) per pending put, oldest first
    index = 0
    untimed = 0.0
    begin = now()
    while True:
        if spec.ops is not None:
            more = index < spec.ops
        else:
            more = now() - begin - untimed < spec.runtime_s
        if more and len(pending) < spec.iodepth:
            made = now()
            name, block = _op_input(spec, index)
            untimed += now() - made
            index += 1
            begun = now()
            try:
                pending.append((begun, store.submit_put(name, block, policy)))
            except (StoreError, ClientError):
                errors += 1
        elif pending:
            begun, finish = pending.popleft()
            try:
                manifest = finish()
            except (StoreError, ClientError):
                errors += 1
            else:
                latencies.append(finished_at(begun, manifest) - begun)
        else:
            break
    elapsed = now() - begin - untimed
    return _finish(spec, errors, elapsed, latencies, store.stats, untimed)


def _run_sim(spec: BenchSpec) -> BenchReport:
    """Virtual-time run: real transforms, modeled timing.

    Runs `_drive` on a virtual clock that reads the modeled finish time
    of the last put to finish, starting at 0.  Finishing a put prices
    it on the links and the one worker pool its mode uses.  Every op of
    a run has the same block size, so the same service time, and links
    and pools serve in arrival order: puts finish in the order they
    were submitted, so finishing the oldest is exact.  A `none` put
    makes no call, so it costs only the client overhead in either mode.
    """
    sim = spec.sim
    latency_s = sim.latency_us / 1e6
    bandwidth = sim.bandwidth_mbps * 1e6
    overhead_s = sim.client_overhead_us / 1e6
    egress = _FifoLink(bandwidth, latency_s)
    ingress = _FifoLink(bandwidth, latency_s)
    compressor = spec.mode == MODE_COMPRESSOR
    pool = _WorkerPool(sim.local_workers if compressor else sim.server_workers)
    service_s = (sim.service_fixed_us + sim.service_us_per_byte * spec.block_size) / 1e6
    request_size = protocol.HEADER_SIZE + _params_overhead(spec) + spec.block_size
    clock = 0.0

    def finished_at(begun: float, manifest: ObjectManifest) -> float:
        nonlocal clock
        ready = begun + overhead_s
        if spec.transform == "none":
            clock = ready  # the store makes no call
        elif compressor:
            clock = pool.run(ready, service_s)
        else:
            arrived = egress.deliver(ready, request_size)
            served = pool.run(arrived, service_s)
            stored = sum(p.length for p in manifest.placements)
            clock = ingress.deliver(served, protocol.HEADER_SIZE + stored)
        return clock

    store = _build_store(spec)
    return _drive(spec, store, spec.policy, lambda: clock, finished_at)


def _run_tcp(spec: BenchSpec) -> BenchReport:
    """Wall-clock run against a real loopback server.

    Runs `_drive` on `time.perf_counter`, from the calling thread.  In
    instance mode the pending puts' calls share one pipelined
    connection; compressor mode starts no server, and its in-process
    transform runs during submit.
    """
    serving = (
        Server(ServerConfig(), default_registry())
        if spec.mode == MODE_INSTANCE
        else contextlib.nullcontext()
    )
    with serving as server:
        client = None
        if server is not None:
            config = ClientConfig(MODE_REMOTE, server.address, timeout_ms=60_000.0)
            client = Client(config)
        try:
            store = _build_store(spec)
            policy = replace(spec.policy, client=client)
            wall = time.perf_counter
            return _drive(spec, store, policy, wall, lambda begun, manifest: wall())
        finally:
            if client is not None:
                client.close()


def run(spec: BenchSpec) -> BenchReport:
    """Execute one benchmark run and summarize it."""
    if spec.transport == TRANSPORT_SIM:
        return _run_sim(spec)
    return _run_tcp(spec)


def sweep(base: BenchSpec, iodepths: list[int]) -> list[BenchReport]:
    """Run `base` once per iodepth, fresh store each time.

    Each run's seed is base.seed + iodepth, so different depths see
    different (but reproducible) data.
    """
    if not iodepths:
        raise InvalidSpec("sweep needs at least one iodepth")
    return [
        run(replace(base, iodepth=depth, seed=base.seed + depth))
        for depth in iodepths
    ]


def compare(
    a: list[BenchReport], b: list[BenchReport]
) -> list[ComparisonRow]:
    """Per-iodepth ratio of a's headline metric to b's.

    Both sweeps must cover the same iodepth grid with the same
    workload and block size; differing grids have no meaningful
    row-wise ratio.
    """
    if len(a) != len(b) or not a:
        raise InvalidComparison("result sets must be non-empty and equal length")
    rows = []
    for left, right in zip(a, b):
        if left.spec.iodepth != right.spec.iodepth:
            raise InvalidComparison(
                f"iodepth grids differ: {left.spec.iodepth} vs {right.spec.iodepth}"
            )
        if (
            left.spec.workload != right.spec.workload
            or left.spec.block_size != right.spec.block_size
        ):
            raise InvalidComparison("workload or block size differs between sweeps")
        metric = _HEADLINE_METRIC[left.spec.workload]
        mine, theirs = getattr(left, metric), getattr(right, metric)
        if theirs == 0:
            raise InvalidComparison("denominator metric is zero")
        rows.append(
            ComparisonRow(left.spec.iodepth, metric, mine, theirs, mine / theirs)
        )
    return rows


# ---------------------------------------------------------------------------
# Rendering


def render_table(reports: list[BenchReport]) -> str:
    """Aligned text table, one row per report."""
    headers = (
        "mode", "iodepth", "ops", "err", "elapsed_s", "IOPS",
        "MB/s", "lat_mean_us", "p50", "p95", "p99", "max",
    )
    rows = [headers]
    for report in reports:
        rows.append((
            report.spec.mode,
            str(report.spec.iodepth),
            str(report.completed),
            str(report.errors),
            f"{report.elapsed_s:.3f}",
            f"{report.iops:.1f}",
            f"{report.bandwidth_mbps:.2f}",
            *(
                f"{report.latency_us[key]:.1f}"
                for key in ("mean", "p50", "p95", "p99", "max")
            ),
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(headers))]
    lines = [
        "  ".join(cell.rjust(widths[col]) for col, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join(lines)


def render_comparison(rows: list[ComparisonRow]) -> str:
    lines = [f"{'iodepth':>7}  {'instance':>12}  {'compressor':>12}  {'ratio':>6}"]
    for row in rows:
        lines.append(
            f"{row.iodepth:>7}  {row.instance:>12.1f}  {row.compressor:>12.1f}"
            f"  {row.ratio:>6.3f}"
        )
    return "\n".join(lines)


def render_reference() -> str:
    """The published reference measurements as text tables."""
    out = ["reference: randwrite 4KB IOPS (instance / compressor)"]
    for depth, (instance, compressor) in REFERENCE_RANDWRITE_4K_IOPS.items():
        out.append(f"{depth:>7}  {instance:>12.0f}  {compressor:>12.0f}")
    out.append("")
    out.append("reference: write 64KB MB/s (instance / compressor)")
    for depth, (instance, compressor) in REFERENCE_WRITE_64K_MBPS.items():
        out.append(f"{depth:>7}  {instance:>12.1f}  {compressor:>12.1f}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# CLI


def _parse_runtime(text: str) -> float:
    match = re.fullmatch(r"(\d+(?:\.\d+)?)(ms|s|m)?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"bad duration {text!r} (try 30s or 500ms)")
    value = float(match.group(1))
    unit = match.group(2) or "s"
    return value * {"ms": 1e-3, "s": 1.0, "m": 60.0}[unit]


def _parse_size(text: str) -> int:
    match = re.fullmatch(r"(\d+)([kKmM])?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"bad size {text!r} (try 4k or 65536)")
    value = int(match.group(1))
    unit = (match.group(2) or "").lower()
    return value * {"": 1, "k": 1024, "m": 1024 * 1024}[unit]


def _parse_iodepths(text: str) -> list[int]:
    try:
        depths = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad iodepth list {text!r}")
    if not depths or any(depth < 1 for depth in depths):
        raise argparse.ArgumentTypeError("iodepths must be positive integers")
    return depths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="msfm-bench",
        description="Closed-loop put benchmark: offloaded vs in-process transforms.",
    )
    parser.add_argument("--workload", choices=_WORKLOADS, default=WORKLOAD_RANDWRITE)
    parser.add_argument(
        "--bs", type=_parse_size, default=4096, help="block size (e.g. 4k, 64k)"
    )
    parser.add_argument(
        "--iodepth", type=_parse_iodepths, default=[1],
        help="in-flight ops; comma list sweeps (e.g. 1,2,4,8)",
    )
    parser.add_argument(
        "--mode", choices=_MODES + ("both",), default=MODE_INSTANCE,
        help="'both' runs the two modes and prints their ratio per iodepth",
    )
    parser.add_argument(
        "--runtime", type=_parse_runtime, default=None,
        help="time budget per run (default 30s unless --ops is given)",
    )
    parser.add_argument("--ops", type=int, default=None, help="op budget per run")
    parser.add_argument("--transform", choices=miniobj.TRANSFORMS, default="compress")
    parser.add_argument("--codec", choices=sorted(_CODEC_BY_NAME), default="rle0")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--zero-fraction", type=float, default=0.5)
    parser.add_argument("--transport", choices=_TRANSPORTS, default=TRANSPORT_SIM)
    parser.add_argument("--sim-latency-us", type=float, default=None)
    parser.add_argument("--sim-bw-mbps", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--paper-reference", action="store_true",
        help="append the published reference measurements to the output",
    )
    args = parser.parse_args(argv)

    sim_kwargs = {}
    if args.sim_latency_us is not None:
        sim_kwargs["latency_us"] = args.sim_latency_us
    if args.sim_bw_mbps is not None:
        sim_kwargs["bandwidth_mbps"] = args.sim_bw_mbps

    runtime = args.runtime
    if args.ops is None and runtime is None:
        runtime = 30.0

    try:
        base = BenchSpec(
            workload=args.workload,
            block_size=args.bs,
            iodepth=1,
            mode=MODE_INSTANCE if args.mode == "both" else args.mode,
            transform=args.transform,
            codec_id=_CODEC_BY_NAME[args.codec],
            k=args.k,
            m=args.m,
            ops=args.ops,
            runtime_s=runtime,
            zero_fraction=args.zero_fraction,
            transport=args.transport,
            sim=SimParams(**sim_kwargs),
            seed=args.seed,
        )
        if args.out:
            # Checked before the first run, not after the whole sweep; a
            # report already there stays until the sweep is done.
            try:
                open(args.out, "a").close()
            except OSError as exc:
                raise BenchError(f"cannot write --out {args.out}: {exc}") from None

        reports = sweep(base, args.iodepth)
        comparison = None
        if args.mode == "both":
            other = sweep(replace(base, mode=MODE_COMPRESSOR), args.iodepth)
            comparison = compare(reports, other)
            reports = reports + other
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(render_table(reports))
    if comparison is not None:
        print()
        print(render_comparison(comparison))
    if args.paper_reference:
        print()
        print(render_reference())

    if args.out:
        document = {"reports": [report.to_dict() for report in reports]}
        if comparison is not None:
            document["comparison"] = [asdict(row) for row in comparison]
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
