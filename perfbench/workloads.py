"""The three workloads, run as whole rounds of real calls.

A round is the same list of operations in every run and on every
seed.  A timed phase runs segments of equal whole rounds (see
`Workload.run_phase`); the rounds per segment come from the requested
seconds and `nominal_ops_s`, about the rate the workload ran at when
the benchmark was written, so a faster program does the same work
sooner.

Each workload checks every output it gets against `checks`, which is
written apart from the program, inside `Phase.untimed`, so that no
check counts in a segment's time or CPU.  Failed calls are counted,
not retried.  Checks that find wrong bytes add a line to
`Phase.problems`, which makes the run report ``"correct": false``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from msfm import codec
from msfm.client import Client, ClientConfig, ClientError, MODE_IN_PROCESS, MODE_REMOTE
from msfm.miniobj import ObjectPolicy, ObjectStore, StoreError
from msfm.protocol import CompressParams, DecompressParams, FunctionId

from . import checks
from .blocks import make_blocks
from .serverproc import ServerProcess
from .tracing import Tracer

OSD_COUNT = 6


def steal_ticks() -> int:
    """CPU time stolen from this machine by its host, in clock ticks."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


@dataclass(eq=False)
class Segment:
    """One slice of a timed phase: sample index ranges, time and CPU.

    `elapsed_s` and `app_cpu_s` leave out the checks; `wall_s` is the
    whole slice.
    """

    writes: slice
    reads: slice
    completed: int
    wall_s: float
    elapsed_s: float
    app_cpu_s: float
    server_cpu_s: float
    steal_ticks: int

    @property
    def steal_share(self) -> float:
        """Share of the machine's CPU time the host stole meanwhile."""
        ticks = self.wall_s * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
        return self.steal_ticks / ticks


@dataclass
class Phase:
    """What one timed phase did and measured, in segments of equal work.

    Totals count every segment run; `kept` are the segments measured.
    """

    write_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raw_bytes: int = 0
    stored_bytes: int = 0
    segments: list[Segment] = field(default_factory=list)
    kept: list[Segment] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    untimed_s: float = 0.0
    untimed_cpu_s: float = 0.0

    @contextmanager
    def untimed(self):
        """Leave the time and CPU spent inside out of the segment's."""
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - wall
            self.untimed_cpu_s += time.process_time() - cpu

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def wall_s(self) -> float:
        return sum(seg.wall_s for seg in self.segments)

    @property
    def elapsed_s(self) -> float:
        return sum(seg.elapsed_s for seg in self.segments)

    @property
    def app_cpu_s(self) -> float:
        return sum(seg.app_cpu_s for seg in self.segments)

    @property
    def server_cpu_s(self) -> float:
        return sum(seg.server_cpu_s for seg in self.segments)


class Workload:
    name = ""
    # Degraded gets the placement rule predicts for the rounds run so far.
    predicted_gets = 0
    round_ops = 0
    nominal_ops_s = 0.0
    uses_server = False

    def __init__(self, seed: int, out_dir: Path, tag: str, trace: bool = False):
        self.seed = seed
        self.tracer: Tracer | None = None
        self.server: ServerProcess | None = None
        if self.uses_server:
            self.server = ServerProcess(out_dir, tag, trace)

    @classmethod
    def segment_rounds(cls, seconds: float) -> int:
        """Whole rounds for about `seconds` of work at nominal_ops_s."""
        return max(1, round(seconds * cls.nominal_ops_s / cls.round_ops))

    def setup(self) -> None:
        """Start the server if any, connect, and make every input."""
        raise NotImplementedError

    def run_round(self, index: int, phase: Phase) -> None:
        raise NotImplementedError

    def verify(self, phase: Phase) -> None:
        """Checks too slow to make inside the timed loop."""

    def close(self) -> dict | None:
        """Release everything; return the server's report, if any."""
        if self.server is None:
            return None
        return self.server.stop()

    def abort(self) -> None:
        if self.server is not None:
            self.server.kill()

    def run_phase(
        self,
        rounds: int,
        keep: int = 1,
        quiet_share: float = 1.0,
        retry_s: float = 0.0,
        between: Callable[[], None] | None = None,
    ) -> Phase:
        """Run `keep` segments of `rounds` rounds each, and more if disturbed.

        A segment is quiet when the host stole at most `quiet_share` of
        the machine's CPU time during it.  After the first `keep`,
        segments run until `keep` are quiet, but none starts once the
        phase has taken `retry_s` seconds.  `Phase.kept` lists the
        segments measured: always the `keep` quietest.  `between`, if
        given, is called after each segment, outside its time.
        """
        phase = Phase()
        stats = self.store_stats()
        index = 0
        while True:
            writes, reads, completed = len(phase.write_s), len(phase.read_s), phase.completed
            untimed_s, untimed_cpu_s = phase.untimed_s, phase.untimed_cpu_s
            cpu0 = time.process_time()
            server_cpu0 = self.server.cpu_s() if self.server else 0.0
            steal0 = steal_ticks()
            begin = time.perf_counter()
            for _ in range(rounds):
                self.run_round(index, phase)
                index += 1
            wall = time.perf_counter() - begin
            app_cpu = time.process_time() - cpu0
            server_cpu = self.server.cpu_s() - server_cpu0 if self.server else 0.0
            phase.segments.append(
                Segment(
                    writes=slice(writes, len(phase.write_s)),
                    reads=slice(reads, len(phase.read_s)),
                    completed=phase.completed - completed,
                    wall_s=wall,
                    elapsed_s=wall - (phase.untimed_s - untimed_s),
                    app_cpu_s=app_cpu - (phase.untimed_cpu_s - untimed_cpu_s),
                    server_cpu_s=server_cpu,
                    steal_ticks=steal_ticks() - steal0,
                )
            )
            if between is not None:
                between()
            if len(phase.segments) < keep:
                continue
            quiet = sum(seg.steal_share <= quiet_share for seg in phase.segments)
            if quiet >= keep or phase.wall_s >= retry_s:
                break
        quietest = sorted(phase.segments, key=lambda seg: seg.steal_share)[:keep]
        phase.kept = [seg for seg in phase.segments if seg in quietest]
        if stats is not None:
            raw, stored = self.store_stats()
            phase.raw_bytes += raw - stats[0]
            phase.stored_bytes += stored - stats[1]
        self.verify(phase)
        return phase

    def store_stats(self) -> tuple[int, int] | None:
        store = getattr(self, "store", None)
        if store is None:
            return None
        return store.stats.raw_bytes, store.stats.stored_bytes


def _remote_client(address: tuple[str, int]) -> Client:
    return Client(ClientConfig(mode=MODE_REMOTE, address=address))


class OffloadRle0(Workload):
    """Put a 64 KiB block through msfm-server's rle0, then get it back."""

    name = "offload-rle0-64k"
    block_size = 64 * 1024
    names = 16
    blocks = 32
    round_ops = 2 * names
    nominal_ops_s = 750.0
    uses_server = True

    def __init__(self, *args, remote: bool = True, **kwargs):
        self.uses_server = remote
        super().__init__(*args, **kwargs)

    def setup(self) -> None:
        self.client = None
        if self.server is not None:
            self.client = _remote_client(self.server.start())
        self.store = ObjectStore(osd_count=OSD_COUNT)
        self.policy = ObjectPolicy.compress(codec.CODEC_RLE0, client=self.client)
        self.inputs = make_blocks(self.seed, self.name, self.blocks, self.block_size)
        self.blob_of: dict[int, bytes] = {}

    def run_round(self, index: int, phase: Phase) -> None:
        store, policy, client = self.store, self.policy, self.client
        clock = time.perf_counter
        got: list[tuple[str, int, bytes]] = []
        for slot in range(self.names):
            which = (index * self.names + slot) % self.blocks
            name = f"obj-{slot}"
            phase.attempted += 2
            begin = clock()
            try:
                store.put(name, self.inputs[which], policy)
            except (StoreError, ClientError):
                phase.failed += 2
                continue
            put_done = clock()
            try:
                data = store.get(name, client)
            except (StoreError, ClientError):
                phase.failed += 1
                continue
            get_done = clock()
            phase.write_s.append(put_done - begin)
            phase.read_s.append(get_done - put_done)
            got.append((name, which, data))
        with phase.untimed():
            # Each name is put once a round, so it still holds this block.
            for name, which, data in got:
                if data != self.inputs[which]:
                    phase.problems.append(f"get {name} returned other bytes")
                placement = store.manifest(name).placements[0]
                blob = store.osds[placement.osd].read(placement.key)
                if self.blob_of.setdefault(which, blob) != blob:
                    phase.problems.append(f"block {which} stored two different ways")

    def verify(self, phase: Phase) -> None:
        for which, blob in sorted(self.blob_of.items()):
            try:
                checks.check_rle0_block(blob, self.inputs[which])
            except checks.CheckFailed as exc:
                phase.problems.append(f"stored block {which}: {exc}")

    def close(self) -> dict | None:
        if self.client is not None:
            self.client.close()
        return super().close()


class RebuildCountingClient(Client):
    """An in-process client that counts the decodes that rebuild data.

    An EC_DECODE request whose present bitmap lacks a data shard must
    rebuild it, so `rebuilds` counts degraded gets from what the store
    asks of the function layer, whatever the decoder does inside.
    """

    def __init__(self) -> None:
        super().__init__(ClientConfig(mode=MODE_IN_PROCESS))
        self.rebuilds = 0

    def call(self, function_id, params, payload=b"", timeout_ms=None):
        if function_id == FunctionId.EC_DECODE:
            data_shards = (1 << params.k) - 1
            if params.present_bitmap & data_shards != data_shards:
                self.rebuilds += 1
        return super().call(function_id, params, payload, timeout_ms)


class LocalEc(Workload):
    """ec(4,2) puts with all OSDs up, then gets with one OSD down.

    A round is six cycles, one per OSD, so every object loses each of
    its six shards once per round: four of its six gets in a round
    rebuild a data shard, whatever the object names.
    """

    name = "local-ec-64k"
    block_size = 64 * 1024
    k, m = 4, 2
    objects = 24
    blocks = 2 * objects
    round_ops = OSD_COUNT * 2 * objects
    nominal_ops_s = 2400.0

    def setup(self) -> None:
        self.store = ObjectStore(osd_count=OSD_COUNT)
        self.client = RebuildCountingClient()
        self.policy = ObjectPolicy.ec(self.k, self.m, client=self.client)
        self.inputs = make_blocks(self.seed, self.name, self.blocks, self.block_size)
        self.object_names = [f"ec-{self.seed}-{j}" for j in range(self.objects)]
        self.predicted = [
            checks.predict_degraded(self.object_names, dead, self.k, OSD_COUNT)
            for dead in range(OSD_COUNT)
        ]
        self.predicted_gets = 0

    def run_round(self, index: int, phase: Phase) -> None:
        store, policy, client = self.store, self.policy, self.client
        clock = time.perf_counter
        for dead in range(OSD_COUNT):
            half = (index * OSD_COUNT + dead) % 2 * self.objects
            expected: list[bytes | None] = []
            put = []
            for j, name in enumerate(self.object_names):
                block = self.inputs[half + j]
                phase.attempted += 1
                begin = clock()
                try:
                    manifest = store.put(name, block, policy)
                except (StoreError, ClientError):
                    phase.failed += 1
                    expected.append(None)
                    continue
                phase.write_s.append(clock() - begin)
                expected.append(block)
                put.append((name, block, manifest))
            with phase.untimed():
                for name, block, manifest in put:
                    self._check_put(name, block, manifest, phase)
            store.kill_osd(dead)
            before = client.rebuilds
            got = []
            for name, block in zip(self.object_names, expected):
                phase.attempted += 1
                begin = clock()
                try:
                    data = store.get(name, client)
                except (StoreError, ClientError):
                    phase.failed += 1
                    continue
                phase.read_s.append(clock() - begin)
                if block is not None:
                    got.append((name, block, data))
            store.revive_osd(dead)
            rebuilt = client.rebuilds - before
            self.predicted_gets += self.predicted[dead]
            with phase.untimed():
                for name, block, data in got:
                    if data != block:
                        phase.problems.append(f"get {name} returned other bytes")
                if rebuilt != self.predicted[dead]:
                    phase.problems.append(
                        f"osd {dead} down: {rebuilt} rebuilds, placement predicts "
                        f"{self.predicted[dead]}"
                    )

    def _check_put(self, name: str, block: bytes, manifest, phase: Phase) -> None:
        shards = []
        for i, placement in enumerate(manifest.placements):
            if placement.osd != checks.shard_osd(name, i, OSD_COUNT):
                phase.problems.append(f"{name} shard {i} on osd {placement.osd}")
            shards.append(self.store.osds[placement.osd].read(placement.key))
        try:
            checks.check_ec_shards(block, shards, self.k)
        except checks.CheckFailed as exc:
            phase.problems.append(f"{name}: {exc}")

    def verify(self, phase: Phase) -> None:
        if 2 * phase.stored_bytes != 3 * phase.raw_bytes:
            phase.problems.append(
                f"ec(4,2) stored {phase.stored_bytes} bytes for {phase.raw_bytes}"
            )

    def close(self) -> dict | None:
        self.client.close()
        return super().close()


class FnPipelined(Workload):
    """Batches of 16 pipelined rle0 compress calls, then 16 decompress calls."""

    name = "fn-pipelined-4k"
    block_size = 4 * 1024
    depth = 16
    blocks = 256
    round_ops = 2 * depth
    nominal_ops_s = 360.0
    uses_server = True

    def setup(self) -> None:
        assert self.server is not None
        self.client = _remote_client(self.server.start())
        self.inputs = make_blocks(self.seed, self.name, self.blocks, self.block_size)
        self.compressed_of: dict[int, bytes] = {}

    def _batch(self, function_id, params, payloads, latencies, phase):
        """Submit every payload, then await each in order; None if failed."""
        client, clock, tracer = self.client, time.perf_counter, self.tracer
        sent = []
        for payload in payloads:
            phase.attempted += 1
            if payload is None:
                phase.failed += 1
                sent.append(None)
                continue
            begin = clock()
            try:
                sent.append((begin, client.submit(function_id, params, payload)))
            except ClientError:
                phase.failed += 1
                sent.append(None)
        results = []
        for item in sent:
            if item is None:
                results.append(None)
                continue
            begin, instance = item
            try:
                result = instance.await_result()
            except ClientError:
                phase.failed += 1
                results.append(None)
                continue
            end = clock()
            latencies.append(end - begin)
            if tracer is not None:
                tracer.record("client.call", begin, end, instance.correlation_id)
            results.append(result)
        return results

    def run_round(self, index: int, phase: Phase) -> None:
        which = [(index * self.depth + i) % self.blocks for i in range(self.depth)]
        raws = [self.inputs[w] for w in which]
        packed = self._batch(
            FunctionId.COMPRESS,
            CompressParams(codec.CODEC_RLE0),
            raws,
            phase.write_s,
            phase,
        )
        unpacked = self._batch(
            FunctionId.DECOMPRESS,
            DecompressParams(codec.CODEC_RLE0),
            packed,
            phase.read_s,
            phase,
        )
        with phase.untimed():
            for w, raw, blob, data in zip(which, raws, packed, unpacked):
                if blob is None:
                    continue
                phase.raw_bytes += len(raw)
                phase.stored_bytes += len(blob)
                if self.compressed_of.setdefault(w, blob) != blob:
                    phase.problems.append(f"block {w} compressed two different ways")
                if data is not None and data != raw:
                    phase.problems.append(f"decompress of block {w} returned other bytes")

    def verify(self, phase: Phase) -> None:
        # A response paired with another request would not decode to
        # this request's block: the blocks of a batch are distinct.
        for w, blob in sorted(self.compressed_of.items()):
            try:
                checks.check_rle0_block(blob, self.inputs[w])
            except checks.CheckFailed as exc:
                phase.problems.append(f"compress of block {w}: {exc}")

    def close(self) -> dict | None:
        self.client.close()
        return super().close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OffloadRle0, LocalEc, FnPipelined)
}
