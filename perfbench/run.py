"""Run one benchmark workload against the msfm sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs itself and the server process on one CPU (see
`pin_to_one_cpu`).  With ``--trace 0`` it sets the workload up, runs
the timed phase on that set-up in segments (see SEGMENT_S below),
setting the workload up once more after each of the first segments,
and prints the end-to-end metrics; setup_s is the slowest set-up.  With
``--trace 1`` it runs the phase twice, untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
gives the run's conditions and reference figures, which are not
metrics.  Everything the run writes goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


class Conditions:
    """Machine conditions of a run, reported beside the metrics."""

    def __init__(self) -> None:
        from perfbench.workloads import steal_ticks

        self.steal0 = steal_ticks()
        self.load0 = os.getloadavg()

    def finish(self) -> dict:
        from perfbench.workloads import steal_ticks

        return {
            "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_start": self.load0,
            "loadavg_end": os.getloadavg(),
            "steal_ticks": steal_ticks() - self.steal0,
        }


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    The workloads are closed loops: the benchmark and the server wait
    for each other, so one CPU holds the whole critical path.  Spread
    over two virtual CPUs, every hand-off between threads wakes a CPU
    that the host has to schedule first, and how long that takes
    depends on the host's other tenants (see README.md).
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _set_up(cls, seed: int, tag: str, trace: bool = False):
    from perfbench.workloads import Workload

    workload: Workload = cls(seed, OUT, tag, trace)
    try:
        workload.setup()
    except BaseException:
        workload.abort()
        raise
    return workload


def _run_phase(workload, *plan, **options):
    try:
        phase = workload.run_phase(*plan, **options)
    except BaseException:
        workload.abort()
        raise
    return phase, workload.close()


# The timed phase runs --seconds / SEGMENT_S segments of about SEGMENT_S
# seconds of work each.  The host this was written on disturbs runs in
# two ways (see README.md).  It steals CPU time in bursts, which shows
# in the steal ticks of /proc/stat: while fewer segments than that are
# quiet, having lost at most QUIET_SHARE of the machine's CPU time that
# way, more segments run with the next rounds, but none starts once the
# phase has taken RETRY times --seconds.  The quietest --seconds /
# SEGMENT_S segments are measured, so every run measures as many.  The
# host also switches, for seconds at a time and visibly nowhere,
# between a common slow state and a fast state about 1.5 times quicker,
# and some runs spend nearly all their time in the fast one: so each
# metric is its worst value over the measured segments, which lands in
# the common state unless the fast one lasts through all of them.
SEGMENT_S = 2.0
QUIET_SHARE = 0.03
RETRY = 1.5
# name -> (unit, the worst of the measured segments' values)
SEGMENT_METRICS = {
    "ops_s": ("ops/s", min),
    "write_p50_us": ("us", max),
    "write_p90_us": ("us", max),
    "read_p50_us": ("us", max),
    "read_p90_us": ("us", max),
    "cpu_us_per_op": ("us/op", max),
}


def segment_metrics(phase, segment) -> dict[str, float]:
    from perfbench.summary import summarize

    write = summarize(phase.write_s[segment.writes])
    read = summarize(phase.read_s[segment.reads])
    cpu_s = segment.app_cpu_s + segment.server_cpu_s
    return {
        "ops_s": segment.completed / segment.elapsed_s,
        "write_p50_us": write["p50"] * 1e6,
        "write_p90_us": write["p90"] * 1e6,
        "read_p50_us": read["p50"] * 1e6,
        "read_p90_us": read["p90"] * 1e6,
        "cpu_us_per_op": cpu_s / segment.completed * 1e6,
        "steal_share": segment.steal_share,
        "kept": segment in phase.kept,
    }


def phase_figures(phase) -> dict[str, tuple[float, str]]:
    """Each segment metric's worst value over the measured segments."""
    kept = [segment_metrics(phase, segment) for segment in phase.kept]
    return {
        name: (worst(seg[name] for seg in kept), unit)
        for name, (unit, worst) in SEGMENT_METRICS.items()
    }


def phase_plan(cls, seconds: float) -> tuple:
    """run_phase arguments for an end-to-end phase of about `seconds`."""
    keep = max(1, round(seconds / SEGMENT_S))
    rounds = cls.segment_rounds(seconds / keep)
    return rounds, keep, QUIET_SHARE, RETRY * seconds


def end_to_end(cls, seed: int, seconds: float, tag: str) -> tuple[dict, object]:
    from perfbench.summary import summarize

    setup_s = []

    def set_up():
        begin = time.perf_counter()
        workload = _set_up(cls, seed, f"{tag}-{len(setup_s)}")
        setup_s.append(time.perf_counter() - begin)
        return workload

    # Set-ups spread over the phase, one before it and one after each
    # of its first `keep` segments, meet the host's slow and fast
    # states alike (see README.md), where set-ups in a row would all
    # meet the same one; like the segment metrics, setup_s is the worst.
    plan = phase_plan(cls, seconds)
    keep = plan[1]

    def between_segments():
        if len(setup_s) <= keep:
            set_up().close()

    phase, server_report = _run_phase(set_up(), *plan, between=between_segments)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if server_report is not None:
        peak_kb += server_report["peak_rss_kb"]
    metrics = {"setup_s": (max(setup_s), "s")}
    metrics.update(phase_figures(phase))
    metrics["stored_per_raw"] = (phase.stored_bytes / phase.raw_bytes, "ratio")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    write, read = summarize(phase.write_s), summarize(phase.read_s)
    reference = {
        "write_p99_us": write["p99"] * 1e6,
        "read_p99_us": read["p99"] * 1e6,
        "write_samples": write["n"],
        "read_samples": read["n"],
        "elapsed_s": phase.elapsed_s,
        "setup_s_each": setup_s,
        "segments": [segment_metrics(phase, seg) for seg in phase.segments],
    }
    return {"metrics": metrics, "reference": reference}, phase


def per_layer(cls, seed: int, seconds: float, tag: str) -> tuple[dict, object]:
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer, install_client_layers

    # Two phases of half the work each: untraced, then traced.
    rounds = cls.segment_rounds(seconds / 2)
    plain, _ = _run_phase(_set_up(cls, seed, f"{tag}-plain"), rounds)
    plain_ops_s = plain.completed / plain.elapsed_s

    workload = _set_up(cls, seed, f"{tag}-traced", trace=True)
    tracer = Tracer()
    workload.tracer = tracer
    install_client_layers(tracer)
    try:
        phase, server_report = _run_phase(workload, rounds)
    finally:
        tracer.uninstall()
    server_spans = server_report["spans"] if server_report else []
    traces = OUT / f"{tag}-client-trace.json"
    traces.write_text(json.dumps(tracer.spans, separators=(",", ":")))
    metrics = layer_metrics(tracer.spans, server_spans, phase, server_report, plain_ops_s)
    for name in ("gfec.rebuilds", "miniobj.degraded_reads"):
        if metrics[name][0] != workload.predicted_gets:
            phase.problems.append(
                f"{name} is {metrics[name][0]}, placement predicts "
                f"{workload.predicted_gets}"
            )
    phase.problems += plain.problems
    phase.attempted += plain.attempted
    phase.failed += plain.failed
    reference = {"plain_ops_s": plain_ops_s, "rounds": rounds}
    return {"metrics": metrics, "reference": reference}, phase


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that the server process is
    # stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "msfm" / "__init__.py").is_file():
        print(f"perfbench: no msfm package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    conditions = Conditions()
    measure = per_layer if args.trace else end_to_end
    result, phase = measure(cls, args.seed, args.seconds, tag)

    for problem in phase.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not phase.problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "conditions": conditions.finish(),
        "reference": result["reference"],
    }
    (OUT / f"{tag}.json").write_text(json.dumps({**side, **summary}, indent=1) + "\n")
    print(json.dumps(side))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
