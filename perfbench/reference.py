"""Reference figures for README.md that are not benchmark metrics.

    python3 perfbench/reference.py

Runs the offload-rle0-64k loop on seed SEED for SECONDS seconds in the
paper's two execution modes, PAIRS times each, alternating:
"instance" (rle0 on a separate msfm-server process, as in the
benchmark) and "compressor" (the same loop with the store's in-process
client), on one CPU as run.py does.  Prints each mode's figures, as
run.py computes them, the median over the runs of each mode, and the
instance / compressor ratios, followed by the paper-side reference
tables that msfm.bench carries.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 1
SECONDS = 10
PAIRS = 3


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from msfm import bench
    from perfbench.run import OUT, phase_figures, phase_plan, pin_to_one_cpu
    from perfbench.workloads import OffloadRle0

    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    plan = phase_plan(OffloadRle0, SECONDS)
    figures: dict[str, list[dict]] = {"instance": [], "compressor": []}
    for pair in range(PAIRS):
        for mode in ("instance", "compressor"):
            tag = f"reference-{mode}-{pair}"
            workload = OffloadRle0(SEED, OUT, tag, remote=mode == "instance")
            workload.setup()
            try:
                phase = workload.run_phase(*plan)
            finally:
                workload.close()
            if phase.problems or phase.failed:
                print(f"{mode}: {phase.failed} failed, problems {phase.problems[:3]}")
                return 1
            row = {name: value for name, (value, _) in phase_figures(phase).items()}
            figures[mode].append(row)
            print(mode, {name: round(value, 1) for name, value in row.items()})

    medians = {
        mode: {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        for mode, rows in figures.items()
    }
    print(f"\noffload-rle0-64k, seed {SEED}, median of {PAIRS} runs per mode")
    print(f"{'metric':16s} {'instance':>10s} {'compressor':>10s} {'ratio':>7s}")
    for name in medians["instance"]:
        a, b = medians["instance"][name], medians["compressor"][name]
        print(f"{name:16s} {a:10.1f} {b:10.1f} {a / b:7.3f}")
    print()
    print(bench.render_reference())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
