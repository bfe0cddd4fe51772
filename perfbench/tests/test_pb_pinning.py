"""The benchmark runs itself and the processes it starts on one CPU."""

import os
import subprocess
import sys

from perfbench.run import ROOT


def test_pin_to_one_cpu_holds_for_child_processes():
    script = (
        "import os, subprocess, sys\n"
        "from perfbench.run import pin_to_one_cpu\n"
        "cpu = pin_to_one_cpu()\n"
        "child = subprocess.run([sys.executable, '-c',"
        " 'import os; print(sorted(os.sched_getaffinity(0)))'],"
        " capture_output=True, text=True, check=True)\n"
        "print(cpu, sorted(os.sched_getaffinity(0)), child.stdout.strip())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.strip().split(maxsplit=1)
    cpu = int(out[0])
    assert cpu == max(os.sched_getaffinity(0))
    assert out[1] == f"[{cpu}] [{cpu}]"
