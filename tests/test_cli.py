"""End-to-end checks of the command-line programs, each run as `python -m`."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_module(module, *args, env=None, timeout=120):
    """Run `python -m module args` with this checkout's package importable."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


def test_sim_reports_are_identical_across_hash_seeds(tmp_path):
    # Acceptance check #7 compares two sim runs inside one process.  Each
    # process hashes strings with its own seed, so a report that followed
    # set or hash order would differ between these two.
    reports = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"sim-hash-{hashseed}.json"
        proc = run_module(
            "msfm.bench",
            *("--mode", "both", "--transform", "ec", "--iodepth", "1,16"),
            *("--ops", "400", "--seed", "7", "--out", str(out)),
            env={"PYTHONHASHSEED": hashseed},
        )
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
