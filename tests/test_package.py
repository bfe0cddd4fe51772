"""The msfm package itself: its exports and its module entry points."""

import os
import subprocess
import sys
from pathlib import Path


def test_module_entry_points_start_without_a_runtime_warning():
    # `python -m msfm.X` imports the package first; if the package had
    # imported msfm.X already, runpy would warn and run it a second time.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("msfm.server", "msfm.miniobj", "msfm.bench"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, (module, proc.stderr.decode())
