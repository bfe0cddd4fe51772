"""The msfm package itself: its exports and its module entry points."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import msfm

LIBRARY_NAMES = [
    "Client",
    "ClientConfig",
    "ObjectPolicy",
    "ObjectStore",
    "Server",
    "ServerConfig",
    "default_registry",
]


def test_the_package_exports_the_library_names_only():
    assert sorted(msfm.__all__) == LIBRARY_NAMES
    for name in LIBRARY_NAMES:
        assert getattr(msfm, name) is not None
    # Codec, erasure-coding and wire names come from their own modules.
    for name in ("compress", "ec_encode", "encode_frame", "ShardSet", "BenchSpec"):
        with pytest.raises(AttributeError):
            getattr(msfm, name)


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
