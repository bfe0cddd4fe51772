"""The msfm-server process of the offload workloads.

Run as a script, this is the server process itself: it calls
``msfm.server.main`` with the program's defaults, except that it
listens on an ephemeral loopback port, and when ``--trace 1`` is given
it wraps the function layers first (see tracing.py).  After main
returns on SIGTERM, it writes a JSON report to ``--report``: its own
CPU seconds, its peak RSS and, in traced runs, its spans.

Imported, `ServerProcess` starts and stops that script from the
benchmark process and reads the server's CPU time while it runs.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcessError(Exception):
    """The server process did not start or stop as expected."""


def _proc_cpu_s(pid: int) -> float:
    """CPU time of a live process's threads, in nanosecond steps.

    The first field of /proc/<pid>/task/<tid>/schedstat is the time the
    thread has run.  Threads that have ended no longer count, which does
    not matter between two readings while one connection is open: the
    server's threads then stay up.
    """
    total = 0
    for path in Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(path.read_text().split()[0])
        except OSError:  # the thread ended after the listing
            continue
    return total / 1e9


def _catches_sigterm(pid: int) -> bool:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigCgt:"):
            return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
    return False


class ServerProcess:
    """One msfm-server child process: start, then stop or kill."""

    def __init__(self, out_dir: Path, tag: str, trace: bool = False):
        self.trace = trace
        self._report_path = out_dir / f"{tag}-server.json"
        self._log_path = out_dir / f"{tag}-server.log"
        self._proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Start the process; return once it prints its listen address."""
        self._report_path.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [
                    sys.executable,
                    "-u",
                    str(HERE / "serverproc.py"),
                    "--trace",
                    "1" if self.trace else "0",
                    "--report",
                    str(self._report_path),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=ROOT,
            )
        assert self._proc.stdout is not None
        ready, _, _ = select.select([self._proc.stdout], [], [], START_TIMEOUT_S)
        line = self._proc.stdout.readline().decode() if ready else ""
        if not line.startswith("msfm-server listening on "):
            self.kill()
            raise ServerProcessError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.address = (host, int(port))
        return self.address

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def cpu_s(self) -> float:
        """CPU seconds the running server's threads have used so far."""
        return _proc_cpu_s(self.pid)

    def stop(self) -> dict:
        """SIGTERM the server, wait for it, and return its report."""
        proc = self._proc
        if proc is None:
            raise ServerProcessError("server was never started")
        # main() prints its address before installing its SIGTERM
        # handler; a signal sent in between would kill it unreported.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while proc.poll() is None and not _catches_sigterm(proc.pid):
            if time.monotonic() > deadline:
                break
            time.sleep(0.001)
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerProcessError("server did not stop on SIGTERM") from None
        finally:
            assert proc.stdout is not None
            proc.stdout.close()
        self._proc = None
        if code != 0:
            raise ServerProcessError(f"server exited with code {code}")
        return json.loads(self._report_path.read_text())

    def kill(self) -> None:
        """Stop the process at once, without a report."""
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def _serve(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True, type=Path)
    args = parser.parse_args(argv)

    from msfm import server

    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install_function_layers

        tracer = Tracer()
        install_function_layers(tracer)
    code = server.main(["--listen", "127.0.0.1:0"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_kb": usage.ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    tmp = args.report.with_suffix(".tmp")
    tmp.write_text(json.dumps(report, separators=(",", ":")))
    tmp.replace(args.report)
    return code


if __name__ == "__main__":
    raise SystemExit(_serve(sys.argv[1:]))
