"""The server launcher starts msfm-server, stops it and reports its CPU."""

import os

import pytest

from msfm import Client, ClientConfig
from msfm.protocol import CompressParams, FunctionId
from perfbench.serverproc import ServerProcess, ServerProcessError


def _busy_server(tmp_path, trace):
    server = ServerProcess(tmp_path, "t", trace=trace)
    host, port = server.start()
    pid = server.pid
    client = Client(ClientConfig(mode="remote", address=(host, port)))
    try:
        for _ in range(20):
            assert client.call(
                FunctionId.COMPRESS, CompressParams(1), bytes(65536)
            ).startswith(b"\x01\x00")
    finally:
        client.close()
    return server, pid


def test_stop_ends_the_process_and_reports_its_cpu_time(tmp_path):
    server, pid = _busy_server(tmp_path, trace=False)
    running_cpu = server.cpu_s()
    report = server.stop()
    assert _is_gone(pid)
    assert report["cpu_s"] >= running_cpu > 0
    assert report["peak_rss_kb"] > 1024
    assert report["spans"] == []
    with pytest.raises(ServerProcessError):
        server.stop()


def test_traced_server_reports_dispatch_spans_with_correlation_ids(tmp_path):
    server, _ = _busy_server(tmp_path, trace=True)
    report = server.stop()
    dispatch = [s for s in report["spans"] if s[1] == "server.dispatch"]
    compress = [s for s in report["spans"] if s[1] == "codec.compress"]
    assert sorted(s[5] for s in dispatch) == list(range(1, 21))
    assert {s[4] for s in compress} <= {s[0] for s in dispatch}


def test_kill_stops_a_server_without_a_report(tmp_path):
    server = ServerProcess(tmp_path, "k")
    server.start()
    pid = server.pid
    server.kill()
    assert _is_gone(pid)


def _is_gone(pid):
    """True once the pid names no process, running or unreaped."""
    return not os.path.exists(f"/proc/{pid}")
