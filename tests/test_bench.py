"""Benchmark driver: spec validation, model invariants, and trends.

The sim transport is deterministic, so most tests assert exact
properties of the report; the headline throughput trends get a little
slack for ramp-up transients.  Absolute IOPS/MB/s numbers are never
asserted against fixed targets — only shapes and relationships.
"""

import itertools
import json
import math
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfm import bench, codec
from msfm.bench import (
    BenchSpec,
    ComparisonRow,
    InvalidComparison,
    InvalidSpec,
    SimParams,
    compare,
    make_block,
    run,
    sweep,
)
from msfm.client import ClientError
from msfm.miniobj import ObjectStore, StoreError


def sim_spec(**overrides) -> BenchSpec:
    base = dict(
        workload="write",
        block_size=65536,
        iodepth=1,
        mode="instance",
        ops=300,
        transport="sim",
        seed=7,
    )
    base.update(overrides)
    return BenchSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation


def test_stored_codec_is_rejected():
    with pytest.raises(InvalidSpec):
        sim_spec(transform="compress", codec_id=codec.CODEC_STORED)


def test_zero_op_count_is_rejected():
    with pytest.raises(InvalidSpec):
        sim_spec(ops=0)


def test_exactly_one_budget_required():
    with pytest.raises(InvalidSpec):
        sim_spec(ops=100, runtime_s=1.0)
    with pytest.raises(InvalidSpec):
        sim_spec(ops=None, runtime_s=None)


@pytest.mark.parametrize(
    "overrides",
    [
        {"workload": "read"},
        {"mode": "proxy"},
        {"transport": "udp"},
        {"transform": "encrypt"},
        {"block_size": 0},
        {"iodepth": 0},
        {"zero_fraction": -0.1},
        {"zero_fraction": 1.5},
        {"runtime_s": 0.0, "ops": None},
        {"transform": "ec", "k": 0},
        {"transform": "ec", "k": 30, "m": 3},
        {"transform": "compress", "codec_id": 9},
    ],
)
def test_bad_specs_are_rejected(overrides):
    with pytest.raises(InvalidSpec):
        sim_spec(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"latency_us": -1.0},
        {"bandwidth_mbps": 0.0},
        {"server_workers": 0},
        {"service_us_per_byte": -0.1},
    ],
)
def test_bad_sim_params_are_rejected(overrides):
    with pytest.raises(InvalidSpec):
        SimParams(**overrides)


# ---------------------------------------------------------------------------
# Block generation


def test_blocks_are_reproducible_and_sized():
    a = make_block(10_000, 0.5, seed=42)
    b = make_block(10_000, 0.5, seed=42)
    assert a == b
    assert len(a) == 10_000
    assert a != make_block(10_000, 0.5, seed=43)


def test_zero_fraction_extremes():
    assert make_block(4096, 1.0, seed=1) == bytes(4096)
    solid = make_block(4096, 0.0, seed=1)
    assert solid.count(0) < 256


@given(size=st.integers(1, 8192), fraction=st.floats(0.0, 1.0), seed=st.integers())
@settings(max_examples=50)
def test_block_length_always_exact(size, fraction, seed):
    assert len(make_block(size, fraction, seed)) == size


# ---------------------------------------------------------------------------
# Percentiles


def test_nearest_rank_percentiles():
    data = [10.0, 20.0, 30.0, 40.0]
    assert bench._percentile(data, 0.50) == 20.0
    assert bench._percentile(data, 0.75) == 30.0
    assert bench._percentile(data, 0.99) == 40.0
    assert bench._percentile([5.0], 0.99) == 5.0


@given(st.lists(st.floats(0, 1e9), min_size=1, max_size=200))
@settings(max_examples=100)
def test_percentiles_are_monotone_and_members(values):
    data = sorted(values)
    picks = [bench._percentile(data, q) for q in (0.01, 0.50, 0.95, 0.99, 1.0)]
    assert picks == sorted(picks)
    assert all(p in data for p in picks)


# ---------------------------------------------------------------------------
# Sim engine invariants


def test_sim_is_deterministic():
    spec = sim_spec(iodepth=8)
    assert run(spec) == run(spec)


def test_completed_matches_op_budget_and_accounting():
    report = run(sim_spec(ops=257, iodepth=5))
    assert report.completed == 257
    assert report.errors == 0
    assert report.raw_bytes == 257 * 65536
    assert report.stored_bytes < report.raw_bytes


def test_ec_transform_stores_parity_overhead():
    report = run(sim_spec(transform="ec", k=4, m=2, block_size=4096, ops=50))
    assert report.raw_bytes == 50 * 4096
    assert report.stored_bytes == report.raw_bytes * 6 // 4


def test_latency_summary_is_ordered():
    latency = run(sim_spec(iodepth=16, ops=400)).latency_us
    assert latency["min"] <= latency["p50"] <= latency["p95"] <= latency["p99"]
    assert latency["p99"] <= latency["max"]
    assert latency["min"] <= latency["mean"] <= latency["max"]


def test_concurrency_never_exceeds_iodepth():
    # Little's law: mean in-flight = sum(latency) / elapsed <= iodepth.
    for depth in (1, 3, 16):
        report = run(sim_spec(iodepth=depth, ops=300))
        total_lat_s = report.latency_us["mean"] * report.completed / 1e6
        assert total_lat_s <= report.elapsed_s * depth * 1.0001


def test_iodepth_one_is_strictly_sequential():
    report = run(sim_spec(iodepth=1, ops=100))
    total_lat_s = report.latency_us["mean"] * report.completed / 1e6
    assert total_lat_s == pytest.approx(report.elapsed_s, rel=1e-9)


def test_stored_bytes_identical_across_modes():
    inst = run(sim_spec(mode="instance", ops=120))
    comp = run(sim_spec(mode="compressor", ops=120))
    assert inst.raw_bytes == comp.raw_bytes
    assert inst.stored_bytes == comp.stored_bytes
    assert inst.elapsed_s != comp.elapsed_s


@pytest.mark.parametrize("iodepth", [1, 8])
def test_a_none_put_costs_only_the_client_overhead(iodepth):
    # A none put makes no call: nothing crosses a link or waits for a pool.
    inst, comp = (
        run(sim_spec(transform="none", mode=mode, iodepth=iodepth, ops=120))
        for mode in ("instance", "compressor")
    )
    assert {**vars(inst), "spec": None} == {**vars(comp), "spec": None}
    overhead = inst.spec.sim.client_overhead_us
    for report in (inst, comp):
        for key in ("min", "max"):
            assert report.latency_us[key] == pytest.approx(overhead)


def test_runtime_budget_stops_issue_but_drains():
    report = run(sim_spec(ops=None, runtime_s=0.05, iodepth=4))
    assert report.completed > 0
    assert report.raw_bytes == report.completed * 65536
    # ops issued before the cutoff all complete, possibly past it
    assert report.elapsed_s >= 0.05


def test_throughput_scales_with_iodepth_before_saturation():
    # 4 KiB instance mode: depth 8 stays under every bottleneck, so
    # throughput should be close to 8x the depth-1 rate.
    base = sim_spec(workload="randwrite", block_size=4096, ops=800)
    one = run(replace(base, iodepth=1))
    eight = run(replace(base, iodepth=8))
    assert eight.iops / one.iops == pytest.approx(8.0, rel=0.15)


def test_latency_dominated_round_trip_rate():
    # 1 ms each way and negligible service: depth-1 closed loop runs at
    # one op per ~2 ms, i.e. about 500 IOPS.
    spec = BenchSpec(
        block_size=4096,
        iodepth=1,
        mode="instance",
        ops=200,
        transport="sim",
        seed=1,
        sim=SimParams(
            latency_us=1000.0,
            bandwidth_mbps=1e5,
            service_fixed_us=0.0,
            service_us_per_byte=0.0,
            client_overhead_us=0.0,
        ),
    )
    assert run(spec).iops == pytest.approx(500.0, rel=0.01)


@pytest.mark.parametrize("mode", ["instance", "compressor"])
@pytest.mark.parametrize(
    "budget",
    [{"ops": 300, "runtime_s": None}, {"ops": None, "runtime_s": 0.02}],
    ids=["ops", "runtime"],
)
def test_sim_keeps_iodepth_puts_pending_through_submit_put(monkeypatch, mode, budget):
    submitted = pending = most = 0
    submit_put = ObjectStore.submit_put

    def counting_submit_put(store, name, data, policy):
        nonlocal submitted, pending, most
        finish = submit_put(store, name, data, policy)
        submitted += 1
        pending += 1
        most = max(most, pending)

        def counting_finish():
            nonlocal pending
            pending -= 1
            return finish()

        return counting_finish

    monkeypatch.setattr(ObjectStore, "submit_put", counting_submit_put)
    report = run(sim_spec(block_size=4096, iodepth=16, mode=mode, **budget))
    assert most == 16
    assert pending == 0
    assert report.errors == 0
    assert report.completed == submitted
    assert report.completed == (budget["ops"] or report.completed) > 16


# The single loop finishes the oldest pending put, which is exact only if
# puts finish in submit order: equal transfers and jobs must leave the
# links and the pool in the order they arrived.


@given(
    bandwidth=st.floats(1e3, 1e12),
    latency=st.floats(0.0, 1.0),
    transfers=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.integers(1, 1 << 20)), min_size=1, max_size=30
    ),
)
@settings(max_examples=200)
def test_link_delivers_in_submit_order(bandwidth, latency, transfers):
    # Over these bandwidths (bytes/s) a transfer outlasts the float
    # resolution of the clock, so delivery times strictly increase.
    link = bench._FifoLink(bandwidth, latency)
    now, times = 0.0, []
    for gap, size in transfers:
        now += gap
        times.append(link.deliver(now, size))
    assert all(earlier < later for earlier, later in zip(times, times[1:]))


@given(
    workers=st.integers(1, 64),
    service=st.floats(0.0, 1e3),
    gaps=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=100),
)
@settings(max_examples=200)
def test_pool_finishes_equal_jobs_in_submit_order(workers, service, gaps):
    pool = bench._WorkerPool(workers)
    now, times = 0.0, []
    for gap in gaps:
        now += gap
        times.append(pool.run(now, service))
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# Trends the model must reproduce


DEPTH_GRID = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def write_64k_sweeps():
    base = sim_spec(ops=400, seed=7)
    instance = sweep(base, DEPTH_GRID)
    compressor = sweep(replace(base, mode="compressor"), DEPTH_GRID)
    return instance, compressor


def test_offload_is_slower_at_every_depth_for_large_blocks(write_64k_sweeps):
    instance, compressor = write_64k_sweeps
    for inst, comp in zip(instance, compressor):
        assert inst.bandwidth_mbps < comp.bandwidth_mbps


def test_offload_ratio_narrows_with_depth(write_64k_sweeps):
    instance, compressor = write_64k_sweeps
    ratios = [row.ratio for row in compare(instance, compressor)]
    assert ratios[-1] > ratios[0]
    for earlier, later in zip(ratios, ratios[1:]):
        assert later >= earlier * 0.98


def test_small_blocks_converge_at_high_depth():
    base = sim_spec(workload="randwrite", block_size=4096, ops=1200, seed=3)
    instance = sweep(base, [32, 64])
    compressor = sweep(replace(base, mode="compressor"), [32, 64])
    for inst, comp in zip(instance, compressor):
        assert abs(inst.iops - comp.iops) / comp.iops <= 0.25


# ---------------------------------------------------------------------------
# sweep / compare


def test_sweep_uses_fresh_stores_and_derived_seeds():
    base = sim_spec(ops=50)
    reports = sweep(base, [1, 2])
    assert [r.spec.iodepth for r in reports] == [1, 2]
    assert [r.spec.seed for r in reports] == [base.seed + 1, base.seed + 2]
    assert all(r.raw_bytes == 50 * 65536 for r in reports)


def test_sweep_rejects_empty_grid():
    with pytest.raises(InvalidSpec):
        sweep(sim_spec(), [])


def test_compare_against_self_is_unity():
    reports = sweep(sim_spec(ops=60), [1, 4])
    rows = compare(reports, reports)
    assert all(row.ratio == 1.0 for row in rows)
    assert all(row.metric == "bandwidth_mbps" for row in rows)


def test_compare_metric_follows_workload():
    reports = sweep(sim_spec(workload="randwrite", block_size=4096, ops=60), [2])
    assert compare(reports, reports)[0].metric == "iops"


def test_compare_rejects_mismatched_grids():
    a = sweep(sim_spec(ops=40), [1, 2])
    b = sweep(sim_spec(ops=40), [1, 4])
    with pytest.raises(InvalidComparison):
        compare(a, b)
    with pytest.raises(InvalidComparison):
        compare(a, b[:1])
    with pytest.raises(InvalidComparison):
        compare([], [])


def test_compare_rejects_mismatched_shape():
    a = sweep(sim_spec(ops=40), [2])
    b = sweep(sim_spec(ops=40, block_size=4096), [2])
    with pytest.raises(InvalidComparison):
        compare(a, b)


# ---------------------------------------------------------------------------
# Real-socket transport


def test_tcp_transport_round_trip():
    base = BenchSpec(
        block_size=4096, iodepth=4, ops=48, transport="tcp", seed=11
    )
    inst = run(base)
    comp = run(replace(base, mode="compressor"))
    for report in (inst, comp):
        assert report.completed == 48
        assert report.errors == 0
        assert report.raw_bytes == 48 * 4096
        assert report.elapsed_s > 0
    assert inst.stored_bytes == comp.stored_bytes


def test_tcp_compressor_mode_starts_no_server(monkeypatch):
    def no_server(*args, **kwargs):
        raise AssertionError("compressor mode started a server")

    monkeypatch.setattr(bench, "Server", no_server)
    spec = BenchSpec(block_size=4096, ops=8, transport="tcp", mode="compressor")
    report = run(spec)
    assert report.completed == 8
    assert report.errors == 0


def test_tcp_latency_excludes_block_generation(monkeypatch):
    fill_block = bench._fill_block

    def slow_fill_block(*args):
        time.sleep(0.02)
        return fill_block(*args)

    monkeypatch.setattr(bench, "_fill_block", slow_fill_block)
    report = bench._run_tcp(BenchSpec(block_size=4096, ops=5, transport="tcp", seed=3))
    assert report.completed == 5
    assert report.latency_us["p50"] < 20_000


@pytest.mark.parametrize("mode", ["instance", "compressor"])
@pytest.mark.parametrize(
    "budget", [{"ops": 300}, {"runtime_s": 0.3}], ids=["ops", "runtime"]
)
def test_tcp_keeps_iodepth_puts_pending_from_the_calling_thread(
    monkeypatch, mode, budget
):
    threads = set()
    pending = most = 0
    submit_put = ObjectStore.submit_put

    def counting_submit_put(store, name, data, policy):
        nonlocal pending, most
        threads.add(threading.get_ident())
        finish = submit_put(store, name, data, policy)
        pending += 1
        most = max(most, pending)

        def counting_finish():
            nonlocal pending
            threads.add(threading.get_ident())
            try:
                return finish()
            finally:
                pending -= 1

        return counting_finish

    monkeypatch.setattr(ObjectStore, "submit_put", counting_submit_put)
    spec = BenchSpec(
        block_size=4096, iodepth=16, mode=mode, transport="tcp", seed=5, **budget
    )
    report = bench._run_tcp(spec)
    assert threads == {threading.get_ident()}
    assert most == 16
    assert pending == 0
    assert report.errors == 0
    assert report.completed == budget.get("ops", report.completed) > 16


@pytest.mark.parametrize(
    "budget", [{"ops": 10}, {"runtime_s": 0.0095}], ids=["ops", "runtime"]
)
def test_making_inputs_is_left_out_of_the_timed_window(monkeypatch, budget):
    # On a fake clock, making an op's input takes 1 s and a put 1 ms.
    clock = 0.0
    op_input = bench._op_input

    def slow_op_input(spec, index):
        nonlocal clock
        clock += 1.0
        return op_input(spec, index)

    def finished_at(begun, manifest):
        nonlocal clock
        clock += 0.001
        return clock

    monkeypatch.setattr(bench, "_op_input", slow_op_input)
    spec = BenchSpec(transform="none", transport="tcp", seed=5, **budget)
    store = bench._build_store(spec)
    report = bench._drive(spec, store, spec.policy, lambda: clock, finished_at)
    assert report.completed == 10
    assert report.elapsed_s == pytest.approx(0.010)
    assert report.iops == pytest.approx(1000.0)
    assert report.latency_us["mean"] == pytest.approx(1000.0)
    assert report.untimed_s == pytest.approx(10.0)
    assert report.to_dict()["untimed_s"] == report.untimed_s


def test_failed_puts_count_as_errors_without_a_latency_sample(monkeypatch):
    # Put 3 fails at its submit and put 6 when it is finished.
    clock = 0.0
    samples = 0
    submit_put = ObjectStore.submit_put
    submits = itertools.count()

    def failing_submit_put(store, name, data, policy):
        index = next(submits)
        if index == 3:
            raise StoreError("refused at submit")
        finish = submit_put(store, name, data, policy)
        if index != 6:
            return finish

        def fail():
            raise ClientError("failed when finished")

        return fail

    def finished_at(begun, manifest):
        nonlocal clock, samples
        samples += 1
        clock += 0.001
        return clock

    monkeypatch.setattr(ObjectStore, "submit_put", failing_submit_put)
    spec = BenchSpec(transform="none", transport="tcp", iodepth=4, ops=10, seed=5)
    store = bench._build_store(spec)
    report = bench._drive(spec, store, spec.policy, lambda: clock, finished_at)
    assert next(submits) == spec.ops
    assert report.errors == 2
    assert report.completed == samples == spec.ops - 2


# ---------------------------------------------------------------------------
# Reporting and CLI


def test_report_serializes_to_json():
    report = run(sim_spec(ops=20))
    document = json.loads(json.dumps(report.to_dict()))
    assert document["completed"] == 20
    assert document["spec"]["codec"] == "rle0"
    assert set(document["latency_us"]) == {"min", "mean", "p50", "p95", "p99", "max"}
    assert "untimed_s" not in document  # tcp reports only


# The keys of each record that --out writes, which CI and users read.
SPEC_KEYS = {
    "workload", "block_size", "iodepth", "mode", "transform", "ops",
    "runtime_s", "zero_fraction", "transport", "seed", "sim",
}
SIM_KEYS = {
    "latency_us", "bandwidth_mbps", "server_workers", "local_workers",
    "service_fixed_us", "service_us_per_byte", "client_overhead_us",
}


@pytest.mark.parametrize(
    "transform, extra",
    [("compress", {"codec"}), ("ec", {"k", "m"}), ("none", set())],
)
def test_spec_dict_has_exactly_its_keys(transform, extra):
    document = sim_spec(transform=transform).to_dict()
    assert set(document) == SPEC_KEYS | extra
    assert set(document["sim"]) == SIM_KEYS


def test_report_dict_has_exactly_its_keys():
    assert set(run(sim_spec(ops=20)).to_dict()) == {
        "spec", "completed", "errors", "elapsed_s", "iops", "bandwidth_mbps",
        "latency_us", "raw_bytes", "stored_bytes",
    }


def test_comparison_rows_have_exactly_their_keys(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["--mode", "both", "--iodepth", "1,4", "--ops", "20", "--out", str(out)]
    assert bench.main(argv) == 0
    rows = json.loads(out.read_text())["comparison"]
    assert [set(row) for row in rows] == [
        {"iodepth", "metric", "instance", "compressor", "ratio"}
    ] * 2


def test_render_table_aligns_all_rows():
    reports = sweep(sim_spec(ops=30), [1, 16])
    text = bench.render_table(reports)
    lines = text.splitlines()
    assert len(lines) == 3
    assert len({len(line) for line in lines}) == 1
    assert "IOPS" in lines[0]


def test_reference_tables_cover_the_published_grid():
    assert list(bench.REFERENCE_RANDWRITE_4K_IOPS) == [1, 2, 4, 8, 16, 32, 64, 128]
    assert list(bench.REFERENCE_WRITE_64K_MBPS) == [1, 2, 4, 8, 16, 32, 64, 128]
    inst, comp = bench.REFERENCE_WRITE_64K_MBPS[1]
    assert inst / comp == pytest.approx(0.509, abs=0.001)
    inst, comp = bench.REFERENCE_WRITE_64K_MBPS[64]
    assert inst / comp == pytest.approx(0.767, abs=0.001)


def test_cli_sweep_with_outputs(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = bench.main(
        [
            "--workload", "write", "--bs", "64k", "--iodepth", "1,8",
            "--mode", "both", "--ops", "60", "--seed", "5",
            "--out", str(out), "--paper-reference",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ratio" in printed
    assert "reference: write 64KB MB/s" in printed

    document = json.loads(out.read_text())
    assert len(document["reports"]) == 4
    assert len(document["comparison"]) == 2
    assert document["comparison"][0]["ratio"] < document["comparison"][1]["ratio"]


def test_cli_rejects_bad_spec(capsys):
    rc = bench.main(["--ops", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_checks_its_out_path_before_the_first_run(tmp_path, capsys, monkeypatch):
    def run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "run", run)
    out = tmp_path / "nonexistent" / "r.json"
    assert bench.main(["--ops", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and str(out) in err


def test_cli_offers_no_stored_codec(capsys):
    # compress refuses the stored form, so every put would fail.
    with pytest.raises(SystemExit) as exited:
        bench.main(["--codec", "stored", "--ops", "5"])
    assert exited.value.code == 2
    assert "invalid choice: 'stored'" in capsys.readouterr().err


def test_cli_sim_link_flags_reach_the_model(tmp_path):
    # At iodepth 1 nothing queues: each instance-mode put crosses the
    # link twice, and a compressor-mode put never crosses it.
    def means(*flags):
        out = tmp_path / "report.json"
        argv = ["--mode", "both", "--ops", "50", "--sim-bw-mbps", "50", *flags]
        assert bench.main([*argv, "--out", str(out)]) == 0
        reports = json.loads(out.read_text())["reports"]
        for report in reports:
            assert report["spec"]["sim"]["bandwidth_mbps"] == 50.0
        return reports, {
            report["spec"]["mode"]: report["latency_us"]["mean"] for report in reports
        }

    _, base = means()
    reports, slow = means("--sim-latency-us", "1000")
    assert [report["spec"]["sim"]["latency_us"] for report in reports] == [1000.0] * 2
    assert slow["instance"] - base["instance"] == pytest.approx(2 * 800.0, abs=1e-6)
    assert slow["compressor"] == base["compressor"]


def test_cli_duration_parsing():
    assert bench._parse_runtime("30s") == 30.0
    assert bench._parse_runtime("500ms") == 0.5
    assert bench._parse_runtime("2m") == 120.0
    assert bench._parse_runtime("15") == 15.0
    with pytest.raises(Exception):
        bench._parse_runtime("fast")


def test_cli_size_parsing():
    assert bench._parse_size("4k") == 4096
    assert bench._parse_size("64K") == 65536
    assert bench._parse_size("1m") == 1048576
    assert bench._parse_size("512") == 512

