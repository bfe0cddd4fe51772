"""The timed phase measures the quietest segments and re-runs disturbed ones."""

import itertools
import time

from perfbench import workloads
from perfbench.workloads import Phase, Workload


class Sleeper(Workload):
    name = "sleeper"
    round_ops = 1
    nominal_ops_s = 100.0

    def setup(self) -> None:
        self.rounds_run = []

    def run_round(self, index: int, phase: Phase) -> None:
        time.sleep(0.002)
        self.rounds_run.append(index)
        phase.attempted += 1
        phase.write_s.append(0.002)
        with phase.untimed():
            time.sleep(0.002)


def _steal_per_segment(monkeypatch, ticks):
    """Make segment i lose ticks[i] steal ticks (read at its start and end)."""
    readings = []
    for before, tick in zip(itertools.accumulate([0] + ticks), ticks):
        readings += [before, before + tick]
    monkeypatch.setattr(workloads, "steal_ticks", iter(readings).__next__)


def _run(monkeypatch, ticks, **plan):
    _steal_per_segment(monkeypatch, ticks)
    workload = Sleeper(seed=1, out_dir=None, tag="t")
    workload.setup()
    return workload, workload.run_phase(2, **plan)


def test_disturbed_segments_are_rerun_until_enough_are_quiet(monkeypatch):
    workload, phase = _run(
        monkeypatch, [0, 9, 0, 9, 0], keep=3, quiet_share=0.03, retry_s=60
    )
    assert len(phase.segments) == 5
    assert phase.kept == [phase.segments[i] for i in (0, 2, 4)]
    assert workload.rounds_run == list(range(10))
    assert phase.attempted == 10 and phase.completed == 10


def test_the_quietest_are_measured_when_too_few_are_quiet(monkeypatch):
    # Steal halves from segment to segment and none is quiet, so the
    # phase runs until retry_s and measures the last two.
    _, phase = _run(
        monkeypatch, [2**i for i in range(30, 0, -1)], keep=2, quiet_share=0.0, retry_s=0.05
    )
    assert len(phase.segments) > 2
    assert phase.kept == phase.segments[-2:]


def test_keep_segments_always_run_and_are_measured(monkeypatch):
    _, phase = _run(monkeypatch, [9, 9, 9], keep=3, quiet_share=0.0, retry_s=0.0)
    assert len(phase.segments) == 3
    assert phase.kept == phase.segments


def test_one_segment_by_default_is_the_whole_phase(monkeypatch):
    _, phase = _run(monkeypatch, [9])
    assert len(phase.segments) == 1 and phase.kept == phase.segments
    assert phase.segments[0].writes == slice(0, 2)


def test_checks_are_left_out_of_the_segment_time(monkeypatch):
    _, phase = _run(monkeypatch, [0])
    segment = phase.segments[0]
    assert segment.wall_s >= 0.008
    assert 0.004 <= segment.elapsed_s < segment.wall_s - 0.003


def test_between_runs_after_each_segment_outside_its_time(monkeypatch):
    _steal_per_segment(monkeypatch, [0, 0])
    workload = Sleeper(seed=1, out_dir=None, tag="t")
    workload.setup()
    calls = []

    def between():
        calls.append(len(workload.rounds_run))
        time.sleep(0.05)

    phase = workload.run_phase(2, keep=2, between=between)
    assert calls == [2, 4]
    assert all(segment.wall_s < 0.05 for segment in phase.segments)
