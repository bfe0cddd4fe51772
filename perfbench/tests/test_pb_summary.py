"""Percentile summaries against hand-computed lists."""

import pytest

from perfbench.summary import percentile, summarize


def test_nearest_rank_percentiles_of_one_to_ten():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0.25) == 3.0
    assert percentile(values, 0.50) == 5.0
    assert percentile(values, 0.75) == 8.0
    assert percentile(values, 0.90) == 9.0
    assert percentile(values, 0.99) == 10.0
    assert percentile(values, 1.0) == 10.0


def test_summarize_sorts_and_counts():
    values = [30.0, 10.0, 20.0]
    assert summarize(values) == {"n": 3, "p50": 20.0, "p90": 30.0, "p99": 30.0}
    hundred = [float(v) for v in range(100, 0, -1)]
    assert summarize(hundred) == {"n": 100, "p50": 50.0, "p90": 90.0, "p99": 99.0}


def test_single_sample_is_every_percentile():
    assert summarize([7.0]) == {"n": 1, "p50": 7.0, "p90": 7.0, "p99": 7.0}


@pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
def test_quantile_outside_the_unit_interval_is_refused(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_no_samples_is_refused():
    with pytest.raises(ValueError):
        percentile([], 0.5)
