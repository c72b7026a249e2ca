"""Tests of the rules the benchmark publishes its numbers under."""

from __future__ import annotations

import pytest

from perfbench.stats import (
    overhead_ratio,
    percentile,
    reportable_percentiles,
    samples_beyond,
    self_time,
    union_length,
)


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 100) == 100.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize(
    "count, q, beyond",
    [(20, 50, 10), (19, 50, 9), (100, 90, 10), (99, 90, 9), (1000, 99, 10)],
)
def test_samples_beyond_counts_ranks_above_the_percentile(count, q, beyond):
    assert samples_beyond(count, q) == beyond


def test_reportable_percentiles_stop_at_ten_samples_beyond():
    assert reportable_percentiles([1.0] * 19) == {}
    assert list(reportable_percentiles([1.0] * 20)) == [50.0]
    assert list(reportable_percentiles([1.0] * 99)) == [50.0]
    assert list(reportable_percentiles([1.0] * 100)) == [50.0, 90.0]
    assert list(reportable_percentiles([1.0] * 1000)) == [50.0, 90.0, 99.0]


def test_reportable_percentiles_values_match_percentile():
    samples = [float(value) for value in range(200, 0, -1)]
    report = reportable_percentiles(samples)
    assert report == {50.0: 100.0, 90.0: 180.0}


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.75)]) == 3.0


def test_self_time_subtracts_child_coverage():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == 2.0


def test_overhead_ratio_is_traced_over_untraced():
    assert overhead_ratio(1.5, 1.0) == 1.5
    with pytest.raises(ValueError):
        overhead_ratio(1.0, 0.0)
