"""Tests for the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_stats.py -q
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from repro.obs.trace import SpanRecord  # noqa: E402
from stats import (  # noqa: E402
    failed_frac,
    hit_ratio,
    percentile,
    ratio,
    self_times,
    unit_median_seconds,
)
from tracing import SpanRecorder, with_groups  # noqa: E402


# -- percentiles ---------------------------------------------------------
def test_percentile_reports_its_sample_count():
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 3)


def test_percentile_interpolates_between_ranks():
    # rank (4 - 1) * 0.99 = 2.97 -> 30 + 0.97 * (40 - 30)
    value, n = percentile([10.0, 20.0, 30.0, 40.0], 99)
    assert n == 4
    assert value == pytest.approx(39.7)


def test_percentile_matches_inclusive_quantiles():
    values = [0.3, 7.1, 2.2, 9.9, 4.4, 5.0, 1.8, 6.6]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25)[0] == pytest.approx(q1)
    assert percentile(values, 50)[0] == pytest.approx(q2)
    assert percentile(values, 75)[0] == pytest.approx(q3)


def test_percentile_extremes_and_empty():
    assert percentile([5.0, 1.0], 0) == (1.0, 2)
    assert percentile([5.0, 1.0], 100) == (5.0, 2)
    value, n = percentile([], 50)
    assert math.isnan(value) and n == 0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time -----------------------------------------------------------
def _span(sid, parent, start, end):
    return SpanRecord(
        name="s", span_id=sid, parent_id=parent, thread_id=0,
        start=start, duration=end - start,
    )


def test_self_time_subtracts_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 5.0, 9.0),
        _span(4, 3, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[3] == pytest.approx(3.0)  # only its direct child counts
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


# -- ratios and their bases ----------------------------------------------
def test_ratio_with_zero_base_is_zero():
    assert ratio(3.0, 4.0) == 0.75
    assert ratio(0.0, 0.0) == 0.0
    assert ratio(5.0, 0) == 0.0


def test_hit_ratio_base_is_hits_plus_misses():
    assert hit_ratio(3, 1) == (0.75, 4)
    assert hit_ratio(0, 0) == (0.0, 0)
    assert hit_ratio(0, 7) == (0.0, 7)


def test_failed_frac_is_failed_over_attempted():
    assert failed_frac(0, 10) == 0.0
    assert failed_frac(1, 4) == 0.25
    assert failed_frac(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_frac(5, 4)


# -- spans ---------------------------------------------------------------
def test_spans_record_parent_and_share_a_group_per_point():
    rec = SpanRecorder(enabled=True)
    with rec.span("phase"):
        with rec.span("point", new_group=True):
            with rec.span("compile"):
                pass
        with rec.span("point", new_group=True):
            with rec.span("simulate"):
                pass
    by_start = sorted(rec.spans, key=lambda s: s.start)
    phase, p1, c1, p2, c2 = by_start
    assert c1.parent_id == p1.span_id and p1.parent_id == phase.span_id
    group = {s.span_id: s.attrs["group"] for s in with_groups(rec.spans)}
    assert group[c1.span_id] == group[p1.span_id] == p1.span_id
    assert group[c2.span_id] == group[p2.span_id] == p2.span_id
    assert group[phase.span_id] == phase.span_id
    assert all(s.duration >= 0 for s in rec.spans)


def test_span_stacks_are_per_thread():
    rec = SpanRecorder(enabled=True)
    barrier = threading.Barrier(2)

    def request():
        with rec.span("request", new_group=True):
            barrier.wait(timeout=10)

    threads = [threading.Thread(target=request) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert [s.parent_id for s in rec.spans] == [None, None]


def test_patch_and_restore_put_the_original_back():
    class Box:
        def value(self):
            return 42

    box = Box()
    rec = SpanRecorder(enabled=True)
    rec.patch(box, "value", "box.value", after=lambda r: {"result": r})
    assert box.value() == 42
    assert rec.spans[0].name == "box.value"
    assert rec.spans[0].attrs == {"result": 42}
    rec.restore()
    assert "value" not in vars(box)


def test_disabled_recorder_records_and_patches_nothing():
    class Box:
        def value(self):
            return 1

    box = Box()
    rec = SpanRecorder(enabled=False)
    rec.patch(box, "value", "box.value")
    with rec.span("x"):
        box.value()
    assert rec.spans == [] and "value" not in vars(box)


# -- repetitions ---------------------------------------------------------
def test_unit_median_seconds_takes_each_units_median():
    units = [
        {"a": 4.0, "b": 5.0},
        {"a": 7.0, "b": 5.0},  # a hit by noise
        {"a": 4.0, "b": 5.5},
    ]
    rests = [1.0, 3.0, 1.0]
    assert unit_median_seconds(units, rests) == pytest.approx(4.0 + 5.0 + 1.0)


def test_unit_median_seconds_single_repetition_is_its_total():
    assert unit_median_seconds([{"a": 1.0}], [2.5]) == pytest.approx(3.5)
    assert unit_median_seconds([{}], [2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        unit_median_seconds([{}], [1.0, 2.0])


# -- units of work and their checks --------------------------------------
def test_unit_scales_wall_time_by_the_probed_host_speed(monkeypatch):
    import time

    import workloads

    # A host twice as slow as the reference host.
    monkeypatch.setattr(workloads, "settled_speed", lambda warmup, n: 0.5)
    out = workloads.Outcome()
    with out.unit("a"):
        time.sleep(0.02)
    assert out.speed == [0.5]
    assert out.units["a"] == pytest.approx(out.unit_wall_s / 2)
    assert out.unit_wall_s >= 0.02


def test_outcome_counts_checks_and_lost_operations():
    import workloads

    out = workloads.Outcome()
    out.check(True, b"1")
    out.check(False, b"2", "wrong")
    out.lost(3, "exception")
    assert (out.attempted, out.failed) == (5, 4)
    assert failed_frac(out.failed, out.attempted) == 0.8
    # The digest covers the results in order, not their verdicts.
    same = workloads.Outcome()
    same.check(True, b"1")
    same.check(True, b"2")
    assert same.digest == out.digest
