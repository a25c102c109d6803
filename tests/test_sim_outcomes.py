"""The outcome passes and the timing-only loop (:mod:`repro.sim.outcomes`).

Two fixtures were captured from the simulator that probed cache tags
and trained predictors inline, before the outcome/timing split:

* ``tests/data/golden_detailed_statistics.json`` -- cycles, miss rates,
  mispredict rate and bus accesses of ``detailed_statistics`` for gzip
  and art at ``-O2`` on the three Table-5 machines;
* ``tests/data/golden_smarts_pb12.json`` -- the ``SmartsResult`` of a
  12-point Plackett-Burman design over the Table-2 knobs, on one gzip
  ``-O2`` binary and trace.
"""

import gc
import json
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import compile_module
from repro.harness.measure import MeasurementEngine
from repro.minic import compile_source
from repro.obs.trace import get_tracer
from repro.opt import O2, CompilerConfig
from repro.sim import PackedTrace, execute, smarts_simulate, tables_for
from repro.sim.config import TYPICAL, MicroarchConfig
from repro.sim.outcomes import PASSES, _stream
from repro.sim.smarts import SmartsResult
from repro.sim.stats import detailed_statistics
from repro.workloads import get_workload
from tests.util import ALL_PROGRAMS

DATA = Path(__file__).parent / "data"
STATS = json.loads((DATA / "golden_detailed_statistics.json").read_text())
SWEEP = json.loads((DATA / "golden_smarts_pb12.json").read_text())


def _build(workload, issue_width):
    module = get_workload(workload).module("train")
    exe = compile_module(module, O2, issue_width=issue_width)
    return exe, execute(exe, collect_trace=True).trace


@pytest.mark.parametrize(
    "entry", STATS, ids=[f"{e['workload']}-{e['label']}" for e in STATS]
)
def test_detailed_statistics_match_golden(entry):
    config = MicroarchConfig(**entry["config"])
    exe, trace = _build(entry["workload"], config.issue_width)
    s = detailed_statistics(exe, config, trace)
    assert s.timing.cycles == entry["cycles"]
    assert s.timing.instructions == entry["instructions"]
    assert s.il1_miss_rate == entry["il1_miss_rate"]
    assert s.dl1_miss_rate == entry["dl1_miss_rate"]
    assert s.ul2_miss_rate == entry["ul2_miss_rate"]
    assert s.branch_mispredict_rate == entry["branch_mispredict_rate"]
    assert s.memory_bus_accesses == entry["memory_bus_accesses"]


class TestPlackettBurmanSweep:
    @pytest.fixture(scope="class")
    def gzip(self):
        exe, trace = _build(SWEEP["workload"], SWEEP["compile_issue_width"])
        assert len(trace) == SWEEP["instructions"]
        return exe, trace

    def _sweep(self, exe, trace, points):
        for p in points:
            got = smarts_simulate(exe, MicroarchConfig(**p["config"]), trace)
            assert got == SmartsResult(**p["result"]), p["config"]

    def test_fill_order_cannot_change_a_result(self, gzip):
        """Forward, then reverse over the caches forward filled, then
        reverse over a fresh copy of the trace (caches filled in reverse
        order): every point matches the golden result."""
        exe, trace = gzip
        points = SWEEP["points"]
        self._sweep(exe, trace, points)
        self._sweep(exe, trace, points[::-1])
        copy = PackedTrace(trace.pcs.copy(), trace.eas.copy())
        self._sweep(exe, copy, points[::-1])

    def test_one_memoized_pass_per_distinct_geometry(self, gzip):
        """Each pass is keyed on exactly the fields it reads, so the
        sweep leaves one entry per distinct value of those fields."""
        exe, trace = gzip
        configs = [MicroarchConfig(**p["config"]) for p in SWEEP["points"]]
        for config in configs:
            smarts_simulate(exe, config, trace)
        memo = tables_for(exe, trace).outcomes
        kinds = Counter(key[0] for key in memo)
        for name, _, fields in PASSES:
            distinct = {tuple(getattr(c, f) for f in fields) for c in configs}
            assert kinds[name] == len(distinct), name
        # A knob no pass reads changes the timing, not the outcomes.
        before = len(memo)
        smarts_simulate(exe, replace(configs[0], ruu_size=99), trace)
        assert len(memo) == before


def _naive_stream(schedule, events, lead):
    """The access sequence of a pass, one position at a time."""
    marks = set(events.tolist())
    out = []
    for s, (start, end, _) in enumerate(schedule):
        for p in range(start, end):
            if (lead and p == start) or p in marks:
                out.append((s, p))
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=15, unique=True),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), max_size=8),
    st.booleans(),
)
def test_stream_visits_each_segments_events_in_order(events, segments, lead):
    events = np.array(sorted(events), dtype=np.int64)
    schedule = [(start, start + length, True) for start, length in segments]
    seg, pos = _stream(schedule, events, lead)
    got = list(zip(seg.tolist(), pos.tolist()))
    assert got == _naive_stream(schedule, events, lead)


def test_tables_with_outcomes_are_freed_without_a_collection():
    """The memoized passes hang off the trace tables and hold no
    reference back to the executable."""
    exe = compile_module(compile_source(ALL_PROGRAMS["sum_loop"]), CompilerConfig())
    trace = execute(exe).trace
    smarts_simulate(exe, TYPICAL, trace, unit_size=50, interval=3)
    tables = weakref.ref(tables_for(exe, trace))
    assert tables().outcomes
    gc.disable()
    try:
        del exe, trace
        assert tables() is None
    finally:
        gc.enable()


def test_named_spans_cover_a_cold_smarts_point():
    """Child spans of ``sim.smarts`` (trace tables, outcome passes,
    detailed units) account for at least 95% of its wall time."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        MeasurementEngine().measure_configs("gzip", O2, TYPICAL, "train")
        spans = tracer.spans
    finally:
        tracer.reset()
        tracer.enabled = was_enabled
    (root,) = [s for s in spans if s.name == "sim.smarts"]
    children = [s for s in spans if s.parent_id == root.span_id]
    names = {s.name for s in children}
    assert {"sim.trace_tables", "smarts.detailed_unit", "smarts.outcomes.l2"} <= names
    assert {f"smarts.outcomes.{name}" for name, _, _ in PASSES} <= names
    covered = sum(s.duration for s in children)
    assert covered >= 0.95 * root.duration, (covered, root.duration)
