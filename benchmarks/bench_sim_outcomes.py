"""Microarchitecture sweep over one trace: outcome passes and timing loop.

The simulator splits SMARTS into outcome passes (IL1, DL1, branch
predictor, RAS, and a per-point L2 pass) and a timing-only loop over
the detailed windows; see ``docs/SIMULATOR.md``.  Passes are memoized
per level, so a sweep that varies only the machine over one binary
shares them between points with the same geometry.  This scenario runs
the 12-point Plackett-Burman design over the Table-2 knobs pinned in
``tests/data/golden_smarts_pb12.json`` on one prebuilt gzip ``-O2``
trace, asserts every ``SmartsResult`` bit for bit against that fixture,
and reports per-unit costs (minimum over repeats, each repeat on a
fresh copy of the trace so every pass runs cold; 5 repeats, 2 with
``--quick``):

* ``timing_ns_per_insn`` -- the timing loop, per detailed instruction;
* ``outcomes_<level>_ms`` -- one run of each outcome pass (mean over the
  runs in a sweep; the L2 pass runs once per point);
* ``ms_per_point`` -- a whole sweep point, trace tables included.

The per-unit costs are gated.  The memo is off: every point simulates.
"""

import json
import time
from collections import defaultdict
from pathlib import Path

from repro.obs import BenchScenario

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "data" / "golden_smarts_pb12.json"


def _sweep(exe, trace, points):
    """One traced sweep; returns per-span-name (total s, count) and wall s."""
    from repro.obs import counter
    from repro.obs.trace import get_tracer
    from repro.sim import PackedTrace, smarts_simulate
    from repro.sim.config import MicroarchConfig
    from repro.sim.smarts import SmartsResult

    fresh = PackedTrace(trace.pcs.copy(), trace.eas.copy())
    instructions = counter("sim.ooo.instructions")
    tracer = get_tracer()
    tracer.reset()
    before = instructions.value
    t0 = time.perf_counter()
    for p in points:
        got = smarts_simulate(exe, MicroarchConfig(**p["config"]), fresh)
        assert got == SmartsResult(**p["result"]), f"sweep point {p['config']} changed"
    wall = time.perf_counter() - t0
    spans = defaultdict(lambda: [0.0, 0])
    for s in tracer.spans:
        spans[s.name][0] += s.duration
        spans[s.name][1] += 1
    return spans, wall, instructions.value - before


def _bench(quick: bool) -> dict:
    from repro.codegen import compile_module
    from repro.obs.trace import get_tracer
    from repro.opt import O2
    from repro.sim import execute
    from repro.workloads import get_workload

    golden = json.loads(FIXTURE.read_text())
    points = golden["points"]
    exe = compile_module(
        get_workload(golden["workload"]).module("train"),
        O2,
        issue_width=golden["compile_issue_width"],
    )
    trace = execute(exe, collect_trace=True).trace
    assert len(trace) == golden["instructions"]

    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    best: dict = {}
    try:
        for _ in range(2 if quick else 5):
            spans, wall, insns = _sweep(exe, trace, points)
            run = {
                "ms_per_point": wall * 1e3 / len(points),
                "timing_ns_per_insn": spans["smarts.detailed_unit"][0] * 1e9 / insns,
            }
            for name, (total, count) in spans.items():
                if name.startswith("smarts.outcomes."):
                    run[f"outcomes_{name.rsplit('.', 1)[1]}_ms"] = total * 1e3 / count
            for key, value in run.items():
                best[key] = min(value, best.get(key, value))
            best["detailed_instructions_per_sweep"] = float(insns)
    finally:
        tracer.reset()
        tracer.enabled = was_enabled
    best["points"] = float(len(points))
    return best


BENCH_SCENARIO = BenchScenario(
    name="sim_outcomes",
    description="Plackett-Burman sweep on one gzip trace: outcome passes + timing loop",
    run=_bench,
    gates={
        "ms_per_point": "lower",
        "timing_ns_per_insn": "lower",
        "outcomes_il1_ms": "lower",
        "outcomes_dl1_ms": "lower",
        "outcomes_bpred_ms": "lower",
        "outcomes_l2_ms": "lower",
    },
    threshold_pct=25.0,
)
