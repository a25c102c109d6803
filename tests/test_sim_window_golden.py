"""Bit-identity of the timing loop's measurement bracketing.

``tests/data/golden_simulate_window.json`` holds cycles and instruction
counts captured from the deque-based RUU implementation, for a
back-to-back sequence of windows on one model per configuration.  The
sequence runs here as one schedule of detailed segments, so caches and
predictors carry over between windows exactly as they did.  The
``measure_from``/``measure_to`` bounds cover every case the loop must
keep: at ``start``, at ``end``, interior, past ``end`` and before
``start``, plus an empty window.  The cache and predictor statistics
after the sequence are pinned as well, since they carry over between
windows.
"""

import json
from pathlib import Path

import pytest

from repro.codegen import compile_module
from repro.opt import O0, O2
from repro.sim import execute
from repro.sim.config import MicroarchConfig
from repro.sim.ooo import OooTimingModel
from repro.workloads import get_workload

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_simulate_window.json").read_text()
)


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["label"] for e in GOLDEN])
def test_simulate_window_bracketing_is_bit_identical(entry):
    config = MicroarchConfig(**entry["config"])
    opt = {"O0": O0, "O2": O2}[entry["opt"]]
    exe = compile_module(
        get_workload(entry["workload"]).module("train"),
        opt,
        issue_width=config.issue_width,
    )
    trace = execute(exe, collect_trace=True).trace
    model = OooTimingModel(exe, config)
    windows = entry["windows"]
    results = model.run(
        trace,
        [(w["start"], w["end"], True) for w in windows],
        [(w["measure_from"], w["measure_to"]) for w in windows],
    )
    for w, r in zip(windows, results):
        assert (r.cycles, r.instructions) == (w["cycles"], w["instructions"]), w
    c = model.counts
    assert entry["stats"] == {
        "il1": [c.il1_hits, c.il1_misses],
        "dl1": [c.dl1_hits, c.dl1_misses],
        "ul2": [c.ul2_hits, c.ul2_misses],
        "memory_accesses": c.memory_accesses,
        "bpred": [c.bpred_lookups, c.bpred_mispredictions],
    }
