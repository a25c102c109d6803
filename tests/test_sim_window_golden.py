"""Bit-identity of ``OooTimingModel.simulate_window`` bracketing.

``tests/data/golden_simulate_window.json`` holds cycles and instruction
counts captured from the deque-based RUU implementation, for a
back-to-back sequence of windows on one model per configuration.  The
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
    for w in entry["windows"]:
        kw = {}
        if w["measure_from"] is not None:
            kw = {"measure_from": w["measure_from"], "measure_to": w["measure_to"]}
        r = model.simulate_window(trace, w["start"], w["end"], **kw)
        assert (r.cycles, r.instructions) == (w["cycles"], w["instructions"]), w
    h = model.hierarchy
    assert entry["stats"] == {
        "il1": [h.il1.hits, h.il1.misses],
        "dl1": [h.dl1.hits, h.dl1.misses],
        "ul2": [h.ul2.hits, h.ul2.misses],
        "memory_accesses": h.memory_accesses,
        "bpred": [model.bpred.lookups, model.bpred.mispredictions],
    }
