"""Tests for the out-of-order timing model and SMARTS sampling."""

import dataclasses

import pytest

from repro.codegen import compile_module
from repro.minic import compile_source
from repro.opt import CompilerConfig, O2
from repro.sim import MicroarchConfig, OooTimingModel, simulate, smarts_simulate
from repro.sim.func import execute
from tests.util import ALL_PROGRAMS


def build(src, config=None, issue_width=4):
    module = compile_source(src)
    exe = compile_module(module, config or O2, issue_width=issue_width)
    functional = execute(exe)
    return exe, functional


MEMORY_BOUND = """
int N = 1024;
int idx[8192];
int data[8192];
int main() {
    int i;
    int p = 0;
    int s = 0;
    for (i = 0; i < 8192; i = i + 1) {
        idx[i] = (i * 4093 + 7) % 8192;
        data[i] = i & 255;
    }
    for (i = 0; i < N; i = i + 1) {
        p = idx[p];
        s = s + data[p];
    }
    return s;
}
"""

BRANCHY = """
int N = 2000;
int main() {
    int i;
    int s = 0;
    int state = 12345;
    for (i = 0; i < N; i = i + 1) {
        state = (state * 1103515245 + 12345) & 1073741823;
        if ((state >> 7 & 1) == 1) { s = s + 3; } else { s = s - 1; }
    }
    return s;
}
"""


class TestTimingBasics:
    def test_cycles_positive_and_cpi_sane(self):
        exe, fr = build(ALL_PROGRAMS["sum_loop"])
        model = OooTimingModel(exe, MicroarchConfig())
        res = model.simulate_trace(fr.trace)
        assert res.cycles > 0
        assert 0.1 < res.cpi < 10.0

    def test_deterministic(self):
        exe, fr = build(ALL_PROGRAMS["calls_and_branches"])
        a = OooTimingModel(exe, MicroarchConfig()).simulate_trace(fr.trace)
        b = OooTimingModel(exe, MicroarchConfig()).simulate_trace(fr.trace)
        assert a.cycles == b.cycles

    def test_window_measured_subrange(self):
        exe, fr = build(ALL_PROGRAMS["sum_loop"])
        model = OooTimingModel(exe, MicroarchConfig())
        n = len(fr.trace)
        (res,) = model.run(fr.trace, [(0, n, True)], [(n // 4, n // 2)])
        assert res.instructions == n // 2 - n // 4
        assert 0 < res.cycles


class TestParameterSensitivity:
    def cycles(self, src, config=None, **microarch_kw):
        mc = MicroarchConfig(**microarch_kw)
        exe, fr = build(src, config, issue_width=mc.issue_width)
        model = OooTimingModel(exe, mc)
        return model.simulate_trace(fr.trace).cycles

    def test_memory_latency_hurts(self):
        slow = self.cycles(MEMORY_BOUND, memory_latency=150)
        fast = self.cycles(MEMORY_BOUND, memory_latency=50)
        assert slow > fast * 1.05

    def test_wider_issue_helps(self):
        narrow = self.cycles(ALL_PROGRAMS["nested_loops"], issue_width=2)
        wide = self.cycles(ALL_PROGRAMS["nested_loops"], issue_width=4)
        assert wide < narrow

    def test_bigger_ruu_helps(self):
        small = self.cycles(MEMORY_BOUND, ruu_size=16)
        big = self.cycles(MEMORY_BOUND, ruu_size=128)
        assert big < small

    def test_bigger_dcache_helps_memory_bound(self):
        small = self.cycles(MEMORY_BOUND, dcache_size=8 * 1024)
        big = self.cycles(MEMORY_BOUND, dcache_size=128 * 1024)
        assert big < small

    def test_l2_latency_hurts(self):
        slow = self.cycles(MEMORY_BOUND, l2_latency=16)
        fast = self.cycles(MEMORY_BOUND, l2_latency=6)
        assert slow > fast

    def test_bpred_quality_matters_on_branchy_code(self):
        # A branchy program with data-dependent outcomes: any predictor
        # mispredicts some; the penalty must show up in cycles vs a
        # loop-only program of equal instruction count.
        branchy = self.cycles(BRANCHY)
        assert branchy > 0  # smoke: exercised the predictor path

    def test_dcache_latency_hurts(self):
        slow = self.cycles(MEMORY_BOUND, dcache_latency=3)
        fast = self.cycles(MEMORY_BOUND, dcache_latency=1)
        assert slow > fast


class TestCompilerVisibleEffects:
    def test_o2_faster_than_o0(self):
        mc = MicroarchConfig()
        exe0, fr0 = build(ALL_PROGRAMS["calls_and_branches"], CompilerConfig())
        exe2, fr2 = build(ALL_PROGRAMS["calls_and_branches"], O2)
        c0 = OooTimingModel(exe0, mc).simulate_trace(fr0.trace).cycles
        c2 = OooTimingModel(exe2, mc).simulate_trace(fr2.trace).cycles
        assert c2 < c0

    def test_prefetch_helps_latency_bound_streaming(self):
        # A 512KB stream through a 256KB L2 on a small-RUU core: the
        # window holds too few iterations to overlap memory misses, so
        # software prefetch's extra lookahead wins.  (On a large-RUU or
        # bus-bound machine the flag is useless -- exactly the prefetch x
        # microarchitecture interaction the paper models.)
        src = """
        int N = 65536;
        int big[65536];
        int main() {
            int i;
            int s = 0;
            for (i = 0; i < N; i = i + 4) { s = s + big[i]; }
            return s;
        }
        """
        base = CompilerConfig(loop_optimize=True)
        with_pf = dataclasses.replace(base, prefetch_loop_arrays=True)
        mc = MicroarchConfig(
            dcache_size=8 * 1024,
            l2_size=256 * 1024,
            memory_latency=150,
            ruu_size=16,
        )
        exe_a, fr_a = build(src, base, issue_width=4)
        exe_b, fr_b = build(src, with_pf, issue_width=4)
        plain = OooTimingModel(exe_a, mc).simulate_trace(fr_a.trace).cycles
        pf = OooTimingModel(exe_b, mc).simulate_trace(fr_b.trace).cycles
        assert pf < plain * 0.9


class TestSmarts:
    def test_estimate_close_to_detailed(self):
        exe, fr = build(MEMORY_BOUND)
        mc = MicroarchConfig()
        detailed = OooTimingModel(exe, mc).simulate_trace(fr.trace)
        est = smarts_simulate(exe, mc, fr.trace, unit_size=1000, interval=3)
        err = abs(est.estimated_cycles - detailed.cycles) / detailed.cycles
        assert err < 0.08

    def test_denser_sampling_reduces_error_bound(self):
        exe, fr = build(MEMORY_BOUND)
        mc = MicroarchConfig()
        sparse = smarts_simulate(exe, mc, fr.trace, interval=10)
        dense = smarts_simulate(exe, mc, fr.trace, interval=2)
        assert dense.sampled_units > sparse.sampled_units
        assert dense.relative_error <= sparse.relative_error * 1.5

    def test_short_trace_falls_back_to_detailed(self):
        exe, fr = build("int main() { return 1; }")
        mc = MicroarchConfig()
        est = smarts_simulate(exe, mc, fr.trace, unit_size=1000, interval=50)
        assert est.relative_error == 0.0

    def test_invalid_parameters(self):
        exe, fr = build("int main() { return 1; }")
        with pytest.raises(ValueError):
            smarts_simulate(exe, MicroarchConfig(), fr.trace, unit_size=0)

    def test_simulate_entry_point_modes(self):
        exe, fr = build(ALL_PROGRAMS["sum_loop"])
        mc = MicroarchConfig()
        det = simulate(exe, mc, mode="detailed", functional=fr)
        smt = simulate(exe, mc, mode="smarts", functional=fr)
        assert det.return_value == smt.return_value
        with pytest.raises(ValueError):
            simulate(exe, mc, mode="magic", functional=fr)
