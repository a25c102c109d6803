"""The simulator allocates no per-set or per-instruction containers.

Every Python container is tracked by the cyclic garbage collector, and a
full collection walks all of them, so a cache hierarchy creates a set's
way list on first touch and the functional trace is recorded as two int
lists, never as one tuple per instruction.
"""

import gc
import tracemalloc
import weakref

from repro.codegen import compile_module
from repro.minic import compile_source
from repro.opt import CompilerConfig
from repro.sim import Cache, CacheHierarchy, MicroarchConfig, PackedTrace, tables_for
from repro.sim.config import MB
from repro.sim.func import execute
from tests.util import ALL_PROGRAMS


class TestCacheSetsOnFirstTouch:
    def test_large_direct_mapped_l2_costs_no_per_set_memory(self):
        config = MicroarchConfig(l2_size=8 * MB, l2_assoc=1)  # 262,144 sets
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hierarchy = CacheHierarchy(config)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert hierarchy.ul2.n_sets == 262_144
        assert allocated < 1 * MB, f"{allocated} bytes for an untouched hierarchy"

    def test_probe_creates_no_set(self):
        c = Cache(1024, 2, 32)
        assert not c.probe(0)
        assert not c.probe(4096)
        assert len(c._sets) == 0

    def test_access_creates_only_the_touched_set(self):
        c = Cache(1024, 2, 32)
        c.access(0)
        c.access(1024)  # same set, other tag
        assert len(c._sets) == 1
        assert c.probe(0) and c.probe(1024)


class TestPackedFunctionalTrace:
    def _run(self, **kw):
        exe = compile_module(
            compile_source(ALL_PROGRAMS["sum_loop"]), CompilerConfig()
        )
        return execute(exe, **kw)

    def test_trace_is_packed_with_one_entry_per_instruction(self):
        r = self._run(collect_trace=True)
        assert isinstance(r.trace, PackedTrace)
        assert len(r.trace) == r.instruction_count
        assert r.trace.pcs_list == r.trace.pcs.tolist()
        assert r.trace.eas_list == r.trace.eas.tolist()
        assert r.trace[-1] == (r.trace.pcs_list[-1], -1)  # halt

    def test_no_trace_when_not_collected(self):
        r = self._run(collect_trace=False)
        assert r.trace is None
        assert r.instruction_count > 0


class TestTraceTablesLifetime:
    def test_tables_are_freed_with_their_executable_without_a_collection(self):
        """tables_for attaches the tables to the executable; a reference
        back from the tables would leave both for the collector."""
        exe = compile_module(
            compile_source(ALL_PROGRAMS["sum_loop"]), CompilerConfig()
        )
        trace = execute(exe).trace
        tables = weakref.ref(tables_for(exe, trace))
        gc.disable()
        try:
            del exe, trace
            assert tables() is None
        finally:
            gc.enable()
