"""Trace-driven out-of-order superscalar timing model.

A SimpleScalar-sim-outorder-style model driven by the functional trace:

* **fetch** -- ``issue_width`` sequential instructions per cycle, broken
  by taken control transfers; I-cache misses stall the front end; branch
  mispredictions (direction, BTB target, or RAS) redirect fetch when the
  branch resolves, plus a fixed penalty;
* **dispatch** -- a fixed front-end depth after fetch, stalling when the
  ``ruu_size``-entry register update unit is full (an instruction's slot
  frees when it commits);
* **issue** -- an instruction issues when its sources are ready and a
  functional unit of its class is free (FU counts from the machine
  description, i.e. from the issue width); loads check the store buffer
  for same-block forwarding, stores wait for a free store-buffer entry
  and drain through the cache hierarchy in the background;
* **commit** -- in order, ``issue_width`` per cycle.

Execution time is the commit cycle of the last instruction.

Which cache level serves each access and which control transfers are
mispredicted do not depend on timing, so they come from the outcome
passes of :mod:`repro.sim.outcomes`; :meth:`OooTimingModel.time_window`
is a timing-only loop that reads them.  Bus contention, store
forwarding and all pipeline state stay in the loop.  The results are
bit-identical to the earlier model that probed tags inline:
``tests/test_sim_memo.py``, ``tests/test_sim_window_golden.py`` and
``tests/test_sim_outcomes.py`` pin cycles and statistics captured from
it.

The loop indexes flat per-position tables precomputed by
:mod:`repro.sim.tracepack` (class codes, latencies, destination/source
registers, branch outcomes) and allocates no container per
instruction: the RUU is an index into the window's list of commit
cycles (an instruction waits for the commit ``ruu_size`` positions
earlier), the measurement bounds are read from that list after the
loop, and each functional-unit pool is a heap of free times.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.linker import Executable
from repro.codegen.machine_desc import MachineDescription
from repro.obs import counter
from repro.sim.bpred import MISPREDICT, WRONG_DIRECTION
from repro.sim.config import MicroarchConfig
from repro.sim.outcomes import L1_HIT, L2_HIT, MEMORY, Outcomes, Segment, outcomes_for
from repro.sim.tracepack import (
    BRANCH as _BRANCH,
    CALL as _CALL,
    CLASS_CODE as _CLASS_CODE,
    JUMP as _JUMP,
    LOAD as _LOAD,
    NOP as _NOP,
    PF as _PF,
    RET as _RET,
    STORE as _STORE,
    tables_for,
)

# Hot-loop telemetry.  Accumulated in local ints inside time_window and
# flushed once per window, so the per-instruction path never touches a
# lock; totals explain *where* simulated cycles go (ROADMAP items 1-2).
_INSTRUCTIONS = counter("sim.ooo.instructions")
_MISPREDICTS = counter("sim.ooo.branch_mispredicts")
_ICACHE_STALLS = counter("sim.ooo.icache_stall_cycles")
_RUU_STALLS = counter("sim.ooo.ruu_stalls")

#: Front-end pipeline depth between fetch and dispatch.
FRONT_DEPTH = 2


@dataclass
class TimingResult:
    """Outcome of a detailed timing simulation."""

    cycles: int
    instructions: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class TimingCounts:
    """Cache, bus and predictor statistics of the windows a model timed."""

    il1_hits: int = 0
    il1_misses: int = 0
    dl1_hits: int = 0
    dl1_misses: int = 0
    ul2_hits: int = 0
    ul2_misses: int = 0
    memory_accesses: int = 0
    bpred_lookups: int = 0
    bpred_mispredictions: int = 0


class OooTimingModel:
    """Timing of one executable on one configuration.

    :meth:`run` times the detailed segments of a schedule (see
    :mod:`repro.sim.outcomes`); ``counts`` accumulates the statistics of
    every window timed.
    """

    def __init__(self, exe: Executable, config: MicroarchConfig):
        self.exe = exe
        self.config = config
        self.mdesc = MachineDescription.for_issue_width(config.issue_width)
        self.counts = TimingCounts()

    def outcomes(
        self, trace: Sequence[Tuple[int, int]], schedule: Sequence[Segment]
    ) -> Outcomes:
        """Cache and branch outcomes of ``schedule`` on this configuration."""
        return outcomes_for(tables_for(self.exe, trace), schedule, self.config)

    def run(
        self,
        trace: Sequence[Tuple[int, int]],
        schedule: Sequence[Segment],
        bounds: Optional[Sequence[Tuple[Optional[int], Optional[int]]]] = None,
    ) -> List[TimingResult]:
        """Time every detailed segment of ``schedule``, in order.

        ``bounds[w]`` is the ``(measure_from, measure_to)`` of the
        ``w``-th detailed segment (see :meth:`time_window`).
        """
        outcomes = self.outcomes(trace, schedule)
        return [
            self.time_window(outcomes, w, *(bounds[w] if bounds else (None, None)))
            for w in range(len(outcomes.windows))
        ]

    def simulate_trace(self, trace: Sequence[Tuple[int, int]]) -> TimingResult:
        """Detailed timing for the whole trace (the reference simulator)."""
        return self.run(trace, [(0, len(trace), True)])[0]

    # ------------------------------------------------------------------
    def time_window(
        self,
        outcomes: Outcomes,
        w: int,
        measure_from: Optional[int] = None,
        measure_to: Optional[int] = None,
    ) -> TimingResult:
        """Detailed timing of the ``w``-th detailed segment of ``outcomes``.

        Pipeline state (register readiness, FU occupancy, RUU, store
        buffer, memory bus) starts cold at relative cycle 0.  When
        ``measure_from`` / ``measure_to`` are given, only the
        commit-time interval between those trace positions is reported:
        instructions before ``measure_from`` are *detailed warming*
        (removing cold-pipeline bias) and instructions after
        ``measure_to`` are *cooldown* (keeping the pipe full at the
        window's end so its drain is not billed to the window) --
        SMARTS-style window bracketing.
        """
        start, end = outcomes.windows[w]
        il1 = outcomes.il1[w]
        dat = outcomes.data[w]
        brf = outcomes.branch[w]
        retf = outcomes.ret[w]
        T = outcomes.tables
        cfg = self.config
        mdesc = self.mdesc
        block_size = cfg.block_size
        width = cfg.issue_width
        ruu_size = cfg.ruu_size
        sbuf_size = cfg.store_buffer_size
        penalty = cfg.mispredict_penalty
        icache_lat = cfg.icache_latency
        dcache_lat = cfg.dcache_latency
        l2_lat = cfg.l2_latency
        mem_lat = cfg.memory_latency
        btc = cfg.bus_transfer_cycles

        # Flat per-position tables (precomputed once per binary+trace).
        eas = T.eas
        cls_pos = T.cls
        lat_pos = T.lat_for(mdesc)
        dst_pos = T.dst
        srcs_pos = T.srcs
        taken_pos = T.taken

        i_hits = 0
        bus_free = 0
        mem_acc = 0

        # Control ops and NOPs contend only for issue bandwidth (no FU
        # pool), exactly as in the per-event model.
        fu_pools: List[Optional[List[int]]] = [None] * 12
        for op_class, code in _CLASS_CODE.items():
            if code in (_BRANCH, _JUMP, _CALL, _RET, _NOP):
                continue
            n_units = mdesc.units(op_class)
            if n_units:
                fu_pools[code] = [0] * n_units
        regs_ready = [0] * 64
        # commits[p - start] is the last commit cycle before position p
        # (0 at start).  Position i waits for its RUU entry to be freed
        # by the commit of position i - ruu_size.
        commits: List[int] = [0]
        commit_append = commits.append
        ruu_off = start + ruu_size - 1
        store_buffer: List[Tuple[int, int]] = []  # (drain_time, block)

        fetch_cycle = 0
        slots = 0
        # The front end fetches the window's first instruction and the
        # target of every redirect or taken transfer through the IL1
        # even inside the current block (an MRU hit: no outcome needed).
        refetch = True
        redirect_at = 0
        last_commit = 0
        commits_this_cycle = 0

        n_mispredicts = 0
        n_icache_stall_cycles = 0
        n_ruu_stalls = 0
        k = -1
        for i in range(start, end):
            k += 1
            code = cls_pos[i]

            # ---------------- fetch ----------------
            if redirect_at > fetch_cycle:
                fetch_cycle = redirect_at
                slots = 0
                refetch = True
            lv = il1[k]
            if lv or refetch:
                refetch = False
                if lv > L1_HIT:
                    ilat = icache_lat + l2_lat
                    if lv == MEMORY:
                        req = fetch_cycle + ilat
                        bstart = req if req > bus_free else bus_free
                        bus_free = bstart + btc
                        mem_acc += 1
                        ilat += (bstart - req) + mem_lat
                    if ilat > icache_lat:
                        fetch_cycle += ilat - icache_lat
                        n_icache_stall_cycles += ilat - icache_lat
                        slots = 0
                else:
                    i_hits += 1
            if slots >= width:
                fetch_cycle += 1
                slots = 0
            fetch_time = fetch_cycle
            slots += 1

            # ---------------- dispatch (RUU) ----------------
            disp = fetch_time + FRONT_DEPTH
            if i > ruu_off:
                oldest = commits[i - ruu_off]
                if oldest > disp:
                    disp = oldest
                    n_ruu_stalls += 1

            # ---------------- issue ----------------
            ready = disp
            for r in srcs_pos[i]:
                t = regs_ready[r]
                if t > ready:
                    ready = t
            issue = ready
            pool = fu_pools[code]
            if pool is not None:
                # Units of a class are interchangeable: only the earliest
                # free time matters, so each pool is a heap.
                if pool[0] > issue:
                    issue = pool[0]
                heapreplace(pool, issue + 1)

            # ---------------- execute / complete ----------------
            if code < _LOAD:  # ALU and FP operations
                complete = issue + lat_pos[i]
            elif code == _LOAD:
                eb = eas[i] // block_size
                fwd = False
                for drain, sblock in store_buffer:
                    if sblock == eb and drain > issue:
                        fwd = True
                        break
                lv = dat[k]
                dlat = dcache_lat if lv == L1_HIT else dcache_lat + l2_lat
                if lv == MEMORY and not fwd:
                    req = issue + dlat
                    bstart = req if req > bus_free else bus_free
                    bus_free = bstart + btc
                    mem_acc += 1
                    dlat += (bstart - req) + mem_lat
                complete = issue + 1 if fwd else issue + dlat
            elif code == _STORE:
                if store_buffer:
                    store_buffer = [sb for sb in store_buffer if sb[0] > issue]
                    if len(store_buffer) >= sbuf_size:
                        earliest = min(sb[0] for sb in store_buffer)
                        if earliest > issue:
                            issue = earliest
                        store_buffer = [
                            sb for sb in store_buffer if sb[0] > issue
                        ]
                lv = dat[k]
                dlat = dcache_lat if lv == L1_HIT else dcache_lat + l2_lat
                if lv == MEMORY:
                    req = issue + dlat
                    bstart = req if req > bus_free else bus_free
                    bus_free = bstart + btc
                    mem_acc += 1
                    dlat += (bstart - req) + mem_lat
                store_buffer.append((issue + dlat, eas[i] // block_size))
                complete = issue + 1
            elif code == _PF:
                # A non-binding prefetch: a memory miss occupies the bus.
                if dat[k] == MEMORY:
                    req = issue + l2_lat
                    bstart = req if req > bus_free else bus_free
                    bus_free = bstart + btc
                    mem_acc += 1
                complete = issue + 1
            else:
                # ---------------- control flow ----------------
                complete = issue + lat_pos[i]
                if code == _BRANCH:
                    if brf[k]:
                        t = complete + penalty
                        if t > redirect_at:
                            redirect_at = t
                        n_mispredicts += 1
                    elif taken_pos[i]:
                        fetch_cycle = fetch_time + 1
                        slots = 0
                        refetch = True
                elif code == _RET:
                    if retf[k]:
                        t = complete + penalty
                        if t > redirect_at:
                            redirect_at = t
                        n_mispredicts += 1
                    else:
                        fetch_cycle = fetch_time + 1
                        slots = 0
                        refetch = True
                elif code != _NOP:  # jumps and calls
                    fetch_cycle = fetch_time + 1
                    slots = 0
                    refetch = True

            d = dst_pos[i]
            if d >= 0:
                regs_ready[d] = complete

            # ---------------- commit ----------------
            if complete > last_commit:
                last_commit = complete
                commits_this_cycle = 1
            elif commits_this_cycle >= width:
                last_commit += 1
                commits_this_cycle = 1
            else:
                commits_this_cycle += 1
            commit_append(last_commit)

        # Every access of the outcome arrays happened; the IL1 also hit on
        # each refetch inside the current block.
        c = self.counts
        c.il1_hits += i_hits
        c.il1_misses += il1.count(L2_HIT) + il1.count(MEMORY)
        c.dl1_hits += dat.count(L1_HIT)
        c.dl1_misses += dat.count(L2_HIT) + dat.count(MEMORY)
        c.ul2_hits += il1.count(L2_HIT) + dat.count(L2_HIT)
        c.ul2_misses += il1.count(MEMORY) + dat.count(MEMORY)
        c.memory_accesses += mem_acc
        c.bpred_lookups += int(
            np.diff(np.searchsorted(T.positions("branch"), (start, end)))[0]
        )
        c.bpred_mispredictions += brf.count(MISPREDICT | WRONG_DIRECTION)

        # A bound outside [start, end) reads 0 for measure_from and the
        # window's last commit for measure_to.
        measure_from = start if measure_from is None else measure_from
        measure_to = end if measure_to is None else measure_to
        warm_boundary_commit = (
            commits[measure_from - start] if start <= measure_from < end else 0
        )
        end_boundary_commit = (
            commits[measure_to - start] if start <= measure_to < end else last_commit
        )
        _INSTRUCTIONS.inc(end - start)
        if n_mispredicts:
            _MISPREDICTS.inc(n_mispredicts)
        if n_icache_stall_cycles:
            _ICACHE_STALLS.inc(n_icache_stall_cycles)
        if n_ruu_stalls:
            _RUU_STALLS.inc(n_ruu_stalls)
        return TimingResult(
            cycles=end_boundary_commit - warm_boundary_commit,
            instructions=measure_to - measure_from,
        )
