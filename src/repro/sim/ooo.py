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

Execution time is the commit cycle of the last instruction.  The model
keeps real cache tag and predictor state, which may be shared with a
SMARTS warming pass (:mod:`repro.sim.smarts`).

Hot-loop implementation notes
-----------------------------
The per-instruction loops index flat per-position tables precomputed by
:mod:`repro.sim.tracepack` (class codes, latencies, destination/source
registers, instruction-block ids, branch outcomes) instead of chasing
``trace[i] -> instr -> attribute`` chains, and the L1/L2 tag arrays,
branch predictor tables, BTB and RAS are updated inline with local
variables (statistics accumulate in local ints and flush once per
window).  The semantics are bit-identical to the original per-event
model -- the golden-measurement test (``tests/test_sim_memo.py``) pins
cycles/checksums captured from the pre-flattening implementation, and
``tests/test_sim_window_golden.py`` pins ``simulate_window``'s
measurement bracketing.

The detailed loop allocates no container per instruction: the RUU is an
index into the window's list of commit cycles (an instruction waits for
the commit ``ruu_size`` positions earlier), the measurement bounds are
read from that list after the loop, and a functional unit is chosen by
``min`` + ``index`` over its pool.  Cache sets are created on first
touch (:mod:`repro.sim.cache`).

``warm`` walks only the precomputed *event list* (block changes, memory
operations, control transfers) -- straight-line ALU instructions inside
an already-tracked I-cache block touch no state during functional
warming, so they are skipped wholesale.  ``replay_window`` reproduces a
detailed window's cache/predictor *state* (and statistics) without the
pipeline timing -- the memo-hit path of :mod:`repro.sim.smarts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.codegen.machine_desc import MachineDescription
from repro.obs import counter
from repro.sim.bpred import BranchTargetBuffer, CombinedPredictor, ReturnAddressStack
from repro.sim.cache import CacheHierarchy
from repro.sim.config import MicroarchConfig
from repro.sim.tracepack import (
    BRANCH as _BRANCH,
    CALL as _CALL,
    CLASS_CODE as _CLASS_CODE,
    EV_BRANCH,
    EV_CALL,
    EV_DATA,
    EV_INST,
    EV_JUMP,
    EV_PF,
    EV_RET,
    JUMP as _JUMP,
    LOAD as _LOAD,
    NOP as _NOP,
    PF as _PF,
    RET as _RET,
    STORE as _STORE,
    TraceTables,
    tables_for,
)

# Hot-loop telemetry.  Accumulated in local ints inside simulate_window
# and flushed once per window, so the per-instruction path never touches
# a lock; totals explain *where* simulated cycles go (ROADMAP items 1-2).
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

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class OooTimingModel:
    """Reusable timing state for one executable on one configuration."""

    def __init__(self, exe: Executable, config: MicroarchConfig):
        self.exe = exe
        self.config = config
        self.mdesc = MachineDescription.for_issue_width(config.issue_width)
        self.hierarchy = CacheHierarchy(config)
        self.bpred = CombinedPredictor(config.bpred_size)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack()

    def _tables(self, trace: Sequence[Tuple[int, int]]) -> TraceTables:
        return tables_for(self.exe, trace)

    # ------------------------------------------------------------------
    def simulate_window(
        self,
        trace: Sequence[Tuple[int, int]],
        start: int,
        end: int,
        measure_from: Optional[int] = None,
        measure_to: Optional[int] = None,
    ) -> TimingResult:
        """Detailed timing for trace[start:end].

        Pipeline state (register readiness, FU occupancy, RUU, store
        buffer) starts cold at relative cycle 0; cache and predictor
        state persists across calls.  When ``measure_from`` /
        ``measure_to`` are given, only the commit-time interval between
        those trace positions is reported: instructions before
        ``measure_from`` are *detailed warming* (removing cold-pipeline
        bias) and instructions after ``measure_to`` are *cooldown*
        (keeping the pipe full at the window's end so its drain is not
        billed to the window) -- SMARTS-style window bracketing.
        """
        cfg = self.config
        mdesc = self.mdesc
        hierarchy = self.hierarchy
        bpred = self.bpred
        btb = self.btb
        ras = self.ras
        T = self._tables(trace)
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
        pcs = T.pcs
        blocks = T.blocks_for(block_size)
        taken_pos = T.taken
        next_pos = T.next_pc

        # Inline cache state: local bindings of the tag arrays, stats in
        # local ints, flushed after the loop.
        il1 = hierarchy.il1
        dl1 = hierarchy.dl1
        ul2 = hierarchy.ul2
        i_sets = il1._sets
        i_nsets = il1.n_sets
        i_assoc = il1.assoc
        d_sets = dl1._sets
        d_nsets = dl1.n_sets
        d_assoc = dl1.assoc
        l_sets = ul2._sets
        l_nsets = ul2.n_sets
        l_assoc = ul2.assoc
        i_hits = i_miss = d_hits = d_miss = l_hits = l_miss = 0
        hierarchy.reset_bus()
        bus_free = 0
        mem_acc = 0

        # Inline branch predictor / BTB / RAS state.
        bim_tab = bpred._bimodal
        gsh_tab = bpred._gshare
        cho_tab = bpred._chooser
        bp_mask = bpred._mask
        history = bpred._history
        h_mask = bpred._history_mask
        bp_lookups = bp_wrong = 0
        btb_tags = btb._tags
        btb_targets = btb._targets
        btb_mask = btb._mask
        ras_stack = ras._stack
        ras_depth = ras.depth

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
        cur_block = -1
        redirect_at = 0
        last_commit = 0
        last_commit_cycle = -1
        commits_this_cycle = 0

        n_mispredicts = 0
        n_icache_stall_cycles = 0
        n_ruu_stalls = 0
        for i in range(start, end):
            code = cls_pos[i]

            # ---------------- fetch ----------------
            if redirect_at > fetch_cycle:
                fetch_cycle = redirect_at
                slots = 0
                cur_block = -1
            block = blocks[i]
            if block != cur_block:
                # Inline inst_latency(byte_addr, fetch_cycle).
                si = block % i_nsets
                tag = block // i_nsets
                ways = i_sets[si]
                if ways and ways[-1] == tag:
                    i_hits += 1
                    ilat = icache_lat
                else:
                    try:
                        ways.remove(tag)
                        ways.append(tag)
                        i_hits += 1
                        ilat = icache_lat
                    except ValueError:
                        i_miss += 1
                        ways.append(tag)
                        if len(ways) > i_assoc:
                            del ways[0]
                        ilat = icache_lat + l2_lat
                        si2 = block % l_nsets
                        tag2 = block // l_nsets
                        ways2 = l_sets[si2]
                        if ways2 and ways2[-1] == tag2:
                            l_hits += 1
                        else:
                            try:
                                ways2.remove(tag2)
                                ways2.append(tag2)
                                l_hits += 1
                            except ValueError:
                                l_miss += 1
                                ways2.append(tag2)
                                if len(ways2) > l_assoc:
                                    del ways2[0]
                                req = fetch_cycle + ilat
                                bstart = req if req > bus_free else bus_free
                                bus_free = bstart + btc
                                mem_acc += 1
                                ilat += (bstart - req) + mem_lat
                if ilat > icache_lat:
                    fetch_cycle += ilat - icache_lat
                    n_icache_stall_cycles += ilat - icache_lat
                    slots = 0
                cur_block = block
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
                best_t = min(pool)
                best = pool.index(best_t)
                if best_t > issue:
                    issue = best_t
                pool[best] = issue + 1

            # ---------------- execute / complete ----------------
            if code == _LOAD:
                ea = eas[i]
                eb = ea // block_size
                fwd = False
                for drain, sblock in store_buffer:
                    if sblock == eb and drain > issue:
                        fwd = True
                        break
                # Inline dl1/ul2 access (same tag updates whether the
                # store buffer forwards or the hierarchy serves it).
                si = eb % d_nsets
                tag = eb // d_nsets
                ways = d_sets[si]
                if ways and ways[-1] == tag:
                    d_hits += 1
                    dlat = dcache_lat
                    l2_needed = False
                else:
                    try:
                        ways.remove(tag)
                        ways.append(tag)
                        d_hits += 1
                        dlat = dcache_lat
                        l2_needed = False
                    except ValueError:
                        d_miss += 1
                        ways.append(tag)
                        if len(ways) > d_assoc:
                            del ways[0]
                        dlat = dcache_lat + l2_lat
                        l2_needed = True
                if l2_needed:
                    si2 = eb % l_nsets
                    tag2 = eb // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
                            if not fwd:
                                req = issue + dlat
                                bstart = req if req > bus_free else bus_free
                                bus_free = bstart + btc
                                mem_acc += 1
                                dlat += (bstart - req) + mem_lat
                complete = issue + 1 if fwd else issue + dlat
            elif code == _STORE:
                ea = eas[i]
                if store_buffer:
                    store_buffer = [sb for sb in store_buffer if sb[0] > issue]
                    if len(store_buffer) >= sbuf_size:
                        earliest = min(sb[0] for sb in store_buffer)
                        if earliest > issue:
                            issue = earliest
                        store_buffer = [
                            sb for sb in store_buffer if sb[0] > issue
                        ]
                eb = ea // block_size
                si = eb % d_nsets
                tag = eb // d_nsets
                ways = d_sets[si]
                if ways and ways[-1] == tag:
                    d_hits += 1
                    dlat = dcache_lat
                else:
                    try:
                        ways.remove(tag)
                        ways.append(tag)
                        d_hits += 1
                        dlat = dcache_lat
                    except ValueError:
                        d_miss += 1
                        ways.append(tag)
                        if len(ways) > d_assoc:
                            del ways[0]
                        dlat = dcache_lat + l2_lat
                        si2 = eb % l_nsets
                        tag2 = eb // l_nsets
                        ways2 = l_sets[si2]
                        if ways2 and ways2[-1] == tag2:
                            l_hits += 1
                        else:
                            try:
                                ways2.remove(tag2)
                                ways2.append(tag2)
                                l_hits += 1
                            except ValueError:
                                l_miss += 1
                                ways2.append(tag2)
                                if len(ways2) > l_assoc:
                                    del ways2[0]
                                req = issue + dlat
                                bstart = req if req > bus_free else bus_free
                                bus_free = bstart + btc
                                mem_acc += 1
                                dlat += (bstart - req) + mem_lat
                store_buffer.append((issue + dlat, eb))
                complete = issue + 1
            elif code == _PF:
                # Inline hierarchy.prefetch(ea, issue).
                ea = eas[i]
                eb = ea // block_size
                si = eb % d_nsets
                tag = eb // d_nsets
                ways = d_sets[si]
                pf_l1_hit = False
                if ways and ways[-1] == tag:
                    d_hits += 1
                    pf_l1_hit = True
                else:
                    try:
                        ways.remove(tag)
                        ways.append(tag)
                        d_hits += 1
                        pf_l1_hit = True
                    except ValueError:
                        d_miss += 1
                        ways.append(tag)
                        if len(ways) > d_assoc:
                            del ways[0]
                if not pf_l1_hit:
                    si2 = eb % l_nsets
                    tag2 = eb // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
                            req = issue + l2_lat
                            bstart = req if req > bus_free else bus_free
                            bus_free = bstart + btc
                            mem_acc += 1
                complete = issue + 1
            else:
                complete = issue + lat_pos[i]

            d = dst_pos[i]
            if d >= 0:
                regs_ready[d] = complete

            # ---------------- control flow ----------------
            if code == _BRANCH:
                pc = pcs[i]
                taken = taken_pos[i]
                # Inline bpred.predict_and_update(pc, taken).
                pcm = pc & bp_mask
                gsh = (pc ^ history) & bp_mask
                if cho_tab[pcm] >= 2:
                    pred = bim_tab[pcm] >= 2
                else:
                    pred = gsh_tab[gsh] >= 2
                bp_lookups += 1
                if pred != taken:
                    bp_wrong += 1
                bim_p = bim_tab[pcm] >= 2
                gsh_p = gsh_tab[gsh] >= 2
                if bim_p != gsh_p:
                    c = cho_tab[pcm]
                    if bim_p == taken:
                        cho_tab[pcm] = c + 1 if c < 3 else 3
                    else:
                        cho_tab[pcm] = c - 1 if c > 0 else 0
                b = bim_tab[pcm]
                g = gsh_tab[gsh]
                if taken:
                    bim_tab[pcm] = b + 1 if b < 3 else 3
                    gsh_tab[gsh] = g + 1 if g < 3 else 3
                    history = ((history << 1) | 1) & h_mask
                else:
                    bim_tab[pcm] = b - 1 if b > 0 else 0
                    gsh_tab[gsh] = g - 1 if g > 0 else 0
                    history = (history << 1) & h_mask
                if taken:
                    next_pc = next_pos[i]
                    bi = pc & btb_mask
                    pred_target = (
                        btb_targets[bi] if btb_tags[bi] == pc else None
                    )
                    btb_tags[bi] = pc
                    btb_targets[bi] = next_pc
                    mispredict = (not pred) or pred_target != next_pc
                else:
                    mispredict = pred
                if mispredict:
                    t = complete + penalty
                    if t > redirect_at:
                        redirect_at = t
                    n_mispredicts += 1
                elif taken:
                    fetch_cycle = fetch_time + 1
                    slots = 0
                    cur_block = -1
            elif code == _JUMP:
                fetch_cycle = fetch_time + 1
                slots = 0
                cur_block = -1
            elif code == _CALL:
                ras_stack.append(pcs[i] + 1)
                if len(ras_stack) > ras_depth:
                    del ras_stack[0]
                fetch_cycle = fetch_time + 1
                slots = 0
                cur_block = -1
            elif code == _RET:
                pred_pc = ras_stack.pop() if ras_stack else None
                if pred_pc != next_pos[i]:
                    t = complete + penalty
                    if t > redirect_at:
                        redirect_at = t
                    n_mispredicts += 1
                else:
                    fetch_cycle = fetch_time + 1
                    slots = 0
                    cur_block = -1

            # ---------------- commit ----------------
            commit = complete if complete > last_commit else last_commit
            if commit == last_commit_cycle:
                if commits_this_cycle >= width:
                    commit += 1
                    commits_this_cycle = 1
                else:
                    commits_this_cycle += 1
            else:
                commits_this_cycle = 1
            last_commit_cycle = commit
            last_commit = commit
            commit_append(commit)

        # Flush inline state and statistics back to the model objects.
        il1.hits += i_hits
        il1.misses += i_miss
        dl1.hits += d_hits
        dl1.misses += d_miss
        ul2.hits += l_hits
        ul2.misses += l_miss
        hierarchy.bus_free = bus_free
        hierarchy.memory_accesses += mem_acc
        bpred._history = history
        bpred.lookups += bp_lookups
        bpred.mispredictions += bp_wrong

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

    def simulate_trace(
        self, trace: Sequence[Tuple[int, int]]
    ) -> TimingResult:
        """Detailed timing for the whole trace (the reference simulator)."""
        return self.simulate_window(trace, 0, len(trace))

    # ------------------------------------------------------------------
    def warm(self, trace: Sequence[Tuple[int, int]], start: int, end: int) -> None:
        """Functional warming only: update caches and predictors.

        Used by SMARTS between detailed windows; no timing state changes.
        Only *event* positions are visited: instruction-block changes,
        loads/stores/prefetches, and control transfers.  Straight-line
        instructions inside an already-tracked block touch no warming
        state, so skipping them is exact, not an approximation.
        """
        if start >= end:
            return
        cfg = self.config
        hierarchy = self.hierarchy
        bpred = self.bpred
        btb = self.btb
        T = self._tables(trace)
        block_size = cfg.block_size
        l2_lat = cfg.l2_latency
        btc = cfg.bus_transfer_cycles

        eas = T.eas
        pcs = T.pcs
        taken_pos = T.taken
        next_pos = T.next_pc
        byte_pos = T.byte_addr

        il1 = hierarchy.il1
        dl1 = hierarchy.dl1
        ul2 = hierarchy.ul2
        i_sets = il1._sets
        i_nsets = il1.n_sets
        i_assoc = il1.assoc
        d_sets = dl1._sets
        d_nsets = dl1.n_sets
        d_assoc = dl1.assoc
        l_sets = ul2._sets
        l_nsets = ul2.n_sets
        l_assoc = ul2.assoc
        i_hits = i_miss = d_hits = d_miss = l_hits = l_miss = 0
        bus_free = hierarchy.bus_free
        mem_acc = 0

        bim_tab = bpred._bimodal
        gsh_tab = bpred._gshare
        cho_tab = bpred._chooser
        bp_mask = bpred._mask
        history = bpred._history
        h_mask = bpred._history_mask
        btb_tags = btb._tags
        btb_targets = btb._targets
        btb_mask = btb._mask
        ras_stack = self.ras._stack
        ras_depth = self.ras.depth

        from bisect import bisect_left

        ev_pos, ev_kind = T.events_for(block_size)
        lo = bisect_left(ev_pos, start)
        hi = bisect_left(ev_pos, end)
        # The warm loop tracks the current instruction block per call
        # (reset at the window start), so the first instruction always
        # warms IL1 even mid-block, unless its block-change event is
        # about to do exactly that.
        if lo >= hi or ev_pos[lo] != start or ev_kind[lo] != EV_INST:
            blk = byte_pos[start] // block_size
            si = blk % i_nsets
            tag = blk // i_nsets
            ways = i_sets[si]
            if ways and ways[-1] == tag:
                i_hits += 1
            else:
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    i_hits += 1
                except ValueError:
                    i_miss += 1
                    ways.append(tag)
                    if len(ways) > i_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]

        for idx in range(lo, hi):
            kind = ev_kind[idx]
            i = ev_pos[idx]
            if kind == EV_INST:
                blk = byte_pos[i] // block_size
                si = blk % i_nsets
                tag = blk // i_nsets
                ways = i_sets[si]
                if ways and ways[-1] == tag:
                    i_hits += 1
                    continue
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    i_hits += 1
                except ValueError:
                    i_miss += 1
                    ways.append(tag)
                    if len(ways) > i_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
            elif kind == EV_DATA:
                blk = eas[i] // block_size
                si = blk % d_nsets
                tag = blk // d_nsets
                ways = d_sets[si]
                if ways and ways[-1] == tag:
                    d_hits += 1
                    continue
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    d_hits += 1
                except ValueError:
                    d_miss += 1
                    ways.append(tag)
                    if len(ways) > d_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
            elif kind == EV_BRANCH:
                pc = pcs[i]
                taken = taken_pos[i]
                # Inline bpred.update(pc, taken) -- warming trains the
                # tables but records no prediction statistics.
                pcm = pc & bp_mask
                gsh = (pc ^ history) & bp_mask
                bim_p = bim_tab[pcm] >= 2
                gsh_p = gsh_tab[gsh] >= 2
                if bim_p != gsh_p:
                    c = cho_tab[pcm]
                    if bim_p == taken:
                        cho_tab[pcm] = c + 1 if c < 3 else 3
                    else:
                        cho_tab[pcm] = c - 1 if c > 0 else 0
                b = bim_tab[pcm]
                g = gsh_tab[gsh]
                if taken:
                    bim_tab[pcm] = b + 1 if b < 3 else 3
                    gsh_tab[gsh] = g + 1 if g < 3 else 3
                    history = ((history << 1) | 1) & h_mask
                    bi = pc & btb_mask
                    btb_tags[bi] = pc
                    btb_targets[bi] = next_pos[i]
                else:
                    bim_tab[pcm] = b - 1 if b > 0 else 0
                    gsh_tab[gsh] = g - 1 if g > 0 else 0
                    history = (history << 1) & h_mask
            elif kind == EV_CALL:
                ras_stack.append(pcs[i] + 1)
                if len(ras_stack) > ras_depth:
                    del ras_stack[0]
            elif kind == EV_RET:
                if ras_stack:
                    ras_stack.pop()
            elif kind == EV_PF:
                # Inline hierarchy.prefetch(ea) at now=0: fills DL1/L2
                # and occupies the bus on a memory miss.
                blk = eas[i] // block_size
                si = blk % d_nsets
                tag = blk // d_nsets
                ways = d_sets[si]
                if ways and ways[-1] == tag:
                    d_hits += 1
                    continue
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    d_hits += 1
                except ValueError:
                    d_miss += 1
                    ways.append(tag)
                    if len(ways) > d_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
                            req = l2_lat
                            bstart = req if req > bus_free else bus_free
                            bus_free = bstart + btc
                            mem_acc += 1
            # EV_JUMP: no warming state (only replay_window needs it).

        il1.hits += i_hits
        il1.misses += i_miss
        dl1.hits += d_hits
        dl1.misses += d_miss
        ul2.hits += l_hits
        ul2.misses += l_miss
        hierarchy.bus_free = bus_free
        hierarchy.memory_accesses += mem_acc
        bpred._history = history

    # ------------------------------------------------------------------
    def replay_window(
        self, trace: Sequence[Tuple[int, int]], start: int, end: int
    ) -> None:
        """Replicate a detailed window's state without the timing model.

        Used by the SMARTS memo on a unit hit: the unit's cycles come
        from the memo, but the caches, predictor, BTB and RAS must end
        up exactly as the detailed simulation would have left them so
        every subsequent unit stays bit-identical.  This works because
        the detailed pipeline's cache/predictor *update sequence* is
        timing-independent:

        * data-side tag updates are the same whether a load is forwarded
          from the store buffer (``warm_data``) or served by the
          hierarchy (``data_latency``) -- DL1 access, then UL2 on miss;
        * the front end re-accesses IL1 exactly after every *taken*
          control transfer and after every misprediction, and a pending
          redirect always lands on the immediately following instruction
          (the resolve cycle exceeds the next fetch cycle by
          construction: ``complete + penalty >= fetch + FRONT_DEPTH + 2``
          while the next fetch is at most ``fetch + 1``);
        * mispredictions are pure predictor-state functions of the
          branch history, not of the cycle clock.

        Statistics (cache hits/misses, predictor lookups/mispredicts)
        match the detailed window too; the only divergence is
        ``memory_accesses`` on the rare store-forwarded load that misses
        both caches, where the detailed path skips the bus transaction.
        """
        cfg = self.config
        hierarchy = self.hierarchy
        T = self._tables(trace)
        block_size = cfg.block_size

        eas = T.eas
        pcs = T.pcs
        taken_pos = T.taken
        next_pos = T.next_pc
        blocks = T.blocks_for(block_size)

        il1 = hierarchy.il1
        dl1 = hierarchy.dl1
        ul2 = hierarchy.ul2
        i_sets = il1._sets
        i_nsets = il1.n_sets
        i_assoc = il1.assoc
        d_sets = dl1._sets
        d_nsets = dl1.n_sets
        d_assoc = dl1.assoc
        l_sets = ul2._sets
        l_nsets = ul2.n_sets
        l_assoc = ul2.assoc
        i_hits = i_miss = d_hits = d_miss = l_hits = l_miss = 0
        hierarchy.reset_bus()
        mem_acc = 0

        bpred = self.bpred
        bim_tab = bpred._bimodal
        gsh_tab = bpred._gshare
        cho_tab = bpred._chooser
        bp_mask = bpred._mask
        history = bpred._history
        h_mask = bpred._history_mask
        bp_lookups = bp_wrong = 0
        btb_tags = self.btb._tags
        btb_targets = self.btb._targets
        btb_mask = self.btb._mask
        ras_stack = self.ras._stack
        ras_depth = self.ras.depth

        from bisect import bisect_left

        ev_pos, ev_kind = T.events_for(block_size)
        lo = bisect_left(ev_pos, start)
        hi = bisect_left(ev_pos, end)
        # `forced` is the next position whose instruction fetch must
        # access IL1 regardless of block-change events: the window start
        # (cold block tracker) and the instruction after every taken
        # transfer or misprediction (fetch redirect).
        forced = start
        idx = lo
        while idx <= hi:
            if idx < hi:
                i = ev_pos[idx]
                kind = ev_kind[idx]
            else:
                i = end
                kind = -1
            if 0 <= forced <= i and forced < end:
                if forced < i or kind != EV_INST:
                    blk = blocks[forced]
                    si = blk % i_nsets
                    tag = blk // i_nsets
                    ways = i_sets[si]
                    if ways and ways[-1] == tag:
                        i_hits += 1
                    else:
                        try:
                            ways.remove(tag)
                            ways.append(tag)
                            i_hits += 1
                        except ValueError:
                            i_miss += 1
                            ways.append(tag)
                            if len(ways) > i_assoc:
                                del ways[0]
                            si2 = blk % l_nsets
                            tag2 = blk // l_nsets
                            ways2 = l_sets[si2]
                            if ways2 and ways2[-1] == tag2:
                                l_hits += 1
                            else:
                                try:
                                    ways2.remove(tag2)
                                    ways2.append(tag2)
                                    l_hits += 1
                                except ValueError:
                                    l_miss += 1
                                    ways2.append(tag2)
                                    if len(ways2) > l_assoc:
                                        del ways2[0]
                                    mem_acc += 1
                forced = -1
            if idx >= hi:
                break
            idx += 1
            if kind == EV_INST:
                blk = blocks[i]
                si = blk % i_nsets
                tag = blk // i_nsets
                ways = i_sets[si]
                if ways and ways[-1] == tag:
                    i_hits += 1
                    continue
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    i_hits += 1
                except ValueError:
                    i_miss += 1
                    ways.append(tag)
                    if len(ways) > i_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
                            mem_acc += 1
            elif kind == EV_DATA or kind == EV_PF:
                blk = eas[i] // block_size
                si = blk % d_nsets
                tag = blk // d_nsets
                ways = d_sets[si]
                if ways and ways[-1] == tag:
                    d_hits += 1
                    continue
                try:
                    ways.remove(tag)
                    ways.append(tag)
                    d_hits += 1
                except ValueError:
                    d_miss += 1
                    ways.append(tag)
                    if len(ways) > d_assoc:
                        del ways[0]
                    si2 = blk % l_nsets
                    tag2 = blk // l_nsets
                    ways2 = l_sets[si2]
                    if ways2 and ways2[-1] == tag2:
                        l_hits += 1
                    else:
                        try:
                            ways2.remove(tag2)
                            ways2.append(tag2)
                            l_hits += 1
                        except ValueError:
                            l_miss += 1
                            ways2.append(tag2)
                            if len(ways2) > l_assoc:
                                del ways2[0]
                            mem_acc += 1
            elif kind == EV_BRANCH:
                pc = pcs[i]
                taken = taken_pos[i]
                pcm = pc & bp_mask
                gsh = (pc ^ history) & bp_mask
                if cho_tab[pcm] >= 2:
                    pred = bim_tab[pcm] >= 2
                else:
                    pred = gsh_tab[gsh] >= 2
                bp_lookups += 1
                if pred != taken:
                    bp_wrong += 1
                bim_p = bim_tab[pcm] >= 2
                gsh_p = gsh_tab[gsh] >= 2
                if bim_p != gsh_p:
                    c = cho_tab[pcm]
                    if bim_p == taken:
                        cho_tab[pcm] = c + 1 if c < 3 else 3
                    else:
                        cho_tab[pcm] = c - 1 if c > 0 else 0
                b = bim_tab[pcm]
                g = gsh_tab[gsh]
                if taken:
                    bim_tab[pcm] = b + 1 if b < 3 else 3
                    gsh_tab[gsh] = g + 1 if g < 3 else 3
                    history = ((history << 1) | 1) & h_mask
                    next_pc = next_pos[i]
                    bi = pc & btb_mask
                    pred_target = (
                        btb_targets[bi] if btb_tags[bi] == pc else None
                    )
                    btb_tags[bi] = pc
                    btb_targets[bi] = next_pc
                    forced = i + 1  # taken or mispredicted: fetch redirects
                else:
                    bim_tab[pcm] = b - 1 if b > 0 else 0
                    gsh_tab[gsh] = g - 1 if g > 0 else 0
                    history = (history << 1) & h_mask
                    if pred:
                        forced = i + 1  # predicted taken, was not: redirect
            elif kind == EV_JUMP:
                forced = i + 1
            elif kind == EV_CALL:
                ras_stack.append(pcs[i] + 1)
                if len(ras_stack) > ras_depth:
                    del ras_stack[0]
                forced = i + 1
            elif kind == EV_RET:
                ras_stack.pop() if ras_stack else None
                forced = i + 1

        il1.hits += i_hits
        il1.misses += i_miss
        dl1.hits += d_hits
        dl1.misses += d_miss
        ul2.hits += l_hits
        ul2.misses += l_miss
        hierarchy.memory_accesses += mem_acc
        bpred._history = history
        bpred.lookups += bp_lookups
        bpred.mispredictions += bp_wrong
