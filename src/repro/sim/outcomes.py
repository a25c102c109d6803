"""Cache and branch outcomes of a trace, computed apart from timing.

The sequence of cache, predictor, BTB and RAS updates the timing model
makes does not depend on timing: which level serves an access and
whether a branch is mispredicted follow from the trace and the
structure's geometry alone (the argument is spelled out in
``docs/SIMULATOR.md``).  So the simulator computes those outcomes in
*passes* over the trace, one per structure, and the timing loop
(:meth:`repro.sim.ooo.OooTimingModel.time_window`) only reads them.

A pass replays a *schedule*: a sequence of segments ``(start, end,
detailed)`` in processing order.  Every segment updates the structure;
only detailed segments keep their outcomes, as one compact array per
segment (a *window*).  Segments may overlap, and SMARTS's do: a sampled
unit's detailed warm-up and cool-down ranges are also warmed by the
neighbouring skipped units, so those positions update the structures
twice.

Each pass is memoized on exactly what it depends on, in
``TraceTables.outcomes`` (so it dies with the trace):

* IL1: (schedule, I-cache size and associativity, block size);
* DL1: (schedule, D-cache size and associativity, block size);
* branch predictor and BTB: (schedule, ``bpred_size``, ``btb_entries``);
* return-address stack: (schedule).

The L2 sees the merged IL1 and DL1 miss streams in processing order
(segment, position, instruction before data).  It depends on both L1
geometries and its own, so it runs per configuration and is not cached.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.codegen.linker import INSTR_BYTES, TEXT_BASE
from repro.obs import span
from repro.sim.bpred import BranchTargetBuffer, CombinedPredictor, ReturnAddressStack
from repro.sim.cache import Cache
from repro.sim.config import MicroarchConfig
from repro.sim.tracepack import CALL, TraceTables

#: One stretch of a schedule: trace positions ``[start, end)`` and
#: whether it is timed in detail or only warms the structures.
Segment = Tuple[int, int, bool]

#: Codes of the per-window cache arrays: the position makes no access
#: of that cache, or the level that served its access.
NO_ACCESS, L1_HIT, L2_HIT, MEMORY = 0, 1, 2, 3

#: Which of a position's two cache accesses comes first.
_INST, _DATA = 0, 1


class CachePass(NamedTuple):
    """One L1 cache's outcomes over a schedule.

    ``windows`` holds, per detailed segment, ``L1_HIT`` or ``L2_HIT``
    (meaning: missed this level) at each access.  ``miss_keys`` orders
    every miss, in detailed and warm segments alike, as ``segment *
    stride + 2 * position + (0 for instructions, 1 for data)``, and
    ``miss_blocks`` names the block each one fetches from the L2.
    """

    windows: List[bytes]
    miss_keys: np.ndarray
    miss_blocks: np.ndarray


class Outcomes(NamedTuple):
    """Everything the timing loop reads for one configuration.

    Per detailed segment ``w``: its bounds ``windows[w]``, the IL1 and
    data cache codes (``NO_ACCESS`` .. ``MEMORY``), and the branch and
    return flags (:data:`repro.sim.bpred.MISPREDICT`,
    :data:`repro.sim.bpred.WRONG_DIRECTION`), each indexed by position
    minus the segment's start.
    """

    tables: TraceTables
    windows: List[Tuple[int, int]]
    il1: List[bytearray]
    data: List[bytearray]
    branch: List[bytes]
    ret: List[bytes]


def _stream(
    schedule: Sequence[Segment], events: np.ndarray, lead: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``(segment, position)`` of every access a pass makes, in order.

    Per segment ``[start, end)``: the ``events`` positions inside it,
    after ``start`` itself when ``lead`` (the front end fetches a
    segment's first instruction whatever block it is in).
    """
    starts = np.array([s[0] for s in schedule], dtype=np.int64)
    ends = np.array([s[1] for s in schedule], dtype=np.int64)
    lo = np.searchsorted(events, starts, "right" if lead else "left")
    hi = np.searchsorted(events, ends, "left")
    counts = np.where(starts < ends, np.maximum(hi - lo, 0) + lead, 0)
    seg = np.repeat(np.arange(len(schedule), dtype=np.int64), counts)
    offset = np.arange(len(seg), dtype=np.int64) - (np.cumsum(counts) - counts)[seg]
    if not lead:
        return seg, events[lo[seg] + offset]
    # Shifted by one, so offset k >= 1 reads events[lo + k - 1].
    shifted = np.concatenate((np.zeros(1, dtype=np.int64), events))
    return seg, np.where(offset == 0, starts[seg], shifted[lo[seg] + offset])


def _windows(
    schedule: Sequence[Segment], seg: np.ndarray, pos: np.ndarray, codes: np.ndarray
) -> List[bytes]:
    """Scatter per-access codes into one array per detailed segment."""
    bounds = np.searchsorted(seg, np.arange(len(schedule) + 1)).tolist()
    out = []
    for s, (start, end, detailed) in enumerate(schedule):
        if detailed:
            window = np.zeros(max(0, end - start), dtype=np.uint8)
            lo, hi = bounds[s], bounds[s + 1]
            window[pos[lo:hi] - start] = codes[lo:hi]
            out.append(window.tobytes())
    return out


def _cache_pass(
    tables: TraceTables,
    schedule: Sequence[Segment],
    seg: np.ndarray,
    pos: np.ndarray,
    blocks: np.ndarray,
    cache: Cache,
    kind: int,
) -> CachePass:
    missed = np.array(cache.access_blocks(blocks.tolist()), dtype=np.int64)
    codes = np.full(len(pos), L1_HIT, dtype=np.uint8)
    codes[missed] = L2_HIT
    return CachePass(
        _windows(schedule, seg, pos, codes),
        seg[missed] * _stride(tables) + 2 * pos[missed] + kind,
        blocks[missed],
    )


def _stride(tables: TraceTables) -> int:
    return 2 * (tables.n + 1)


def _il1_pass(tables: TraceTables, schedule, config: MicroarchConfig) -> CachePass:
    bs = config.block_size
    seg, pos = _stream(schedule, tables.block_changes(bs), True)
    blocks = (tables.trace.pcs[pos] * INSTR_BYTES + TEXT_BASE) // bs
    cache = Cache(config.icache_size, config.icache_assoc, bs, "il1")
    return _cache_pass(tables, schedule, seg, pos, blocks, cache, _INST)


def _dl1_pass(tables: TraceTables, schedule, config: MicroarchConfig) -> CachePass:
    bs = config.block_size
    seg, pos = _stream(schedule, tables.positions("data"), False)
    blocks = tables.trace.eas[pos] // bs
    cache = Cache(config.dcache_size, config.dcache_assoc, bs, "dl1")
    return _cache_pass(tables, schedule, seg, pos, blocks, cache, _DATA)


def _branch_pass(tables: TraceTables, schedule, config: MicroarchConfig) -> List[bytes]:
    seg, pos = _stream(schedule, tables.positions("branch"), False)
    flags = CombinedPredictor(config.bpred_size).predict_stream(
        BranchTargetBuffer(config.btb_entries),
        pos.tolist(),
        tables.pcs,
        tables.taken,
        tables.next_pc,
    )
    return _windows(schedule, seg, pos, np.frombuffer(flags, dtype=np.uint8))


def _ras_pass(tables: TraceTables, schedule, config: MicroarchConfig) -> List[bytes]:
    seg, pos = _stream(schedule, tables.positions("callret"), False)
    is_call = np.take(tables.cls_pc, tables.trace.pcs[pos]) == CALL
    flags = ReturnAddressStack().predict_stream(
        pos.tolist(), is_call.tolist(), tables.pcs, tables.next_pc
    )
    return _windows(schedule, seg, pos, np.frombuffer(flags, dtype=np.uint8))


#: The memoized passes and the configuration fields each one reads.
PASSES = (
    ("il1", _il1_pass, ("icache_size", "icache_assoc", "block_size")),
    ("dl1", _dl1_pass, ("dcache_size", "dcache_assoc", "block_size")),
    ("bpred", _branch_pass, ("bpred_size", "btb_entries")),
    ("ras", _ras_pass, ()),
)


def outcomes_for(
    tables: TraceTables, schedule: Sequence[Segment], config: MicroarchConfig
) -> Outcomes:
    """The outcomes of ``schedule`` on ``config``, reusing memoized passes."""
    schedule = tuple(schedule)
    results = []
    for name, run, fields in PASSES:
        key = (name, schedule) + tuple(getattr(config, f) for f in fields)
        hit = tables.outcomes.get(key)
        if hit is None:
            with span(f"smarts.outcomes.{name}"):
                hit = tables.outcomes[key] = run(tables, schedule, config)
        results.append(hit)
    il1, dl1, branch, ret = results
    with span("smarts.outcomes.l2"):
        il1_windows, data_windows = _l2_pass(tables, schedule, il1, dl1, config)
    windows = [(start, end) for start, end, detailed in schedule if detailed]
    return Outcomes(tables, windows, il1_windows, data_windows, branch, ret)


def _l2_pass(
    tables: TraceTables,
    schedule: Sequence[Segment],
    il1: CachePass,
    dl1: CachePass,
    config: MicroarchConfig,
) -> Tuple[List[bytearray], List[bytearray]]:
    """Run the merged L1 miss streams through the L2; returns the IL1
    and data windows with ``MEMORY`` where the L2 missed too."""
    keys = np.concatenate((il1.miss_keys, dl1.miss_keys))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    blocks = np.concatenate((il1.miss_blocks, dl1.miss_blocks))[order]
    l2 = Cache(config.l2_size, config.l2_assoc, config.block_size, "ul2")
    keys = keys[np.array(l2.access_blocks(blocks.tolist()), dtype=np.int64)]

    # Window index and start of every segment (-1: not detailed).
    stride = _stride(tables)
    window_of = np.full(len(schedule), -1, dtype=np.int64)
    starts = np.array([s[0] for s in schedule], dtype=np.int64)
    detailed = [s for s, (_, _, d) in enumerate(schedule) if d]
    window_of[detailed] = np.arange(len(detailed))
    seg = keys // stride
    timed = window_of[seg] >= 0
    keys = keys[timed]
    seg = seg[timed]

    il1_windows = [bytearray(w) for w in il1.windows]
    data_windows = [bytearray(w) for w in dl1.windows]
    for w, off, kind in zip(
        window_of[seg].tolist(),
        ((keys % stride) // 2 - starts[seg]).tolist(),
        (keys & 1).tolist(),
    ):
        (data_windows if kind else il1_windows)[w][off] = MEMORY
    return il1_windows, data_windows
