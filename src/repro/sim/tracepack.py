"""Flat-array trace representation and per-executable static tables.

The per-event simulator loops (:mod:`repro.sim.ooo`) used to chase
attributes per instruction: ``trace[i]`` tuple unpacking, ``cls_tab[pc]``
table lookups, ``TEXT_BASE + pc * INSTR_BYTES`` arithmetic, block-index
divisions.  This module hoists all of that into numpy-precomputed flat
arrays built once per (executable, trace) and reused across every SMARTS
window and every microarchitecture sharing the trace:

* :class:`PackedTrace` -- the dynamic trace as two parallel numpy arrays
  (``pcs``, ``eas``) with a content digest and cheap segment hashing for
  the timing memo (:mod:`repro.sim.memo`).  It behaves as a sequence of
  ``(pc, ea)`` tuples, so existing consumers (``instruction_mix``,
  ``detailed_statistics``, tests) keep working unchanged.
* :class:`TraceTables` -- per-position class codes, latencies, register
  tables and byte addresses, plus per-``block_size`` instruction-block
  ids and the merged *warm event list* (positions where functional
  warming must touch a cache, predictor or the RAS -- everything else
  is skipped entirely).

Tables are attached to the ``Executable`` object (``_repro_*``
attributes), so they live and die with the binary+trace cache entry in
:class:`repro.harness.measure.MeasurementEngine` and are shared by every
``OooTimingModel`` built on the same binary.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.isa import OpClass, RA, ZERO
from repro.codegen.linker import Executable, INSTR_BYTES, TEXT_BASE

# Class codes shared with repro.sim.ooo (indexable, faster than Enum).
IALU, IMULT, FPALU, FPMULT, LOAD, STORE, BRANCH, JUMP, CALL, RET, PF, NOP = range(12)

CLASS_CODE = {
    OpClass.IALU: IALU,
    OpClass.IMULT: IMULT,
    OpClass.FPALU: FPALU,
    OpClass.FPMULT: FPMULT,
    OpClass.LOAD: LOAD,
    OpClass.STORE: STORE,
    OpClass.BRANCH: BRANCH,
    OpClass.JUMP: JUMP,
    OpClass.CALL: CALL,
    OpClass.RET: RET,
    OpClass.PREFETCH: PF,
    OpClass.NOP: NOP,
}

#: Warm-event kinds (ordered: the instruction-block event of a position
#: must be processed before the same position's data/control event).
#: ``EV_JUMP`` exists for :meth:`repro.sim.ooo.OooTimingModel.replay_window`
#: only (jumps redirect fetch); the warm loop ignores it.
EV_INST, EV_DATA, EV_PF, EV_BRANCH, EV_CALL, EV_RET, EV_JUMP = range(7)


def _md5(data: bytes) -> "hashlib._Hash":
    """Incremental md5 (a content digest, not a security boundary)."""
    return hashlib.md5(data, usedforsecurity=False)


class PackedTrace:
    """A dynamic trace as two parallel flat arrays.

    Duck-types as a ``Sequence[Tuple[int, int]]`` so it can replace the
    list-of-tuples trace everywhere, while exposing the numpy arrays and
    plain-list views the hot loops index directly.
    """

    __slots__ = (
        "pcs",
        "eas",
        "_pcs_list",
        "_eas_list",
        "_digest",
    )

    def __init__(self, pcs: np.ndarray, eas: np.ndarray):
        self.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        self.eas = np.ascontiguousarray(eas, dtype=np.int64)
        if self.pcs.shape != self.eas.shape:
            raise ValueError("pcs and eas must have the same length")
        self._pcs_list: Optional[List[int]] = None
        self._eas_list: Optional[List[int]] = None
        self._digest: Optional[str] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_lists(cls, pcs: List[int], eas: List[int]) -> "PackedTrace":
        """Pack two parallel int lists, keeping them as the list views."""
        packed = cls(np.array(pcs, dtype=np.int64), np.array(eas, dtype=np.int64))
        packed._pcs_list = pcs
        packed._eas_list = eas
        return packed

    # -- sequence protocol (compat with list-of-tuples consumers) -------
    def __len__(self) -> int:
        return int(self.pcs.shape[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.pcs_list[i], self.eas_list[i]))
        return (int(self.pcs[i]), int(self.eas[i]))

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.pcs_list, self.eas_list)

    # -- flat views for the hot loops -----------------------------------
    @property
    def pcs_list(self) -> List[int]:
        if self._pcs_list is None:
            self._pcs_list = self.pcs.tolist()
        return self._pcs_list

    @property
    def eas_list(self) -> List[int]:
        if self._eas_list is None:
            self._eas_list = self.eas.tolist()
        return self._eas_list

    # -- content addressing ---------------------------------------------
    def digest(self) -> str:
        """Content digest of the whole trace."""
        if self._digest is None:
            h = _md5(self.pcs.tobytes())
            h.update(self.eas.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def segment_bytes(self, start: int, end: int) -> bytes:
        """Raw bytes of trace[start:end] for incremental chain digests."""
        return self.pcs[start:end].tobytes() + self.eas[start:end].tobytes()


def static_digest(exe: Executable) -> str:
    """Content digest of an executable's timing-relevant static image.

    Covers every field the timing model reads: opcode/class, registers,
    immediates, branch targets and instruction order (hence code
    layout).  Two compiler configurations that emit the same machine
    code get the same digest -- the hook the cross-point memo layers
    key on.
    """
    cached = getattr(exe, "_repro_static_digest", None)
    if cached is not None:
        return cached
    h = _md5(repr(exe.entry_pc).encode())
    for instr in exe.instrs:
        h.update(
            (
                f"{instr.op}|{instr.dst}|{instr.srcs}|{instr.imm}|"
                f"{instr.target_pc}\n"
            ).encode()
        )
    digest = h.hexdigest()
    exe._repro_static_digest = digest  # type: ignore[attr-defined]
    return digest


class TraceTables:
    """Per-(executable, trace) flattened lookup tables.

    Everything here is a plain python list (fast scalar indexing) built
    from one vectorized numpy pass.  Per-``block_size`` artifacts (block
    ids, warm event lists) and per-``issue_width`` latencies are cached
    in dicts, since those are the only microarchitectural parameters the
    tables depend on.  The tables keep the executable's instruction
    list, not the executable: :func:`tables_for` attaches them to the
    executable, and a back reference would make a cycle that only the
    garbage collector could free.
    """

    def __init__(self, exe: Executable, trace: PackedTrace):
        self.instrs = exe.instrs
        self.trace = trace
        n = len(trace)
        self.n = n
        pcs = trace.pcs
        # Static per-pc tables.
        cls_pc = np.empty(len(exe.instrs), dtype=np.int64)
        dst_pc = np.empty(len(exe.instrs), dtype=np.int64)
        srcs_pc: List[Tuple[int, ...]] = []
        for i, instr in enumerate(exe.instrs):
            code = CLASS_CODE[instr.op_class]
            cls_pc[i] = code
            if code == CALL:
                dst_pc[i] = RA
            elif instr.dst is not None:
                dst_pc[i] = instr.dst
            else:
                dst_pc[i] = -1
            srcs_pc.append(tuple(r for r in instr.srcs if r != ZERO))
        self.cls_pc = cls_pc
        self.srcs_pc = srcs_pc
        # Per-position flattening.
        self.pcs: List[int] = trace.pcs_list
        self.eas: List[int] = trace.eas_list
        self.cls: List[int] = np.take(cls_pc, pcs).tolist() if n else []
        self.dst: List[int] = np.take(dst_pc, pcs).tolist() if n else []
        self.srcs: List[Tuple[int, ...]] = [srcs_pc[pc] for pc in self.pcs]
        self.byte_addr: List[int] = (
            (pcs * INSTR_BYTES + TEXT_BASE).tolist() if n else []
        )
        # taken[i]: the control transfer at position i changed the pc
        # stream (next_pc != pc + 1); the final position counts as not
        # taken, exactly as the per-event loops treated it.
        if n:
            nxt = np.empty(n, dtype=np.int64)
            nxt[:-1] = pcs[1:]
            nxt[-1] = pcs[-1] + 1
            self.taken: List[bool] = (nxt != pcs + 1).tolist()
            self.next_pc: List[int] = nxt.tolist()
        else:
            self.taken = []
            self.next_pc = []
        self._lat: Dict[int, List[int]] = {}
        self._blocks: Dict[int, List[int]] = {}
        self._events: Dict[int, Tuple[List[int], List[int]]] = {}

    # -- per-issue-width latency table ----------------------------------
    def lat_for(self, mdesc) -> List[int]:
        """Per-position latencies for one machine description."""
        width = mdesc.issue_width
        hit = self._lat.get(width)
        if hit is not None:
            return hit
        lat_pc = np.array(
            [mdesc.latency(instr.op_class) for instr in self.instrs],
            dtype=np.int64,
        )
        lat = np.take(lat_pc, self.trace.pcs).tolist() if self.n else []
        self._lat[width] = lat
        return lat

    # -- per-block-size artifacts ---------------------------------------
    def blocks_for(self, block_size: int) -> List[int]:
        """Instruction-block id per position."""
        hit = self._blocks.get(block_size)
        if hit is not None:
            return hit
        blocks = (
            ((self.trace.pcs * INSTR_BYTES + TEXT_BASE) // block_size).tolist()
            if self.n
            else []
        )
        self._blocks[block_size] = blocks
        return blocks

    def events_for(self, block_size: int) -> Tuple[List[int], List[int]]:
        """Merged warm-event list for one block size.

        Returns parallel lists ``(positions, kinds)`` sorted by
        ``(position, kind)``: instruction-block-change events
        (``EV_INST``) precede the same position's data/control event,
        mirroring the order the sequential warm loop touched state in.
        Position 0 never carries an ``EV_INST`` entry -- window starts
        force their own first instruction access, because warming resets
        its block tracker per call.
        """
        hit = self._events.get(block_size)
        if hit is not None:
            return hit
        n = self.n
        if n == 0:
            self._events[block_size] = ([], [])
            return self._events[block_size]
        blocks = np.asarray(self.blocks_for(block_size), dtype=np.int64)
        cls = np.asarray(self.cls, dtype=np.int64)
        change = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        pos_parts = [change]
        kind_parts = [np.full(change.shape, EV_INST, dtype=np.int64)]
        for code, kind in (
            (LOAD, EV_DATA),
            (STORE, EV_DATA),
            (PF, EV_PF),
            (BRANCH, EV_BRANCH),
            (CALL, EV_CALL),
            (RET, EV_RET),
            (JUMP, EV_JUMP),
        ):
            where = np.flatnonzero(cls == code)
            pos_parts.append(where)
            kind_parts.append(np.full(where.shape, kind, dtype=np.int64))
        pos = np.concatenate(pos_parts)
        kind = np.concatenate(kind_parts)
        order = np.lexsort((kind, pos))
        result = (pos[order].tolist(), kind[order].tolist())
        self._events[block_size] = result
        return result


def as_packed(trace: Sequence[Tuple[int, int]]) -> PackedTrace:
    """Coerce any trace representation to a :class:`PackedTrace`."""
    if isinstance(trace, PackedTrace):
        return trace
    # fromiter over a flattened chain is ~3x faster than assigning a
    # list of tuples into a 2-D array.
    flat = np.fromiter(
        itertools.chain.from_iterable(trace), dtype=np.int64, count=2 * len(trace)
    )
    return PackedTrace(flat[0::2].copy(), flat[1::2].copy())


def tables_for(exe: Executable, trace: Sequence[Tuple[int, int]]) -> TraceTables:
    """The (cached) flat tables for one (executable, trace) pair.

    Tables are attached to the executable keyed by trace identity, so
    repeated simulations of the same binary across many design points
    build them exactly once.  The keyed traces are also kept alive by
    the attachment -- they are the same objects the measurement engine's
    LRU holds, so nothing outlives the binary+trace cache entry.
    """
    registry: Dict[int, Tuple[object, TraceTables]] = getattr(
        exe, "_repro_trace_tables", None
    )
    if registry is None:
        registry = {}
        exe._repro_trace_tables = registry  # type: ignore[attr-defined]
    hit = registry.get(id(trace))
    if hit is not None and hit[0] is trace:
        return hit[1]
    tables = TraceTables(exe, as_packed(trace))
    registry[id(trace)] = (trace, tables)
    return tables
