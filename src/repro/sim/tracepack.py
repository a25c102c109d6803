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
  and branch tables, the positions each outcome pass visits
  (:mod:`repro.sim.outcomes`), and the memoized passes themselves.

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
from repro.obs import span

# Class codes shared with repro.sim.ooo (indexable, faster than Enum).  The
# timing loop relies on the ALU and FP codes coming before LOAD.
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

    The per-position tables are plain python lists (fast scalar
    indexing) built from one vectorized numpy pass; the position sets
    the outcome passes visit are numpy arrays.  Per-``issue_width``
    latencies and per-``block_size`` block changes are cached in dicts,
    since those are the only microarchitectural parameters the tables
    depend on.  The tables keep the executable's instruction
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
        self._changes: Dict[int, np.ndarray] = {}
        self._positions: Optional[Dict[str, np.ndarray]] = None
        #: Memoized outcome passes (:mod:`repro.sim.outcomes`), keyed on
        #: (level, schedule, geometry).  They die with these tables.
        self.outcomes: Dict[tuple, object] = {}

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

    # -- outcome-pass streams -------------------------------------------
    def block_changes(self, block_size: int) -> np.ndarray:
        """Positions whose instruction block differs from the previous
        position's (position 0 is never listed)."""
        hit = self._changes.get(block_size)
        if hit is None:
            blocks = (self.trace.pcs * INSTR_BYTES + TEXT_BASE) // block_size
            hit = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
            self._changes[block_size] = hit
        return hit

    def positions(self, kind: str) -> np.ndarray:
        """Sorted positions of one kind of access: ``"data"`` (loads,
        stores, prefetches), ``"branch"`` (conditional branches) or
        ``"callret"`` (calls and returns)."""
        if self._positions is None:
            cls = np.take(self.cls_pc, self.trace.pcs)
            self._positions = {
                "data": np.flatnonzero((cls == LOAD) | (cls == STORE) | (cls == PF)),
                "branch": np.flatnonzero(cls == BRANCH),
                "callret": np.flatnonzero((cls == CALL) | (cls == RET)),
            }
        return self._positions[kind]


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
    with span("sim.trace_tables", instructions=len(trace)):
        tables = TraceTables(exe, as_packed(trace))
    registry[id(trace)] = (trace, tables)
    return tables
