"""Content-addressed memoization of SMARTS timing work.

Two exact (bit-identical-by-construction) memo layers over the timing
simulator, shared across design points, engines and worker processes:

* **run level** -- a whole ``smarts_simulate`` (or exhaustive detailed)
  outcome, keyed on (static binary digest, trace digest, full timing
  key, sampling schedule).  Design points that differ only in compiler
  flags which happened to produce the same machine code -- the dominant
  case in one-factor DOE screens and GA populations -- hit here and
  skip the simulator entirely.
* **unit level** -- one sampled SMARTS unit's (cycles, instructions)
  contribution, keyed on the *chained prefix digest* of the trace up to
  the unit's cooldown end plus the unit's boundaries.  The chain makes
  the key cover everything the unit's incoming microarchitectural state
  depends on (every earlier trace byte and the unit schedule), so a hit
  is exact, never approximate.  A hit skips the unit's timing loop.

Keys embed the **full** timing key -- every field of
:class:`MicroarchConfig`, including the structural parameters -- plus a
memo schema version, so collisions across microarchitectures are
impossible by construction (test-enforced).

Persistence goes through the SQLite store (:mod:`repro.store`), by
default the file the measured results live in.  The in-memory dicts are
the read cache: a miss reads through to the store, and :meth:`save`
writes only the entries added since the last save.  Pool workers save
after each chunk and read through to what their siblings saved, so N
workers simulate each distinct (binary, microarch) unit once instead of
N times.  The ``sim_memo.json`` files of earlier versions are ignored
and can be deleted.
"""

from __future__ import annotations

import os
from dataclasses import fields
from typing import Dict, Optional, Tuple

from repro.obs import counter
from repro.sim.config import MicroarchConfig
from repro.store import Store, md5_hex

#: Bump when timing semantics change: stale entries must never be served
#: across simulator versions.
SIM_MEMO_VERSION = 1

#: Soft cap on persisted unit entries; the oldest are dropped beyond it.
MAX_UNIT_ENTRIES = 200_000

RUN_HITS = counter("sim.memo.run.hits")
RUN_MISSES = counter("sim.memo.run.misses")
UNIT_HITS = counter("sim.memo.unit.hits")
UNIT_MISSES = counter("sim.memo.unit.misses")


_TIMING_FIELDS = tuple(f.name for f in fields(MicroarchConfig))


def timing_key(config: MicroarchConfig) -> str:
    """The full timing identity of a microarchitecture.

    Every dataclass field participates -- the 11 modeled parameters
    *and* the structural ones (block size, store buffer, penalties,
    bus) -- so two configs that could time any trace differently can
    never share memo entries.
    """
    return "|".join(
        [f"v{SIM_MEMO_VERSION}"]
        + [f"{name}={getattr(config, name)}" for name in _TIMING_FIELDS]
    )


class TimingMemo:
    """In-memory timing memo, optionally backed by the store at ``path``."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self._runs: Dict[str, dict] = {}
        self._units: Dict[str, Tuple[int, int]] = {}
        #: Entries added since the last save (with a store only).
        self._new_runs: Dict[str, dict] = {}
        self._new_units: Dict[str, Tuple[int, int]] = {}
        self._store: Optional[Store] = Store(path) if path is not None else None

    # -- keys -----------------------------------------------------------
    @staticmethod
    def run_key(
        static_dig: str,
        trace_dig: str,
        tkey: str,
        mode: str,
        unit_size: int,
        interval: int,
        offset: int,
        warmup: int,
        cooldown: int,
    ) -> str:
        return md5_hex(
            (
                f"{static_dig}|{trace_dig}|{tkey}|{mode}|{unit_size}|"
                f"{interval}|{offset}|{warmup}|{cooldown}"
            ).encode()
        )

    # -- run level ------------------------------------------------------
    def get_run(self, key: str) -> Optional[dict]:
        hit = self._runs.get(key)
        if hit is None and self._store is not None:
            hit = self._store.get("memo_runs", key)
            if hit is not None:
                self._runs[key] = hit
        if hit is not None:
            RUN_HITS.inc()
            return hit
        RUN_MISSES.inc()
        return None

    def put_run(self, key: str, payload: dict) -> None:
        self._runs[key] = payload
        if self._store is not None:
            self._new_runs[key] = payload

    # -- unit level -----------------------------------------------------
    def get_unit(self, key: str) -> Optional[Tuple[int, int]]:
        hit = self._units.get(key)
        if hit is None and self._store is not None:
            row = self._store.get("memo_units", key)
            if row is not None:
                hit = self._units[key] = (row[0], row[1])
        if hit is not None:
            UNIT_HITS.inc()
            return hit
        UNIT_MISSES.inc()
        return None

    def put_unit(self, key: str, cycles: int, instructions: int) -> None:
        self._units[key] = (cycles, instructions)
        if self._store is not None:
            self._new_units[key] = (cycles, instructions)

    # -- stats ----------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self._runs)

    @property
    def n_units(self) -> int:
        return len(self._units)

    # -- persistence ----------------------------------------------------
    def save(self) -> None:
        """Write the entries added since the last save (no-op without a
        path or when there are none)."""
        if self._store is not None:
            self._store.write(
                {"memo_runs": self._new_runs, "memo_units": self._new_units},
                keep_last={"memo_units": MAX_UNIT_ENTRIES},
            )
            self._new_runs = {}
            self._new_units = {}
