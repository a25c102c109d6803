"""Set-associative LRU caches and the two-level hierarchy.

Real tag arrays (not hit-rate approximations): sizes, associativities and
block size determine conflict behaviour, so the empirical models face the
same non-linear cache responses the paper's SimpleScalar produced.

A set's way list is allocated the first time an access touches it, so
building a hierarchy costs nothing per set: an 8 MB direct-mapped L2
has 262,144 sets, of which one timing run touches a few thousand.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Iterable, List

from repro.sim.config import MicroarchConfig


class Cache:
    """One level of set-associative, LRU, write-allocate cache."""

    def __init__(self, size: int, assoc: int, block_size: int, name: str = ""):
        if size % (assoc * block_size) != 0:
            raise ValueError(
                f"cache {name}: size {size} not divisible by "
                f"assoc*block ({assoc}*{block_size})"
            )
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.name = name
        self.n_sets = size // (assoc * block_size)
        # Per-set MRU-last list of tags, created on first touch.
        self._sets: DefaultDict[int, List[int]] = defaultdict(list)
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Access the block containing ``addr``; returns hit, updates LRU."""
        return not self.access_blocks((addr // self.block_size,))

    def access_blocks(self, blocks: Iterable[int]) -> List[int]:
        """Access block ids in order; returns the indices that missed.

        This is the one LRU routine of the simulator: every level's
        outcome pass (:mod:`repro.sim.outcomes`) feeds it a whole access
        stream, so the loop binds its state once, not once per access.
        A hit on the MRU way changes no state and skips the list update.
        """
        sets = self._sets
        n_sets = self.n_sets
        assoc = self.assoc
        missed: List[int] = []
        k = -1
        for k, block in enumerate(blocks):
            tag = block // n_sets
            ways = sets[block % n_sets]
            if ways and ways[-1] == tag:
                continue
            try:
                ways.remove(tag)
                ways.append(tag)
            except ValueError:
                missed.append(k)
                ways.append(tag)
                if len(ways) > assoc:
                    del ways[0]
        self.misses += len(missed)
        self.hits += k + 1 - len(missed)
        return missed

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or statistics."""
        block = addr // self.block_size
        set_index = block % self.n_sets
        tag = block // self.n_sets
        ways = self._sets.get(set_index)
        return ways is not None and tag in ways

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """L1 I/D caches over a unified L2 over memory behind a shared bus.

    ``*_latency`` methods take the request time (``now``, in the timing
    model's cycle domain), return the total access latency in cycles, and
    update all levels' state (fills on miss).  Misses to main memory
    serialize on the L2<->memory bus (``bus_transfer_cycles`` per block),
    which bounds memory-level parallelism: without the bus, an out-of-
    order core with a large window would hide arbitrarily many misses and
    software prefetching would be worthless.
    """

    def __init__(self, config: MicroarchConfig):
        self.config = config
        bs = config.block_size
        self.il1 = Cache(config.icache_size, config.icache_assoc, bs, name="il1")
        self.dl1 = Cache(config.dcache_size, config.dcache_assoc, bs, name="dl1")
        self.ul2 = Cache(config.l2_size, config.l2_assoc, bs, name="ul2")
        #: Cycle at which the memory bus becomes free.
        self.bus_free = 0
        self.memory_accesses = 0

    def reset_bus(self) -> None:
        """Reset the bus clock."""
        self.bus_free = 0

    def _memory_access(self, request_time: int) -> int:
        """Latency of a block fetch from memory requested at a time."""
        start = request_time if request_time > self.bus_free else self.bus_free
        self.bus_free = start + self.config.bus_transfer_cycles
        self.memory_accesses += 1
        return (start - request_time) + self.config.memory_latency

    def data_latency(self, addr: int, now: int = 0) -> int:
        """Latency of a data access through DL1 (fills on miss)."""
        if self.dl1.access(addr):
            return self.config.dcache_latency
        lat = self.config.dcache_latency + self.config.l2_latency
        if self.ul2.access(addr):
            return lat
        return lat + self._memory_access(now + lat)

    def inst_latency(self, addr: int, now: int = 0) -> int:
        """Latency of an instruction-block fetch through IL1."""
        if self.il1.access(addr):
            return self.config.icache_latency
        lat = self.config.icache_latency + self.config.l2_latency
        if self.ul2.access(addr):
            return lat
        return lat + self._memory_access(now + lat)

    def prefetch(self, addr: int, now: int = 0) -> None:
        """Non-binding prefetch: fills DL1/L2 and occupies the bus on a
        memory miss (prefetch traffic contends with demand misses)."""
        if self.dl1.access(addr):
            return
        if not self.ul2.access(addr):
            self._memory_access(now + self.config.l2_latency)

    def warm_data(self, addr: int) -> None:
        """Fill the data path without using the bus."""
        if not self.dl1.access(addr):
            self.ul2.access(addr)

    def warm_inst(self, addr: int) -> None:
        if not self.il1.access(addr):
            self.ul2.access(addr)
