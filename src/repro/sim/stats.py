"""Simulation statistics: instruction mix, cache and predictor summaries.

The paper's analysis leans on understanding *why* a configuration is
fast or slow; this module collects the per-run counters a SimpleScalar
user would read from ``sim-outorder``'s summary output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.sim.config import MicroarchConfig
from repro.sim.ooo import OooTimingModel, TimingResult


@dataclass
class InstructionMix:
    """Dynamic instruction counts by functional-unit class."""

    counts: Dict[str, int] = field(default_factory=dict)
    total: int = 0

    def fraction(self, class_name: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(class_name, 0) / self.total

    @property
    def memory_fraction(self) -> float:
        return self.fraction("load") + self.fraction("store")

    @property
    def fp_fraction(self) -> float:
        return self.fraction("fpalu") + self.fraction("fpmult")

    @property
    def control_fraction(self) -> float:
        return sum(
            self.fraction(n) for n in ("branch", "jump", "call", "ret")
        )


def instruction_mix(
    exe: Executable, trace: Sequence[Tuple[int, int]]
) -> InstructionMix:
    """Classify every dynamic instruction of a trace."""
    mix = InstructionMix()
    counts: Dict[str, int] = {}
    for pc, _ea in trace:
        name = exe.instrs[pc].op_class.value
        counts[name] = counts.get(name, 0) + 1
    mix.counts = counts
    mix.total = len(trace)
    return mix


@dataclass
class RunStatistics:
    """Everything a detailed simulation can report about one run."""

    timing: TimingResult
    mix: InstructionMix
    il1_miss_rate: float
    dl1_miss_rate: float
    ul2_miss_rate: float
    branch_mispredict_rate: float
    memory_bus_accesses: int

    def summary(self) -> str:
        lines = [
            f"cycles             {self.timing.cycles:>12d}",
            f"instructions       {self.timing.instructions:>12d}",
            f"CPI                {self.timing.cpi:>12.3f}",
            f"mem fraction       {self.mix.memory_fraction:>12.3f}",
            f"fp fraction        {self.mix.fp_fraction:>12.3f}",
            f"control fraction   {self.mix.control_fraction:>12.3f}",
            f"il1 miss rate      {self.il1_miss_rate:>12.4f}",
            f"dl1 miss rate      {self.dl1_miss_rate:>12.4f}",
            f"ul2 miss rate      {self.ul2_miss_rate:>12.4f}",
            f"bpred mispredicts  {self.branch_mispredict_rate:>12.4f}",
            f"memory accesses    {self.memory_bus_accesses:>12d}",
        ]
        return "\n".join(lines)


def detailed_statistics(
    exe: Executable,
    config: MicroarchConfig,
    trace: Sequence[Tuple[int, int]],
) -> RunStatistics:
    """Run a detailed simulation and collect the full counter set."""
    model = OooTimingModel(exe, config)
    timing = model.simulate_trace(trace)
    c = model.counts
    return RunStatistics(
        timing=timing,
        mix=instruction_mix(exe, trace),
        il1_miss_rate=_share(c.il1_misses, c.il1_hits + c.il1_misses),
        dl1_miss_rate=_share(c.dl1_misses, c.dl1_hits + c.dl1_misses),
        ul2_miss_rate=_share(c.ul2_misses, c.ul2_hits + c.ul2_misses),
        branch_mispredict_rate=_share(c.bpred_mispredictions, c.bpred_lookups),
        memory_bus_accesses=c.memory_accesses,
    )


def _share(part: int, total: int) -> float:
    return part / total if total else 0.0
