"""One-call simulation entry point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.func import FunctionalResult, execute
from repro.sim.memo import TimingMemo, timing_key
from repro.sim.ooo import OooTimingModel
from repro.sim.smarts import smarts_simulate
from repro.sim.tracepack import as_packed, static_digest

_DETAILED_RUNS = counter("sim.detailed_runs")
_SMARTS_RUNS = counter("sim.smarts_runs")


@dataclass
class SimulationOutcome:
    """Everything one measurement produces."""

    #: Execution time in cycles (the paper's response variable).
    cycles: float
    #: Program checksum (main's return value) -- correctness witness.
    return_value: int
    #: Dynamic instruction count.
    instructions: int
    #: Cycles per instruction.
    cpi: float
    #: SMARTS sampling error estimate (0 for exhaustive simulation).
    sampling_error: float


def simulate(
    exe: Executable,
    config: MicroarchConfig,
    mode: str = "smarts",
    unit_size: int = 1000,
    interval: int = 10,
    trace: Optional[Sequence[Tuple[int, int]]] = None,
    functional: Optional[FunctionalResult] = None,
    memo: Optional[TimingMemo] = None,
) -> SimulationOutcome:
    """Measure the execution time of ``exe`` on ``config``.

    ``mode="smarts"`` uses statistical sampling (the paper's
    methodology); ``mode="detailed"`` simulates every instruction.  A
    pre-computed functional result/trace may be passed to amortize the
    functional run across microarchitectures, and a ``memo``
    (:class:`repro.sim.memo.TimingMemo`) reuses timing work across
    design points that produced identical machine code.
    """
    if functional is None:
        with span("sim.functional") as sp:
            functional = execute(exe, collect_trace=True)
            sp.set_attrs(instructions=functional.instruction_count)
    if trace is None:
        trace = functional.trace
    if mode == "detailed":
        _DETAILED_RUNS.inc()
        run_key = None
        if memo is not None:
            packed = as_packed(trace)
            run_key = TimingMemo.run_key(
                static_digest(exe),
                packed.digest(),
                timing_key(config),
                "detailed",
                0,
                0,
                0,
                0,
                0,
            )
            hit = memo.get_run(run_key)
            if hit is not None:
                return SimulationOutcome(
                    cycles=float(hit["cycles"]),
                    return_value=functional.return_value,
                    instructions=int(hit["instructions"]),
                    cpi=float(hit["cpi"]),
                    sampling_error=0.0,
                )
        with span("sim.detailed", instructions=len(trace)):
            model = OooTimingModel(exe, config)
            timing = model.simulate_trace(trace)
        if memo is not None:
            memo.put_run(
                run_key,
                {
                    "cycles": timing.cycles,
                    "instructions": timing.instructions,
                    "cpi": timing.cpi,
                },
            )
        return SimulationOutcome(
            cycles=float(timing.cycles),
            return_value=functional.return_value,
            instructions=timing.instructions,
            cpi=timing.cpi,
            sampling_error=0.0,
        )
    if mode == "smarts":
        _SMARTS_RUNS.inc()
        with span(
            "sim.smarts",
            instructions=len(trace),
            unit_size=unit_size,
            interval=interval,
        ) as sp:
            est = smarts_simulate(
                exe, config, trace, unit_size=unit_size, interval=interval, memo=memo
            )
            sp.set_attrs(
                sampled_units=est.sampled_units,
                relative_error=est.relative_error,
            )
        return SimulationOutcome(
            cycles=est.estimated_cycles,
            return_value=functional.return_value,
            instructions=est.instructions,
            cpi=est.cpi,
            sampling_error=est.relative_error,
        )
    raise ValueError(f"unknown simulation mode {mode!r}")
