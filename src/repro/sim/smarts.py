"""SMARTS: statistical sampling of the timing simulation.

Following Wunderlich et al. [19] as used in the paper's Section 5: the
dynamic instruction stream is divided into sampling units of ``unit_size``
instructions; one unit in every ``interval`` is simulated in detail and
the rest receive *functional warming* only (caches and branch predictors
stay warm, no pipeline timing).  Total execution time is estimated as
``mean(unit CPI) * instruction count`` with a confidence interval from
the unit-CPI variance (systematic sampling treated as random sampling,
as SMARTS does).

The paper tuned sampling to <1% error at 99.7% confidence; the benchmark
``bench_smarts_accuracy`` reproduces that check against the exhaustive
simulator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from repro.codegen.linker import Executable
from repro.obs import counter, span
from repro.sim.config import MicroarchConfig
from repro.sim.memo import TimingMemo, timing_key
from repro.sim.ooo import OooTimingModel
from repro.sim.outcomes import Segment
from repro.sim.tracepack import _md5, as_packed, static_digest

_UNITS_SAMPLED = counter("smarts.units.sampled")
_UNITS_SKIPPED = counter("smarts.units.skipped")
_UNITS_REPLAYED = counter("smarts.units.replayed")

#: z-value for 99.7% confidence (three sigma), as the paper quotes.
Z_997 = 3.0


@dataclass
class SmartsResult:
    """A sampled estimate of total execution time."""

    #: Estimated total cycles.
    estimated_cycles: float
    #: Estimated cycles-per-instruction.
    cpi: float
    #: Relative confidence-interval half-width at 99.7% confidence.
    relative_error: float
    #: Number of sampled (detailed) units.
    sampled_units: int
    #: Instructions in the trace.
    instructions: int

    @property
    def cycles(self) -> int:
        return int(round(self.estimated_cycles))


def smarts_schedule(
    n: int,
    unit_size: int = 1000,
    interval: int = 10,
    offset: int = 0,
    detailed_warmup: int = 300,
    detailed_cooldown: int = 150,
) -> Tuple[Tuple[Segment, ...], List[Tuple[int, int, int]]]:
    """The segments SMARTS processes, in order, and its sampled units.

    Unit ``u`` covers trace positions ``[u * unit_size, ...)``.  A
    sampled unit ``[pos, end)`` is the detailed segment ``[pos -
    detailed_warmup, end + detailed_cooldown)``; every other unit is a
    warm-only segment.  The detailed warm-up and cool-down ranges are
    also warmed by the neighbouring skipped units, so those positions
    update caches and predictors twice (see ``docs/SIMULATOR.md``).
    Returns ``(schedule, units)`` with one ``(unit index, pos, end)`` per
    sampled unit, in the order of the detailed segments.
    """
    schedule: List[Segment] = []
    units: List[Tuple[int, int, int]] = []
    pos = 0
    unit_index = 0
    while pos < n:
        end = min(pos + unit_size, n)
        if unit_index % interval == offset % interval:
            schedule.append(
                (max(0, pos - detailed_warmup), min(n, end + detailed_cooldown), True)
            )
            units.append((unit_index, pos, end))
        else:
            schedule.append((pos, end, False))
        pos = end
        unit_index += 1
    return tuple(schedule), units


def smarts_simulate(
    exe: Executable,
    config: MicroarchConfig,
    trace: Sequence[Tuple[int, int]],
    unit_size: int = 1000,
    interval: int = 10,
    offset: int = 0,
    detailed_warmup: int = 300,
    detailed_cooldown: int = 150,
    memo: Optional[TimingMemo] = None,
) -> SmartsResult:
    """Estimate execution time by systematic sampling.

    Parameters
    ----------
    unit_size:
        Instructions per sampling unit (the paper uses 1000).
    interval:
        Detail-simulate one unit in every ``interval`` (the paper's
        billion-instruction runs use 1000; our short traces default to
        10 so enough units are sampled).
    offset:
        Index of the first sampled unit within each interval.
    detailed_warmup:
        Instructions of detailed pipeline warming before each measured
        unit (their cycles are discarded), removing cold-start bias.
    detailed_cooldown:
        Instructions simulated past each unit's end so the measured
        interval ends with a full pipeline (removing drain bias).
    memo:
        Optional :class:`repro.sim.memo.TimingMemo`.  Run-level hits
        skip the simulation entirely; a unit-level hit skips that
        unit's timing loop.  Results are bit-identical with and without
        a memo by construction (test-enforced).
    """
    if unit_size < 1 or interval < 1:
        raise ValueError("unit_size and interval must be positive")
    n = len(trace)
    run_key = None
    packed = None
    chain = None
    if memo is not None:
        packed = as_packed(trace)
        static_dig = static_digest(exe)
        tkey = timing_key(config)
        run_key = TimingMemo.run_key(
            static_dig,
            packed.digest(),
            tkey,
            "smarts",
            unit_size,
            interval,
            offset,
            detailed_warmup,
            detailed_cooldown,
        )
        hit = memo.get_run(run_key)
        if hit is not None:
            return SmartsResult(**hit)
        # Chained prefix digest: after processing the unit ending at
        # ``pos``, ``chain`` covers the schedule header plus every trace
        # byte in [0, pos) -- everything a unit's incoming cache and
        # predictor state can depend on.
        chain = _md5(
            (
                f"{static_dig}|{tkey}|{unit_size}|{interval}|{offset}|"
                f"{detailed_warmup}|{detailed_cooldown}"
            ).encode()
        )
    schedule, units = smarts_schedule(
        n, unit_size, interval, offset, detailed_warmup, detailed_cooldown
    )
    model = OooTimingModel(exe, config)
    # Computed on the first unit the memo does not serve.
    outcomes = None
    unit_cpis: List[float] = []
    w = 0
    for warm_start, cool_end, detailed in schedule:
        if not detailed:
            if chain is not None:
                chain.update(packed.segment_bytes(warm_start, cool_end))
            continue
        unit_index, pos, end = units[w]
        unit_key = unit_hit = None
        if chain is not None:
            h = chain.copy()
            h.update(packed.segment_bytes(pos, cool_end))
            h.update(f"|{warm_start}|{pos}|{end}|{cool_end}".encode())
            unit_key = h.hexdigest()
            unit_hit = memo.get_unit(unit_key)
        if unit_hit is not None:
            _UNITS_REPLAYED.inc()
            cycles, instructions = unit_hit
        else:
            if outcomes is None:
                outcomes = model.outcomes(trace, schedule)
            with span("smarts.detailed_unit", unit=unit_index, instructions=end - pos):
                result = model.time_window(outcomes, w, pos, end)
            cycles, instructions = result.cycles, result.instructions
            if memo is not None:
                memo.put_unit(unit_key, cycles, instructions)
        if instructions > 0:
            unit_cpis.append(cycles / instructions)
        if chain is not None:
            chain.update(packed.segment_bytes(pos, end))
        w += 1
    _UNITS_SAMPLED.inc(len(units))
    _UNITS_SKIPPED.inc(len(schedule) - len(units))

    if not unit_cpis:
        # No unit sampled (a short trace): time the whole trace in
        # detail, after the warm-only units.
        with span("smarts.fallback_detailed", instructions=n):
            fallback = schedule + ((0, n, True),)
            result = model.time_window(model.outcomes(trace, fallback), 0)
        outcome = SmartsResult(
            estimated_cycles=float(result.cycles),
            cpi=result.cpi,
            relative_error=0.0,
            sampled_units=1,
            instructions=n,
        )
    else:
        k = len(unit_cpis)
        mean_cpi = sum(unit_cpis) / k
        if k > 1:
            var = sum((c - mean_cpi) ** 2 for c in unit_cpis) / (k - 1)
            stderr = math.sqrt(var / k)
            rel_err = Z_997 * stderr / mean_cpi if mean_cpi > 0 else 0.0
        elif n <= unit_size:
            # The single unit covered the whole trace: the estimate is exact.
            rel_err = 0.0
        else:
            rel_err = float("inf")
        outcome = SmartsResult(
            estimated_cycles=mean_cpi * n,
            cpi=mean_cpi,
            relative_error=rel_err,
            sampled_units=k,
            instructions=n,
        )
    if memo is not None:
        memo.put_run(run_key, asdict(outcome))
    return outcome


def smarts_with_target_error(
    exe: Executable,
    config: MicroarchConfig,
    trace: Sequence[Tuple[int, int]],
    target_relative_error: float = 0.01,
    unit_size: int = 1000,
    initial_interval: int = 20,
    memo: Optional[TimingMemo] = None,
) -> SmartsResult:
    """Iteratively densify sampling until the error bound is met.

    Mirrors the paper's use of SMARTS error estimates to "tune the
    sampling parameters and repeat the simulation until a desired level
    of accuracy is obtained".  Halves the sampling interval until the
    99.7% confidence half-width drops below the target (or sampling
    becomes exhaustive).
    """
    interval = initial_interval
    while True:
        result = smarts_simulate(
            exe, config, trace, unit_size=unit_size, interval=interval, memo=memo
        )
        if result.relative_error <= target_relative_error or interval == 1:
            return result
        interval = max(1, interval // 2)
