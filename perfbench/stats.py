"""The benchmark's own arithmetic: percentiles, self time, ratios.

Spans are :class:`repro.obs.trace.SpanRecord` objects, as the program's
own tracer records them.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.obs.trace import SpanRecord


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """The ``p``-th percentile (0..100) of ``values`` and the sample count.

    NumPy's default linear interpolation.  Returns ``(nan, 0)`` for an
    empty sample so a caller can never report a latency without saying it
    had no samples.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    if not values:
        return math.nan, 0
    return float(np.percentile(values, p)), len(values)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, defined as 0.0 when the base is 0.

    A zero base means the layer did not run on the workload; the base is
    always reported beside the ratio so a 0.0 is never ambiguous.
    """
    return numerator / base if base else 0.0


def hit_ratio(hits: float, misses: float) -> Tuple[float, float]:
    """``(hits / (hits + misses), hits + misses)``: a ratio with its base."""
    base = hits + misses
    return ratio(hits, base), base


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"failed={failed} attempted={attempted}")
    return ratio(failed, attempted)


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def unit_median_seconds(
    units: Sequence[Mapping[str, float]], rests: Sequence[float]
) -> float:
    """Seconds of one repetition with every unit of work at its median.

    Every repetition does the same work, split into named units (one
    design point, one save, one chunk of requests); ``units`` holds each
    repetition's seconds per unit and ``rests`` its seconds outside them.
    A burst of host noise that slows one repetition's unit does not move
    that unit's median.
    """
    if len(units) != len(rests) or not units:
        raise ValueError("one units mapping per repetition is required")
    keys = sorted(set().union(*units))
    return sum(median([u.get(k, 0.0) for u in units]) for k in keys) + median(rests)
