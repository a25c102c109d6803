"""The repository benchmark: one command, every metric by name and unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig1_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it repeat every figure for a reader, with the
result digest and ``sim.cycles_total`` that let two commits be compared
for bit-identical results.

Isolation: all stores (measurement cache, artifacts, timing memo,
registry, ledger) live in a private directory under ``.perfbench/`` of
the checkout, removed at exit; the developer's ``.repro_cache`` and
``results/registry`` are never read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A hung set-up is killed after this long, well inside a run's 180 s.
SETUP_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}


def _isolate(workdir: Path) -> None:
    """Point every store the program knows at ``workdir``; must run
    before ``repro`` is imported (set-up processes and the server inherit
    the environment)."""
    for var in ("REPRO_TRACE", "REPRO_VERIFY", "REPRO_LEDGER", "REPRO_SCALE"):
        os.environ.pop(var, None)
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update(
        REPRO_CACHE_DIR=str(workdir / "cache"),
        REPRO_REGISTRY_DIR=str(workdir / "registry"),
        REPRO_LEDGER_PATH=str(workdir / "ledger.jsonl"),
        REPRO_TRACE_DIR=str(workdir / "trace"),
        REPRO_JOBS="1",
        TMPDIR=str(workdir / "tmp"),
        PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ),
    )
    sys.path.insert(0, str(SRC))


def _counters() -> dict:
    from repro.obs.metrics import get_registry

    return get_registry().snapshot()["counters"]


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _setup(args, wl, workdir: Path):
    """Set up ``SETUP_REPEATS`` times, each in a fresh interpreter so no
    in-process cache carries over; keep the last snapshot (and, for
    serve_wire, its running server).

    Returns each set-up's reference-host seconds (its wall time times
    the host speed probed just before and after it; see hostspeed.py),
    its raw wall seconds, the snapshot and the server handle.
    """
    from hostspeed import settled_speed

    times, raw, snap, handle = [], [], None, None
    for i in range(SETUP_REPEATS):
        if handle is not None:
            wl.stop(handle)
            handle = None
        if snap is not None:
            shutil.rmtree(snap)
        snap = workdir / f"setup{i}"
        before = settled_speed()
        t0 = time.perf_counter()
        subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--setup-into", str(snap),
            ],
            check=True,
            stdout=sys.stderr,
            timeout=SETUP_TIMEOUT_S,
        )
        handle = wl.start(snap)
        wall = time.perf_counter() - t0
        times.append(wall * (before + settled_speed()) / 2)
        raw.append(wall)
    return times, raw, snap, handle


def _repetition(args, wl, snap: Path, scratch: Path, handle, traced: bool):
    """One timed run from the snapshot; returns its context."""
    from tracing import SpanRecorder
    from workloads import RunContext, trace_layers

    ctx = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        snap=snap,
        scratch=scratch,
        rec=SpanRecorder(traced),
        handle=handle,
    )
    try:
        wl.prepare(ctx)
        trace_layers(ctx.rec)
        before = _counters()
        t0 = time.perf_counter()
        wl.run(ctx)
        ctx.wall = time.perf_counter() - t0
        ctx.counters = _delta(before, _counters())
        out = ctx.outcome
        # Time outside the units, at the host speed measured before them.
        ctx.rest = (ctx.wall - out.probe_s - out.unit_wall_s) * median(out.speed)
    finally:
        ctx.rec.restore()
    wl.check(ctx)
    ctx.peak_rss_mb = wl.peak_rss_mb(ctx)
    return ctx


def _phase(args, wl, snap: Path, workdir: Path, handle, traced: bool):
    """``wl.repeats`` timed runs, each from the snapshot and (for
    serve_wire) against a fresh server; ``handle`` is the first one's."""
    reps = []
    try:
        for r in range(wl.repeats):
            if handle is None:
                handle = wl.start(snap)
            label = "traced" if traced else "untraced"
            reps.append(
                _repetition(args, wl, snap, workdir / f"{label}{r}", handle, traced)
            )
            wl.stop(handle)
            handle = None
    finally:
        if handle is not None:
            wl.stop(handle)
    return reps


def _rate(reps) -> float:
    """Points per reference-host second of one repetition, with every
    unit of work at its median over the repetitions."""
    from stats import unit_median_seconds

    seconds = unit_median_seconds([r.outcome.units for r in reps], [r.rest for r in reps])
    return reps[0].outcome.points / seconds


def _raw_rate(reps) -> float:
    """Points per wall second (probing excluded), median repetition."""
    return median([r.outcome.points / (r.wall - r.outcome.probe_s) for r in reps])


def _print_block(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:34s} {value!r:>24} {unit}")


def bench(args, workdir: Path) -> dict:
    from layers import PER_LAYER, per_layer
    from repro.obs.export import self_timing_report, to_jsonl
    from stats import failed_frac
    from tracing import with_groups
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    setup_times, setup_raw, snap, handle = _setup(args, wl, workdir)
    plain = _phase(args, wl, snap, workdir, handle, traced=False)
    traced = _phase(args, wl, snap, workdir, None, traced=True) if args.trace else []

    reps = plain + traced
    reference = plain[0].outcome
    for ctx in reps:
        out = ctx.outcome
        print(
            f"{args.workload} seed={args.seed} seconds={args.seconds} "
            f"{'traced' if ctx.rec.enabled else 'untraced'}: "
            f"{out.points} points in {ctx.wall:.3f} s, "
            f"{out.failed}/{out.attempted} operations failed, "
            f"digest sha256:{out.digest[:16]}"
        )
    # Every repetition does the same work: the same results must come
    # back, traced or not.
    same = all(
        (c.outcome.digest, c.outcome.points) == (reference.digest, reference.points)
        for c in reps
    )
    if not same:
        print("perfbench: repetitions disagree on their results", file=sys.stderr)
    attempted = sum(c.outcome.attempted for c in reps)
    failed = sum(c.outcome.failed for c in reps)
    print(f"digest sha256:{reference.digest}")
    print(f"sim.cycles_total {reference.cycles_total!r} cycles")
    rate = _rate(plain)

    if not args.trace:
        units = END_TO_END
        metrics = {
            "setup_s": median(setup_times),
            "points_per_s": rate,
            "peak_rss_mb": max(c.peak_rss_mb for c in plain),
        }
        shown = [(n, metrics[n], u) for n, u in units.items()]
        shown += [
            ("setup_s (raw wall)", median(setup_raw), "s"),
            ("points_per_s (raw wall)", _raw_rate(plain), "1/s"),
        ]
        if args.workload == "serve_wire":
            shown.append(("serve_preds_per_s", rate, "1/s"))
        for name in ("model_error_pct", "serve_p50_ms", "serve_p99_ms", "serve.samples"):
            if name in reference.extra:
                value = median([c.outcome.extra[name] for c in plain])
                shown.append((name, value, PER_LAYER[name]))
        shown.append(("failed_frac", failed_frac(failed, attempted), "ratio"))
        _print_block(f"set-ups (reference-host s): {[round(t, 3) for t in setup_times]}", shown)
    else:
        units = PER_LAYER
        per_rep = [per_layer(c.rec.spans, c.counters, c.outcome.extra) for c in traced]
        metrics = {n: median([m[n] for m in per_rep]) for n in per_rep[0]}
        metrics["sim.cycles_total"] = reference.cycles_total
        metrics["serve_preds_per_s"] = rate if args.workload == "serve_wire" else 0.0
        metrics["failed_frac"] = failed_frac(failed, attempted)
        metrics["trace_overhead_pct"] = (rate / _rate(traced) - 1.0) * 100.0
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        spans = sorted(with_groups(traced[0].rec.spans), key=lambda s: s.start)
        to_jsonl(spans, trace_path)
        print(f"spans of the first traced repetition: {trace_path.relative_to(ROOT)}")
        print(self_timing_report(spans))
        _print_block("per-layer metrics:", [(n, metrics[n], u) for n, u in units.items()])

    return {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["fig1_cold", "uarch_sweep", "static_screen", "serve_wire"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.setup_into:
        # A set-up process: the environment is already isolated.
        sys.path.insert(0, str(SRC))
        from workloads import WORKLOADS

        snap = Path(args.setup_into)
        snap.mkdir(parents=True)
        WORKLOADS[args.workload]().setup(snap, args.seed, args.seconds)
        return 0

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    _isolate(workdir)
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
