"""The four benchmark workloads.

A workload has these steps; ``run.py`` drives them:

``setup(snap, seed, seconds)``
    Runs in a fresh interpreter and writes everything the timed run
    needs under ``snap``: reference checksums, built binaries and traces,
    a filled store, a registered model, the request script.
``start(snap)`` / ``stop(handle)``
    Set-up that lives in the benchmark process (the prediction server).
``prepare(ctx)``
    Untimed: copies the snapshot into the phase's private ``scratch``
    directory, so every timed run starts from the same state, and
    finishes lazy in-process work that set-up already paid for (parsing
    the programs, static analysis), so a traced and an untraced phase
    do the same work.
``run(ctx)``
    The timed part.  Results are checked and folded into ``ctx.outcome``.
``check(ctx)``
    Untimed checks that need work of their own (reference predictions).

Work per run is fixed by ``--seed`` and ``--seconds`` alone (sized from
reference per-point costs on a 2-core host), never by the measured
speed, so the result digest and ``sim.cycles_total`` of two commits
compare exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import queue
import resource
import shutil
import struct
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List

import numpy as np

from hostspeed import settled_speed
from stats import hit_ratio, percentile, ratio
from tracing import SpanRecorder

#: Programs per workload and why (see README.md).
FIG1_PROGRAMS = ("gzip", "art")
UARCH_PROGRAMS = ("gzip", "mcf")
SERVE_PROGRAM = "gzip"
INPUT = "train"

#: Figure-1 build sizes per program: test set, initial D-optimal design,
#: one augmentation.  Indivisible, so fig1_cold runs one build per
#: program whatever --seconds is (about 27 s on the reference host).
FIG1_TEST, FIG1_INITIAL, FIG1_AUGMENT = 3, 7, 2
FIG1_CANDIDATES = 300

#: uarch_sweep: one 12-point block per program per 10 s of --seconds
#: (reference host: ~0.25 s per gzip point, ~0.9 s per mcf point).
_PB12 = [1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, -1.0]
#: static_screen: store entries per program filled in set-up, and new
#: points per program screened per second of --seconds.
STATIC_FILL = 800
STATIC_POINTS_PER_S = 50
#: serve_wire: requests per second of --seconds on connection A (GA
#: populations, 60 rows each) and B (single points), sized so both take
#: about as long.
SERVE_A_PER_S = 30
SERVE_B_PER_S = 350
#: The script runs in this many chunks, one unit of work each.
SERVE_CHUNKS = 10
SERVE_TRAIN = 120
SERVE_MODEL = "bench-rbf"
SERVE_POPULATION, SERVE_GENERATIONS = 60, 40

#: Warm-up probes and probes per host-speed reading around a unit of work.
UNIT_PROBES = (5, 3)

#: Independent random streams derived from the workload seed.
_STREAMS = {
    "fig1": 1,
    "uarch": 2,
    "static_fill": 3,
    "static_screen": 4,
    "serve_train": 5,
    "serve_ga": 6,
    "serve_points": 7,
}


def rng(seed: int, stream: str, *sub: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream], *sub])


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True))


def _reference_checksums(programs) -> Dict[str, int]:
    """``interpret`` on each unoptimized module: the checksum every
    accurate measurement must reproduce."""
    from repro.ir.interp import interpret
    from repro.workloads import get_workload

    return {
        w: int(interpret(get_workload(w).module(INPUT)).return_value)
        for w in programs
    }


def _count_entries(store: Path) -> int:
    path = store / "measurements.json"
    return len(json.loads(path.read_text())) if path.exists() else 0


@dataclass
class Outcome:
    """Checked results of one timed run."""

    attempted: int = 0
    failed: int = 0
    #: Design points (or predicted rows) answered.
    points: int = 0
    #: Cycles of every accurate measurement, in design order.
    cycles: List[float] = field(default_factory=list)
    #: Workload-specific figures (model error, serve latencies, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Reference-host seconds (see hostspeed.py) per named unit of work:
    #: a design point, a save, a chunk of requests.  The same keys recur
    #: in every repetition of the run.
    units: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds inside units, and spent probing the host before them.
    unit_wall_s: float = 0.0
    probe_s: float = 0.0
    #: Reference/measured host speed before each unit.
    speed: List[float] = field(default_factory=list)
    _digest: Any = field(default_factory=hashlib.sha256)
    _reported: int = 0

    def check(self, ok: bool, record: bytes, what: str = "") -> None:
        """Count one operation; ``record`` feeds the result digest."""
        self.attempted += 1
        self._digest.update(record)
        if not ok:
            self.fail(1, what)

    def fail(self, n: int, what: str) -> None:
        self.failed += n
        if self._reported < 5:
            self._reported += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def lost(self, n: int, what: str) -> None:
        """``n`` operations that never produced a result (an exception)."""
        self.attempted += n
        self.fail(n, what)

    @contextlib.contextmanager
    def unit(self, key: str) -> Iterator[None]:
        """Time one unit of work, probing the host's speed just before
        and just after it, each time after the same warm-up."""
        t0 = time.perf_counter()
        before = settled_speed(*UNIT_PROBES)
        t1 = time.perf_counter()
        try:
            yield
        finally:
            t2 = time.perf_counter()
            mean = (before + settled_speed(*UNIT_PROBES)) / 2
            self.probe_s += (t1 - t0) + (time.perf_counter() - t2)
            self.unit_wall_s += t2 - t1
            self.speed.append(mean)
            self.units[key] = self.units.get(key, 0.0) + (t2 - t1) * mean

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def cycles_total(self) -> float:
        return math.fsum(self.cycles)


def _pack(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@dataclass
class RunContext:
    seed: int
    seconds: int
    snap: Path
    scratch: Path
    rec: SpanRecorder
    #: What ``start`` returned (the server of serve_wire), else None.
    handle: Any = None
    outcome: Outcome = field(default_factory=Outcome)
    #: Workload-private state passed between prepare, run and check.
    state: Dict[str, Any] = field(default_factory=dict)
    #: Filled in by run.py: wall time of ``run``, its reference-host
    #: seconds outside the units, the program's counter deltas over it,
    #: and the peak RSS of the process doing the work.
    wall: float = 0.0
    rest: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


class Workload:
    name = ""
    #: Timed repetitions per run, each from the snapshot; run.py takes
    #: the median time of every unit of work over them.
    repeats = 3

    def setup(self, snap: Path, seed: int, seconds: int) -> None:
        raise NotImplementedError

    def start(self, snap: Path) -> Any:
        return None

    def stop(self, handle: Any) -> None:
        pass

    def prepare(self, ctx: RunContext) -> None:
        pass

    def run(self, ctx: RunContext) -> None:
        raise NotImplementedError

    def check(self, ctx: RunContext) -> None:
        pass

    def peak_rss_mb(self, ctx: RunContext) -> float:
        """Peak RSS of the process doing the work (this one by default)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing hooks shared by the measurement workloads
# ----------------------------------------------------------------------
def trace_engine(rec: SpanRecorder, engine) -> None:
    """Spans around the engine's layers (no-op on an untraced run)."""
    if not rec.enabled:
        return
    from repro.obs import counter

    misses = counter("measure.result_cache.misses")
    original = engine.measure_configs

    def measure_configs(*args, **kwargs):
        before = misses.value
        with rec.span("harness.measure_configs", new_group=True) as sp:
            result = original(*args, **kwargs)
            sp.set_attr("miss", misses.value != before)
        return result

    rec.install(engine, "measure_configs", measure_configs)
    rec.patch(engine, "measure_many", "harness.measure_many")
    rec.patch(engine, "save", "harness.save")
    if engine.artifacts is not None:
        rec.patch(engine.artifacts, "load_binary", "harness.artifacts.load")
        rec.patch(engine.artifacts, "load_trace", "harness.artifacts.load")


def time_points(engine, out: Outcome, prefix: str) -> None:
    """Time every ``measure_configs`` call as its own unit of work."""
    original = engine.measure_configs
    calls = itertools.count()

    def measure_configs(*args, **kwargs):
        with out.unit(f"{prefix}:{next(calls)}"):
            return original(*args, **kwargs)

    engine.measure_configs = measure_configs


def trace_layers(rec: SpanRecorder) -> None:
    """Spans around compile, functional execution, simulation, design
    and static estimation at the call sites the harness uses."""
    if not rec.enabled:
        return
    import repro.codegen.compile as codegen_compile
    import repro.harness.measure as measure
    import repro.pipeline.build as build
    from repro.analysis.static.oracle import default_static_oracle

    rec.patch(codegen_compile, "optimize_module", "opt.optimize_module")
    rec.patch(measure, "compile_module", "codegen.compile_module")
    rec.patch(
        measure,
        "execute",
        "sim.func.execute",
        after=lambda r: {"instructions": r.instruction_count},
    )
    rec.patch(
        measure,
        "simulate",
        "sim.simulate",
        after=lambda o: {"instructions": o.instructions},
    )
    rec.patch(build, "d_optimal_design", "doe.design")
    rec.patch(build, "augment_design", "doe.design")
    rec.patch(default_static_oracle(), "estimate", "analysis.static.estimate")


# ----------------------------------------------------------------------
# fig1_cold
# ----------------------------------------------------------------------
class _CheckedOracle:
    """Batch oracle for ``build_model`` that checks every checksum.

    Same protocol as :class:`repro.harness.measure.EngineOracle`
    (``measure_many``), so the build takes the batch path ``repro model``
    takes.
    """

    def __init__(self, engine, workload: str, reference: int, outcome: Outcome):
        self.engine = engine
        self.workload = workload
        self.input_name = INPUT
        self.reference = reference
        self.outcome = outcome

    def __call__(self, point) -> float:
        return self.measure_many([point])[0]

    def measure_many(self, points) -> List[float]:
        results = self.engine.measure_batch(self.workload, points, INPUT)
        for m in results:
            self.outcome.check(
                m.checksum == self.reference,
                _pack(m.cycles, m.checksum),
                f"{self.workload}: checksum {m.checksum} != {self.reference}",
            )
            self.outcome.cycles.append(m.cycles)
            self.outcome.points += 1
        return [m.cycles for m in results]


class Fig1Cold(Workload):
    name = "fig1_cold"
    # One cold build per program already takes ~35 s.
    repeats = 1

    def setup(self, snap: Path, seed: int, seconds: int) -> None:
        _write_json(snap / "refs.json", _reference_checksums(FIG1_PROGRAMS))

    def prepare(self, ctx: RunContext) -> None:
        from repro.workloads import get_workload

        for w in FIG1_PROGRAMS:
            get_workload(w).module(INPUT)

    def run(self, ctx: RunContext) -> None:
        from repro.harness.measure import MeasurementEngine
        from repro.models import RbfModel
        from repro.pipeline import build_model
        from repro.space import full_space

        refs = json.loads((ctx.snap / "refs.json").read_text())
        space = full_space()
        out, rec = ctx.outcome, ctx.rec
        planned = FIG1_TEST + FIG1_INITIAL + FIG1_AUGMENT
        errors = []
        for i, w in enumerate(FIG1_PROGRAMS):

            def factory():
                model = RbfModel(variable_names=space.names)
                if rec.enabled:
                    model.fit = rec.wrap(model.fit, "models.fit")
                return model

            # Empty stores per program, as a fresh `repro model` run has.
            engine = MeasurementEngine(cache_dir=str(ctx.scratch / f"fig1-{w}"))
            trace_engine(rec, engine)
            time_points(engine, out, w)
            before = out.attempted
            try:
                with rec.span("pipeline.build_model", workload=w):
                    result = build_model(
                        oracle=_CheckedOracle(engine, w, refs[w], out),
                        space=space,
                        model_factory=factory,
                        rng=rng(ctx.seed, "fig1", i),
                        initial_size=FIG1_INITIAL,
                        batch_size=FIG1_AUGMENT,
                        max_samples=FIG1_INITIAL + FIG1_AUGMENT,
                        target_error=0.0,
                        n_candidates=FIG1_CANDIDATES,
                        test_size=FIG1_TEST,
                    )
                engine.save()
            except Exception:
                traceback.print_exc()
                out.lost(planned - (out.attempted - before), f"{w} build")
                continue
            err = result.test_error
            out.check(
                math.isfinite(err) and err >= 0.0,
                _pack(err),
                f"{w}: model error {err}",
            )
            errors.append(err)
        if errors:
            out.extra["model_error_pct"] = sum(errors) / len(errors)

    def check(self, ctx: RunContext) -> None:
        ctx.outcome.extra["store_entries"] = sum(
            _count_entries(ctx.scratch / f"fig1-{w}") for w in FIG1_PROGRAMS
        )


# ----------------------------------------------------------------------
# uarch_sweep
# ----------------------------------------------------------------------
class UarchSweep(Workload):
    name = "uarch_sweep"
    repeats = 1

    @staticmethod
    def design(seed: int, seconds: int):
        """Per program: seeded randomizations of the 12-run Plackett-Burman
        design over the 11 Table-2 knobs at their extremes (columns
        permuted, signs flipped, rows shuffled).  Every knob is at each
        extreme in half the points, which keeps a run's cost steady from
        seed to seed; random or Latin-hypercube designs of this size vary
        several times more."""
        from repro.sim.config import MicroarchConfig
        from repro.space import microarch_space

        space = microarch_space()
        blocks = max(1, round(seconds / 10))
        base = np.array([np.roll(_PB12, i) for i in range(11)] + [[-1.0] * 11])
        design = {}
        for i, w in enumerate(UARCH_PROGRAMS):
            r = rng(seed, "uarch", i)
            rows = [
                (base[:, r.permutation(11)] * r.choice([-1.0, 1.0], size=11))[
                    r.permutation(12)
                ]
                for _ in range(blocks)
            ]
            design[w] = [
                MicroarchConfig.from_point(space.decode(row))
                for row in np.concatenate(rows)
            ]
        return design

    def setup(self, snap: Path, seed: int, seconds: int) -> None:
        from repro.harness.measure import MeasurementEngine
        from repro.opt.flags import O2

        refs = _reference_checksums(UARCH_PROGRAMS)
        engine = MeasurementEngine(artifact_dir=str(snap / "artifacts"))
        widths = sorted(
            {m.issue_width for ms in self.design(seed, seconds).values() for m in ms}
        )
        for w in UARCH_PROGRAMS:
            for width in widths:
                _, functional = engine.compile_and_trace(w, INPUT, O2, width)
                if functional.return_value != refs[w]:
                    raise RuntimeError(
                        f"{w} -O2 width {width}: checksum "
                        f"{functional.return_value} != {refs[w]}"
                    )
        _write_json(snap / "refs.json", refs)

    def prepare(self, ctx: RunContext) -> None:
        shutil.copytree(ctx.snap / "artifacts", ctx.scratch / "artifacts")
        ctx.state["design"] = self.design(ctx.seed, ctx.seconds)

    def run(self, ctx: RunContext) -> None:
        from repro.harness.measure import MeasurementEngine
        from repro.opt.flags import O2

        refs = json.loads((ctx.snap / "refs.json").read_text())
        out = ctx.outcome
        # Fresh result cache and timing memo; binaries and traces come
        # from the artifact store set-up filled.
        engine = MeasurementEngine(
            cache_dir=str(ctx.scratch / "cache"),
            artifact_dir=str(ctx.scratch / "artifacts"),
        )
        trace_engine(ctx.rec, engine)
        time_points(engine, out, "point")
        for w, configs in ctx.state["design"].items():
            try:
                results = engine.measure_many(
                    [(w, O2, m, INPUT) for m in configs]
                )
            except Exception:
                traceback.print_exc()
                out.lost(len(configs), f"{w} sweep")
                continue
            for m in results:
                out.check(
                    m.checksum == refs[w],
                    _pack(m.cycles, m.checksum),
                    f"{w}: checksum {m.checksum} != {refs[w]}",
                )
                out.cycles.append(m.cycles)
                out.points += 1
        with out.unit("save"):
            engine.save()

    def check(self, ctx: RunContext) -> None:
        ctx.outcome.extra["store_entries"] = _count_entries(ctx.scratch / "cache")


# ----------------------------------------------------------------------
# static_screen
# ----------------------------------------------------------------------
def _static_requests(seed: int, stream: str, n: int):
    """Per program, ``n`` seeded random joint design points."""
    from repro.doe import random_candidates
    from repro.harness.configs import split_point
    from repro.space import full_space
    from repro.workloads import workload_names

    space = full_space()
    requests = {}
    for i, w in enumerate(workload_names()):
        rows = random_candidates(space, n, rng(seed, stream, i))
        requests[w] = [
            (w, *split_point(space.decode(row)), INPUT) for row in rows
        ]
    return requests


class StaticScreen(Workload):
    name = "static_screen"
    repeats = 5

    def __init__(self):
        self._design = None

    def setup(self, snap: Path, seed: int, seconds: int) -> None:
        from repro.harness.measure import MeasurementEngine

        engine = MeasurementEngine(mode="static", cache_dir=str(snap / "store"))
        for requests in _static_requests(seed, "static_fill", STATIC_FILL).values():
            engine.measure_many(requests)
        engine.save()

    def prepare(self, ctx: RunContext) -> None:
        from repro.analysis.static.oracle import default_static_oracle
        from repro.workloads import workload_names

        shutil.copytree(ctx.snap / "store", ctx.scratch / "store")
        if self._design is None:  # the same in every repetition
            for w in workload_names():
                default_static_oracle().model(w, INPUT)
            n = max(1, round(STATIC_POINTS_PER_S * ctx.seconds))
            self._design = _static_requests(ctx.seed, "static_screen", n)
        ctx.state["design"] = self._design

    def run(self, ctx: RunContext) -> None:
        from repro.harness.measure import MeasurementEngine

        out, rec = ctx.outcome, ctx.rec
        store = str(ctx.scratch / "store")
        design = ctx.state["design"]
        with out.unit("load"), rec.span("harness.engine_load"):
            engine = MeasurementEngine(mode="static", cache_dir=store)
        trace_engine(rec, engine)
        written: Dict[str, list] = {}
        for w, requests in design.items():
            try:
                with out.unit(f"screen:{w}"):
                    results = engine.measure_many(requests)
                # Corpus cadence: persist after every program.
                with out.unit(f"save:{w}"):
                    engine.save()
            except Exception:
                traceback.print_exc()
                out.lost(len(requests), f"{w} screen")
                continue
            written[w] = results
            for m in results:
                out.check(
                    math.isfinite(m.cycles) and m.cycles > 0,
                    _pack(m.cycles, m.instructions, m.code_size),
                    f"{w}: static estimate {m.cycles}",
                )
                out.points += 1
        # A fresh engine (a new process's view) loads the store and
        # re-reads the whole design: every value must come back as written.
        with out.unit("reload"), rec.span("harness.engine_load"):
            reader = MeasurementEngine(mode="static", cache_dir=store)
        trace_engine(rec, reader)
        for w, results in written.items():
            try:
                with out.unit(f"reread:{w}"):
                    again = reader.measure_many(design[w])
            except Exception:
                traceback.print_exc()
                out.lost(len(results), f"{w} re-read")
                continue
            for m, r in zip(results, again):
                out.check(
                    (r.cycles, r.instructions, r.code_size)
                    == (m.cycles, m.instructions, m.code_size),
                    _pack(r.cycles),
                    f"{w}: re-read {r.cycles} != written {m.cycles}",
                )
                out.points += 1

    def check(self, ctx: RunContext) -> None:
        ctx.outcome.extra["store_entries"] = _count_entries(ctx.scratch / "store")


# ----------------------------------------------------------------------
# serve_wire
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` in its own process, on ephemeral ports."""

    def __init__(self, registry: Path):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--metrics-port", "0",
                "--registry", str(registry),
                "--model", SERVE_MODEL,
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        try:
            self.address, self.metrics_url = self._banner()
            with self.client() as client:
                client.ping()
        except BaseException:
            self.stop()
            raise

    def _banner(self):
        """(host, port) and the /metrics URL from the start-up banner."""
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(l) for l in iter(self.proc.stdout.readline, "")],
            daemon=True,
        )
        reader.start()
        address = None
        deadline = time.monotonic() + 60
        while True:
            try:
                line = lines.get(timeout=1).strip()
            except queue.Empty:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start") from None
                continue
            if line.startswith("serving registry"):
                host, port = line.rsplit(" on ", 1)[1].rsplit(":", 1)
                address = (host, int(port))
            elif line.startswith("metrics:") and address is not None:
                return address, line.split(None, 1)[1]

    def client(self):
        from repro.serve import PredictionClient

        return PredictionClient(*self.address, timeout=30)

    def counters(self) -> Dict[str, float]:
        """The server process's ``repro.obs`` counters, from /metrics."""
        from repro.obs.promexport import snapshot_from_prometheus

        with urllib.request.urlopen(self.metrics_url, timeout=30) as r:
            return snapshot_from_prometheus(r.read().decode())["counters"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown_server()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


class _RecordingModel:
    """Stands in for the surrogate model inside the GA objective and
    keeps every batch of rows the GA asked to have predicted."""

    def __init__(self, predictor):
        self.predictor = predictor
        self.batches: List[np.ndarray] = []

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.array(x, dtype=float)
        self.batches.append(x)
        return self.predictor.predict(x)


class ServeWire(Workload):
    name = "serve_wire"
    repeats = 5

    def __init__(self):
        self._script = None
        self._answers = None

    def setup(self, snap: Path, seed: int, seconds: int) -> None:
        from repro.doe import latin_hypercube_candidates, random_candidates
        from repro.harness.configs import TABLE5_CONFIGS
        from repro.harness.experiments.search import frozen_microarch_objective
        from repro.harness.measure import MeasurementEngine
        from repro.models import RbfModel
        from repro.search import GeneticSearch
        from repro.serve import ModelRegistry, Predictor
        from repro.space import COMPILER_VARIABLE_NAMES, full_space

        space = full_space()
        # The model: RBF over static-oracle estimates, so no simulation.
        engine = MeasurementEngine(mode="static")
        x = latin_hypercube_candidates(space, SERVE_TRAIN, rng(seed, "serve_train"))
        y = np.array(engine.cycles_batch(SERVE_PROGRAM, [space.decode(r) for r in x]))
        model = RbfModel(variable_names=space.names)
        model.fit(x, y)
        entry = ModelRegistry(snap / "registry").save(
            model, SERVE_MODEL, space=space, corpus=(x, y)
        )
        # Connection A replays the populations seeded GA runs (the
        # `repro tune --surrogate` shape) asked the surrogate for.
        predictor = Predictor(entry.model, space=space)
        sub = space.subspace(COMPILER_VARIABLE_NAMES)
        machines = list(TABLE5_CONFIGS.values())
        batches: List[np.ndarray] = []
        n_a = round(SERVE_A_PER_S * seconds)
        for g in itertools.count():
            if len(batches) >= n_a:
                break
            recorder = _RecordingModel(predictor)
            objective = frozen_microarch_objective(
                recorder, space, sub, machines[g % len(machines)]
            )
            GeneticSearch(
                sub, population=SERVE_POPULATION, generations=SERVE_GENERATIONS
            ).run(objective, rng(seed, "serve_ga", g))
            batches.extend(recorder.batches)
        # A fixed request count: the runs' convergence (patience) must not
        # change how much work a seed sends.
        batches = batches[:n_a]
        # Connection B sends fresh uniformly random points: no caller's
        # repeat rate is known, so none is assumed.
        b_points = random_candidates(
            space, round(SERVE_B_PER_S * seconds), rng(seed, "serve_points")
        )
        np.savez(
            snap / "requests.npz",
            a_rows=np.concatenate(batches),
            a_sizes=np.array([len(b) for b in batches]),
            b_points=b_points,
        )

    def start(self, snap: Path) -> ServerProcess:
        return ServerProcess(snap / "registry")

    def stop(self, handle: ServerProcess) -> None:
        handle.stop()

    def prepare(self, ctx: RunContext) -> None:
        # The script is the same in every repetition: decode it once.
        if self._script is None:
            from repro.space import full_space

            space = full_space()
            data = np.load(ctx.snap / "requests.npz")
            self._script = {
                "a": np.split(data["a_rows"], np.cumsum(data["a_sizes"])[:-1]),
                "b": [space.decode(row) for row in data["b_points"]],
            }
        ctx.state.update(self._script)

    def _reference(self, snap: Path):
        """In-process answers to the script, and µs per row they took.

        The server keeps one prediction cache; connection A's rows (GA
        rows at a Table-5 machine) and B's (random points) do not meet
        in it and it never fills, so replaying each connection's requests
        in order through its own in-process predictor reproduces the
        server's cache state, hence the batches the model saw.
        """
        if self._answers is None:
            from repro.serve import ModelRegistry, Predictor

            registry = ModelRegistry(snap / "registry")
            answers, busy, rows = {}, 0.0, 0
            for conn, payloads in self._script.items():
                ref = Predictor.from_registry(SERVE_MODEL, registry=registry)
                predict = ref.predict if conn == "a" else ref.predict_point
                answers[conn] = []
                for payload in payloads:
                    t0 = time.perf_counter()
                    want = np.atleast_1d(predict(payload))
                    busy += time.perf_counter() - t0
                    rows += len(want)
                    answers[conn].append(want)
            self._answers = answers, ratio(busy * 1e6, rows)
        return self._answers

    def run(self, ctx: RunContext) -> None:
        """Closed loop: two connections, each sending its next request
        only after the reply to its previous one.

        The script runs in ``SERVE_CHUNKS`` chunks; both connections wait
        at a barrier between chunks while this thread probes the host's
        speed, so every chunk is a unit of work timed like the other
        workloads' units.
        """
        from repro.serve.server import ProtocolError

        rec, out = ctx.rec, ctx.outcome
        server: ServerProcess = ctx.handle
        jobs = {
            "a": ("predict", "x", ctx.state["a"]),
            "b": ("predict_point", "point", ctx.state["b"]),
        }
        replies = {c: [None] * len(p) for c, (_, _, p) in jobs.items()}
        latency: List[tuple] = []
        lock = threading.Lock()
        gate = threading.Barrier(len(jobs) + 1, timeout=120)

        def drive(conn: str) -> None:
            op, field_name, payloads = jobs[conn]
            chunks = np.array_split(np.arange(len(payloads)), SERVE_CHUNKS)
            mine = []
            client = None
            try:
                client = server.client()
            except OSError as e:
                print(f"perfbench: connection {conn}: {e!r}", file=sys.stderr)
            try:
                for chunk in chunks:
                    gate.wait()
                    for i in chunk if client is not None else ():
                        payload = payloads[i]
                        with rec.span("serve.request", new_group=True, op=op):
                            t0 = time.perf_counter()
                            if op == "predict":
                                payload = payload.tolist()
                            try:
                                reply = client.request(
                                    op, model=SERVE_MODEL, **{field_name: payload}
                                )
                            except (OSError, ProtocolError) as e:
                                # The connection is gone; its unanswered
                                # requests count as failures in check().
                                print(f"perfbench: connection {conn}: {e!r}",
                                      file=sys.stderr)
                                client.close()
                                client = None
                                break
                            except RuntimeError as e:  # an {"ok": false} reply
                                print(f"perfbench: {conn}[{i}]: {e}", file=sys.stderr)
                                continue
                            t1 = time.perf_counter()
                        replies[conn][i] = reply["y"]
                        mine.append(((t1 - t0) * 1e3, float(reply["elapsed_ms"])))
                    gate.wait()
            except threading.BrokenBarrierError:
                pass
            finally:
                if client is not None:
                    client.close()
                with lock:
                    latency.extend(mine)

        # Client and server share one core: a reply then wakes the peer
        # by a context switch, not by a wake-up of the other virtual CPU,
        # whose latency swings with the host's load.  The probes before
        # and after each chunk run on that core.
        allowed = os.sched_getaffinity(0)
        core = {max(allowed)}
        os.sched_setaffinity(server.proc.pid, core)
        os.sched_setaffinity(0, core)  # the client threads inherit it
        try:
            threads = [threading.Thread(target=drive, args=(c,)) for c in jobs]
            for t in threads:
                t.start()
            try:
                for k in range(SERVE_CHUNKS):
                    with out.unit(f"chunk:{k}"):
                        gate.wait()  # release the connections
                        gate.wait()  # both finished the chunk
            except threading.BrokenBarrierError:
                print("perfbench: serve connections stalled", file=sys.stderr)
                gate.abort()
            for t in threads:
                t.join(timeout=120)
        finally:
            os.sched_setaffinity(0, allowed)
        ctx.state["replies"] = replies
        ctx.state["latency"] = latency
        out.points = sum(
            len(np.atleast_1d(y)) for ys in replies.values() for y in ys if y is not None
        )

    def check(self, ctx: RunContext) -> None:
        """Every wire prediction must equal in-process ``Predictor.predict``
        on the same rows, bit for bit."""
        out = ctx.outcome
        server: ServerProcess = ctx.handle
        answers, us_per_row = self._reference(ctx.snap)
        for conn, replies in ctx.state["replies"].items():
            for i, (got, want) in enumerate(zip(replies, answers[conn])):
                if got is None:
                    out.lost(1, f"request {conn}[{i}] got no answer")
                    continue
                got = np.atleast_1d(np.asarray(got, dtype=float))
                out.check(
                    got.shape == want.shape and got.tobytes() == want.tobytes(),
                    got.tobytes(),
                    f"request {conn}[{i}]: wire {got[:3]} != in-process {want[:3]}",
                )
        latency = ctx.state["latency"]
        client_ms = [c for c, _ in latency]
        extra = out.extra
        extra["serve_p50_ms"], extra["serve.samples"] = percentile(client_ms, 50)
        extra["serve_p99_ms"], _ = percentile(client_ms, 99)
        extra["serve.client_ms"] = ratio(sum(c - s for c, s in latency), len(latency))
        extra["serve.server_ms"] = ratio(sum(s for _, s in latency), len(latency))
        extra["serve.predict_us_per_row"] = us_per_row
        with server.client() as client:
            stats = client.stats()
        extra["serve.requests"] = stats["requests"]
        extra["serve.errors"] = stats["errors"]
        counters = server.counters()
        extra["serve.cache_hit_ratio"], extra["serve.cache_lookups"] = hit_ratio(
            counters.get("serve.cache_hit", 0), counters.get("serve.cache_miss", 0)
        )
        ctx.state["peak_rss_mb"] = server.peak_rss_mb()

    def peak_rss_mb(self, ctx: RunContext) -> float:
        return ctx.state["peak_rss_mb"]


WORKLOADS = {w.name: w for w in (Fig1Cold, UarchSweep, StaticScreen, ServeWire)}
