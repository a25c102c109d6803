"""Tests for the process-pool measurement backend and the
concurrent-writer-safe persistent cache."""

import json
import sqlite3
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.harness.configs import TABLE5_CONFIGS
import repro.harness.measure as measure_module
from repro.harness.measure import (
    _BATCH_SUBMITTED,
    BatchMeasurementError,
    EngineOracle,
    Measurement,
    MeasurementEngine,
    default_jobs,
)
from repro.opt import O2, O3
from repro.pipeline import measure_points
from repro.space import full_space
from repro.store import STORE_FILE


def _random_points(n, seed=0):
    space = full_space()
    rng = np.random.default_rng(seed)
    return space, [space.random_point(rng) for _ in range(n)]


class TestMeasureBatch:
    def test_failing_point_fails_alone(self, monkeypatch):
        """One point of a pooled gzip batch raises in its worker: the
        other five results are banked in the engine, and one error names
        the failed point."""
        typical = TABLE5_CONFIGS["typical"]
        configs = [replace(typical, ruu_size=r) for r in (16, 24, 32, 48, 64, 128)]
        simulate = measure_module.simulate

        def flaky(exe, config, **kwargs):
            if config.ruu_size == 48:
                raise RuntimeError("injected failure")
            return simulate(exe, config, **kwargs)

        # Pool workers fork from this process and inherit the patch.
        monkeypatch.setattr(measure_module, "simulate", flaky)
        engine = MeasurementEngine()
        requests = [("gzip", O2, m, "train") for m in configs]
        with pytest.raises(BatchMeasurementError) as info:
            engine.measure_many(requests, jobs=2)
        (failure,) = info.value.failures
        assert failure.requests == [3] and failure.workload == "gzip"
        assert "injected failure" in str(info.value)
        assert "in flaky" in failure.traceback
        assert engine.simulations == 5
        monkeypatch.setattr(measure_module, "simulate", simulate)
        kept = engine.measure_many([r for i, r in enumerate(requests) if i != 3])
        assert engine.simulations == 5, "a good result was lost"
        assert len(kept) == 5

    def test_parallel_identical_to_serial(self):
        """jobs=4 must reproduce the serial engine measurement-for-
        measurement (a point's measurement is a pure function of its
        cache key, whatever process computes it)."""
        _, points = _random_points(5)
        serial = MeasurementEngine()
        expected = [serial.measure("art", p) for p in points]
        parallel = MeasurementEngine()
        got = parallel.measure_batch("art", points, jobs=4)
        assert got == expected

    def test_jobs_one_stays_in_process(self):
        _, points = _random_points(3, seed=1)
        engine = MeasurementEngine()
        got = engine.measure_batch("art", points, jobs=1)
        assert engine.simulations == 3
        assert got == [engine.measure("art", p) for p in points]

    def test_batch_dedups_and_serves_cache(self):
        _, points = _random_points(2, seed=2)
        engine = MeasurementEngine()
        got = engine.measure_batch(
            "art", [points[0], points[0], points[1]], jobs=2
        )
        assert engine.simulations == 2  # duplicate measured once
        assert got[0] == got[1]
        again = engine.measure_batch("art", points, jobs=2)
        assert engine.simulations == 2  # warm batch: all cache hits
        assert again == got[::2]

    def test_batch_results_are_persisted(self, tmp_path):
        _, points = _random_points(2, seed=3)
        engine = MeasurementEngine(cache_dir=str(tmp_path))
        engine.measure_batch("art", points, jobs=2)
        engine.save()
        fresh = MeasurementEngine(cache_dir=str(tmp_path))
        fresh.measure_batch("art", points, jobs=2)
        assert fresh.simulations == 0

    def test_measure_many_mixed_configs(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        o2, o3, o2_again = engine.measure_many(
            [
                ("art", O2, micro, "train"),
                ("art", O3, micro, "train"),
                ("art", O2, micro, "train"),
            ],
            jobs=2,
        )
        assert o2 == o2_again
        assert o2 == engine.measure_configs("art", O2, micro)
        assert o3 == engine.measure_configs("art", O3, micro)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert MeasurementEngine().jobs == 3
        monkeypatch.setenv("REPRO_JOBS", "garbage")
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() >= 1


class TestChunkPlanning:
    """The 0.39x regression came from one future per point: every task
    paid pool pickling + telemetry overhead and points sharing a binary
    were recompiled in different workers.  The planner must emit at most
    one chunk per worker, keep same-binary points contiguous, and split
    at cost-model boundaries."""

    @staticmethod
    def _pending(engine, requests):
        pending = OrderedDict()
        for i, (w, comp, micro, inp) in enumerate(requests):
            key = engine._result_key(
                w, inp, comp, micro, engine.mode, engine.smarts_interval
            )
            pending.setdefault(key, []).append(i)
        return pending

    def test_one_chunk_per_worker_and_same_binary_contiguous(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        # Same issue width => O2 points share one binary, O3 points
        # another, interleaved in request order.
        micro_b = replace(micro, memory_latency=micro.memory_latency + 50)
        requests = [
            ("art", O2, micro, "train"),
            ("art", O3, micro, "train"),
            ("art", O2, micro_b, "train"),
            ("art", O3, micro_b, "train"),
        ]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 2)
        assert len(chunks) == 2, "must submit exactly one chunk per worker"
        planned = sorted(t[0] for chunk in chunks for t in chunk)
        assert planned == sorted(pending), "chunks must cover pending exactly"
        for chunk in chunks:
            compilers = {t[2].cache_key() for t in chunk}
            assert len(compilers) == 1, (
                "points sharing a binary were split across workers"
            )

    def test_chunks_split_at_cost_boundaries(self):
        engine = MeasurementEngine()
        # art points are 5x the cost of gzip points: the planner must
        # not hand one worker all the expensive ones plus half the rest.
        engine._point_cost[("art", "train")] = 5.0
        engine._point_cost[("gzip", "train")] = 1.0
        micro = TABLE5_CONFIGS["typical"]
        requests = [
            ("art", O2, micro, "train"),
            ("gzip", O2, micro, "train"),
            ("art", O3, micro, "train"),
            ("gzip", O3, micro, "train"),
        ]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 2)
        assert len(chunks) == 2
        costs = [
            sum(engine._estimated_cost(t[1], t[4]) for t in chunk)
            for chunk in chunks
        ]
        assert max(costs) <= 0.75 * sum(costs), (
            f"cost-imbalanced chunks: {costs}"
        )

    def test_planner_caps_chunks_at_pending_count(self):
        engine = MeasurementEngine()
        micro = TABLE5_CONFIGS["typical"]
        requests = [("art", O2, micro, "train")]
        pending = self._pending(engine, requests)
        chunks = engine._plan_chunks(requests, pending, 8)
        assert len(chunks) == 1

    def test_pool_submits_at_most_one_task_per_worker(self):
        """End-to-end regression test: a 4-point cold batch at jobs=2
        must enqueue at most 2 pool tasks (the old backend enqueued 4)."""
        _, points = _random_points(4, seed=6)
        serial = MeasurementEngine()
        expected = [serial.measure("art", p) for p in points]
        engine = MeasurementEngine()
        before = _BATCH_SUBMITTED.value
        got = engine.measure_batch("art", points, jobs=2)
        submitted = _BATCH_SUBMITTED.value - before
        assert submitted <= 2, (
            f"{submitted} pool tasks submitted for a 4-point batch at jobs=2"
        )
        assert got == expected


class TestBatchOracleProtocol:
    def test_measure_points_prefers_batch(self):
        space = full_space()
        calls = []

        class FakeOracle:
            def __call__(self, point):
                raise AssertionError("batched oracle must not be "
                                     "called point-at-a-time")

            def measure_many(self, points):
                calls.append(len(points))
                return [float(i) for i in range(len(points))]

        coded = np.zeros((4, space.dim))
        y = measure_points(FakeOracle(), space, coded)
        assert calls == [4]
        assert y.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_measure_points_plain_callable_fallback(self):
        space = full_space()
        coded = np.zeros((3, space.dim))
        y = measure_points(lambda point: 7.0, space, coded)
        assert y.tolist() == [7.0, 7.0, 7.0]

    def test_measure_points_rejects_wrong_batch_shape(self):
        space = full_space()

        class BadOracle:
            def __call__(self, point):
                return 0.0

            def measure_many(self, points):
                return [1.0]  # wrong length

        with pytest.raises(ValueError):
            measure_points(BadOracle(), space, np.zeros((2, space.dim)))

    def test_engine_oracle_batch_matches_scalar(self):
        _, points = _random_points(3, seed=4)
        engine = MeasurementEngine()
        oracle = engine.oracle("art")
        assert isinstance(oracle, EngineOracle)
        batched = oracle.measure_many(points)
        assert batched == [oracle(p) for p in points]

    def test_code_size_oracle_response(self):
        _, points = _random_points(1, seed=5)
        engine = MeasurementEngine()
        oracle = engine.code_size_oracle("art")
        assert oracle(points[0]) == float(
            engine.measure("art", points[0]).code_size
        )


class TestConcurrentSave:
    def _fake(self, cycles):
        return Measurement(
            cycles=cycles,
            checksum=1,
            instructions=10,
            sampling_error=0.0,
            code_size=4,
        )

    @staticmethod
    def _stored(cache_dir):
        """Result rows in the store, read over a separate connection."""
        conn = sqlite3.connect(str(Path(cache_dir) / STORE_FILE))
        try:
            rows = conn.execute("SELECT key, value FROM results").fetchall()
        finally:
            conn.close()
        return {k: json.loads(v) for k, v in rows}

    def test_disjoint_writers_both_survive(self, tmp_path):
        """Two engines on the same (empty) cache dir save disjoint keys;
        the store keeps both."""
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._remember("k1", self._fake(1.0))
        e2._remember("k2", self._fake(2.0))
        e1.save()
        e2.save()  # last writer: must not discard e1's entry
        assert set(self._stored(tmp_path)) == {"k1", "k2"}
        fresh = MeasurementEngine(cache_dir=str(tmp_path))
        assert fresh._cached("k1").cycles == 1.0
        assert fresh._cached("k2").cycles == 2.0

    def test_memory_wins_on_conflict(self, tmp_path):
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._remember("k", self._fake(1.0))
        e1.save()
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e2._remember("k", self._fake(9.0))
        e2.save()
        assert self._stored(tmp_path)["k"][0] == 9.0
        assert MeasurementEngine(cache_dir=str(tmp_path))._cached("k").cycles == 9.0

    def test_save_absorbs_disk_entries(self, tmp_path):
        """An engine sees what another writer saved after it started:
        lookups read through to the store."""
        e1 = MeasurementEngine(cache_dir=str(tmp_path))
        e1._remember("k1", self._fake(1.0))
        e2 = MeasurementEngine(cache_dir=str(tmp_path))
        e2._remember("k2", self._fake(2.0))
        e1.save()
        e2.save()
        assert e2._cached("k1").cycles == 1.0

    def test_clean_engine_save_is_noop(self, tmp_path):
        engine = MeasurementEngine(cache_dir=str(tmp_path))
        engine.save()
        assert not (tmp_path / STORE_FILE).exists()

    def test_interleaved_writers_across_processes(self, tmp_path):
        """The acceptance scenario: two real processes interleave saves
        to one cache dir; no entry may be lost."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.harness.measure import Measurement, MeasurementEngine\n"
            "tag = sys.argv[1]\n"
            "e = MeasurementEngine(cache_dir=sys.argv[2])\n"
            "for i in range(5):\n"
            "    e._remember(f'{tag}-{i}', Measurement(\n"
            "        cycles=float(i), checksum=0, instructions=1,\n"
            "        sampling_error=0.0))\n"
            "    e.save()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, str(tmp_path)],
                env={**__import__("os").environ, "PYTHONPATH": "src"},
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            for tag in ("a", "b")
        ]
        for p in procs:
            assert p.wait() == 0
        expected = {f"{tag}-{i}" for tag in ("a", "b") for i in range(5)}
        assert set(self._stored(tmp_path)) == expected


class TestCrossProcessDeterminism:
    def test_compile_is_hash_seed_independent(self):
        """Emitted code must not depend on PYTHONHASHSEED: set-order
        iteration over loop bodies once decided LICM/prefetch/strength
        emission order, so the same point measured differently in
        different processes (breaking serial/parallel bit-identity and
        poisoning the shared cache)."""
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.codegen import compile_module\n"
            "from repro.workloads import get_workload\n"
            "from repro.opt import O2\n"
            "exe = compile_module(get_workload('gzip').module('train'),\n"
            "                     O2, issue_width=4)\n"
            "print(hashlib.sha256(exe.disassemble().encode()).hexdigest())\n"
        )
        digests = set()
        for seed in ("1", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": "src",
                     "PYTHONHASHSEED": seed},
                cwd=str(Path(__file__).resolve().parent.parent),
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestFingerprintFips:
    def test_fingerprint_stable(self):
        a = MeasurementEngine._workload_fingerprint("art", "train")
        MeasurementEngine._fingerprints.pop(("art", "train"))
        b = MeasurementEngine._workload_fingerprint("art", "train")
        assert a == b and len(a) == 10

    def test_md5_hex_declared_not_for_security(self, monkeypatch):
        """The one md5 helper passes ``usedforsecurity=False`` (so FIPS
        builds accept it), and every caller uses that one helper."""
        import hashlib

        from repro import store
        from repro.harness import measure as measure_mod
        from repro.serve import serialize
        from repro.sim import memo

        real_md5 = hashlib.md5
        seen = {}

        def recording_md5(data=b"", **kwargs):
            seen.update(kwargs)
            return real_md5(data, **kwargs)

        monkeypatch.setattr(store.hashlib, "md5", recording_md5)
        assert store.md5_hex(b"abc") == real_md5(b"abc").hexdigest()
        assert seen == {"usedforsecurity": False}
        for module in (measure_mod, memo, serialize):
            assert module.md5_hex is store.md5_hex
