"""Bit-identity and key-soundness tests for the timing memo layers.

``tests/data/golden_measure_pr8.json`` holds 27 measurements captured
*before* the hot-loop rewrite and the memo/artifact caches existed.
Every cached path -- fresh engine, artifact-store warm engine, run-level
memo hit, unit-level replay -- must reproduce those numbers exactly:
the caches are allowed to make measurement cheaper, never different.
"""

import json
import math
import sqlite3
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.codegen import compile_module
from repro.harness.measure import MeasurementEngine
from repro.opt import O2
from repro.sim import TimingMemo, execute, smarts_simulate, static_digest, timing_key
from repro.sim.config import CONSTRAINED, TYPICAL, MicroarchConfig
from repro.sim.memo import RUN_MISSES, SIM_MEMO_VERSION
from repro.sim.smarts import _UNITS_REPLAYED
from repro.store import STORE_FILE
from repro.workloads import get_workload

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_measure_pr8.json").read_text()
)


def _check(m, entry):
    label = entry["label"]
    assert m.cycles == entry["cycles"], label
    assert m.checksum == entry["checksum"], label
    assert m.instructions == entry["instructions"], label
    assert m.sampling_error == entry["sampling_error"], label
    assert m.code_size == entry["code_size"], label


@pytest.fixture(scope="module")
def art_run():
    exe = compile_module(
        get_workload("art").module("train"), O2, issue_width=4
    )
    return exe, execute(exe, collect_trace=True)


class TestGoldenBitIdentity:
    def test_all_cached_paths_reproduce_pre_memo_measurements(self, tmp_path):
        """Cold engine (populating artifacts+memo as it goes), then a
        fresh engine served entirely from the on-disk stores: both must
        match the pre-optimization golden numbers bit for bit."""
        cold = MeasurementEngine(cache_dir=str(tmp_path))
        for entry in GOLDEN:
            _check(cold.measure(entry["workload"], entry["point"]), entry)
        cold.save()

        # Fresh engine, no measurement cache -- only the artifact store
        # and the timing memo persist.  Every simulation collapses to a
        # run-level memo hit and no compile may happen.
        warm = MeasurementEngine(
            artifact_dir=str(tmp_path / "artifacts"),
            memo_path=str(tmp_path / STORE_FILE),
        )
        misses = RUN_MISSES.value
        for entry in GOLDEN:
            _check(warm.measure(entry["workload"], entry["point"]), entry)
        assert warm.compilations == 0, "warm engine recompiled a binary"
        assert RUN_MISSES.value == misses, "warm engine missed the run memo"


class TestFlagNoiseCollapse:
    def test_codegen_inert_flag_pairs_share_one_memo_entry(self):
        """Heuristic knobs whose governing flag is off (O2 has inlining,
        unrolling and prefetching disabled) cannot change the emitted
        code, so their design points must collapse to one memo entry --
        and every memoized result must equal its cold counterpart."""
        variants = [
            O2,
            replace(O2, max_inline_insns_auto=250),
            replace(O2, inline_unit_growth=80),
            replace(O2, inline_call_cost=4),
            replace(O2, max_unroll_times=2),
            replace(O2, max_unrolled_insns=50),
            replace(O2, omit_frame_pointer=False),  # codegen-relevant
        ]
        module = get_workload("art").module("train")
        memo = TimingMemo()
        functional_by_digest = {}
        for cfg in variants:
            exe = compile_module(module, cfg, issue_width=4)
            dig = static_digest(exe)
            if dig not in functional_by_digest:
                functional_by_digest[dig] = execute(exe, collect_trace=True)
            trace = functional_by_digest[dig].trace
            cold = smarts_simulate(exe, TYPICAL, trace)
            memoized = smarts_simulate(exe, TYPICAL, trace, memo=memo)
            assert memoized == cold, f"memo changed the result for {cfg}"
        assert len(functional_by_digest) < len(variants), (
            "expected at least one codegen-inert flag pair"
        )
        assert memo.n_runs == len(functional_by_digest), (
            "distinct binaries and memo entries must correspond 1:1"
        )


class TestCrossMicroarchKeys:
    def test_every_config_field_changes_the_timing_key(self):
        base = timing_key(TYPICAL)
        assert base.startswith(f"v{SIM_MEMO_VERSION}|")
        for f in fields(MicroarchConfig):
            bumped = replace(TYPICAL, **{f.name: getattr(TYPICAL, f.name) + 1})
            assert timing_key(bumped) != base, (
                f"{f.name} does not participate in the timing key: two "
                f"microarchitectures could collide in the memo"
            )

    def test_shared_memo_keeps_microarchs_apart(self, art_run):
        exe, functional = art_run
        memo = TimingMemo()
        typ = smarts_simulate(exe, TYPICAL, functional.trace, memo=memo)
        con = smarts_simulate(exe, CONSTRAINED, functional.trace, memo=memo)
        assert typ.estimated_cycles != con.estimated_cycles
        assert memo.n_runs == 2
        # Re-running hits the run level and returns the same objects.
        assert smarts_simulate(exe, TYPICAL, functional.trace, memo=memo) == typ
        assert (
            smarts_simulate(exe, CONSTRAINED, functional.trace, memo=memo)
            == con
        )


class TestReplayExactness:
    def test_unit_replay_is_bit_identical(self, art_run):
        """A memo holding only *unit* entries forces the replay path for
        every sampled unit; a memo holding every *other* unit forces the
        mixed replay/detailed interleaving.  Both must reproduce the
        cold result exactly -- the replay leaves caches and predictors
        in precisely the state the detailed window would have."""
        exe, functional = art_run
        trace = functional.trace
        cold = smarts_simulate(exe, TYPICAL, trace)
        populated = TimingMemo()
        assert smarts_simulate(exe, TYPICAL, trace, memo=populated) == cold

        replay_all = TimingMemo()
        replay_all._units = dict(populated._units)
        before = _UNITS_REPLAYED.value
        assert smarts_simulate(exe, TYPICAL, trace, memo=replay_all) == cold
        assert _UNITS_REPLAYED.value - before == cold.sampled_units

        mixed = TimingMemo()
        mixed._units = dict(list(populated._units.items())[::2])
        before = _UNITS_REPLAYED.value
        assert smarts_simulate(exe, TYPICAL, trace, memo=mixed) == cold
        replayed = _UNITS_REPLAYED.value - before
        assert 0 < replayed < cold.sampled_units


class TestPersistence:
    def test_round_trip_including_inf(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        m = TimingMemo(path)
        run = {
            "estimated_cycles": 123.5,
            "cpi": 1.1,
            "relative_error": float("inf"),
            "sampled_units": 1,
            "instructions": 100,
        }
        m.put_run("rk", run)
        m.put_unit("uk", 4200, 1000)
        m.save()
        fresh = TimingMemo(path)
        got = fresh.get_run("rk")
        assert math.isinf(got["relative_error"])
        assert got == run
        assert fresh.get_unit("uk") == (4200, 1000)

    def test_version_mismatch_ignored(self, tmp_path):
        """A store file with another schema version is not read, and
        the first write replaces it with the current schema."""
        path = tmp_path / "memo.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE memo_runs (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO memo_runs VALUES ('rk', '{}')")
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        memo = TimingMemo(path)
        assert memo.get_run("rk") is None
        memo.put_unit("uk", 1, 1)
        memo.save()
        fresh = TimingMemo(path)
        assert fresh.get_run("rk") is None
        assert fresh.get_unit("uk") == (1, 1)

    def test_concurrent_writers_merge(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        a = TimingMemo(path)
        b = TimingMemo(path)
        a.put_unit("ua", 1, 1)
        b.put_unit("ub", 2, 2)
        a.save()
        b.save()  # must keep a's entry, not clobber it
        fresh = TimingMemo(path)
        assert fresh.get_unit("ua") == (1, 1)
        assert fresh.get_unit("ub") == (2, 2)

    def test_clean_memo_save_is_noop(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        TimingMemo(path).save()
        assert not path.exists()
