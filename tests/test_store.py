"""Tests for the SQLite store (:mod:`repro.store`) behind the
measurement cache and the timing memo, and for the result key that
indexes it."""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro import store
from repro.harness.measure import Measurement, MeasurementEngine
from repro.opt import O2
from repro.sim import memo as memo_mod
from repro.sim.config import TYPICAL
from repro.sim.memo import TimingMemo
from repro.store import STORE_FILE, Store


def _fake(cycles):
    return Measurement(
        cycles=cycles, checksum=1, instructions=10, sampling_error=0.0
    )


def _child_writes(path):
    inherited = list(store._CONNECTIONS.values())
    Store(path).write({"results": {"child": [1]}})
    own = store._CONNECTIONS[str(path)]
    assert all(own is not conn for conn in inherited)


class TestStore:
    def test_reads_create_no_file(self, tmp_path):
        s = Store(tmp_path / "sub" / STORE_FILE)
        assert s.get("results", "k") is None
        assert not (tmp_path / "sub").exists()

    def test_non_database_file_is_ignored_by_reads(self, tmp_path):
        path = tmp_path / "sim_memo.json"
        path.write_text('{"version": 1, "runs": {}}')
        assert Store(path).get("memo_runs", "k") is None

    def test_save_writes_only_new_rows(self, tmp_path):
        """On a store already holding 10k results, saving one new point
        changes exactly one row, and a clean save changes none."""
        engine = MeasurementEngine(cache_dir=str(tmp_path))
        for i in range(10_000):
            engine._remember(f"k{i}", _fake(float(i)))
        engine.save()
        conn = store._connect(tmp_path / STORE_FILE, create=False)
        before = conn.total_changes
        engine._remember("new", _fake(-1.0))
        engine.save()
        assert conn.total_changes - before == 1
        engine.save()
        assert conn.total_changes - before == 1
        assert MeasurementEngine(cache_dir=str(tmp_path))._cached("k9999").cycles == 9999.0

    def test_unit_cap_drops_the_oldest_units(self, tmp_path, monkeypatch):
        monkeypatch.setattr(memo_mod, "MAX_UNIT_ENTRIES", 3)
        path = tmp_path / STORE_FILE
        memo = TimingMemo(path)
        for i in range(5):
            memo.put_unit(f"u{i}", i, 1)
            memo.save()
        fresh = TimingMemo(path)
        assert [fresh.get_unit(f"u{i}") for i in range(5)] == [
            None,
            None,
            (2, 1),
            (3, 1),
            (4, 1),
        ]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_opens_its_own_connection(self, tmp_path):
        path = tmp_path / STORE_FILE
        parent = Store(path)
        parent.write({"results": {"parent": [0]}})
        conn = store._CONNECTIONS[str(path)]
        child = multiprocessing.get_context("fork").Process(
            target=_child_writes, args=(path,)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert store._CONNECTIONS[str(path)] is conn
        assert parent.get("results", "child") == [1]


class TestResultKey:
    """The result key names every input that can change a result."""

    def test_non_table2_field_changes_the_key(self):
        engine = MeasurementEngine()
        other = replace(TYPICAL, mispredict_penalty=TYPICAL.mispredict_penalty + 5)
        assert other.cache_key() == TYPICAL.cache_key()  # not a Table-2 knob
        keys = {
            engine._result_key("gzip", "train", O2, m, "smarts", 3)
            for m in (TYPICAL, other)
        }
        assert len(keys) == 2

    def test_simulator_version_changes_the_key(self, monkeypatch):
        engine = MeasurementEngine()
        old = engine._result_key("gzip", "train", O2, TYPICAL, "smarts", 3)
        monkeypatch.setattr(memo_mod, "SIM_MEMO_VERSION", memo_mod.SIM_MEMO_VERSION + 1)
        assert engine._result_key("gzip", "train", O2, TYPICAL, "smarts", 3) != old

    def test_static_estimate_follows_cost_model_constants(
        self, tmp_path, monkeypatch
    ):
        """A cached static estimate is not served once the cost-model
        constants change: a new engine on the same store returns what
        an engine without a store computes."""
        from repro.analysis.static import costmodel

        cached = MeasurementEngine(mode="static", cache_dir=str(tmp_path))
        stale = cached.measure_configs("gzip", O2, TYPICAL).cycles
        cached.save()
        for name in ("cp_share", "mem_overlap"):
            monkeypatch.setitem(costmodel.CONST, name, costmodel.CONST[name] * 2)
        expected = MeasurementEngine(mode="static").measure_configs(
            "gzip", O2, TYPICAL
        ).cycles
        assert expected != stale
        again = MeasurementEngine(mode="static", cache_dir=str(tmp_path))
        assert again.measure_configs("gzip", O2, TYPICAL).cycles == expected
