"""Per-layer metrics of a traced run: from the benchmark's own spans and
the program's ``repro.obs`` counters.

Every metric is reported on every workload; a layer that did not run
reads 0, and each ratio is reported beside its base (``*_lookups``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.obs.trace import SpanRecord

from stats import hit_ratio, ratio, self_times

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "opt.optimize_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.compilations": "count",
    "sim.func.ns_per_insn": "ns",
    "sim.func.instructions": "count",
    "sim.smarts.ns_per_insn": "ns",
    "sim.smarts.calls": "count",
    "sim.ooo.instructions": "count",
    "sim.units.sampled": "count",
    "sim.units.skipped": "count",
    "sim.memo.run_hit_ratio": "ratio",
    "sim.memo.run_lookups": "count",
    "sim.memo.unit_hit_ratio": "ratio",
    "sim.memo.unit_lookups": "count",
    "sim.cycles_total": "cycles",
    "harness.measure.point_ms": "ms",
    "harness.measure.result_hit_ratio": "ratio",
    "harness.measure.result_lookups": "count",
    "harness.measure.trace_hit_ratio": "ratio",
    "harness.measure.trace_lookups": "count",
    "harness.artifacts.load_ms": "ms",
    "harness.measure.save_ms": "ms",
    "harness.measure.load_ms": "ms",
    "harness.measure.store_entries": "count",
    "analysis.static.us_per_estimate": "us",
    "doe.design_ms": "ms",
    "models.fit_ms": "ms",
    "pipeline.self_ms": "ms",
    "model_error_pct": "%",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve.samples": "count",
    "serve_preds_per_s": "1/s",
    "serve.client_ms": "ms",
    "serve.server_ms": "ms",
    "serve.predict_us_per_row": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.requests": "count",
    "serve.errors": "count",
    "failed_frac": "ratio",
    "trace_overhead_pct": "%",
}

#: Workload figures (``Outcome.extra``) reported as they are.
_EXTRA = (
    "model_error_pct",
    "serve_p50_ms",
    "serve_p99_ms",
    "serve.samples",
    "serve_preds_per_s",
    "serve.client_ms",
    "serve.server_ms",
    "serve.predict_us_per_row",
    "serve.cache_hit_ratio",
    "serve.cache_lookups",
    "serve.requests",
    "serve.errors",
)


def per_layer(
    spans: Sequence[SpanRecord],
    counters: Mapping[str, float],
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Layer metrics of one traced phase; ``counters`` are the deltas of
    the program's counters over the timed part."""
    own = self_times(spans)

    def named(name: str) -> List[SpanRecord]:
        return [s for s in spans if s.name == name]

    def mean_ms(name: str, self_time: bool = False, only=None) -> float:
        chosen = [s for s in named(name) if only is None or only(s)]
        total = sum(own[s.span_id] if self_time else s.duration for s in chosen)
        return ratio(total * 1e3, len(chosen))

    def ns_per_insn(name: str):
        chosen = named(name)
        n = sum(s.attrs["instructions"] for s in chosen)
        return ratio(sum(s.duration for s in chosen) * 1e9, n), n, len(chosen)

    def c(name: str) -> float:
        return counters.get(name, 0)

    m: Dict[str, float] = {}
    m["opt.optimize_ms"] = mean_ms("opt.optimize_module")
    # Self time: net of the optimize_module call it makes.
    m["codegen.compile_ms"] = mean_ms("codegen.compile_module", self_time=True)
    m["codegen.compilations"] = c("codegen.compilations")
    m["sim.func.ns_per_insn"], m["sim.func.instructions"], _ = ns_per_insn(
        "sim.func.execute"
    )
    m["sim.smarts.ns_per_insn"], _, m["sim.smarts.calls"] = ns_per_insn("sim.simulate")
    m["sim.ooo.instructions"] = c("sim.ooo.instructions")
    m["sim.units.sampled"] = c("smarts.units.sampled")
    m["sim.units.skipped"] = c("smarts.units.skipped")
    m["sim.memo.run_hit_ratio"], m["sim.memo.run_lookups"] = hit_ratio(
        c("sim.memo.run.hits"), c("sim.memo.run.misses")
    )
    m["sim.memo.unit_hit_ratio"], m["sim.memo.unit_lookups"] = hit_ratio(
        c("sim.memo.unit.hits"), c("sim.memo.unit.misses")
    )
    # Self time of a result-cache miss, net of compile, functional
    # execution, simulation, artifact loads and static estimation.
    m["harness.measure.point_ms"] = mean_ms(
        "harness.measure_configs", self_time=True, only=lambda s: s.attrs["miss"]
    )
    m["harness.measure.result_hit_ratio"], m["harness.measure.result_lookups"] = (
        hit_ratio(c("measure.result_cache.hits"), c("measure.result_cache.misses"))
    )
    m["harness.measure.trace_hit_ratio"], m["harness.measure.trace_lookups"] = (
        hit_ratio(c("measure.trace_cache.hits"), c("measure.trace_cache.misses"))
    )
    m["harness.artifacts.load_ms"] = mean_ms("harness.artifacts.load")
    m["harness.measure.save_ms"] = mean_ms("harness.save")
    m["harness.measure.load_ms"] = mean_ms("harness.engine_load")
    m["harness.measure.store_entries"] = extra.get("store_entries", 0)
    m["analysis.static.us_per_estimate"] = mean_ms("analysis.static.estimate") * 1e3
    builds = len(named("pipeline.build_model"))
    design_s = sum(s.duration for s in named("doe.design"))
    m["doe.design_ms"] = ratio(design_s * 1e3, builds)
    m["models.fit_ms"] = mean_ms("models.fit")
    m["pipeline.self_ms"] = mean_ms("pipeline.build_model", self_time=True)
    for name in _EXTRA:
        m[name] = extra.get(name, 0)
    return m
