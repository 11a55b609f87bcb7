"""Benchmark-side tracing of the program's layers.

:class:`Tracer` installs timing wrappers on the names the program's
callers actually look up (module globals such as
``repro.serve.service.parse_trace``, or class attributes such as
``EvaluationCache.get_many``) and removes them again on
:meth:`Tracer.uninstall`.  Each wrapped call records a span — name,
start, end, parent span, request id — in memory, plus counts taken at
the same boundary (cache hits, grid cells, compiled instructions).  A
layer's self time is its span minus the time covered by its child
spans.  No program file is changed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from common import median

#: Every per-layer metric with its unit, in output order.
PER_LAYER_UNITS = {
    "serve.service.overhead_ms": "ms",
    "serve.service.encode_ms": "ms",
    "serve.params.parse_ms": "ms",
    "serve.params.parse_trace_ms": "ms",
    "isa.trace.fingerprint_ms": "ms",
    "serve.keys.key_us_per_query": "us",
    "serve.keys.simulation_key_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.lookup_us": "us",
    "serve.cache.fill_us": "us",
    "serve.batch.self_ms": "ms",
    "serve.batch.groups_per_request": "count",
    "core.model.speedup_grid_ns_per_cell": "ns",
    "core.model.speedup_grid_calls": "count",
    "core.energy.energy_grid_ns_per_cell": "ns",
    "core.pareto.chunk_self_ms": "ms",
    "core.pareto.merge_ms": "ms",
    "core.pareto.frontier_size": "count",
    "serve.stream.first_record_ms": "ms",
    "serve.stream.cached_chunk_share": "ratio",
    "core.parallel.map_overhead_ms": "ms",
    "serve.pool.max_worker_share": "ratio",
    "serve.shm.results_hit_ratio": "ratio",
    "serve.shm.traces_hit_ratio": "ratio",
    "serve.pool.compiles_total": "count",
    "sim.compile.ns_per_instr": "ns",
    "sim.compile.lru_hit_ratio": "ratio",
    "sim.backend.ns_per_instr": "ns",
    "sim.backend.fallback_runs": "count",
    "sim.sample.coverage": "ratio",
    "sim.sample.ms": "ms",
    "sim.stats.cycles": "count",
    "sim.stats.ipc": "ratio",
    **{f"sim.stats.stall_cycles.{reason}": "count" for reason in (
        "none", "frontend_fill", "tca_barrier", "branch_redirect", "rob_full",
        "iq_full", "lq_full", "sq_full", "trace_drained")},
    "sim.stats.tca_wait_drain_cycles": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_pct": "%",
}

class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.request: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> list[Any]:
        record = [name, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list[Any]) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a ``name`` span; ``after(args, result)`` counts."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(record)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              after: Callable | None = None, make: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        wrapper = make(original) if make else self.wrap(name, original, after)
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- installers

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        import numpy as np

        import repro.core.pareto as pareto
        import repro.isa.trace as trace_mod
        import repro.serve.batch as batch
        import repro.serve.cache as cache
        import repro.serve.params as params
        import repro.serve.service as service
        import repro.serve.stream as stream
        import repro.sim.backend as backend
        import repro.sim.simulator as simulator
        from repro.sim.compile import CompiledTrace

        counts, values = self.counts, self.values

        for attr in ("parse_core", "parse_accelerator", "parse_workload",
                     "parse_modes", "parse_drain", "parse_trace",
                     "parse_sim_config", "parse_warm_ranges", "parse_sampling",
                     "parse_pareto_sweep"):
            self.patch(service, attr, "serve.params.parse")
        self.patch(service, "iter_queries", "serve.params.parse",
                   make=lambda fn: self.wrap(
                       "serve.params.parse", lambda payload: list(fn(payload))))
        self.patch(params, "load_trace_stream", "serve.params.parse_trace")
        self.patch(trace_mod.Trace, "fingerprint", "isa.trace.fingerprint")

        def batch_done(args, kwargs, result):
            counts["batch.queries"] += len(args[0])
        self.patch(service, "evaluate_batch", "serve.batch", batch_done)
        self.patch(batch, "evaluation_group_key", "serve.keys.key")
        self.patch(service, "simulation_key", "serve.keys.simulation_key")
        self.patch(stream, "pareto_chunk_key", "serve.keys.key")

        def looked_up(args, kwargs, result):
            keys = args[1]
            if isinstance(keys, list):
                counts["cache.lookups"] += len(keys)
                counts["cache.hits"] += sum(v is not cache.MISS for v in result)
            else:
                counts["cache.lookups"] += 1
                counts["cache.hits"] += result is not cache.MISS

        def filled(args, kwargs, result):
            counts["cache.fills"] += len(args[1]) if isinstance(args[1], list) else 1
        self.patch(cache.EvaluationCache, "get", "serve.cache.lookup", looked_up)
        self.patch(cache.EvaluationCache, "get_many", "serve.cache.lookup", looked_up)
        self.patch(cache.EvaluationCache, "put", "serve.cache.fill", filled)
        self.patch(cache.EvaluationCache, "put_many", "serve.cache.fill", filled)

        def grid_cells(index: int, key: str) -> Callable:
            def after(args, kwargs, result):
                counts[f"{key}.calls"] += 1
                counts[f"{key}.cells"] += np.broadcast(args[index], args[index + 1]).size
            return after
        self.patch(batch, "speedup_grid", "core.model.speedup_grid",
                   grid_cells(2, "speedup_grid"))
        self.patch(pareto, "speedup_grid", "core.model.speedup_grid",
                   grid_cells(2, "speedup_grid"))
        self.patch(pareto, "energy_grid", "core.energy.energy_grid",
                   grid_cells(3, "energy_grid"))
        self.patch(pareto, "evaluate_pareto_chunk", "core.pareto.chunk")
        self.patch(pareto.ParetoAccumulator, "merge", "core.pareto.merge")

        def parallel(fn: Callable) -> Callable:
            def traced_map(work, items, *args, **kwargs):
                return fn(self.wrap("core.parallel.item", work), items, *args, **kwargs)
            return self.wrap("core.parallel.map", traced_map)
        self.patch(service, "parallel_map", "", make=parallel)
        self.patch(stream, "parallel_map", "", make=parallel)

        def compiled(args, kwargs, result):
            counts["compile.calls"] += 1
            counts["compile.instructions"] += len(result)
        self.patch(service, "compile_trace", "sim.compile", compiled)

        def memo_compile(fn: Callable) -> Callable:
            wrapped = self.wrap("sim.compile", fn)

            def traced_compile(trace, *args, **kwargs):
                if isinstance(trace, CompiledTrace):
                    return fn(trace, *args, **kwargs)
                counts["compile.lookups"] += 1
                hit = trace.__dict__.get("_compiled") is not None
                if hit:
                    counts["compile.memo_hits"] += 1
                    return fn(trace, *args, **kwargs)
                result = wrapped(trace, *args, **kwargs)
                counts["compile.calls"] += 1
                counts["compile.instructions"] += len(result)
                return result
            return traced_compile
        self.patch(simulator, "compile_trace", "", make=memo_compile)

        def native(args, kwargs, result):
            if result is None:
                counts["backend.fallbacks"] += 1
            else:
                counts["backend.instructions"] += result.instructions
        self.patch(backend, "try_run_native", "sim.backend", native)

        def sampled(args, kwargs, result):
            report = result[1]
            if report.get("mode") == "sampled":
                values["sample.coverage"].append(report["coverage"])
        self.patch(simulator, "simulate_sampled", "sim.sample", sampled)

        def simulated(args, kwargs, result):
            stats = result.stats
            counts["stats.cycles"] += stats.cycles
            counts["stats.instructions"] += stats.instructions
            counts["stats.tca_wait_drain_cycles"] += stats.tca_wait_drain_cycles
            for reason, cycles in stats.to_dict()["stall_cycles"].items():
                counts[f"stats.stall.{reason}"] += cycles
        self.patch(simulator, "simulate", "sim.simulate", simulated)

    # --------------------------------------------------------- analysis

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]


def encode_response(tracer: Tracer | None, body: Any) -> bytes:
    """The service's response encoding, as one ``serve.service.encode`` span."""
    record = tracer.begin("serve.service.encode") if tracer else None
    try:
        return json.dumps(body, allow_nan=False).encode("utf-8")
    finally:
        if record is not None:
            tracer.end(record)


def per_layer(
    tracer: Tracer,
    requests: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metric values from one traced replay of ``requests``."""
    c = tracer.counts
    st = tracer.self_times()
    per_request = max(1, requests)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    maps = tracer.durations("core.parallel.map")
    items = sum(tracer.durations("core.parallel.item"))
    chunk_spans = tracer.durations("core.pareto.chunk")
    stall = {f"sim.stats.stall_cycles.{key[len('stats.stall.'):]}": value
             for key, value in c.items() if key.startswith("stats.stall.")}
    values = {
        "serve.service.encode_ms": st["serve.service.encode"] * 1e3 / per_request,
        "serve.params.parse_ms": st["serve.params.parse"] * 1e3 / per_request,
        "serve.params.parse_trace_ms": st["serve.params.parse_trace"] * 1e3 / per_request,
        "isa.trace.fingerprint_ms": st["isa.trace.fingerprint"] * 1e3 / per_request,
        "serve.keys.key_us_per_query": ratio(st["serve.keys.key"] * 1e6, c["batch.queries"]),
        "serve.keys.simulation_key_ms": st["serve.keys.simulation_key"] * 1e3 / per_request,
        "serve.cache.hit_ratio": ratio(c["cache.hits"], c["cache.lookups"]),
        "serve.cache.lookup_us": ratio(st["serve.cache.lookup"] * 1e6, c["cache.lookups"]),
        "serve.cache.fill_us": ratio(st["serve.cache.fill"] * 1e6, c["cache.fills"]),
        "serve.batch.self_ms": st["serve.batch"] * 1e3 / per_request,
        "serve.batch.groups_per_request": (
            c["speedup_grid.calls"] / per_request if c["batch.queries"] else 0.0),
        "core.model.speedup_grid_ns_per_cell": ratio(
            st["core.model.speedup_grid"] * 1e9, c["speedup_grid.cells"]),
        "core.model.speedup_grid_calls": c["speedup_grid.calls"],
        "core.energy.energy_grid_ns_per_cell": ratio(
            st["core.energy.energy_grid"] * 1e9, c["energy_grid.cells"]),
        "core.pareto.chunk_self_ms": ratio(st["core.pareto.chunk"] * 1e3, len(chunk_spans)),
        "core.pareto.merge_ms": st["core.pareto.merge"] * 1e3 / per_request,
        "core.parallel.map_overhead_ms": ratio((sum(maps) - items) * 1e3, len(maps)),
        "sim.compile.ns_per_instr": ratio(st["sim.compile"] * 1e9, c["compile.instructions"]),
        "sim.compile.lru_hit_ratio": ratio(c["compile.memo_hits"], c["compile.lookups"]),
        "sim.backend.ns_per_instr": ratio(
            sum(tracer.durations("sim.backend")) * 1e9, c["backend.instructions"]),
        "sim.backend.fallback_runs": c["backend.fallbacks"],
        "sim.sample.coverage": median(tracer.values["sample.coverage"]),
        "sim.sample.ms": ratio(sum(tracer.durations("sim.sample")) * 1e3,
                               len(tracer.durations("sim.sample"))),
        "sim.stats.cycles": c["stats.cycles"],
        "sim.stats.ipc": ratio(c["stats.instructions"], c["stats.cycles"]),
        **stall,
        "sim.stats.tca_wait_drain_cycles": c["stats.tca_wait_drain_cycles"],
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER_UNITS}
