"""Traced runs: per-layer metrics from in-process replays.

Each traced run sends the first :data:`workloads.TRACE_REQUESTS` inputs
of the workload's seeded sequence to a fresh server one at a time (for
``evaluate``: at the open-loop rate), scrapes ``/healthz`` and
``/metrics``, then replays the same inputs in this process against two
fresh :class:`~repro.serve.service.ServeApp` instances — one plain, one
under :class:`layers.Tracer` — alternating which runs first.  The plain
replay times the handler for ``serve.service.overhead_ms`` and the
tracing overhead; the traced one yields the spans.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from time import perf_counter
from typing import Any

import inputs
import layers
import workloads
from common import (
    RunDir,
    median,
    nproc,
    percentile,
    request,
    scrape_metrics,
    strict_json,
)
from workloads import Outcome


def _scrape(port: int) -> dict[str, float]:
    """Pool and shared-memory layer metrics from ``/healthz`` + ``/metrics``."""
    time.sleep(0.4)  # worker state files are flushed every ~0.25 s
    status, raw = request(port, "GET", "/healthz", timeout=10)
    health = strict_json(raw) if status == 200 else {}
    workers = [w["requests"] for w in health.get("pool", {}).get("workers", [])]
    m = scrape_metrics(port)

    def hit_ratio(store: str) -> float:
        hits = m.get(f"repro_serve_shm_{store}_hits_total", 0.0)
        misses = m.get(f"repro_serve_shm_{store}_misses_total", 0.0)
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "serve.pool.max_worker_share": max(workers) / sum(workers) if sum(workers) else 0.0,
        "serve.shm.results_hit_ratio": hit_ratio("results"),
        "serve.shm.traces_hit_ratio": hit_ratio("traces"),
        "serve.pool.compiles_total": m.get("repro_serve_shm_traces_puts_total", 0.0)
        + m.get("repro_serve_shm_traces_put_rejects_total", 0.0),
    }


def _http_phase(rundir: RunDir, workload: str, path: str, bodies: list[bytes],
                due: list[float] | None) -> tuple[list[float], list[float], dict[str, float], int]:
    """Service latencies (s), generator lateness (s), scrape, failures."""
    server, _ = workloads.launch(rundir, workload, 1)
    try:
        if due is not None:
            rows = workloads.open_loop(server.port, path, [(b, None) for b in bodies],
                                       due, nproc())
        else:
            rows = []
            for body in bodies:
                start = perf_counter()
                status, raw = request(server.port, "POST", path, body)
                rows.append(workloads.Reply(start, start, perf_counter(), status, raw))
        scraped = _scrape(server.port)
    finally:
        server.stop()
    latency = [r.end - r.start for r in rows]
    late = [r.start - r.due for r in rows]
    failures = sum(r.status != 200 for r in rows)
    return latency, late, scraped, failures


def _replay(handler: str, bodies: list[bytes]) -> dict[str, Any]:
    """Plain and traced in-process replays of ``bodies``."""
    from repro.serve.service import ServeApp
    from repro.serve.stream import NDJSONStream

    tracer = layers.Tracer()
    apps = {False: ServeApp(), True: ServeApp()}
    times: dict[bool, list[float]] = {False: [], True: []}
    first: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[bool, list[bytes]] = {False: [], True: []}
    for i, body in enumerate(bodies):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.request = i
            record = tracer.begin("serve.service.handler") if traced else None
            started = perf_counter()
            try:
                result = getattr(apps[traced], handler)(json.loads(body))
                if isinstance(result, NDJSONStream):
                    encoded = []
                    for rec in result.records:
                        if not encoded:
                            first[traced].append(perf_counter() - started)
                        encoded.append(layers.encode_response(tracer if traced else None, rec))
                    output = b"\n".join(encoded)
                else:
                    output = layers.encode_response(tracer if traced else None, result)
            finally:
                elapsed = perf_counter() - started
                if traced:
                    tracer.end(record)
                    tracer.uninstall()
            times[traced].append(elapsed)
            outputs[traced].append(output)
    return {"tracer": tracer, "times": times, "first": first, "outputs": outputs,
            "app": apps[True]}


def _common(out: Outcome, replay: dict[str, Any], latency: list[float],
            http_failures: int, requests: int) -> dict[str, float]:
    plain, traced = replay["times"][False], replay["times"][True]
    mismatched = sum(a != b for a, b in zip(replay["outputs"][False],
                                            replay["outputs"][True]))
    out.attempted = 3 * requests
    out.failed = http_failures + mismatched
    out.notes.append(f"traced and plain replays byte-identical: "
                     f"{requests - mismatched}/{requests}")
    return {
        "serve.service.overhead_ms": median(
            [(h - p) * 1e3 for h, p in zip(latency, plain)]) if latency else 0.0,
        "trace.overhead_pct": (sum(traced) - sum(plain)) / sum(plain) * 100.0,
    }


def trace_evaluate(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    n = workloads.TRACE_REQUESTS["evaluate"]
    stream = inputs.EvaluateStream(seed)
    rng = random.Random(f"arrivals:{seed}")
    due = list(itertools.accumulate(rng.expovariate(workloads.OPEN_RATE)
                                    for _ in range(n)))
    bodies = [stream.next_request()[0] for _ in range(n)]
    latency, late, scraped, failures = _http_phase(rundir, "evaluate", "/evaluate",
                                                   bodies, due)
    replay = _replay("handle_evaluate", bodies)
    extra = _common(out, replay, latency, failures, n)
    extra.update(scraped)
    extra["loadgen.late_ms_p99"] = percentile(late, 0.99) * 1e3
    values = layers.per_layer(replay["tracer"], n, extra)
    out.per_layer = values
    return out


def trace_simulate(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    n = workloads.TRACE_REQUESTS["simulate"]
    stream = inputs.SimulateStream(seed, inputs.simulate_families(seed))
    runs = [stream.next_run() for _ in range(n)]
    bodies = [stream.body(run) for run in runs]
    latency, _, scraped, failures = _http_phase(rundir, "simulate", "/simulate",
                                                bodies, None)
    replay = _replay("handle_simulate", bodies)
    extra = _common(out, replay, latency, failures, n)
    extra.update(scraped)
    stats = replay["app"].compiled_trace_stats()
    lookups = stats["hits"] + stats["misses"]
    extra["sim.compile.lru_hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    values = layers.per_layer(replay["tracer"], n, extra)
    cached = [json.loads(o)["result"]["cached"] for o in replay["outputs"][False]]
    plain = replay["times"][False]
    # Hits and misses are compared within each trace family, since the
    # families differ in size by two orders of magnitude.
    ratios = {}
    for family in inputs.SIMULATE_FAMILIES:
        own = [(t, c) for t, c, run in zip(plain, cached, runs) if run["family"] == family]
        hits = [t for t, c in own if c]
        misses = [t for t, c in own if not c]
        if hits and misses:
            ratios[family] = median(hits) / median(misses)
    ratio = median(list(ratios.values()))
    st = replay["tracer"].self_times()
    top = max(st, key=st.get)
    out.notes.append(
        f"shape simulate.parse_trace_dominates: "
        f"{'holds' if top == 'serve.params.parse_trace' else 'differs'} "
        f"(largest self time: {top} {st[top] * 1e3:.1f} ms)")
    out.notes.append(
        f"shape simulate.hit_costs_like_miss: {'holds' if ratio >= 0.7 else 'differs'} "
        f"(median over trace families of hit/miss time {ratio:.2f}: "
        + ", ".join(f"{f} {r:.2f}" for f, r in ratios.items()) + ")")
    out.per_layer = values
    return out


def trace_pareto(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    n = workloads.TRACE_REQUESTS["pareto"]
    stream = inputs.ParetoStream(seed)
    bodies = [json.dumps(stream.sweep(k)).encode() for k in range(n)]
    latency, _, scraped, failures = _http_phase(rundir, "pareto", "/sweep", bodies, None)
    replay = _replay("handle_sweep", bodies)
    extra = _common(out, replay, latency, failures, n)
    extra.update(scraped)
    records = [[json.loads(line) for line in o.split(b"\n")]
               for o in replay["outputs"][False]]
    chunks = [r for recs in records for r in recs[:-1]]
    extra["serve.stream.first_record_ms"] = median([t * 1e3 for t in replay["first"][False]])
    extra["serve.stream.cached_chunk_share"] = (
        sum(r["cached"] for r in chunks) / len(chunks))
    extra["core.pareto.frontier_size"] = median(
        [recs[-1]["summary"]["frontier_size"] for recs in records])
    values = layers.per_layer(replay["tracer"], n, extra)
    tracer = replay["tracer"]
    evaluated = [sum(end - start for name, start, end, _, req in tracer.spans
                     if name == "core.pareto.chunk" and req == i) for i in range(n)]
    after = sum(f >= e for f, e in zip(replay["first"][True], evaluated))
    share = median([f / t for f, t in zip(replay["first"][False], replay["times"][False])])
    out.notes.append(
        f"shape pareto.first_record_after_all_chunks: {'holds' if after == n else 'differs'} "
        f"(first record follows every chunk evaluation in {after}/{n} sweeps; "
        f"it arrives at {share:.0%} of the sweep)")
    out.per_layer = values
    return out


TRACED = {
    "evaluate": trace_evaluate,
    "simulate": trace_simulate,
    "pareto": trace_pareto,
}
