"""The three workloads: untraced end-to-end runs and traced per-layer runs.

Untraced runs drive the HTTP service from outside, as a ``--workers
nproc`` pool, and report the end-to-end metrics.  Traced runs replay the
first inputs of the same seeded sequence in this process against the
public ``ServeApp.handle_*`` methods twice, once untraced and once under
:class:`layers.Tracer`, alternating which goes first, and report
per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import threading
import time
from collections import deque
from time import perf_counter
from typing import Any, Callable, NamedTuple

import inputs
from common import (
    SETUP_REPEATS,
    RunDir,
    Server,
    StealMeter,
    median,
    nproc,
    percentile,
    request,
    stream_request,
    strict_json,
)

#: evaluate: closed-loop capacity (requests/s) measured with this
#: workload's request stream on a 2-vCPU x86-64 host (``nproc`` 2, two
#: pool workers, two connections).  Each run prints its own capacity.
MEASURED_CAPACITY = 300.0
#: evaluate: the open-loop phases load the server at this share of
#: :data:`MEASURED_CAPACITY`.  The generator holds at most ``nproc``
#: connections, so when a slow stretch of a shared host lowers capacity,
#: due requests queue in the generator: under about 30% CPU steal the
#: p50 rose from about 3 ms to 6.0 ms at 1/4 of capacity, to 4.2 ms at
#: 1/8.  At 1/8 the latency is mostly service time.
OPEN_LOAD = 0.125
#: evaluate: open-loop arrival rate (requests/s).
OPEN_RATE = OPEN_LOAD * MEASURED_CAPACITY
#: evaluate: open/closed phase pairs; alternating spreads both metrics'
#: samples over the whole run instead of one part each, so a slow
#: stretch of the host hits both alike.
EVALUATE_PHASES = 9
#: evaluate: share of the run spent in open-loop phases.  The latency
#: rests on a few hundred requests, the throughput on thousands.
OPEN_SHARE = 2 / 3
#: evaluate: requests generated ahead of each closed phase (unused ones
#: carry over, so the stream sent is the seeded stream in order).
CLOSED_PREFILL = 1200
#: evaluate: every this-many-th response is checked against TCAModel.
EVALUATE_CHECK_EVERY = 10
#: Requests replayed in-process by a traced run.
TRACE_REQUESTS = {"evaluate": 300, "simulate": 30, "pareto": 4}


class Reply(NamedTuple):
    """One request as the load generator saw it (times from perf_counter)."""

    due: float
    start: float
    end: float
    status: int
    raw: bytes
    meta: Any = None

    @property
    def latency_ms(self) -> float:
        """From the due time to the reply; a failure misses every limit."""
        return (self.end - self.due) * 1e3 if self.status == 200 else math.inf


class Outcome:
    """What one run measured: metrics, operation counts, context lines."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.per_layer: dict[str, float] = {}

    def metric(self, name: str, value: float, unit: str, samples: int,
               context: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "samples": samples, "context": context}


# ------------------------------------------------------------------ servers


def _warm(path: str, body: dict[str, Any]) -> Callable[[int], None]:
    def warm(port: int) -> None:
        status, raw = request(port, "POST", path, json.dumps(body).encode())
        if status != 200:
            raise RuntimeError(f"warm-up {path} failed: {status} {raw[:200]!r}")
    return warm


def _tiny_trace() -> str:
    from repro.isa.trace import TraceBuilder

    builder = TraceBuilder("warm-up")
    builder.chain(64, 0)
    return inputs._trace_text(builder.build())


WARM_UPS = {
    "evaluate": lambda: _warm("/evaluate", {
        "core": "a72", "accelerator": {"acceleration": 2.0},
        "workload": {"granularity": 100, "acceleratable_fraction": 0.5}}),
    "simulate": lambda: _warm("/simulate", {"trace": _tiny_trace(), "config": "a72"}),
    "pareto": lambda: _warm("/sweep", {
        "kind": "pareto", "core": "a72", "accelerator": {"acceleration": 2.0},
        "fractions": [0.5], "frequencies": [0.01]}),
}


def launch(rundir: RunDir, workload: str, repeats: int,
           meter: StealMeter | None = None) -> tuple[Server, list[float]]:
    """``repeats`` launches to ready; returns the last server and all times.

    Ready means ``/healthz`` answered and one warm-up request to the
    workload's endpoint (disjoint from its inputs) completed, so lazy
    set-up such as the native-kernel build is paid here.  ``meter``
    measures the steal over the launches.
    """
    warm = WARM_UPS[workload]()
    meter = meter or StealMeter()
    times = []
    for attempt in range(repeats):
        with meter.measure():
            server = Server(rundir.program_env(), nproc())
            try:
                warm(server.port)
            except BaseException:
                server.stop()
                raise
            times.append(server.ready())
        if attempt < repeats - 1:
            server.stop()
    return server, times


def open_loop(port: int, path: str, items: list[tuple[bytes, Any]],
              due: list[float], threads: int) -> list[Reply]:
    """Send each ``(body, meta)`` of ``items`` ``due[i]`` s after the start."""
    results: list[Reply] = [None] * len(items)
    counter = itertools.count()
    origin = perf_counter() + 0.05

    def sender() -> None:
        while (i := next(counter)) < len(items):
            body, meta = items[i]
            when = origin + due[i]
            delay = when - perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = perf_counter()
            try:
                status, raw = request(port, "POST", path, body)
            except OSError:
                status, raw = -1, b""
            results[i] = Reply(when, start, perf_counter(), status, raw, meta)

    _run_threads(sender, threads)
    return results


def closed_loop(port: int, path: str,
                next_item: Callable[[], tuple[bytes, Any] | None],
                clients: int, seconds: float = math.inf) -> tuple[list[Reply], float]:
    """``clients`` callers, each sending its next request when the last ends.

    Stops after ``seconds`` or when ``next_item`` returns ``None``.
    Returns the replies (due = send time) and the wall time from the
    first send to the last reply.
    """
    results: list[Reply] = []
    lock = threading.Lock()
    began = perf_counter()
    deadline = began + seconds

    def caller() -> None:
        while perf_counter() < deadline:
            with lock:
                item = next_item()
            if item is None:
                return
            body, meta = item
            start = perf_counter()
            try:
                status, raw = request(port, "POST", path, body)
            except OSError:
                status, raw = -1, b""
            results.append(Reply(start, start, perf_counter(), status, raw, meta))

    _run_threads(caller, clients)
    return results, max(r.end for r in results) - began


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _correct(out: Outcome, name: str, meter: StealMeter) -> None:
    """Steal-correct a timed metric (see :class:`common.StealMeter`)."""
    m = out.metrics[name]
    scale = 1 - meter.share
    m["context"] = (f"measured {m['value']:.6g} at {meter.share:.1%} host CPU steal; "
                    + m["context"])
    m["value"] *= scale if m["unit"] in ("ms", "s") else 1 / scale


def _latency_metric(out: Outcome, values: list[float], what: str) -> None:
    out.metric("latency_ms", median(values), "ms", len(values),
               f"p99 {percentile(values, 0.99):.2f} ms ({what})")


def _setup_metrics(out: Outcome, setups: list[float], meter: StealMeter,
                   rss: float) -> None:
    out.metric("setup_s", median(setups), "s", len(setups),
               "launches: " + ", ".join(f"{s:.3f}" for s in setups))
    _correct(out, "setup_s", meter)
    out.metric("peak_rss_mb", rss, "MB", 1, "program processes only")


# ----------------------------------------------------------------- evaluate


def evaluate_oracle(query: dict[str, Any]) -> dict[str, float]:
    """Speedups of one query from the scalar :class:`TCAModel`."""
    from repro.core.model import TCAModel
    from repro.serve import params

    model = TCAModel(
        params.parse_core(query["core"]),
        params.parse_accelerator(query["accelerator"]),
        params.parse_workload(query["workload"]),
        params.parse_drain(query.get("drain")),
    )
    modes = params.parse_modes(query.get("modes", query.get("mode")))
    return {mode.value: model.speedup(mode) for mode in modes}


def _close(a: Any, b: float) -> bool:
    if a is None or isinstance(a, str) or not math.isfinite(b):
        return str(a) == str(b) or (a is None and math.isnan(b))
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_evaluate(raw: bytes, queries: list[dict[str, Any]]) -> bool:
    results = strict_json(raw)["results"]
    if len(results) != len(queries):
        return False
    for result, query in zip(results, queries):
        expected = evaluate_oracle(query)
        got = result["speedups"]
        if set(got) != set(expected):
            return False
        if not all(_close(got[m], expected[m]) for m in expected):
            return False
    return True


def run_evaluate(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    stream = inputs.EvaluateStream(seed)
    rng = random.Random(f"arrivals:{seed}")
    open_s = seconds * OPEN_SHARE / EVALUATE_PHASES
    closed_s = seconds * (1 - OPEN_SHARE) / EVALUATE_PHASES
    open_phases: list[list[Reply]] = []
    closed_phases: list[tuple[list[Reply], float]] = []
    setup_meter, open_meter, closed_meter = StealMeter(), StealMeter(), StealMeter()
    pending: deque[tuple[bytes, list[int]]] = deque()

    def take() -> tuple[bytes, list[int]]:
        return pending.popleft() if pending else stream.next_request()

    server, setups = launch(rundir, "evaluate", SETUP_REPEATS, setup_meter)
    try:
        for _ in range(EVALUATE_PHASES):
            due, clock = [], 0.0
            while (clock := clock + rng.expovariate(OPEN_RATE)) < open_s:
                due.append(clock)
            items = [take() for _ in due]
            with open_meter.measure():
                open_phases.append(open_loop(server.port, "/evaluate", items, due, nproc()))
            while len(pending) < CLOSED_PREFILL:
                pending.append(stream.next_request())
            with closed_meter.measure():
                closed_phases.append(
                    closed_loop(server.port, "/evaluate", take, nproc(), closed_s))
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    _setup_metrics(out, setups, setup_meter, rss)
    opened = [r for replies in open_phases for r in replies]
    closed = [r for replies, _ in closed_phases for r in replies]
    # Pooled over all open phases: a phase's own p50 rests on a few dozen
    # requests and moves more with the host than the pooled one.
    pooled = [r.latency_ms for r in opened]
    out.metric("latency_ms", median(pooled), "ms", len(pooled),
               f"p99 {percentile(pooled, 0.99):.2f} ms; open loop at {OPEN_RATE:g} req/s, "
               f"timed from due time, {EVALUATE_PHASES} phases; phase p50s "
               + ", ".join(f"{median([r.latency_ms for r in p]):.2f}" for p in open_phases))
    # Over all closed phases together: a short phase holds two or three
    # of the stream's 128-request blocks, so how many of the rare
    # 256-query batches one phase gets would move a per-phase rate.
    served = [r for r in closed if r.status == 200]
    closed_wall = sum(wall for _, wall in closed_phases)
    out.metric("throughput_per_s", sum(len(r.meta) for r in served) / closed_wall,
               "1/s", len(closed),
               f"queries/s, closed loop, {nproc()} connections, {EVALUATE_PHASES} phases: "
               + ", ".join(
                   f"{sum(len(r.meta) for r in replies if r.status == 200) / wall:.0f}"
                   for replies, wall in closed_phases))
    capacity = len(served) / closed_wall
    _correct(out, "latency_ms", open_meter)
    _correct(out, "throughput_per_s", closed_meter)
    out.notes.append(f"closed-loop capacity {capacity:.0f} req/s; the open-loop "
                     f"rate is {OPEN_RATE / capacity:.0%} of it")
    late = [r.start - r.due for r in opened]
    out.notes.append(f"load generator lateness p50 {median(late) * 1e3:.2f} "
                     f"p99 {percentile(late, 0.99) * 1e3:.2f} ms; open-loop p50 from send "
                     f"{median([(r.end - r.start) * 1e3 for r in opened]):.2f} ms; "
                     f"closed-loop p50 {median([r.latency_ms for r in closed]):.2f} ms")

    rows = [(r.status, r.raw, r.meta) for r in opened + closed]
    out.attempted = len(rows)
    checked = 0
    for i, (status, raw, indices) in enumerate(rows):
        ok = status == 200
        if ok and i % EVALUATE_CHECK_EVERY == 0:
            checked += 1
            try:
                ok = check_evaluate(raw, [stream.queries[j] for j in indices])
            except (ValueError, KeyError, TypeError):
                ok = False
        out.failed += not ok
    sent = [j for _, _, indices in rows for j in indices]
    out.notes.append(f"checked {checked} responses against scalar TCAModel (1e-9)")
    out.notes.append(f"{len(sent)} queries sent, repeat share "
                     f"{1 - len(set(sent)) / len(sent):.3f} "
                     f"(stated {inputs.EVALUATE_REPEAT_SHARE})")
    return out


# ----------------------------------------------------------------- simulate


def simulate_oracle(families: dict[str, Any]) -> Callable[[dict[str, Any]], str]:
    """In-process stats JSON for a run spec, parsing each family once."""
    import io

    from repro import api
    from repro.isa.trace_io import load_trace_stream
    from repro.serve.params import parse_sampling, parse_sim_config
    from repro.sim.compile import compile_trace

    compiled: dict[str, Any] = {}

    def oracle(run: dict[str, Any]) -> str:
        family = families[run["family"]]
        if run["family"] not in compiled:
            trace = load_trace_stream(io.StringIO(family["text"]))
            compiled[run["family"]] = compile_trace(trace)
        warm = family["warm_ranges"]
        result = api.simulate(
            compiled[run["family"]],
            parse_sim_config(run["config"]),
            warm_ranges=[tuple(r) for r in warm] if warm else None,
            sampling=parse_sampling(run.get("sampling")),
        )
        return json.dumps(result.stats.to_dict())

    return oracle


def run_simulate(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    families = inputs.simulate_families(seed)
    stream = inputs.SimulateStream(seed, families)

    def next_run() -> tuple[bytes, dict[str, Any]]:
        run = stream.next_run()
        return stream.body(run), run

    setup_meter, meter = StealMeter(), StealMeter()
    server, setups = launch(rundir, "simulate", SETUP_REPEATS, setup_meter)
    try:
        with meter.measure():
            results, wall = closed_loop(server.port, "/simulate", next_run,
                                        nproc(), seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    _setup_metrics(out, setups, setup_meter, rss)
    # The families differ in size by two orders of magnitude, so every
    # family counts equally (geometric mean).  Within a family the latency
    # is bimodal and its p50 jumps between the modes from run to run
    # (54 vs 104 ms for matmul-4 in two runs of the same code), so each
    # family contributes its mean, over its served runs (a failed run is
    # counted as failed and has no latency to average).
    family_mean = {name: statistics.fmean([r.latency_ms for r in results
                                            if r.meta["family"] == name and r.status == 200])
                   for name in inputs.SIMULATE_FAMILIES}
    pooled = [r.latency_ms for r in results]
    out.metric("latency_ms", math.prod(family_mean.values()) ** (1 / len(family_mean)),
               "ms", len(pooled),
               "geometric mean of the trace families' mean latencies: "
               + ", ".join(f"{name} {p:.1f}" for name, p in family_mean.items())
               + f"; pooled p50 {median(pooled):.1f} p99 {percentile(pooled, 0.99):.1f} ms"
               f" (closed loop, {nproc()} clients)")
    ok = [r for r in results if r.status == 200]
    out.metric("throughput_per_s", len(ok) / wall, "1/s", len(results),
               f"/simulate runs/s, closed loop, {nproc()} clients")
    _correct(out, "latency_ms", meter)
    _correct(out, "throughput_per_s", meter)

    oracle = simulate_oracle(families)
    expected: dict[str, str] = {}
    out.attempted = len(results)
    cached = sampled = 0
    for reply in results:
        run = reply.meta
        good = reply.status == 200
        if good:
            try:
                result = strict_json(reply.raw)["result"]
                key = json.dumps(run, sort_keys=True)
                if key not in expected:
                    expected[key] = oracle(run)
                good = json.dumps(result["stats"]) == expected[key] and (
                    result["sim_mode"] == ("sampled" if "sampling" in run else "exact"))
                cached += bool(result["cached"])
                sampled += result["sim_mode"] == "sampled"
            except (ValueError, KeyError, TypeError):
                good = False
        out.failed += not good
    out.notes.append(f"checked {len(ok)} responses byte-for-byte against "
                     f"{len(expected)} in-process runs")
    out.notes.append(f"result-cache answered {cached}/{len(ok)} "
                     f"(stated repeat share {inputs.SIMULATE_REPEAT_SHARE}), "
                     f"sampled {sampled}/{len(ok)}")
    return out


# ------------------------------------------------------------------- pareto


def _stream_sweep(port: int, body: bytes) -> tuple[int, float, float, list[bytes]]:
    """POST one streaming sweep: ``(status, first-record s, total s, lines)``."""
    started = perf_counter()
    status, first, payload = stream_request(port, "/sweep", body)
    total = perf_counter() - started
    return status, first, total, [line for line in payload.split(b"\n") if line.strip()]


def pareto_frontier(sweep: dict[str, Any]) -> list[dict[str, Any]]:
    """The in-process ``sweep_pareto`` frontier of one request."""
    from repro.core.pareto import sweep_pareto
    from repro.serve.params import parse_pareto_sweep

    spec, _ = parse_pareto_sweep(sweep)
    return json.loads(json.dumps(sweep_pareto(spec).points()))


def run_pareto(seed: int, seconds: float, rundir: RunDir) -> Outcome:
    out = Outcome()
    stream = inputs.ParetoStream(seed)
    rows = []
    setup_meter, meter = StealMeter(), StealMeter()
    server, setups = launch(rundir, "pareto", SETUP_REPEATS, setup_meter)
    try:
        began = perf_counter()
        for k in itertools.count():
            if perf_counter() - began >= seconds:
                break
            sweep = stream.sweep(k)
            with meter.measure():
                try:
                    rows.append((sweep, *_stream_sweep(server.port,
                                                       json.dumps(sweep).encode())))
                except OSError:
                    rows.append((sweep, -1, math.inf, math.inf, []))
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    _setup_metrics(out, setups, setup_meter, rss)
    firsts = [first * 1e3 if status == 200 else math.inf
              for _, status, first, _, _ in rows]
    _latency_metric(out, firsts, "request to first NDJSON record")
    rates = [stream.points(sweep) / total if status == 200 else 0.0
             for sweep, status, _, total, _ in rows]
    out.metric("throughput_per_s", median(rates), "1/s", len(rows),
               f"lattice points/s, median over {len(rows)} sweeps of "
               f"{stream.points(rows[0][0])} points")
    _correct(out, "latency_ms", meter)
    _correct(out, "throughput_per_s", meter)

    out.attempted = len(rows)
    chunks = cached = 0
    for index, (sweep, status, first, total, lines) in enumerate(rows):
        good = status == 200
        if good:
            try:
                records = [strict_json(line) for line in lines]
                summary = records[-1]["summary"]
                chunks += len(records) - 1
                cached += sum(bool(r["cached"]) for r in records[:-1])
                if index in (0, len(rows) - 1):
                    good = summary["frontier"] == pareto_frontier(sweep)
            except (ValueError, KeyError, TypeError):
                good = False
        out.failed += not good
    out.notes.append("checked the first and last summary frontiers against "
                     "in-process sweep_pareto")
    out.notes.append(f"cached chunks {cached}/{chunks} (stated: half of every "
                     "sweep after the first)")
    whole = median([total * 1e3 for _, status, _, total, _ in rows if status == 200])
    out.notes.append(f"whole sweep p50 {whole:.1f} ms")
    return out


UNTRACED = {
    "evaluate": run_evaluate,
    "simulate": run_simulate,
    "pareto": run_pareto,
}
