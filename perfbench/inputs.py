"""Seeded workload inputs.

Every generator here is a pure function of the workload seed: the same
seed gives the same byte-for-byte request sequence.  The shares the
workloads are built around (repeat share, sampled share, cached-chunk
share) are fixed by construction per request, not by how many requests
a run manages to send, so they do not drift with the program's speed.
"""

from __future__ import annotations

import io
import json
import math
import random
from typing import Any

#: /evaluate: share of queries that repeat an earlier query.
EVALUATE_REPEAT_SHARE = 0.5
#: /evaluate: tail index of the batch-size power law (P[size >= s] = s^-a).
EVALUATE_BATCH_ALPHA = 0.8
EVALUATE_MAX_BATCH = 256
#: /evaluate: requests per stratified block of batch sizes.
EVALUATE_SIZE_BLOCK = 128

#: /simulate: share of runs that repeat an earlier (trace, config, sampling).
SIMULATE_REPEAT_SHARE = 0.4
#: /simulate: share of fresh heap-trace runs that request interval sampling.
SIMULATE_SAMPLED_SHARE = 1 / 3
#: /simulate: trace families; every block of runs holds each one once.
SIMULATE_FAMILIES = (
    "heap-accel", "heap-base", "matmul-2", "matmul-4", "matmul-8", "synthetic",
)
SIMULATE_SAMPLING = {"interval": 500, "period": 4, "warmup": 200, "head": 1000}

#: /sweep pareto: lattice shape of every sweep (2 cores x 4 modes x 2 tech).
PARETO_FRACTIONS = 400
PARETO_FREQUENCIES = 300
PARETO_TECH = ("cmos-hp-45", "finfet-hp-20")
PARETO_ACCELERATOR = {"acceleration": 6.0}
#: /sweep pareto: core archetypes (ipc, rob_size, issue_width, commit_stall).
PARETO_CORES = (
    (0.8, 64, 2, 8.0), (1.2, 128, 4, 6.0), (1.6, 192, 4, 4.0),
    (2.0, 256, 8, 4.0), (2.4, 192, 6, 3.0), (2.8, 256, 8, 2.0),
)

MODES = ("NL_NT", "NL_T", "L_NT", "L_T")
CORE_PRESETS = ("a72", "hp", "lp")
#: /evaluate drain options: the server default and the three drain kinds.
DRAINS = ("default", "power_law", "explicit", "balanced_window")


def _share_hit(index: int, share: float) -> bool:
    """Whether event ``index`` (0-based) is one of the ``share`` picked.

    Exactly ``floor(n * share)`` of the first ``n`` events are picked,
    spread evenly, so a share holds for every prefix of a stream.
    """
    return math.floor((index + 1) * share) > math.floor(index * share)


def _zipf_index(rng: random.Random, n: int) -> int:
    """A Zipf(1)-popular index into ``n`` items (0 is the most popular)."""
    return min(n - 1, int(math.exp(rng.random() * math.log(n + 1))) - 1)


class EvaluateStream:
    """``/evaluate`` requests with heavy-tailed batch sizes.

    Each query is, with probability :data:`EVALUATE_REPEAT_SHARE`, a
    Zipf-popular repeat of an earlier query (cache read), else a new one
    (cache fill).  Queries mix preset and custom cores, acceleration- and
    latency-specified accelerators, one to four modes and every drain
    kind, with equal shares per option (:meth:`_new_query`).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"evaluate:{seed}")
        self.queries: list[dict[str, Any]] = []
        self.fragments: list[str] = []
        self.sizes: list[int] = []

    def _new_query(self) -> dict[str, Any]:
        """A fresh query, uniform over each dimension's options.

        The options cover the dimensions the workload is defined by —
        core, accelerator, modes and drain — and every option of a
        dimension is equally likely; no share is tuned to a source.
        """
        rng = self.rng
        if rng.random() < 0.5:
            core: Any = rng.choice(CORE_PRESETS)
        else:
            core = {
                "ipc": round(rng.uniform(0.5, 3.0), 3),
                "rob_size": rng.choice((64, 128, 192, 256, 384)),
                "issue_width": rng.choice((2, 4, 6, 8)),
                "commit_stall": round(rng.uniform(2.0, 12.0), 2),
            }
        if rng.random() < 0.5:
            accelerator = {"acceleration": round(rng.uniform(1.5, 20.0), 3)}
        else:
            accelerator = {"latency": round(rng.uniform(2.0, 200.0), 2)}
        query: dict[str, Any] = {
            "core": core,
            "accelerator": accelerator,
            "workload": {
                "granularity": round(10 ** rng.uniform(1.0, 3.7), 2),
                "acceleratable_fraction": round(rng.uniform(0.05, 0.95), 4),
            },
        }
        modes = rng.choice(("one", "several", "all"))
        if modes == "one":
            query["mode"] = rng.choice(MODES)
        elif modes == "several":
            query["modes"] = rng.sample(MODES, rng.randint(2, 3))
        drain = rng.choice(DRAINS)
        if drain == "explicit":
            query["drain"] = {"kind": "explicit", "cycles": round(rng.uniform(5, 200), 1)}
        elif drain != "default":
            query["drain"] = {"kind": drain}
        return query

    def _query_index(self) -> int:
        if self.queries and self.rng.random() < EVALUATE_REPEAT_SHARE:
            return _zipf_index(self.rng, len(self.queries))
        query = self._new_query()
        self.queries.append(query)
        self.fragments.append(json.dumps(query, separators=(",", ":")))
        return len(self.queries) - 1

    def batch_size(self) -> int:
        """The next size; every block of requests samples each quantile once.

        Stratified sampling keeps the heavy tail (each block holds its
        1-in-128 largest batches) while every block sends nearly the same
        number of queries, so throughput does not hinge on how many
        256-query batches one seed happened to draw.
        """
        if not self.sizes:
            blocks = EVALUATE_SIZE_BLOCK
            self.sizes = [
                min(EVALUATE_MAX_BATCH,
                    int((1.0 - (j + self.rng.random()) / blocks)
                        ** (-1.0 / EVALUATE_BATCH_ALPHA)))
                for j in range(blocks)
            ]
            self.rng.shuffle(self.sizes)
        return self.sizes.pop()

    def next_request(self) -> tuple[bytes, list[int]]:
        """``(body, query indices)`` of the next request."""
        indices = [self._query_index() for _ in range(self.batch_size())]
        body = '{"queries":[' + ",".join(self.fragments[i] for i in indices) + "]}"
        return body.encode(), indices


def _trace_text(trace: Any) -> str:
    from repro.isa.trace_io import dump_trace

    buf = io.StringIO()
    dump_trace(trace, buf)
    return buf.getvalue()


def simulate_families(seed: int) -> dict[str, dict[str, Any]]:
    """The paper's trace families, as posted: text, warm ranges, sampling.

    Heap (Fig. 5) accelerated and baseline, matmul 2/4/8 MMA (Fig. 6)
    and one synthetic microbenchmark (Fig. 4).  Only the heap traces are
    long enough for interval sampling to apply.
    """
    from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
    from repro.workloads.matmul import MatmulSpec, generate_accelerated_trace
    from repro.workloads.synthetic import SyntheticSpec, generate_synthetic_program

    rng = random.Random(f"simulate:{seed}")
    heap = generate_heap_program(
        HeapWorkloadSpec(slots=400, call_probability=0.3, seed=rng.randrange(1 << 30))
    )
    heap_warm = [list(r) for r in heap.baseline.metadata["warm_ranges"]]
    spec = MatmulSpec(n=32, block=16)
    mm_warm = [list(r) for r in spec.warm_ranges()]
    synthetic = generate_synthetic_program(
        SyntheticSpec(
            total_instructions=6000,
            num_invocations=10,
            seed=rng.randrange(1 << 30),
        )
    )
    families = {
        "heap-accel": (heap.accelerated(), heap_warm, True),
        "heap-base": (heap.baseline, heap_warm, True),
        "synthetic": (synthetic.accelerated(), None, False),
    }
    for m in (2, 4, 8):
        families[f"matmul-{m}"] = (generate_accelerated_trace(spec, m), mm_warm, False)
    return {
        name: {
            "text": _trace_text(trace),
            "warm_ranges": warm,
            "samplable": samplable,
            "instructions": len(trace),
        }
        for name, (trace, warm, samplable) in families.items()
    }


class SimulateStream:
    """``/simulate`` run specs over :func:`simulate_families`.

    Every block of runs holds each of :data:`SIMULATE_FAMILIES` once, in
    a seeded order.  Each run crosses a preset, a mode, a ROB override
    and an issue-width override (no override is one option).  Each
    family deals every option of a dimension once, in a seeded order,
    before it deals any again, so every seed runs each family with the
    same option mix and a family's latency distribution does not change
    shape from seed to seed.  :data:`SIMULATE_REPEAT_SHARE` of each
    family's runs instead repeat an
    earlier run of the same family, so the result cache answers that
    share, and :data:`SIMULATE_SAMPLED_SHARE` of the fresh runs of the
    samplable (heap) families request sampling.  Which runs repeat or
    sample is fixed by position, not drawn, so every seed has the same
    shares.
    """

    def __init__(self, seed: int, families: dict[str, dict[str, Any]]) -> None:
        self.rng = random.Random(f"simulate-stream:{seed}")
        self.families = families
        self.encoded = {
            name: json.dumps(family["text"]) for name, family in families.items()
        }
        self.block: list[str] = []
        self.history: dict[str, list[dict[str, Any]]] = {n: [] for n in families}
        self.drawn = {n: 0 for n in families}
        self.decks: dict[tuple[str, tuple[Any, ...]], list[Any]] = {}

    def _deal(self, family: str, options: tuple[Any, ...]) -> Any:
        """The family's next option of one dimension, from a shuffled deck."""
        deck = self.decks.setdefault((family, options), [])
        if not deck:
            deck.extend(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def _fresh(self, family: str) -> dict[str, Any]:
        config: dict[str, Any] = {
            "preset": self._deal(family, CORE_PRESETS),
            "mode": self._deal(family, MODES),
        }
        rob = self._deal(family, (None, 96, 128, 192))
        if rob is not None:
            config["rob_size"] = rob
        width = self._deal(family, (None, 4, 6))
        if width is not None:
            config["issue_width"] = width
        run: dict[str, Any] = {"family": family, "config": config}
        fresh = len(self.history[family])
        if self.families[family]["samplable"] and _share_hit(fresh, SIMULATE_SAMPLED_SHARE):
            run["sampling"] = dict(SIMULATE_SAMPLING)
        return run

    def next_run(self) -> dict[str, Any]:
        if not self.block:
            self.block = list(SIMULATE_FAMILIES)
            self.rng.shuffle(self.block)
        family = self.block.pop()
        history = self.history[family]
        drawn = self.drawn[family]
        self.drawn[family] += 1
        if history and _share_hit(drawn, SIMULATE_REPEAT_SHARE):
            return history[self.rng.randrange(len(history))]
        run = self._fresh(family)
        history.append(run)
        return run

    def body(self, run: dict[str, Any]) -> bytes:
        family = self.families[run["family"]]
        parts = ['"trace":' + self.encoded[run["family"]]]
        parts.append('"config":' + json.dumps(run["config"]))
        if family["warm_ranges"] is not None:
            parts.append('"warm_ranges":' + json.dumps(family["warm_ranges"]))
        if "sampling" in run:
            parts.append('"sampling":' + json.dumps(run["sampling"]))
        return ("{" + ",".join(parts) + "}").encode()


class ParetoStream:
    """A chain of ``/sweep kind:"pareto"`` lattices.

    All sweeps share one accelerator, energy point, tech pair and (a, v)
    axes; sweep ``k`` covers cores ``c_k`` and ``c_(k+1)``.  So every
    sweep after the first finds exactly half of its chunks (the ``c_k``
    panels) in the chunk cache and evaluates the other half.  Cores cycle
    through :data:`PARETO_CORES` archetypes in a seeded order, each with a
    small seeded perturbation that makes it a distinct cache key; every
    seed thus sweeps the same mix of frontier shapes.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"pareto:{seed}")
        self.cores: list[dict[str, Any]] = []
        self.order: list[tuple[float, int, int, float]] = []

    def _core(self, k: int) -> dict[str, Any]:
        rng = self.rng
        while len(self.cores) <= k:
            if not self.order:
                self.order = list(PARETO_CORES)
                rng.shuffle(self.order)
            ipc, rob, width, stall = self.order.pop()
            self.cores.append({
                "name": f"core{len(self.cores)}",
                "ipc": round(ipc * rng.uniform(0.97, 1.03), 4),
                "rob_size": rob,
                "issue_width": width,
                "commit_stall": round(stall * rng.uniform(0.95, 1.05), 3),
            })
        return self.cores[k]

    def sweep(self, k: int) -> dict[str, Any]:
        return {
            "kind": "pareto",
            "cores": [self._core(k), self._core(k + 1)],
            "accelerator": PARETO_ACCELERATOR,
            "fractions": {"start": 0.02, "stop": 0.98, "num": PARETO_FRACTIONS},
            "frequencies": {"start": 1e-4, "stop": 0.1, "num": PARETO_FREQUENCIES,
                            "space": "log"},
            "tech": list(PARETO_TECH),
        }

    @staticmethod
    def points(sweep: dict[str, Any]) -> int:
        return (len(sweep["cores"]) * len(MODES) * len(sweep["tech"])
                * PARETO_FRACTIONS * PARETO_FREQUENCIES)
