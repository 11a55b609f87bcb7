"""End-to-end benchmark of the TCA reproduction service and library.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {evaluate,simulate,pareto} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` replays the workload's first inputs in-process under the layer
tracer and reports per-layer metrics.  Every run checks the program's
outputs; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, RunDir, StealMeter, provenance, server_command  # noqa: E402

WORKLOADS = ("evaluate", "simulate", "pareto")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so servers are stopped and the run's
    # directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2

    run_steal = StealMeter()
    # Every process of the run — this one (output checks, traced
    # replays) and the servers — resolves the sim backend the same way,
    # from the default chain.
    os.environ.pop("REPRO_SIM_BACKEND", None)
    rundir = RunDir()
    try:
        # This process imports the package too (output checks, traced
        # replays); keep its caches and native build private as well.
        os.environ.update(rundir.program_env())
        sys.path.insert(0, str(SRC))
        import traced
        import workloads

        runner = (traced.TRACED if args.trace else workloads.UNTRACED)[args.workload]
        with run_steal.measure():
            outcome = runner(args.seed, args.seconds, rundir)

        from repro.sim import backend

        info = provenance()
        # Servers get this process's environment and resolve the same
        # backend.
        info["sim_backend"] = backend.effective_backend()
    finally:
        rundir.close()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"host cpu steal {run_steal.share:.1%} of this run's cpu time (other tenants)")
    print("server " + " ".join(["python3"] + server_command(info["nproc"])[1:]))
    if args.trace:
        import layers

        metrics = {name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
                   for name, value in outcome.per_layer.items()}
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    else:
        metrics = {}
        for name, m in outcome.metrics.items():
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<4} "
                  f"n={m['samples']:<6} {m['context']}")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  operations sent {outcome.attempted} succeeded "
          f"{outcome.attempted - outcome.failed} failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
