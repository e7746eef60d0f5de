"""Run one workload of the collection-path benchmark and print its metrics.

    python3 perfbench/run.py --workload wire-ingest --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout: the collector and the library are
imported from ``src/``.  Every metric is printed by name with its unit, and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics (a separate, traced run) and
writes the spans to ``.perfbench_work/trace-<workload>-<seed>.json``.
Exit status: 0 for a correct run, 1 when the correctness gate trips (the
JSON still says ``"correct": false``), 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wire-ingest", "durable-ingest")


def main() -> int:
    parser = argparse.ArgumentParser(description="collection-path benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    # A terminated run still unwinds, so the collectors it launched stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    import harness
    import sockets

    trace = bool(arguments.trace)
    result, tracer = sockets.run(arguments.workload, arguments.seed, arguments.seconds, trace)
    environment = harness.environment(result["backend"])
    print("environment: " + json.dumps(environment, sort_keys=True))
    for notice in result["notices"]:
        print(f"notice: {notice}", file=sys.stderr)

    samples = result["samples"]
    print(f"{'end-to-end metric':34s} {'value':>16s} unit")
    for name, entry in result["metrics"].items():
        count = samples.get(name, 1)
        print(f"{name:34s} {entry['value']:16.6g} {entry['unit']:10s} n={count}")
    if trace:
        layers = result["layers"]
        metrics = {}
        print(f"{'per-layer metric':34s} {'value':>16s} unit")
        for entry in declared["per_layer"]:
            value, count = layers.get(entry["name"], (0.0, 0))
            metrics[entry["name"]] = harness.metric(value, entry["unit"])
            print(f"{entry['name']:34s} {value:16.6g} {entry['unit']:10s} n={count}")
        tracer.write(
            harness.WORK_DIR / f"trace-{arguments.workload}-{arguments.seed}.json",
            extra={"environment": environment, "layers": layers, "metrics": result["metrics"]},
        )
    else:
        metrics = {entry["name"]: result["metrics"][entry["name"]] for entry in declared["end_to_end"]}
    for problem in result["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
