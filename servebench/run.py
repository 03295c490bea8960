"""Out-of-process serving benchmark: entry point.

Run from the repository root::

    python3 servebench/run.py --workload tvnews-closed-4 --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --workload all --seed 1      # every workload

Prints one ``workload metric value unit`` line per metric and, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits 1 when a correctness check fails
(the reason goes to stderr) and 2, printing no result, when the
repository's ``src/`` is missing. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer metrics; see
``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="servebench/run.py")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imports repro, so only once src/ is on the path

    # SIGTERM unwinds like an exception, so the spawned servers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in bench.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    units = bench.metric_units()
    results = {}
    for name in names:
        result = bench.run(name, args.seed, args.seconds, bool(args.trace))
        for problem in result["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        results[name] = {
            "correct": not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
