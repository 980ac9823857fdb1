"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fig11_grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs a fixed amount of the workload untraced,
then again with spans around every layer's public functions, and
reports the per-layer metrics plus the tracing overhead; the kept spans
land in ``.perfbench/``.  Every output the run timed is checked against
a reference outside the timers; any mismatch makes the exit code 1.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

WORKLOADS = ("fig11_grid", "lgroot_replay", "dense_payload", "serve_stream")


def declared_units(root: str, trace: bool) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this
    mode: the end-to-end ones untraced, the per-layer ones traced."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)

    from common import Failures, run_context

    context = run_context(root, args.workload, args.seed, bool(args.trace))
    try:
        if args.workload == "serve_stream":
            import serve

            metrics, failures, notes = serve.run(
                args.seed, args.seconds, bool(args.trace), root, out_dir)
        else:
            import batch

            metrics, failures, notes = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                out_dir)
    except Exception:  # report the crash as a failed run, not a result
        traceback.print_exc()
        failures, notes = Failures(), {}
        failures.check(False, "workload raised")
        metrics = {}

    units = declared_units(root, bool(args.trace))
    if metrics and set(metrics) != set(units):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json "
              f"declares {sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    for example in failures.examples:
        print(f"FAILED: {example}", file=sys.stderr)
    print("context " + json.dumps({**context, **notes}, sort_keys=True))
    correct = failures.failed == 0 and failures.attempted > 0
    if metrics:
        print(json.dumps({
            "correct": correct,
            "attempted": failures.attempted,
            "failed": failures.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
