#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload serve-live --seed 1 --seconds 40 \\
        --trace 0

Workloads: ``serve-live`` (a live-traffic shard worker under an open-loop
read schedule with epoch writes) and ``study`` (the 237-response study
with Tables 1-3 and the ANOVAs).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run and
writes its spans to ``.perfbench/trace-<workload>.json``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the metric names and
units are those ``BENCHMARK.json`` lists.  The program is
imported from ``src/`` of the working directory; without it the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

WORKLOADS = {
    "serve-live": "serve_live",
    "study": "study",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_helpers() -> None:
    """Stop and reap every process ``multiprocessing`` started here.

    Spawning a child makes ``multiprocessing`` start a resource-tracker
    process that otherwise lives until this process exits and is then
    left unreaped; a child still alive on an error path is killed.
    """
    from multiprocessing import active_children, resource_tracker

    for child in active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {src / 'repro'}; run from the root "
            f"of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    workload = importlib.import_module(WORKLOADS[args.workload])
    # A terminated run unwinds too, so its children are stopped.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        outcome = workload.run(
            args.seed, args.seconds, bool(args.trace), out_dir
        )
    finally:
        stop_helpers()
    if args.trace:
        # A layer the workload does not exercise reads 0.
        values = outcome["per_layer"]
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(values) - set(listed))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from spec: {unknown}")
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in listed.items()
        }
    else:
        metrics = outcome["metrics"]
        listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        printed = {name: m["unit"] for name, m in metrics.items()}
        if printed != listed:
            raise RuntimeError(f"metrics {printed} do not match {listed}")
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: metrics[name] for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
