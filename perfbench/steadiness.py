#!/usr/bin/env python3
"""Run every workload many times and report how steady each metric is.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --seconds 40
    python3 perfbench/steadiness.py --runs 10 --seconds 40 --seed 7

It makes two sets of runs.  Each round runs every workload once,
alternating the order from round to round.  Without ``--seed``, run ``i``
(from 0) of set ``k`` (from 0) uses seed ``1 + k * runs + i``, so the
second set runs on seeds the first never saw; with ``--seed`` every run
uses that one seed.  For every end-to-end metric of every workload it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (third minus first quartile over the median), the largest
relative deviation from the median and the gap between the two sets'
medians as a share of the first set's.  The spread and gap are what the
bounds in ``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve-live", "study")
SETS = 2


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600, check=False
    )
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["elapsed_s"] = elapsed
    return out


def describe(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid,
        "max_dev": max(abs(v - mid) for v in values) / mid,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed", type=int, default=None,
                        help="use this seed for every run")
    args = parser.parse_args(argv)

    results = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for set_index in range(SETS):
        for i in range(args.runs):
            seed = args.seed if args.seed is not None \
                else 1 + set_index * args.runs + i
            order = WORKLOADS if (set_index * args.runs + i) % 2 == 0 \
                else tuple(reversed(WORKLOADS))
            for workload in order:
                out = run_once(workload, seed, args.seconds)
                results[workload][set_index].append(out)
                print(
                    f"set {set_index + 1} run {i + 1:2d} {workload:10s} "
                    f"seed {seed:4d} {out['elapsed_s']:6.1f}s "
                    f"correct={out['correct']} attempted={out['attempted']} "
                    f"failed={out['failed']}",
                    file=sys.stderr, flush=True,
                )

    columns = ["median", "q1", "q3", "spread", "max_dev"]
    header = f"{'workload':11s} {'metric':12s} {'set':>3s} " + " ".join(
        f"{c:>12s}" if i < 3 else f"{c:>7s}" for i, c in enumerate(columns)
    ) + f" {'gap':>7s}"
    print(header)
    for workload in WORKLOADS:
        sets = results[workload]
        names = sorted(sets[0][0]["metrics"])
        for name in names:
            stats = [
                describe([r["metrics"][name]["value"] for r in runs])
                for runs in sets
            ]
            for index, stat in enumerate(stats):
                line = (
                    f"{workload:11s} {name:12s} {index + 1:3d} "
                    f"{stat['median']:12.4f} {stat['q1']:12.4f} "
                    f"{stat['q3']:12.4f} {stat['spread']:7.3f} "
                    f"{stat['max_dev']:7.3f}"
                )
                if index == 1:
                    gap = (stat["median"] - stats[0]["median"]) \
                        / stats[0]["median"]
                    line += f" {gap:+7.3f}"
                print(line)
        for index, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            wrong = sum(1 for r in runs if not r["correct"])
            print(
                f"{workload:11s} set {index + 1}: failed {failed}/{attempted}, "
                f"incorrect runs {wrong}, mean run "
                f"{statistics.mean(r['elapsed_s'] for r in runs):.1f}s"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
