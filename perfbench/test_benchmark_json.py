"""``BENCHMARK.json`` is well formed and names the workloads ``run.py`` has.

``run.py`` takes every metric name and unit from this file, so it is the
one list of what a run prints.  Run from the repository root::

    python3 -m pytest perfbench/test_benchmark_json.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SUFFIX_UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB"}


def test_workloads_match_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_names_units_and_bounds_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in metrics:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in SPEC["per_layer"]:
        for suffix, unit in SUFFIX_UNITS.items():
            if entry["name"].endswith(suffix):
                assert entry["unit"] == unit, entry
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60
