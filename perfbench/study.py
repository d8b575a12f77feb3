"""``study``: the paper's pinned 237-response study, tables and ANOVAs.

``run_study`` on medium Melbourne followed by Tables 1-3 and the three
one-way ANOVAs: what a researcher waits for.  The network (and the
commercial engine's traffic data) is the seed-0 city every run; the
workload seed draws the study's participants and query pairs, so two
seeds differ in which 237 responses they collect, not in the city they
are collected on.  It calls
the four planners directly, with no shared search context, no cache and
no thread pool, so it separates a planner or kernel gain from a
serving-path gain.  One operation is one whole study; ``ops_per_s``
counts responses.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import harness
import reference
import spans

CITY = "melbourne"
SIZE = "medium"
NETWORK_SEED = 0
#: Set-ups (network build + planners) per run; ``setup_s`` is the median.
#: One set-up takes about 0.08 s and single ones range over half that
#: again as the machine's speed moves from second to second; 60 of them
#: (about 5 s) gave medians spreading 0.16 across fresh processes, 25
#: gave 0.22 and 100 no better than 60.
SETUP_REPEATS = 60


def _setup() -> float:
    from repro.experiments.setup import build_study_network, default_planners

    started = time.perf_counter()
    network = build_study_network(city=CITY, size=SIZE, seed=NETWORK_SEED)
    default_planners(network, traffic_seed=NETWORK_SEED)
    return time.perf_counter() - started


def _one_study(seed: int):
    from repro.experiments.tables import (
        anova_report, run_study, table1, table2, table3,
    )
    from repro.study.survey import StudyConfig

    started = time.perf_counter()
    results = run_study(
        CITY, SIZE, NETWORK_SEED, config=StudyConfig(seed=seed),
        use_cache=False,
    )
    tables = (table1(results), table2(results), table3(results))
    anova = anova_report(results)
    return results, tables, anova, time.perf_counter() - started


def _program_rows(tables) -> Dict:
    """The program's cells, keyed like :func:`reference.table_cells`."""
    keys = (
        ("t1", ("overall", "residents", "non-residents",
                "small", "medium", "long")),
        ("t2", ("group", "small", "medium", "long")),
        ("t3", ("group", "small", "medium", "long")),
    )
    rows = {}
    for (prefix, names), table in zip(keys, tables):
        if len(table.rows) != len(names):
            raise reference.CheckFailed(
                f"{table.title} has {len(table.rows)} rows"
            )
        for name, cells in zip(names, table.rows.values()):
            rows[f"{prefix}/{name}"] = {
                approach: (cell.mean, cell.std, cell.count)
                for approach, cell in cells.items()
            }
    return rows


def _check(results, tables, anova) -> None:
    reference.check_ratings(results.responses)
    reference.check_tables(results.responses, _program_rows(tables))
    mae = reference.check_paper_mae(results.responses)
    print(f"study seed {results.seed}: Table 1 MAE {mae:.4f}", file=sys.stderr)
    reference.check_anova(
        results.responses,
        {k: (v.f_statistic, v.p_value) for k, v in anova.items()},
    )


def _rounds(seed: int, seconds: float):
    studies: List = []
    walls: List[float] = []
    while not walls or sum(walls) < seconds:
        results, tables, anova, wall = _one_study(seed)
        studies.append((results, tables, anova))
        walls.append(wall)
    return studies, walls


def run(seed: int, seconds: float, traced: bool, out_dir: Path) -> Dict:
    recorder = spans.SpanRecorder() if traced else None
    if recorder is not None:
        recorder.install()
    setup_times = [_setup() for _ in range(SETUP_REPEATS)]

    per_layer: Dict[str, float] = {}
    if recorder is not None:
        recorder.uninstall()
        setup_spans = list(recorder.spans)
        _results, _tables, _anova, untraced = _one_study(seed)
        start = len(recorder.spans)
        recorder.install()
    studies, walls = _rounds(seed, seconds)
    peak_rss = harness.own_peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()

    responses = sum(len(results.responses) for results, _t, _a in studies)
    correct = all(
        harness.checked(_check, *study) for study in studies
    )
    if recorder is not None:
        per_layer = spans.layer_metrics(
            recorder.spans, start, sum(walls), responses, len(walls)
        )
        per_layer.update(spans.setup_metrics(setup_spans, SETUP_REPEATS))
        sampled = sum(
            1 for i in range(start, len(recorder.spans))
            if recorder.spans[i][spans.NAME] == "study.fastest_path"
            and not _inside(recorder.spans, i, "study.calibrate")
        )
        per_layer["study.accepted_ratio"] = responses / sampled \
            if sampled else 0.0
        per_layer["trace.overhead"] = statistics.median(walls) / untraced
        recorder.dump(str(out_dir / "trace-study.json"),
                      {"metrics": per_layer})

    metrics = {
        "setup_s": harness.metric(statistics.median(setup_times), "s"),
        "p50_ms": harness.metric(1000 * statistics.median(walls), "ms"),
        "tail_ms": harness.metric(1000 * max(walls), "ms"),
        "ops_per_s": harness.metric(responses / sum(walls), "ops/s"),
        "peak_rss_mb": harness.metric(peak_rss, "MB"),
    }
    return {
        "correct": correct,
        "attempted": responses,
        "failed": 0,
        "metrics": metrics,
        "per_layer": per_layer,
    }


def _inside(recorded, index: int, name: str) -> bool:
    parent = recorded[index][spans.PARENT]
    while parent >= 0:
        if recorded[parent][spans.NAME] == name:
            return True
        parent = recorded[parent][spans.PARENT]
    return False
