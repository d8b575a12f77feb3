"""Timing spans around the calls into each layer of ``repro``.

A traced run wraps the public functions each layer offers (and a few
private hot spots of the study layer) with a timing span, keeps the
spans in memory and writes them to one JSON file per workload.  Each
target is named by module and attribute path; a target that no longer
exists is skipped and listed under ``missing`` in the span file, so a
change that deletes, say, the object-graph kernel still runs the
benchmark: that kernel's counts simply read 0.

Spans nest through a context variable, which the serving layer copies
into its planner threads, so a planner span on a pool thread is a child
of the query span that submitted it.  Self time is attributed by a sweep
over span boundaries: at every instant the innermost active spans share
the elapsed time equally, so the self times of all spans add up to the
time covered by at least one span, also when planner threads overlap.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span record fields, in list order.
NAME, LAYER, PARENT, T0, T1, CPU0, CPU1, ATTRS = range(8)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=-1
)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + ``path`` (``Class.method``)."""

    module: str
    path: str
    span: str
    layer: str
    attrs: Optional[Callable] = None  # (args, result) -> dict


def _route_set_attrs(args, result) -> Dict:
    stats = getattr(result, "stats", None)
    if stats is None:
        return {}
    return {
        field: getattr(stats, field, 0)
        for field in (
            "nodes_expanded", "edges_relaxed",
            "context_tree_hits", "context_tree_misses",
        )
    }


def _hit(args, result) -> Dict:
    return {"hit": result is not None}


def _count(args, result) -> Dict:
    return {"entries": result if isinstance(result, int) else 0}


#: Every wrapped call, grouped by the layer (module) it belongs to.
TARGETS: Tuple[Target, ...] = (
    Target("repro.graph.csr", "map_snapshot", "graph.attach", "graph"),
    Target("repro.graph.csr", "csr_dijkstra", "kernel.csr", "graph"),
    Target("repro.algorithms.dijkstra", "dijkstra", "kernel.object",
           "algorithms"),
    Target("repro.core.base", "AlternativeRoutePlanner.plan", "plan.{name}",
           "core", _route_set_attrs),
    Target("repro.core.registry", "paper_planners", "core.planners_build",
           "core"),
    Target("repro.core.registry", "make_planner", "core.planners_build",
           "core"),
    Target("repro.core.customization", "EpochBuilder.build", "epoch.build",
           "core"),
    Target("repro.demo.query_processor", "QueryProcessor.match_vertex",
           "snap", "demo"),
    Target("repro.demo.rendering", "route_set_to_feature_collection",
           "render.geojson", "demo"),
    Target("repro.serving.service", "RouteService.query", "query",
           "serving"),
    Target("repro.serving.service", "RouteService.respond", "respond",
           "serving"),
    Target("repro.serving.service", "RouteService.render", "render",
           "serving"),
    Target("repro.serving.cache", "RouteCache.get", "cache.get", "serving",
           _hit),
    Target("repro.serving.cache", "RouteCache.invalidate",
           "cache.invalidate", "serving", _count),
    Target("repro.serving.cache", "RouteCache.invalidate_edges",
           "cache.invalidate", "serving", _count),
    Target("repro.serving.live", "LiveTrafficController.__init__",
           "live.controller_build", "serving"),
    Target("repro.serving.live", "LiveTrafficController.ingest",
           "epoch.ingest", "serving"),
    Target("repro.study.survey", "SurveyRunner.run", "study.run", "study"),
    Target("repro.study.survey", "SurveyRunner.calibrate_bins",
           "study.calibrate", "study"),
    Target("repro.study.survey", "SurveyRunner._fastest_minutes",
           "study.fastest_path", "study"),
    Target("repro.study.survey", "SurveyRunner._plan_query", "study.plan",
           "study"),
    Target("repro.study.features", "compute_features", "study.features",
           "study"),
    Target("repro.study.survey", "SurveyRunner._rate_all", "study.rate",
           "study"),
    Target("repro.experiments.tables", "run_study", "experiments.run_study",
           "experiments"),
    Target("repro.experiments.tables", "table1", "study.tables",
           "experiments"),
    Target("repro.experiments.tables", "table2", "study.tables",
           "experiments"),
    Target("repro.experiments.tables", "table3", "study.tables",
           "experiments"),
    Target("repro.experiments.tables", "anova_report", "study.anova",
           "experiments"),
    Target("repro.stats.anova", "one_way_anova", "stats.anova", "stats"),
    Target("repro.stats.descriptive", "summarize", "stats.summarize",
           "stats"),
    Target("repro.cities.streaming", "stream_build_city", "cities.build",
           "cities"),
    Target("repro.cities.generator", "build_city_network", "cities.build",
           "cities"),
)

#: Layers the self-time shares are reported for.
LAYERS = (
    "graph", "algorithms", "core", "demo", "serving", "study",
    "experiments", "stats", "cities",
)


class SpanRecorder:
    """Holds the spans of one process and the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, layer: str) -> Tuple[int, object]:
        """Start a span by hand; returns (index, context token)."""
        record = [name, layer, _CURRENT.get(), 0.0, 0.0, 0.0, 0.0, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        token = _CURRENT.set(index)
        record[CPU0] = time.thread_time()
        record[T0] = time.perf_counter()
        return index, token

    def close(self, index: int, token) -> None:
        record = self.spans[index]
        record[T1] = time.perf_counter()
        record[CPU1] = time.thread_time()
        _CURRENT.reset(token)

    def _wrap(self, fn, target: Target):
        recorder = self
        dynamic = "{name}" in target.span

        def traced(*args, **kwargs):
            name = (
                target.span.format(name=getattr(args[0], "name", "?"))
                if dynamic else target.span
            )
            index, token = recorder.open(name, target.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index, token)
            if target.attrs is not None:
                recorder.spans[index][ATTRS] = target.attrs(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching --------------------------------------------------------

    def install(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.missing = []
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(f"{target.module}.{target.path}")
                continue
            *outer, attr = target.path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None or not callable(raw):
                self.missing.append(f"{target.module}.{target.path}")
                continue
            wrapper = self._wrap(raw, target)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, raw, wrapper))
            if isinstance(owner, type):
                continue
            # Modules that imported the function by name hold their own
            # reference; rebind those too.
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, raw, wrapper))

    def uninstall(self) -> None:
        """Put every original back, also in modules imported meanwhile."""
        originals = {id(w): raw for _o, _a, raw, w in self._patched}
        for owner, attr, raw, _wrapper in reversed(self._patched):
            setattr(owner, attr, raw)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                raw = originals.get(id(value))
                if raw is not None:
                    setattr(module, key, raw)
        self._patched.clear()

    def dump(self, path: str, extra: Optional[Dict] = None) -> None:
        payload = {"missing": self.missing, "spans": self.spans}
        payload.update(extra or {})
        partial = f"{path}.partial"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(partial, path)


# -- worker processes ----------------------------------------------------


class TracedSpawnContext:
    """A spawn context whose processes run their target under tracing.

    Given to :class:`repro.serving.shard.ShardRouter` as ``context``: the
    shard worker then wraps the same targets in its own process and
    writes its spans to ``out_path`` when its loop returns.
    """

    def __init__(self, out_path: str) -> None:
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self.out_path = out_path

    def Queue(self, *args, **kwargs):
        return self._context.Queue(*args, **kwargs)

    def Process(self, target, args=(), **kwargs):
        return self._context.Process(
            target=traced_worker,
            args=(self.out_path, target, tuple(args)),
            **kwargs,
        )


def traced_worker(out_path: str, target, args) -> None:
    """Run a shard worker's loop with every target wrapped.

    The worker's request queue is ``args[1]``.  Time blocked in its
    ``get`` is idle; every interval from one request's arrival to the
    next ``get`` becomes a ``shard.op`` span of the shard layer, so the
    worker loop's own handling (decoding, fingerprints, reply pickling)
    is attributed too.
    """
    recorder = SpanRecorder()
    recorder.install()
    requests = args[1]
    original_get = requests.get
    state = {"op": None, "idle_s": 0.0, "first": None}

    def timed_get(*get_args, **get_kwargs):
        if state["op"] is not None:
            recorder.close(*state["op"])
            state["op"] = None
        started = time.perf_counter()
        item = original_get(*get_args, **get_kwargs)
        now = time.perf_counter()
        if state["first"] is None:
            state["first"] = now
        else:
            state["idle_s"] += now - started
        state["op"] = recorder.open(f"shard.op.{item[1]}", "serving")
        return item

    requests.get = timed_get
    try:
        target(*args)
    finally:
        if state["op"] is not None:
            recorder.close(*state["op"])
        recorder.uninstall()
        recorder.dump(
            out_path,
            {
                "busy_s": time.perf_counter() - (state["first"] or 0.0)
                - state["idle_s"],
                "first": state["first"],
            },
        )


# -- analysis ------------------------------------------------------------


def self_times(spans: Sequence[list], start: int = 0) -> List[float]:
    """Self time of each span in ``spans[start:]`` (index-aligned).

    Parents before ``start`` count as absent, so a slice of the span list
    (one phase of a run) is analysed on its own.
    """
    n = len(spans)
    out = [0.0] * n
    events = []
    for i in range(start, n):
        record = spans[i]
        if record[T1] > record[T0]:
            events.append((record[T0], 1, i))
            events.append((record[T1], 0, i))
    events.sort()
    active = [False] * n
    children = [0] * n
    entry = [0.0] * n
    leaves = set()
    virtual = 0.0
    last = None
    for t, starting, i in events:
        if last is not None and leaves:
            virtual += (t - last) / len(leaves)
        last = t
        parent = spans[i][PARENT]
        has_parent = parent >= start and active[parent]
        if starting:
            if has_parent:
                children[parent] += 1
                if children[parent] == 1 and parent in leaves:
                    out[parent] += virtual - entry[parent]
                    leaves.discard(parent)
            active[i] = True
            leaves.add(i)
            entry[i] = virtual
        else:
            if i in leaves:
                out[i] += virtual - entry[i]
                leaves.discard(i)
            active[i] = False
            if has_parent:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
                    entry[parent] = virtual
    return out


def _approach_key(name: str) -> str:
    return name.lower().replace(" ", "_")


#: The four study approaches, as they appear in metric names.
APPROACH_KEYS = ("google_maps", "plateaus", "dissimilarity", "penalty")


def layer_metrics(
    spans: Sequence[list],
    start: int,
    wall_s: float,
    operations: int,
    rounds: int,
) -> Dict[str, float]:
    """Per-layer figures of one traced phase (``spans[start:]``).

    ``_ms`` figures are per call or per operation as named in the
    README; counts are per round; shares are of ``wall_s``.
    """
    own = self_times(spans, start)
    phase = range(start, len(spans))
    by_name: Dict[str, List[int]] = {}
    for i in phase:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def walls(name: str) -> List[float]:
        return [spans[i][T1] - spans[i][T0] for i in by_name.get(name, ())]

    def outermost(name: str) -> List[int]:
        keep = []
        for i in by_name.get(name, ()):
            parent = spans[i][PARENT]
            while parent >= start and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < start:
                keep.append(i)
        return keep

    def total(name: str) -> float:
        return sum(spans[i][T1] - spans[i][T0] for i in outermost(name))

    def attrs_sum(name: str, field: str) -> float:
        return sum(
            (spans[i][ATTRS] or {}).get(field, 0) for i in by_name.get(name, ())
        )

    ops = max(operations, 1)
    per_round = 1.0 / max(rounds, 1)
    m: Dict[str, float] = {}

    covered = sum(own[i] for i in phase)
    m["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in phase:
        layer = spans[i][LAYER]
        if layer in layer_self:
            layer_self[layer] += own[i]
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (
            layer_self[layer] / wall_s if wall_s > 0 else 0.0
        )

    snaps = walls("snap")
    m["snap_ms"] = 1000.0 * sum(snaps) / ops if snaps else 0.0
    lookups = by_name.get("cache.get", [])
    hits = attrs_sum("cache.get", "hit")
    m["cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    m["cache.lookup_ms"] = (
        1000.0 * sum(walls("cache.get")) / len(lookups) if lookups else 0.0
    )
    m["cache.invalidated_entries"] = (
        attrs_sum("cache.invalidate", "entries") * per_round
    )
    renders = walls("render")
    m["render_ms"] = 1000.0 * median(renders) if renders else 0.0

    queries = by_name.get("query", [])
    m["query.overhead_ms"] = (
        1000.0 * sum(own[i] for i in queries) / len(queries)
        if queries else 0.0
    )
    gil_wait = 0.0
    for approach_span in [n for n in by_name if n.startswith("plan.")]:
        for i in by_name[approach_span]:
            record = spans[i]
            gil_wait += max(
                0.0, (record[T1] - record[T0]) - (record[CPU1] - record[CPU0])
            )
    m["fanout.gil_wait_ms"] = 1000.0 * gil_wait / len(queries) \
        if queries else 0.0

    names = {_approach_key(n[len("plan."):]): n for n in by_name
             if n.startswith("plan.")}
    for key in APPROACH_KEYS:
        name = names.get(key)
        cpu = [
            spans[i][CPU1] - spans[i][CPU0] for i in by_name.get(name, ())
        ]
        m[f"plan.{key}_ms"] = 1000.0 * median(cpu) if cpu else 0.0
        m[f"plan.{key}_total_s"] = sum(cpu) * per_round
        m[f"search.nodes_expanded.{key}"] = (
            attrs_sum(name, "nodes_expanded") * per_round if name else 0.0
        )
        m[f"search.edges_relaxed.{key}"] = (
            attrs_sum(name, "edges_relaxed") * per_round if name else 0.0
        )
    built = reused = 0.0
    for name in names.values():
        built += attrs_sum(name, "context_tree_misses")
        reused += attrs_sum(name, "context_tree_hits")
    m["trees.built"] = built * per_round
    m["trees.reused"] = reused * per_round

    for kernel in ("csr", "object"):
        calls = by_name.get(f"kernel.{kernel}", ())
        m[f"kernel.{kernel}.calls"] = len(calls) * per_round
        m[f"kernel.{kernel}_ms"] = 1000.0 * per_round * sum(
            spans[i][CPU1] - spans[i][CPU0] for i in calls
        )

    builds = walls("epoch.build")
    m["epoch.build_ms"] = 1000.0 * median(builds) if builds else 0.0
    ingests = walls("epoch.ingest")
    m["epoch.ingest_ms"] = 1000.0 * median(ingests) if ingests else 0.0

    m["study.calibrate_s"] = total("study.calibrate") * per_round
    fastest = walls("study.fastest_path")
    m["study.fastest_path_ms"] = 1000.0 * median(fastest) if fastest else 0.0
    planned = walls("study.plan")
    m["study.plan_ms"] = 1000.0 * median(planned) if planned else 0.0
    features = walls("study.features")
    m["study.features_ms"] = 1000.0 * median(features) if features else 0.0
    m["study.rate_s"] = total("study.rate") * per_round
    m["study.tables_ms"] = 1000.0 * total("study.tables") * per_round
    m["study.anova_ms"] = 1000.0 * total("study.anova") * per_round
    return m


def setup_metrics(spans: Sequence[list], repeats: int) -> Dict[str, float]:
    """Set-up figures: per set-up, the median over ``repeats``."""
    def per_setup(name: str) -> float:
        durations = []
        for i, record in enumerate(spans):
            if record[NAME] != name:
                continue
            parent = record[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                durations.append(record[T1] - record[T0])
        return sum(durations) / max(repeats, 1)

    return {
        "graph.attach_s": per_setup("graph.attach"),
        "core.planners_build_s": per_setup("core.planners_build"),
        "cities.build_s": per_setup("cities.build"),
        "live.controller_build_s": per_setup("live.controller_build"),
    }
