"""``serve-live``: one live-traffic shard worker, reads beside epoch writes.

A medium Melbourne v3 snapshot (974 nodes) is served by one shard
worker (:class:`repro.serving.shard.ShardRouter` with one
``ShardSpec(live=True)``).  One load-generator thread submits route
requests on a seeded Poisson schedule at a fixed rate, drawn with Zipf
weights from a hot set of origin-destination pairs, so most approach
lookups hit the cache.  The seeded rush-hour traffic day goes through the
same pipe, one batch at each of a few fixed slots, in sequence order
from seq 1.  Latency counts from each request's scheduled send.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List

import harness
import reference
import spans

CITY_SEED = 0
#: Origin-destination pairs in the hot set, and their Zipf exponent.
HOT_PAIRS = 64
ZIPF_S = 2.0
#: Each hot pair's target is the node a free-flow search from its source
#: settles at a rank in this band of the node count, so every pair is a
#: middle-length route and no seed's most-read pair renders a much longer
#: or shorter reply than another's.
HOT_RANK_BAND = (0.45, 0.55)
#: Offered read rate, in requests per second.
RATE = 50.0
#: Traffic batches per round, at evenly spaced slots of the schedule.
BATCHES = 4
#: Shard start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reads per round: ``tail_ms`` is their p99, the 16th slowest of 1,500.
MIN_REQUESTS = 1500
TAIL_Q = 0.99
#: Longest wait for any reply, in seconds.
REPLY_TIMEOUT_S = 60.0

#: Blinded labels of the study approaches in a route reply.
LABELS = {
    "A": "Google Maps", "B": "Plateaus", "C": "Dissimilarity", "D": "Penalty",
}


def build_city(out_dir: Path):
    from repro.cities import melbourne_profile, stream_build_city

    path = out_dir / "serve-live.rprn"
    started = time.perf_counter()
    stream_build_city(
        melbourne_profile(), size="medium", seed=CITY_SEED,
        output=str(path), via_xml=False,
    )
    return str(path), time.perf_counter() - started


def make_inputs(network, table, seed: int, seconds: float):
    """The hot set, the read schedule and the traffic batches.

    Returns ``(events, pairs, batches)``; each event is ``(due_s, op,
    index)`` with ``op`` "route" (index into ``pairs``) or "ingest"
    (index into ``batches``).
    """
    from repro.traffic.model import TrafficModel
    from repro.traffic.stream import TrafficUpdateSource

    rng = random.Random(f"serve-live:{seed}")
    pairs: List = []
    lo, hi = (round(f * network.num_nodes) for f in HOT_RANK_BAND)
    for source in rng.sample(range(network.num_nodes), HOT_PAIRS):
        rank = rng.randrange(lo, hi)
        for count, (target, _d) in enumerate(table.settled(source)):
            if count == rank:
                break
        pairs.append((source, target))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_PAIRS)]
    requests = max(MIN_REQUESTS, round(RATE * seconds))
    span = requests / RATE
    # A Poisson process conditioned on its count: uniform arrival times.
    due = sorted(rng.uniform(0.0, span) for _ in range(requests))
    drawn = rng.choices(range(HOT_PAIRS), weights=weights, k=requests)
    events = [(t, "route", p) for t, p in zip(due, drawn)]
    events += [
        (span * (i + 1) / (BATCHES + 1), "ingest", i) for i in range(BATCHES)
    ]
    events.sort()
    model = TrafficModel(network, seed=seed)
    source = TrafficUpdateSource(model, seed=seed)
    batches = []
    for batch in source.batches():
        batches.append(batch)
        if len(batches) == BATCHES:
            break
    return events, pairs, batches


def _payloads(network, events, pairs, batches) -> List:
    from repro.serving.query import RouteRequest

    out = []
    for _due, op, index in events:
        if op == "route":
            s, t = (network.node(n) for n in pairs[index])
            out.append(RouteRequest(s.lat, s.lon, t.lat, t.lon).to_json())
        else:
            out.append(batches[index].to_json())
    return out


def drive(handle, events, payloads):
    """Submit every event on schedule from one thread; wait for replies.

    Returns per-event ``[due, sent, done, reply]``, times on the
    ``perf_counter`` clock; ``reply`` is the exception of a failed one.
    """
    records: List[list] = [[0.0, 0.0, 0.0, None] for _ in events]
    futures = [None] * len(events)

    def load() -> None:
        origin = time.perf_counter() + 0.05
        for k, ((due, op, _i), payload) in enumerate(zip(events, payloads)):
            wait = origin + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            record = records[k]
            record[0] = origin + due
            record[1] = time.perf_counter()
            future = handle.submit(op, payload)

            def finished(_f, record=record) -> None:
                record[2] = time.perf_counter()

            future.add_done_callback(finished)
            futures[k] = future

    # The replies kept for checking grow this process's heap by about a
    # million objects; with the cyclic collector on, its full passes held
    # the interpreter lock long enough to make 1% of sends 50 ms late.
    gc.disable()
    try:
        generator = threading.Thread(target=load, name="perfbench-loadgen")
        generator.start()
        generator.join()
        for k, future in enumerate(futures):
            try:
                records[k][3] = future.result(REPLY_TIMEOUT_S)
            except Exception as exc:  # a failed operation, counted later
                records[k][3] = exc
    finally:
        gc.enable()
    return records


def _failed(reply) -> bool:
    return isinstance(reply, Exception) or (
        "response" in reply and reply["response"]["degraded"]
    )


def _router(path: str, context=None):
    from repro.serving.shard import ShardRouter, ShardSpec

    spec = ShardSpec(city="melbourne", snapshot_path=path, live=True)
    return ShardRouter([spec], context=context)


def _start(router) -> float:
    started = time.perf_counter()
    router.start()
    return time.perf_counter() - started


def _check(table, coords, events, records, batches) -> None:
    """Every reply against the replayed epoch weights."""
    base = table.weights
    epoch_weights = [
        reference.replay_weights(base, [b.updates for b in batches[:k]])
        for k in range(len(batches) + 1)
    ]
    optimum: Dict = {}
    applied = 0
    for (_due, op, index), record in zip(events, records):
        reply = record[3]
        if _failed(reply):
            if op == "ingest":
                raise reference.CheckFailed(f"batch {index + 1} failed")
            continue
        if op == "ingest":
            if reply["status"] != "applied" or \
                    reply["epoch_id"] != f"epoch-{index + 1}":
                raise reference.CheckFailed(f"batch {index + 1}: {reply}")
            applied += 1
            continue
        reference.check_reply_epoch(reply["epoch"], applied)
        response = reply["response"]
        if response["errors"]:
            raise reference.CheckFailed(f"reply errors: {response['errors']}")
        s, t = response["source_node"], response["target_node"]
        weights = epoch_weights[applied]
        key = (s, t, applied)
        if key not in optimum:
            optimum[key] = table.distance(s, t, weights)
        for label, collection in response["routes"].items():
            for rank, feature in enumerate(collection["features"]):
                chain = coords.decode(
                    table, feature["geometry"]["coordinates"]
                )
                reference.check_simple_route(table, chain, s, t)
                if rank == 0 and LABELS.get(label) in (
                    "Plateaus", "Dissimilarity", "Penalty"
                ):
                    cost = table.node_path_cost(chain, weights)
                    if abs(cost - optimum[key]) > reference.COST_TOL_S:
                        raise reference.CheckFailed(
                            f"{LABELS[label]} first route costs {cost} on "
                            f"epoch-{applied}, optimum {optimum[key]}"
                        )


def _summary(events, records):
    reads = [r for (_d, op, _i), r in zip(events, records) if op == "route"]
    writes = [r for (_d, op, _i), r in zip(events, records) if op == "ingest"]
    latencies = [done - due for due, _sent, done, _reply in reads]
    first_due = min(r[0] for r in records)
    last_done = max(r[2] for r in records)
    return {
        "latencies": latencies,
        "round_trip": [done - sent for _due, sent, done, _r in reads],
        "ops_per_s": len(reads) / (last_done - first_due),
        "apply": [done - sent for _due, sent, done, _r in writes],
        "lag": [sent - due for due, sent, _done, _r in records],
        "wall": last_done - first_due,
    }


def _pipe_s(recorded, events, records) -> float:
    """Median time a read spends in the pipe, both ways.

    The worker serves its queue first in, first out, so its k-th
    ``shard.op`` span is the k-th request sent.  For a request sent while
    the worker was idle, send-to-op-start plus op-end-to-reply is pipe
    time with no queueing in it.
    """
    ops = [s for s in recorded if s[spans.NAME].startswith("shard.op.")]
    pipe = []
    previous_end = float("-inf")
    for (_due, op, _i), record, span in zip(events, records, ops):
        if span[spans.NAME] != f"shard.op.{op}":
            raise RuntimeError("worker spans are out of step with requests")
        _due_at, sent, done, _reply = record
        if op == "route" and previous_end < sent:
            pipe.append((span[spans.T0] - sent) + (done - span[spans.T1]))
        previous_end = span[spans.T1]
    return statistics.median(pipe)


def _traced_round(path, out_dir, events, payloads) -> Dict:
    """A second worker under tracing: its per-layer figures."""
    worker_file = out_dir / "trace-serve-live-worker.json"
    if worker_file.exists():
        worker_file.unlink()
    router = _router(path, spans.TracedSpawnContext(str(worker_file)))
    ready_s = _start(router)
    try:
        handle = router.handle("melbourne")
        records = drive(handle, events, payloads)
    finally:
        router.close()
    deadline = time.perf_counter() + 10.0
    while not worker_file.exists() and time.perf_counter() < deadline:
        time.sleep(0.05)
    with open(worker_file, encoding="utf-8") as handle:
        worker = json.load(handle)
    worker_file.unlink()
    summary = _summary(events, records)
    recorded = worker["spans"]
    start = next(
        (i for i, s in enumerate(recorded) if s[spans.T0] >= worker["first"]),
        len(recorded),
    )
    per_layer = spans.layer_metrics(
        recorded, start, worker["busy_s"], len(summary["latencies"]), 1
    )
    per_layer.update(spans.setup_metrics(recorded[:start], 1))
    per_layer["shard.ready_s"] = ready_s
    per_layer["shard.pipe_ms"] = 1000.0 * _pipe_s(recorded, events, records)
    per_layer["shard.busy_ratio"] = worker["busy_s"] / summary["wall"]
    worker["metrics"] = per_layer
    with open(out_dir / "trace-serve-live.json", "w", encoding="utf-8") as out:
        json.dump(worker, out)
    return {"per_layer": per_layer, "summary": summary}


def run(seed: int, seconds: float, traced: bool, out_dir: Path) -> Dict:
    from repro.graph.csr import map_snapshot

    path, build_s = build_city(out_dir)
    inputs = map_snapshot(path)
    network = inputs.network
    table = reference.EdgeTable.from_network(network)
    coords = reference.CoordinateIndex(network.nodes())
    events, pairs, batches = make_inputs(network, table, seed, seconds)
    payloads = _payloads(network, events, pairs, batches)

    setup_times = []
    router = None
    try:
        for _ in range(1 if traced else SETUP_REPEATS):
            if router is not None:
                router.close()
            router = _router(path)
            setup_times.append(_start(router))
        handle = router.handle("melbourne")
        records = drive(handle, events, payloads)
        peak_rss = harness.process_peak_rss_mb(handle.pid)
    finally:
        if router is not None:
            router.close()

    summary = _summary(events, records)
    correct = harness.checked(_check, table, coords, events, records, batches)
    per_layer: Dict[str, float] = {}
    if traced:
        traced_run = _traced_round(path, out_dir, events, payloads)
        per_layer = traced_run["per_layer"]
        per_layer["trace.overhead"] = (
            sum(traced_run["summary"]["latencies"])
            / sum(summary["latencies"])
        )
        per_layer["cities.build_s"] = build_s
        per_layer["epoch.apply_ms"] = 1000 * statistics.median(summary["apply"])
        per_layer["loadgen.send_lag_ms"] = 1000 * harness.nearest_rank(
            summary["lag"], 0.99
        )

    latencies = summary["latencies"]
    metrics = {
        "setup_s": harness.metric(statistics.median(setup_times), "s"),
        "p50_ms": harness.metric(1000 * statistics.median(latencies), "ms"),
        "tail_ms": harness.metric(
            1000 * harness.nearest_rank(latencies, TAIL_Q), "ms"
        ),
        "ops_per_s": harness.metric(summary["ops_per_s"], "ops/s"),
        "peak_rss_mb": harness.metric(peak_rss, "MB"),
    }
    return {
        "correct": correct,
        "attempted": len(events),
        "failed": sum(1 for record in records if _failed(record[3])),
        "metrics": metrics,
        "per_layer": per_layer,
    }
