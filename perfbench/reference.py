"""Reference computations the benchmark checks the program against.

Everything here is written apart from the program under test: a plain
binary-heap Dijkstra over the edge list, a GeoJSON decoder that maps
coordinates back to node ids, a replay of traffic batches onto the base
weights, and the study's table means and one-way ANOVA recomputed from
the raw ratings (scipy is the ANOVA oracle).  Nothing in this module
imports ``repro``; it only reads the plain attributes of the objects the
program hands back (node ids, edge ids, ratings).

Every check raises :class:`CheckFailed` with a message naming what was
wrong, so a failing run says which property broke.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

#: Plateaus and Dissimilarity routes may be at most this much slower
#: than the optimum (the paper's stretch bound).
STRETCH_BOUND = 1.4

#: Dissimilarity routes share less than this share of the shorter
#: route's length with each other (the paper's theta).
THETA = 0.5

#: Absolute tolerance on route costs, in seconds.
COST_TOL_S = 1e-6

#: Tolerance on recomputed table cells and ANOVA statistics.
TABLE_TOL = 1e-9

#: Table 1 as published: (row, approach) -> mean rating.
PAPER_TABLE1 = {
    ("overall", "Google Maps"): 3.37, ("overall", "Plateaus"): 3.63,
    ("overall", "Dissimilarity"): 3.58, ("overall", "Penalty"): 3.56,
    ("residents", "Google Maps"): 3.55, ("residents", "Plateaus"): 3.69,
    ("residents", "Dissimilarity"): 3.70, ("residents", "Penalty"): 3.66,
    ("non-residents", "Google Maps"): 3.04,
    ("non-residents", "Plateaus"): 3.51,
    ("non-residents", "Dissimilarity"): 3.34,
    ("non-residents", "Penalty"): 3.37,
    ("small", "Google Maps"): 3.53, ("small", "Plateaus"): 3.48,
    ("small", "Dissimilarity"): 3.69, ("small", "Penalty"): 3.81,
    ("medium", "Google Maps"): 3.44, ("medium", "Plateaus"): 3.51,
    ("medium", "Dissimilarity"): 3.58, ("medium", "Penalty"): 3.42,
    ("long", "Google Maps"): 3.11, ("long", "Plateaus"): 3.98,
    ("long", "Dissimilarity"): 3.45, ("long", "Penalty"): 3.54,
}

#: The paper's response quotas: (resident, length bin) -> responses.
PAPER_QUOTAS = {
    (True, "small"): 38, (True, "medium"): 83, (True, "long"): 35,
    (False, "small"): 28, (False, "medium"): 26, (False, "long"): 27,
}

#: Upper bound on Table 1's mean absolute error against the paper.
#: On the seed-0 city, study seeds 0-59 gave 0.075-0.198 (mean 0.130,
#: standard deviation 0.027); 0.25 sits four deviations above the mean,
#: so an unseen seed passes, while a table of uniform random ratings
#: (about half a point off) still fails.
TABLE1_MAE_TOL = 0.25

APPROACHES = ("Google Maps", "Plateaus", "Dissimilarity", "Penalty")


class CheckFailed(AssertionError):
    """An output of the program disagreed with its reference."""


class EdgeTable:
    """The network as plain arrays, read once from ``network.edges()``.

    ``weights`` is the OSM (free-flow) weight vector; callers pass other
    vectors (private or replayed) to :meth:`dijkstra` explicitly.
    """

    def __init__(self, edges: Iterable, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.tail: List[int] = []
        self.head: List[int] = []
        self.length_m: List[float] = []
        self.weights: List[float] = []
        self.out: List[List[int]] = [[] for _ in range(num_nodes)]
        self.between: Dict[Tuple[int, int], List[int]] = {}
        for edge in sorted(edges, key=lambda e: e.id):
            if edge.id != len(self.tail):
                raise ValueError(f"edge ids are not dense at {edge.id}")
            self.tail.append(edge.u)
            self.head.append(edge.v)
            self.length_m.append(edge.length_m)
            self.weights.append(edge.travel_time_s)
            self.out[edge.u].append(edge.id)
            self.between.setdefault((edge.u, edge.v), []).append(edge.id)

    @classmethod
    def from_network(cls, network) -> "EdgeTable":
        return cls(network.edges(), network.num_nodes)

    def settled(
        self, source: int, weights: Optional[Sequence[float]] = None
    ) -> Iterator[Tuple[int, float]]:
        """``(node, distance)`` in the order a binary-heap Dijkstra from
        ``source`` settles them (``source`` first)."""
        w = self.weights if weights is None else weights
        dist = [math.inf] * self.num_nodes
        dist[source] = 0.0
        heap = [(0.0, source)]
        done = [False] * self.num_nodes
        head, out = self.head, self.out
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            yield u, d
            for e in out[u]:
                v = head[e]
                nd = d + w[e]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    def dijkstra(
        self, source: int, weights: Optional[Sequence[float]] = None
    ) -> List[float]:
        """Distances from ``source`` to every node (inf if unreachable)."""
        dist = [math.inf] * self.num_nodes
        for node, d in self.settled(source, weights):
            dist[node] = d
        return dist

    def distance(
        self, source: int, target: int,
        weights: Optional[Sequence[float]] = None,
    ) -> float:
        for node, d in self.settled(source, weights):
            if node == target:
                return d
        return math.inf

    def edge_path_cost(
        self, nodes: Sequence[int], edge_ids: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> float:
        """Cost of a route given as nodes plus edge ids; checks every hop."""
        w = self.weights if weights is None else weights
        if len(edge_ids) != len(nodes) - 1:
            raise CheckFailed(
                f"route has {len(nodes)} nodes but {len(edge_ids)} edges"
            )
        cost = 0.0
        for i, e in enumerate(edge_ids):
            if not 0 <= e < len(self.tail) or \
                    (self.tail[e], self.head[e]) != (nodes[i], nodes[i + 1]):
                raise CheckFailed(
                    f"hop {nodes[i]}->{nodes[i + 1]} is not edge {e}"
                )
            cost += w[e]
        return cost

    def node_path_cost(
        self, nodes: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> float:
        """Cost of a node chain over the cheapest parallel edge per hop."""
        w = self.weights if weights is None else weights
        cost = 0.0
        for u, v in zip(nodes, nodes[1:]):
            ids = self.between.get((u, v))
            if not ids:
                raise CheckFailed(f"hop {u}->{v} has no edge")
            cost += min(w[e] for e in ids)
        return cost

    def shared_share(
        self, edges_a: Sequence[int], edges_b: Sequence[int]
    ) -> float:
        """Length the two routes share over the shorter one's length."""
        shared = sum(self.length_m[e] for e in set(edges_a) & set(edges_b))
        shorter = min(
            sum(self.length_m[e] for e in edges_a),
            sum(self.length_m[e] for e in edges_b),
        )
        return shared / shorter if shorter > 0 else 1.0


# -- route checks ------------------------------------------------------------


def check_simple_route(
    table: EdgeTable, nodes: Sequence[int], source: int, target: int
) -> None:
    """A simple path from ``source`` to ``target``."""
    if len(nodes) < 2 or nodes[0] != source or nodes[-1] != target:
        raise CheckFailed(
            f"route {nodes[:1]}..{nodes[-1:]} does not join "
            f"{source} to {target}"
        )
    if len(set(nodes)) != len(nodes):
        raise CheckFailed("route revisits a node")


def check_route_sets(
    table: EdgeTable,
    source: int,
    target: int,
    routes: Mapping[str, Sequence[Tuple[Sequence[int], Sequence[int]]]],
    private_weights: Optional[Sequence[float]] = None,
) -> None:
    """Check the four approaches' routes for one in-process query.

    ``routes`` maps approach name to its ranked routes, each a
    ``(nodes, edge_ids)`` pair.  Checks: every route is a simple path
    over existing edges between the snapped endpoints; each approach
    gives 1-3 distinct routes; first routes cost the reference distance
    (Google Maps on its private weights when given); Plateaus and
    Dissimilarity routes stay within the stretch bound; Dissimilarity
    routes overlap less than theta.
    """
    optimum = table.distance(source, target)
    for approach in APPROACHES:
        ranked = routes.get(approach)
        if not ranked or not 1 <= len(ranked) <= 3:
            raise CheckFailed(
                f"{approach}: {0 if not ranked else len(ranked)} routes"
            )
        if len({tuple(nodes) for nodes, _ in ranked}) != len(ranked):
            raise CheckFailed(f"{approach}: duplicate routes")
        costs = []
        for nodes, edge_ids in ranked:
            check_simple_route(table, nodes, source, target)
            costs.append(table.edge_path_cost(nodes, edge_ids))
        if approach == "Google Maps":
            if private_weights is not None:
                best = table.distance(source, target, private_weights)
                first = table.edge_path_cost(
                    ranked[0][0], ranked[0][1], private_weights
                )
                if abs(first - best) > COST_TOL_S:
                    raise CheckFailed(
                        f"Google Maps first route costs {first} on the "
                        f"private weights, optimum {best}"
                    )
        elif abs(costs[0] - optimum) > COST_TOL_S:
            raise CheckFailed(
                f"{approach}: first route costs {costs[0]}, "
                f"optimum {optimum}"
            )
        if approach in ("Plateaus", "Dissimilarity"):
            for cost in costs:
                if cost > STRETCH_BOUND * optimum + COST_TOL_S:
                    raise CheckFailed(
                        f"{approach}: route costs {cost} > "
                        f"{STRETCH_BOUND} x {optimum}"
                    )
        if approach == "Dissimilarity":
            for i in range(len(ranked)):
                for j in range(i + 1, len(ranked)):
                    share = table.shared_share(ranked[i][1], ranked[j][1])
                    if share >= THETA:
                        raise CheckFailed(
                            f"Dissimilarity routes {i} and {j} share "
                            f"{share:.3f} of the shorter one"
                        )


# -- GeoJSON replies ---------------------------------------------------------


class CoordinateIndex:
    """Exact (lon, lat) -> node ids, for decoding rendered routes."""

    def __init__(self, nodes: Iterable) -> None:
        self._ids: Dict[Tuple[float, float], List[int]] = {}
        for node in nodes:
            self._ids.setdefault((node.lon, node.lat), []).append(node.id)

    def decode(self, table: EdgeTable, coordinates) -> List[int]:
        """The node chain a GeoJSON LineString draws.

        Coordinates shared by several nodes are resolved by adjacency:
        each step keeps the candidates reachable over one edge from a
        candidate of the step before.  Raises :class:`CheckFailed` when a
        coordinate matches no node or no chain of adjacent nodes exists.
        """
        layers: List[List[int]] = []
        for lon, lat in coordinates:
            ids = self._ids.get((lon, lat))
            if not ids:
                raise CheckFailed(f"coordinate ({lon}, {lat}) is no node")
            layers.append(ids)
        back: List[Dict[int, int]] = [{v: -1 for v in layers[0]}]
        for ids in layers[1:]:
            prev = back[-1]
            step = {}
            for v in ids:
                for u in prev:
                    if (u, v) in table.between:
                        step[v] = u
                        break
            if not step:
                raise CheckFailed("rendered route has a hop with no edge")
            back.append(step)
        chain = [next(iter(back[-1]))]
        for step in reversed(back[1:]):
            chain.append(step[chain[-1]])
        chain.reverse()
        return chain


def replay_weights(
    base: Sequence[float], batches: Sequence[Mapping[int, float]]
) -> List[float]:
    """Base weights with each batch's absolute updates applied in order."""
    weights = list(base)
    for updates in batches:
        for edge_id, weight in updates.items():
            weights[edge_id] = weight
    return weights


def check_reply_epoch(reply_epoch: str, expected_seq: int) -> None:
    """A reply carries the epoch of the last batch submitted before it."""
    if reply_epoch != f"epoch-{expected_seq}":
        raise CheckFailed(
            f"reply served on {reply_epoch}, expected epoch-{expected_seq}"
        )


# -- the study ---------------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _sd(values: Sequence[float]) -> float:
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / (len(values) - 1))


def check_ratings(responses: Sequence) -> None:
    """237 responses, paper quotas, every rating an integer in 1-5."""
    counts: Dict[Tuple[bool, str], int] = {}
    for response in responses:
        key = (bool(response.participant.resident), response.length_bin)
        counts[key] = counts.get(key, 0) + 1
        for approach in APPROACHES:
            rating = response.ratings.get(approach)
            if not isinstance(rating, int) or not 1 <= rating <= 5:
                raise CheckFailed(f"{approach} rated {rating!r}")
    if counts != PAPER_QUOTAS:
        raise CheckFailed(f"response quotas {counts} != {PAPER_QUOTAS}")


def table_cells(responses: Sequence) -> Dict[str, Dict[str, Tuple[float, float, int]]]:
    """Rows of Tables 1-3 as ``{row: {approach: (mean, sd, n)}}``.

    Row keys: ``t1/overall``, ``t1/residents``, ``t1/non-residents``,
    ``t1/<bin>``, ``t2/<group or bin>``, ``t3/<group or bin>``.
    """
    def cell(keep) -> Dict[str, Tuple[float, float, int]]:
        out = {}
        for approach in APPROACHES:
            values = [float(r.ratings[approach]) for r in responses if keep(r)]
            out[approach] = (_mean(values), _sd(values), len(values))
        return out

    def resident(r) -> bool:
        return bool(r.participant.resident)

    rows = {
        "t1/overall": cell(lambda r: True),
        "t1/residents": cell(resident),
        "t1/non-residents": cell(lambda r: not resident(r)),
    }
    for name in ("small", "medium", "long"):
        rows[f"t1/{name}"] = cell(lambda r, n=name: r.length_bin == n)
    for table, group in (("t2", True), ("t3", False)):
        rows[f"{table}/group"] = cell(lambda r, g=group: resident(r) == g)
        for name in ("small", "medium", "long"):
            rows[f"{table}/{name}"] = cell(
                lambda r, g=group, n=name: resident(r) == g
                and r.length_bin == n
            )
    return rows


def check_tables(
    responses: Sequence,
    program_rows: Mapping[str, Mapping[str, Tuple[float, float, int]]],
) -> None:
    """The program's table cells against the recomputed ones."""
    expected = table_cells(responses)
    if set(program_rows) != set(expected):
        raise CheckFailed(
            f"table rows {sorted(program_rows)} != {sorted(expected)}"
        )
    for row, cells in expected.items():
        for approach, (m, sd, n) in cells.items():
            pm, psd, pn = program_rows[row][approach]
            if pn != n or abs(pm - m) > TABLE_TOL or abs(psd - sd) > TABLE_TOL:
                raise CheckFailed(
                    f"{row}/{approach}: program ({pm}, {psd}, {pn}) != "
                    f"reference ({m}, {sd}, {n})"
                )


def check_paper_mae(responses: Sequence) -> float:
    """Table 1's mean absolute error against the published means."""
    cells = table_cells(responses)
    mae = _mean([
        abs(cells[f"t1/{row}"][approach][0] - published)
        for (row, approach), published in PAPER_TABLE1.items()
    ])
    if mae > TABLE1_MAE_TOL:
        raise CheckFailed(
            f"Table 1 is {mae:.3f} off the paper on average "
            f"(tolerance {TABLE1_MAE_TOL})"
        )
    return mae


def check_anova(
    responses: Sequence, program: Mapping[str, Tuple[float, float]]
) -> None:
    """The three one-way ANOVAs (F, p) against scipy's ``f_oneway``."""
    from scipy.stats import f_oneway

    groups = {
        "all": lambda r: True,
        "residents": lambda r: bool(r.participant.resident),
        "non-residents": lambda r: not r.participant.resident,
    }
    if set(program) != set(groups):
        raise CheckFailed(f"ANOVA categories {sorted(program)}")
    for label, keep in groups.items():
        samples = [
            [float(r.ratings[a]) for r in responses if keep(r)]
            for a in APPROACHES
        ]
        oracle = f_oneway(*samples)
        f_stat, p_value = program[label]
        if abs(f_stat - float(oracle.statistic)) > TABLE_TOL or \
                abs(p_value - float(oracle.pvalue)) > TABLE_TOL:
            raise CheckFailed(
                f"ANOVA {label}: program F={f_stat}, p={p_value}; "
                f"scipy F={oracle.statistic}, p={oracle.pvalue}"
            )
