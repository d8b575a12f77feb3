"""Each reference check accepts a good output and rejects a broken one.

Run from the repository root::

    python3 -m pytest perfbench/test_reference.py -q
"""

from __future__ import annotations

import random
import sys
from collections import namedtuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from reference import CheckFailed  # noqa: E402

Edge = namedtuple("Edge", "id u v length_m travel_time_s")
Node = namedtuple("Node", "id lat lon")

#: A diamond from 0 to 3 plus a slow detour through 4:
#: 0-1-3 is the optimum (20 s); 0-2-3 is a disjoint 1.2x alternative;
#: 0-1-2-3 shares edge 0->1 (half of the optimum's length); 0-4-3 is 1.6x.
EDGES = [
    Edge(0, 0, 1, 100.0, 10.0),
    Edge(1, 1, 3, 100.0, 10.0),
    Edge(2, 0, 2, 120.0, 12.0),
    Edge(3, 2, 3, 120.0, 12.0),
    Edge(4, 1, 2, 10.0, 1.0),
    Edge(5, 0, 4, 200.0, 20.0),
    Edge(6, 4, 3, 120.0, 12.0),
]
NODES = [Node(i, -37.8 + i * 0.001, 144.9 + i * 0.002) for i in range(5)]
OPTIMUM = ((0, 1, 3), (0, 1))
ALTERNATIVE = ((0, 2, 3), (2, 3))
SHARING_HALF = ((0, 1, 2, 3), (0, 4, 3))
DETOUR = ((0, 4, 3), (5, 6))


@pytest.fixture
def table():
    return reference.EdgeTable(EDGES, len(NODES))


def good_routes():
    return {a: [OPTIMUM, ALTERNATIVE] for a in reference.APPROACHES}


def test_heap_dijkstra_distances(table):
    assert table.dijkstra(0) == [0.0, 10.0, 11.0, 20.0, 20.0]
    assert table.distance(0, 3, [1.0] * len(EDGES)) == 2.0


def test_good_route_sets_pass(table):
    reference.check_route_sets(table, 0, 3, good_routes())


def test_hop_with_no_edge_fails(table):
    routes = good_routes()
    routes["Penalty"] = [((0, 3), (1,))]
    with pytest.raises(CheckFailed, match="is not edge"):
        reference.check_route_sets(table, 0, 3, routes)


def test_route_over_stretch_bound_fails(table):
    routes = good_routes()
    routes["Plateaus"] = [OPTIMUM, DETOUR]
    with pytest.raises(CheckFailed, match="1.4"):
        reference.check_route_sets(table, 0, 3, routes)


def test_dissimilarity_pair_sharing_half_fails(table):
    routes = good_routes()
    routes["Dissimilarity"] = [OPTIMUM, SHARING_HALF]
    with pytest.raises(CheckFailed, match="share"):
        reference.check_route_sets(table, 0, 3, routes)


def test_suboptimal_first_route_fails(table):
    routes = good_routes()
    routes["Penalty"] = [ALTERNATIVE, OPTIMUM]
    with pytest.raises(CheckFailed, match="optimum"):
        reference.check_route_sets(table, 0, 3, routes)


def test_google_maps_is_checked_on_private_weights(table):
    private = [10.0, 10.0, 1.0, 1.0, 1.0, 20.0, 12.0]
    with pytest.raises(CheckFailed, match="private"):
        reference.check_route_sets(
            table, 0, 3, good_routes(), private_weights=private
        )
    routes = good_routes()
    routes["Google Maps"] = [ALTERNATIVE, OPTIMUM]
    reference.check_route_sets(table, 0, 3, routes, private_weights=private)


def _geojson(nodes):
    return [[NODES[n].lon, NODES[n].lat] for n in nodes]


def test_geojson_decodes_to_node_chain(table):
    index = reference.CoordinateIndex(NODES)
    assert index.decode(table, _geojson((0, 1, 2, 3))) == [0, 1, 2, 3]


def test_geojson_hop_with_no_edge_fails(table):
    index = reference.CoordinateIndex(NODES)
    with pytest.raises(CheckFailed, match="no edge"):
        index.decode(table, _geojson((0, 3)))
    with pytest.raises(CheckFailed, match="no node"):
        index.decode(table, [[0.0, 0.0]])


def test_epoch_weights_replay_batches_in_order():
    base = [1.0, 2.0, 3.0]
    assert reference.replay_weights(base, [{0: 5.0}, {0: 7.0, 2: 1.0}]) == [
        7.0, 2.0, 1.0,
    ]
    assert base == [1.0, 2.0, 3.0]


def test_stale_epoch_id_fails():
    reference.check_reply_epoch("epoch-2", 2)
    with pytest.raises(CheckFailed, match="expected epoch-2"):
        reference.check_reply_epoch("epoch-1", 2)


# -- the study -------------------------------------------------------------

Participant = namedtuple("Participant", "resident")
Response = namedtuple("Response", "participant length_bin ratings")


def responses(seed=0):
    rng = random.Random(seed)
    out = []
    for (resident, bin_name), count in reference.PAPER_QUOTAS.items():
        for _ in range(count):
            ratings = {a: rng.randint(1, 5) for a in reference.APPROACHES}
            out.append(Response(Participant(resident), bin_name, ratings))
    return out


def test_ratings_and_quotas_pass():
    reference.check_ratings(responses())


def test_rating_of_six_fails():
    broken = responses()
    broken[5].ratings["Plateaus"] = 6
    with pytest.raises(CheckFailed, match="rated 6"):
        reference.check_ratings(broken)


def test_missing_response_fails_quotas():
    with pytest.raises(CheckFailed, match="quotas"):
        reference.check_ratings(responses()[1:])


def test_table_cell_off_by_a_hundredth_fails():
    rows = responses()
    program = reference.table_cells(rows)
    reference.check_tables(rows, program)
    mean, sd, n = program["t2/medium"]["Penalty"]
    program["t2/medium"]["Penalty"] = (mean + 0.01, sd, n)
    with pytest.raises(CheckFailed, match="t2/medium/Penalty"):
        reference.check_tables(rows, program)


def test_table_far_from_the_paper_fails():
    rows = responses()
    for row in rows:
        for approach in reference.APPROACHES:
            row.ratings[approach] = 1
    with pytest.raises(CheckFailed, match="off the paper"):
        reference.check_paper_mae(rows)


def test_anova_matches_scipy_and_catches_a_wrong_f():
    from scipy.stats import f_oneway

    rows = responses()
    program = {}
    for label, keep in (
        ("all", lambda r: True),
        ("residents", lambda r: r.participant.resident),
        ("non-residents", lambda r: not r.participant.resident),
    ):
        groups = [
            [r.ratings[a] for r in rows if keep(r)]
            for a in reference.APPROACHES
        ]
        result = f_oneway(*groups)
        program[label] = (float(result.statistic), float(result.pvalue))
    reference.check_anova(rows, program)
    f_stat, p_value = program["residents"]
    program["residents"] = (f_stat + 0.01, p_value)
    with pytest.raises(CheckFailed, match="ANOVA residents"):
        reference.check_anova(rows, program)
