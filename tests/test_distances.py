import itertools
import math

import numpy as np
import pytest

from evrelocate import (
    DistanceMatrix,
    Location,
    euclidean_matrix,
    load_road_network,
    matrix_from_json,
    matrix_to_json,
    shortest_path_matrix,
)

NODES_CSV = "a,0,0\nb,1,0\nc,2,0\n"


def locs(*ids):
    return [Location(i, network_node=i) for i in ids]


class TestLoadRoadNetwork:
    def test_counts(self):
        net = load_road_network("a,0,0\nb,5,0\n", "a,b,5\n")
        assert net.node_count == 2
        assert net.link_count == 1

    def test_empty_edge_list(self):
        net = load_road_network("a,0,0\nb,5,0\n", "")
        matrix = shortest_path_matrix(net, locs("a", "b"))
        assert math.isinf(matrix.distance("a", "b"))
        assert matrix.distance("a", "a") == 0.0

    def test_dangling_endpoint_named_in_error(self):
        with pytest.raises(ValueError, match="ghost"):
            load_road_network("a,0,0\n", "a,ghost,2\n")

    def test_header_rows_skipped(self):
        net = load_road_network("id,x,y\na,0,0\nb,1,1\n", "from,to,length_km\na,b,3\n")
        assert net.link_count == 1


class TestShortestPaths:
    def test_chain_concatenation(self):
        net = load_road_network(NODES_CSV, "a,b,2\nb,c,3\n")
        matrix = shortest_path_matrix(net, locs("a", "b", "c"))
        assert matrix.distance("a", "c") == pytest.approx(5.0)

    def test_directed_unreachable(self):
        net = load_road_network(NODES_CSV, "a,b,2\nb,c,3\n")
        matrix = shortest_path_matrix(net, locs("a", "b", "c"))
        assert math.isinf(matrix.distance("b", "a"))

    def test_triangle_shortcut(self):
        # direct edge 5 km loses to the 1 + 1 km two-hop path
        net = load_road_network(NODES_CSV, "a,b,1\nb,c,1\na,c,5\n")
        matrix = shortest_path_matrix(net, locs("a", "c"))
        assert matrix.distance("a", "c") == pytest.approx(2.0)

    def test_unresolvable_location(self):
        net = load_road_network(NODES_CSV, "a,b,2\n")
        with pytest.raises(ValueError, match="missing"):
            shortest_path_matrix(net, [Location("x", network_node="missing")])

    def test_matches_brute_force_enumeration(self):
        # all-paths minimum on random small directed graphs
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            ids = [f"n{i}" for i in range(n)]
            links = []
            for u, v in itertools.permutations(range(n), 2):
                if rng.random() < 0.45:
                    links.append((ids[u], ids[v], float(np.round(rng.uniform(1, 9), 1))))
            nodes_csv = "".join(f"{i},0,0\n" for i in ids)
            links_csv = "".join(f"{u},{v},{w}\n" for u, v, w in links)
            net = load_road_network(nodes_csv, links_csv)
            matrix = shortest_path_matrix(net, locs(*ids))

            adj = {(u, v): w for u, v, w in links}
            for s in ids:
                # Bellman-Ford style brute force, independent of scipy
                best = {x: math.inf for x in ids}
                best[s] = 0.0
                for _ in range(n):
                    for (u, v), w in adj.items():
                        if best[u] + w < best[v]:
                            best[v] = best[u] + w
                for t in ids:
                    assert matrix.distance(s, t) == pytest.approx(best[t]), (s, t)

    def test_triangle_inequality_property(self):
        rng = np.random.default_rng(11)
        ids = [f"n{i}" for i in range(6)]
        links = [
            (ids[u], ids[v], float(np.round(rng.uniform(1, 9), 1)))
            for u, v in itertools.permutations(range(6), 2)
            if rng.random() < 0.6
        ]
        net = load_road_network(
            "".join(f"{i},0,0\n" for i in ids),
            "".join(f"{u},{v},{w}\n" for u, v, w in links),
        )
        matrix = shortest_path_matrix(net, locs(*ids))
        for a, b, c in itertools.permutations(ids, 3):
            assert matrix.distance(a, c) <= matrix.distance(a, b) + matrix.distance(b, c) + 1e-9


class TestEuclidean:
    def test_three_four_five(self):
        matrix = euclidean_matrix(
            [Location("a", coordinates=(0, 0)), Location("b", coordinates=(3, 4))]
        )
        assert matrix.distance("a", "b") == pytest.approx(5.0)

    def test_detour_factor(self):
        matrix = euclidean_matrix(
            [Location("a", coordinates=(0, 0)), Location("b", coordinates=(3, 4))],
            detour_factor=1.3,
        )
        assert matrix.distance("a", "b") == pytest.approx(6.5)
        assert matrix.distance("b", "a") == pytest.approx(6.5)

    def test_identical_points(self):
        matrix = euclidean_matrix(
            [Location("a", coordinates=(2, 2)), Location("b", coordinates=(2, 2))]
        )
        assert matrix.distance("a", "b") == 0.0

    def test_missing_coordinates(self):
        with pytest.raises(ValueError, match="coordinates"):
            euclidean_matrix([Location("a")])

    def test_detour_below_one_rejected(self):
        with pytest.raises(ValueError):
            euclidean_matrix([Location("a", coordinates=(0, 0))], detour_factor=0.9)


class TestMatrixValidation:
    def test_nan_distance_rejected(self):
        values = np.array([[0.0, math.nan], [1.0, 0.0]])
        with pytest.raises(ValueError, match="NaN"):
            DistanceMatrix(ids=("a", "b"), values=values)

    def test_infinite_distance_means_unreachable(self):
        matrix = DistanceMatrix(ids=("a", "b"), values=np.array([[0.0, math.inf], [1.0, 0.0]]))
        assert math.isinf(matrix.distance("a", "b"))

    def test_nan_in_json_rejected(self):
        text = '{"format_version": 1, "ids": ["a", "b"], "rows": [[0, NaN], [1, 0]]}'
        with pytest.raises(ValueError, match="NaN"):
            matrix_from_json(text)


class TestMatrixJson:
    def test_round_trip_with_infinities(self):
        net = load_road_network(NODES_CSV, "a,b,2\nb,c,3\n")
        matrix = shortest_path_matrix(net, locs("a", "b", "c"))
        text = matrix_to_json(matrix)
        assert "null" in text  # unreachable pairs serialize as null
        again = matrix_from_json(text)
        assert again.ids == matrix.ids
        assert np.array_equal(again.values, matrix.values)
