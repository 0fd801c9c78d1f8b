import itertools
import math

import numpy as np
import pytest

from pondroute.baseline import (
    DistanceMatrix,
    TooLarge,
    _subset_tours,
    exact_minmax,
    minmax_local_search,
    two_opt,
)
from pondroute.geometry import Point, convex_hull
from pondroute.hpp import hpp_solve
from pondroute.instances import FarmInstance, GeneratorConfig, generate
from pondroute.solution import InvalidK, route_length

from _oracles import brute_minmax, min_depot_tour


def synthetic_instance(nodes: list[Point], depot: Point) -> FarmInstance:
    xs = [p.x for p in nodes] + [depot.x]
    ys = [p.y for p in nodes] + [depot.y]
    pad = 1.0
    poly = convex_hull(
        [
            Point(min(xs) - pad, min(ys) - pad),
            Point(max(xs) + pad, min(ys) - pad),
            Point(max(xs) + pad, max(ys) + pad),
            Point(min(xs) - pad, max(ys) + pad),
        ]
    )
    return FarmInstance(
        name="synthetic", seed=0, polygon=poly, spacing=1.0,
        lattice_origin=Point(0, 0), depot=depot, nodes=tuple(nodes),
    )


class TestBudgetAndMatrix:
    def test_budget_requires_a_bound(self):
        inst = generate(GeneratorConfig(node_count=12, seed=0))
        with pytest.raises(ValueError, match="max_iterations"):
            minmax_local_search(inst, k=2, seed=0, max_iterations=-1)
        minmax_local_search(inst, k=2, seed=0, max_iterations=0)

    def test_matrix_symmetric_zero_diagonal(self):
        inst = generate(GeneratorConfig(node_count=30, seed=1))
        dm = DistanceMatrix.from_instance(inst)
        assert dm.entries.shape == (31, 31)
        assert np.allclose(dm.entries, dm.entries.T, atol=1e-12)
        assert np.all(np.diag(dm.entries) == 0.0)
        # triangle inequality (Euclidean source)
        D = dm.entries
        for i, j, k in itertools.permutations(range(8), 3):
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12


class TestTwoOpt:
    def test_straightens_a_crossing(self):
        pts = [Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)]
        inst = synthetic_instance(pts, Point(-1, 0))
        dm = DistanceMatrix.from_instance(inst)
        order = two_opt([0, 1, 2, 3], dm.entries, dm.depot)
        after = route_length(inst.depot, [pts[i] for i in order])
        before = route_length(inst.depot, pts)
        assert after < before

    def test_local_optimum_no_improving_move(self):
        inst = generate(GeneratorConfig(node_count=25, seed=2))
        dm = DistanceMatrix.from_instance(inst)
        order = two_opt(list(range(25)), dm.entries, dm.depot)
        D, depot = dm.entries, dm.depot
        P = [depot] + order + [depot]
        m = len(order)
        for i in range(m):
            for j in range(i + 1, m):
                delta = (
                    D[P[i], P[j + 1]] + D[P[i + 1], P[j + 2]]
                    - D[P[i], P[i + 1]] - D[P[j + 1], P[j + 2]]
                )
                assert delta >= -1e-9


class TestExactMinMax:
    def test_two_nodes_two_routes(self):
        pts = [Point(3, 0), Point(0, 4)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = exact_minmax(inst, k=2)
        assert sol.max_length() == pytest.approx(8.0)  # farther node, out and back
        assert sol.total_length() == pytest.approx(14.0)

    def test_three_collinear_single_route(self):
        pts = [Point(1, 0), Point(2, 0), Point(3, 0)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = exact_minmax(inst, k=1)
        assert sol.max_length() == pytest.approx(6.0)
        assert [inst.nodes[i].x for i in sol.routes[0].node_order] == [1.0, 2.0, 3.0]

    def test_matches_permutation_oracle(self):
        for seed, n, k in ((3, 6, 2), (4, 7, 2), (5, 6, 3), (6, 7, 3)):
            inst = generate(GeneratorConfig(node_count=n, seed=seed))
            sol = exact_minmax(inst, k=k)
            want = brute_minmax(inst.depot, list(inst.nodes), k)
            assert sol.max_length() == pytest.approx(want)

    def test_subset_dp_matches_tour_enumeration(self):
        inst = generate(GeneratorConfig(node_count=7, seed=9))
        dm = DistanceMatrix.from_instance(inst)
        tour_cost, _, _ = _subset_tours(dm.entries, 7, dm.depot)
        full = (1 << 7) - 1
        assert tour_cost[full] == pytest.approx(min_depot_tour(inst.depot, list(inst.nodes)))

    def test_dominates_other_solvers(self):
        inst = generate(GeneratorConfig(node_count=6, seed=3))
        exact = exact_minmax(inst, k=2)
        ls = minmax_local_search(inst, k=2, seed=0)
        hp = hpp_solve(inst, k=2, seed=0)
        assert exact.max_length() <= ls.max_length() + 1e-9
        assert exact.max_length() <= hp.max_length() + 1e-9

    def test_limits_enforced(self):
        big = generate(GeneratorConfig(node_count=11, seed=0))
        with pytest.raises(TooLarge):
            exact_minmax(big, k=2)
        small = generate(GeneratorConfig(node_count=8, seed=0))
        with pytest.raises(TooLarge):
            exact_minmax(small, k=4)


class TestMinMaxLocalSearch:
    def test_k1_collapses_to_single_tour(self):
        inst = generate(GeneratorConfig(node_count=30, seed=5))
        sol = minmax_local_search(inst, k=1, seed=0)
        assert sol.k == 1
        assert sol.total_length() == pytest.approx(sol.max_length())

    def test_circle_within_110_of_oracle(self):
        pts = [
            Point(math.cos(2 * math.pi * t / 8), math.sin(2 * math.pi * t / 8))
            for t in range(8)
        ]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = minmax_local_search(inst, k=2, seed=0, max_iterations=200)
        exact = exact_minmax(inst, k=2)
        assert sol.max_length() <= 1.10 * exact.max_length()

    def test_square_corners_split_into_adjacent_pairs(self):
        half = math.sqrt(0.5)
        pts = [Point(half, half), Point(-half, half), Point(-half, -half), Point(half, -half)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = minmax_local_search(inst, k=2, seed=0, max_iterations=100)
        exact = exact_minmax(inst, k=2)
        # oracle: each route covers one side of the square (adjacent corners)
        assert exact.max_length() == pytest.approx(2.0 + math.sqrt(2.0))
        assert sol.max_length() == pytest.approx(exact.max_length())
        for route in sol.routes:
            a, b = (pts[i] for i in route.node_order)
            assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(math.sqrt(2.0))

    def test_partition_feasibility(self):
        inst = generate(GeneratorConfig(node_count=53, seed=11))
        sol = minmax_local_search(inst, k=5, seed=0)
        seen = sorted(i for r in sol.routes for i in r.node_order)
        assert seen == list(range(53))
        assert len(sol.routes) == 5

    def test_sector_sizes_near_equal(self):
        inst = generate(GeneratorConfig(node_count=23, seed=1))
        sol = minmax_local_search(inst, k=4, seed=0, max_iterations=0)
        sizes = sorted(len(r.node_order) for r in sol.routes)
        assert max(sizes) - min(sizes) <= 1

    def test_monotone_improvement_trace(self):
        inst = generate(GeneratorConfig(node_count=60, seed=7))
        trace: list[float] = []
        minmax_local_search(inst, k=5, seed=0, trace=trace)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(trace) >= 1

    def test_deterministic_with_iteration_budget(self):
        inst = generate(GeneratorConfig(node_count=45, seed=13))
        a = minmax_local_search(inst, k=4, seed=0, max_iterations=60)
        b = minmax_local_search(inst, k=4, seed=0, max_iterations=60)
        assert a == b

    def test_invalid_k(self):
        inst = generate(GeneratorConfig(node_count=10, seed=0))
        with pytest.raises(InvalidK):
            minmax_local_search(inst, k=0, seed=0)
        with pytest.raises(InvalidK):
            minmax_local_search(inst, k=11, seed=0)

    def test_budget_zero_returns_constructive_solution(self):
        inst = generate(GeneratorConfig(node_count=40, seed=2))
        sol = minmax_local_search(inst, k=4, seed=0, max_iterations=0)
        seen = sorted(i for r in sol.routes for i in r.node_order)
        assert seen == list(range(40))
