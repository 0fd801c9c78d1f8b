import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracles
from pondroute import baseline
from pondroute.baseline import (
    DistanceMatrix,
    TooLarge,
    _nearest_neighbor,
    _partitions,
    _reconstruct,
    _route_cost,
    _sector_partition,
    _subset_tours,
    exact_minmax,
    minmax_local_search,
    two_opt,
)
from pondroute.geometry import Point, convex_hull
from pondroute.hpp import hpp_solve
from pondroute.instances import FarmInstance, _left_sum, generate
from pondroute.solution import InvalidK, save_solution

from _oracles import (
    best_insertion_oracle,
    brute_minmax,
    distance_matrix_oracle,
    exact_oracle,
    min_depot_tour,
    minmax_ls_oracle,
    nearest_neighbor_oracle,
    partitions_oracle,
    reconstruct_oracle,
    route_cost_oracle,
    sector_partition_oracle,
    subset_tours_oracle,
    tour_length,
    two_opt_oracle,
    xy_rows,
)


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
        lattice_origin=Point(0, 0), depot=depot, xy=xy_rows(nodes),
    )


class TestBudgetAndMatrix:
    def test_minmax_ls_peak_memory_below_a_quarter_of_the_matrix(self):
        # minmax-ls computes each distance where it reads it, so no table
        # grows with n^2: at n = 2000 its peak allocation (numpy buffers
        # included) stays below a quarter of the (n + 1)^2 float64 matrix.
        n = 2000
        inst = generate(n, 3)
        tracemalloc.start()
        try:
            minmax_local_search(inst, k=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + 1) ** 2 / 4

    def test_budget_requires_a_bound(self):
        inst = generate(12, 0)
        with pytest.raises(ValueError, match="max_iterations"):
            minmax_local_search(inst, k=2, seed=0, max_iterations=-1)
        minmax_local_search(inst, k=2, seed=0, max_iterations=0)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_matrix_must_be_square(self, shape):
        message = "^entries must be a square matrix with the depot last$"
        with pytest.raises(ValueError, match=message):
            DistanceMatrix(np.zeros(shape))

    def test_matrix_symmetric_zero_diagonal(self):
        inst = generate(30, 1)
        dm = DistanceMatrix.from_instance(inst)
        assert dm.entries.shape == (31, 31)
        assert np.allclose(dm.entries, dm.entries.T, atol=1e-12)
        assert np.all(np.diag(dm.entries) == 0.0)
        # triangle inequality (Euclidean source)
        D = dm.entries
        for i, j, k in itertools.permutations(range(8), 3):
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12


class TestTwoOpt:
    def test_straightens_a_crossing(self, monkeypatch):
        pts = [Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)]
        inst = synthetic_instance(pts, Point(-1, 0))
        D = DistanceMatrix.from_instance(inst).entries
        order, converged = two_opt([0, 1, 2, 3], D)
        assert converged
        after = tour_length(inst.depot, [pts[i] for i in order])
        before = tour_length(inst.depot, pts)
        assert after < before
        # One pass makes the move; the pass that would find no move never runs.
        monkeypatch.setattr(baseline, "_TWO_OPT_MAX_PASSES", 1)
        assert two_opt([0, 1, 2, 3], D) == (order, False)

    def test_local_optimum_no_improving_move(self):
        inst = generate(25, 2)
        D = DistanceMatrix.from_instance(inst).entries
        for short in ([], [7], [7, 3]):  # no move to make, so not a converged search
            assert two_opt(short, D) == (short, False)
        order, converged = two_opt(list(range(25)), D)
        assert converged
        P = [25] + order + [25]
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
            inst = generate(n, seed)
            sol = exact_minmax(inst, k=k)
            want = brute_minmax(inst.depot, list(inst.nodes), k)
            assert sol.max_length() == pytest.approx(want)

    def test_subset_dp_matches_tour_enumeration(self):
        inst = generate(7, 9)
        tour_cost, _, _ = _subset_tours(DistanceMatrix.from_instance(inst).entries)
        full = (1 << 7) - 1
        assert tour_cost[full] == pytest.approx(min_depot_tour(inst.depot, list(inst.nodes)))

    def test_dominates_other_solvers(self):
        inst = generate(6, 3)
        exact = exact_minmax(inst, k=2)
        ls = minmax_local_search(inst, k=2, seed=0)
        hp = hpp_solve(inst, k=2, seed=0)
        assert exact.max_length() <= ls.max_length() + 1e-9
        assert exact.max_length() <= hp.max_length() + 1e-9

    def test_limits_enforced(self):
        big = generate(11, 0)
        with pytest.raises(TooLarge):
            exact_minmax(big, k=2)
        small = generate(8, 0)
        with pytest.raises(TooLarge):
            exact_minmax(small, k=4)


class TestMinMaxLocalSearch:
    def test_k1_collapses_to_single_tour(self):
        inst = generate(30, 5)
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
        inst = generate(53, 11)
        sol = minmax_local_search(inst, k=5, seed=0)
        seen = sorted(i for r in sol.routes for i in r.node_order)
        assert seen == list(range(53))
        assert len(sol.routes) == 5

    def test_sector_sizes_near_equal(self):
        inst = generate(23, 1)
        sol = minmax_local_search(inst, k=4, seed=0, max_iterations=0)
        sizes = sorted(len(r.node_order) for r in sol.routes)
        assert max(sizes) - min(sizes) <= 1

    def test_monotone_improvement_trace(self):
        inst = generate(60, 7)
        trace: list[float] = []
        minmax_local_search(inst, k=5, seed=0, trace=trace)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert len(trace) >= 1

    def test_deterministic_with_iteration_budget(self):
        inst = generate(45, 13)
        a = minmax_local_search(inst, k=4, seed=0, max_iterations=60)
        b = minmax_local_search(inst, k=4, seed=0, max_iterations=60)
        assert a == b

    def test_invalid_k(self):
        inst = generate(10, 0)
        with pytest.raises(InvalidK):
            minmax_local_search(inst, k=0, seed=0)
        with pytest.raises(InvalidK):
            minmax_local_search(inst, k=11, seed=0)

    def test_budget_zero_returns_constructive_solution(self):
        inst = generate(40, 2)
        sol = minmax_local_search(inst, k=4, seed=0, max_iterations=0)
        seen = sorted(i for r in sol.routes for i in r.node_order)
        assert seen == list(range(40))


FAMILIES = ["lattice", "duplicates", "uniform"]


def point_set(family: str, rng: np.random.Generator, n: int) -> FarmInstance:
    """n nodes and a depot: on a 5 x 5 integer lattice (ties and duplicates
    everywhere), on three positions, or uniform in the unit square. Outside
    ``FAMILIES``, "one-spot" and "two-spots" put every node on one or two
    positions and the depot on one of them, which ties hundreds of
    partitions in ``exact_minmax``."""
    if family == "lattice":
        xy = rng.integers(0, 5, size=(n + 1, 2)).astype(float)
    elif family in ("duplicates", "one-spot", "two-spots"):
        count = {"duplicates": 3, "one-spot": 1, "two-spots": 2}[family]
        spots = rng.random((count, 2))
        xy = spots[rng.integers(count, size=n + 1)]
    else:
        xy = rng.random((n + 1, 2))
    pts = [Point(float(x), float(y)) for x, y in xy]
    return synthetic_instance(pts[:n], pts[n])


def two_opt_deltas(order: list[int], D: np.ndarray, depot: int) -> np.ndarray:
    """Every 2-opt move's cost change on ``order``, i < j, as two_opt computes it."""
    m = len(order)
    P = np.array([depot, *order, depot])
    new_a = D[np.ix_(P[:m], P[1 : m + 1])]
    new_b = D[np.ix_(P[1 : m + 1], P[2:])]
    cons = D[P[:-1], P[1:]]
    delta = new_a + new_b - cons[:m, None] - cons[None, 1:]
    return delta[np.triu_indices(m, k=1)]


def assert_screen_decides(
    order: list[int], new_edges: tuple[int, ...], D: np.ndarray, depot: int
) -> None:
    """The lemma the relocation step's skip relies on, for a 2-opt local
    optimum with one node removed or inserted, whose new edges are
    ``new_edges``: the ``_screen_table`` rows of those edges find a move
    exactly when a full pass has a delta below -_IMPROVE_EPS or a NaN, and
    the full pass's first move (its first NaN, else its first minimum)
    drops a new edge. That move is the smaller of the rows' picks
    (``_screen_picks``), and ``two_opt`` started from it makes the passes
    a full first pass would."""
    if len(order) < 3:  # two_opt makes no move
        return
    P = np.array([depot, *order, depot])
    e = np.array(new_edges)
    tours = P[None].repeat(len(e), axis=0)
    cost = D[P[:-1], P[1:]][None].repeat(len(e), axis=0)
    gains = baseline._screen_table(D, tours, cost, np.full(len(e), len(P) - 1), e)
    found = bool((~(gains >= -baseline._IMPROVE_EPS)).any())
    no_nan, change, *move = min(baseline._screen_picks(gains, e))
    assert found == (not (no_nan and change >= -baseline._IMPROVE_EPS))
    deltas = two_opt_deltas(order, D, depot)
    assert found == bool((~(deltas >= -baseline._IMPROVE_EPS)).any())
    if found:
        pick = np.isnan(deltas)
        if not pick.any():
            pick = deltas == deltas.min()
        first = int(np.flatnonzero(pick)[0])  # deltas run in (i, j) order
        i, j = (int(a[first]) for a in np.triu_indices(len(order), k=1))
        assert {i, j + 1} & set(new_edges), (order, new_edges, (i, j))
        assert move == [i, j], (order, new_edges)
        for cap in (1, 2):  # the given move is pass 1
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(baseline, "_TWO_OPT_MAX_PASSES", cap)
                assert two_opt(order, D, first=(i, j)) == two_opt(order, D)


def best_insertions(order: list[int], nodes: list[int], D: np.ndarray) -> list[tuple[int, float]]:
    """Cheapest position to insert each of ``nodes`` into ``order``, alone,
    from the relocation step's ``_insertions`` table: (position, added cost)
    per node."""
    P = np.array([baseline._DEPOT, *order, baseline._DEPOT])
    edges = np.array([len(P) - 1])
    pos, added = baseline._insertions(D, P[None], D[P[:-1], P[1:]][None], edges, nodes)
    return [(p, c) for [p], [c] in zip(pos, added)]


def saved_bytes_or_error(solve, inst: FarmInstance, k: int) -> bytes | tuple[str, str]:
    """The ``save_solution`` bytes of ``solve(inst, k)``, or its error."""
    try:
        sol = solve(inst, k)
    except (InvalidK, TooLarge) as exc:
        return type(exc).__name__, str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sol.txt"
        save_solution(sol, path)
        return path.read_bytes()


class TestExactMatchesOracle:
    """The array DP against the exact oracle as first written, byte for byte."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(range(1, 11)),
    )
    @example(family="lattice", seed=1, n=10)
    @example(family="duplicates", seed=2, n=10)
    @example(family="uniform", seed=3, n=10)
    @example(family="one-spot", seed=4, n=10)
    @example(family="two-spots", seed=5, n=10)
    def test_same_bytes_or_error(self, family, seed, n):
        inst = point_set(family, np.random.default_rng(seed), n)
        for k in (1, 2, 3):
            want = saved_bytes_or_error(exact_oracle, inst, k)
            assert saved_bytes_or_error(exact_minmax, inst, k) == want

    @pytest.mark.parametrize("family, seed", [("one-spot", 4), ("two-spots", 5)])
    def test_reconstructs_each_tied_mask_once(self, monkeypatch, family, seed):
        # Hundreds of partitions tie on (max, total); the tie-break needs
        # each of their subsets' routes once, not once per partition.
        inst = point_set(family, np.random.default_rng(seed), 10)
        D = DistanceMatrix.from_instance(inst).entries
        tour_cost, _, _ = _subset_tours(D)
        masks = []
        real = baseline._reconstruct

        def counted(dp, D, mask, last):
            masks.append(mask)
            return real(dp, D, mask, last)

        monkeypatch.setattr(baseline, "_reconstruct", counted)
        for k in (2, 3):
            parts = _partitions(10, k).tolist()
            keys = [(max(c), _left_sum(c)) for c in tour_cost[parts].tolist()]
            best = min(keys)
            tied = [p for p, key in zip(parts, keys) if key == best]
            assert len(tied) >= 100
            masks.clear()
            exact_minmax(inst, k)
            assert sorted(masks) == sorted({m for p in tied for m in p})

    def test_partitions_match_generator(self):
        stirling = {(0, 0): 1}  # S(n, k) partitions of n nodes into k blocks
        for n in range(1, 11):
            for k in range(4):
                stirling[n, k] = k * stirling.get((n - 1, k), 0) + stirling.get((n - 1, k - 1), 0)
            for k in range(1, min(n, 3) + 1):
                got = [tuple(row) for row in _partitions(n, k).tolist()]
                want = list(partitions_oracle((1 << n) - 1, k))
                assert sorted(got) == sorted(want)
                assert len(got) == stirling[n, k]

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruct_matches_parent_walk(self, seed):
        # 10 points on a 3 x 3 lattice: at least two share a position
        xy = np.random.default_rng(seed).integers(0, 3, size=(10, 2)).astype(float)
        inst = synthetic_instance([Point(x, y) for x, y in xy[:9]], Point(*xy[9]))
        D = DistanceMatrix.from_instance(inst).entries
        _, _, dp = _subset_tours(D)
        _, _, parent = subset_tours_oracle(D, 9, 9)
        for mask, last in zip(*np.nonzero(np.isfinite(dp))):
            want = reconstruct_oracle(parent, int(mask), int(last))
            assert _reconstruct(dp, D, int(mask), int(last)) == want


class TestMatchesOracle:
    """The local search against its first version in ``_oracles``, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_helpers(self, family, seed, n):
        rng = np.random.default_rng(seed)
        inst = point_set(family, rng, n)
        D, depot = DistanceMatrix.from_instance(inst).entries, n
        assert D.tobytes() == distance_matrix_oracle(inst).tobytes()
        nodes = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
        for dist in (D, baseline._Distances(inst)):  # a matrix, or computed where read
            assert _nearest_neighbor(nodes, dist) == nearest_neighbor_oracle(nodes, D, depot)
            assert two_opt(nodes, dist)[0] == two_opt_oracle(nodes, D, depot)
        assert _route_cost(D, nodes) == route_cost_oracle(D, depot, nodes)
        extra = [i for i in range(n) if i not in nodes] or [0]
        for order in (nodes, []):
            assert best_insertions(order, extra, D) == [
                best_insertion_oracle(order, x, D, depot) for x in extra
            ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    def test_sector_partition(self, seed, n):
        # 5 x 5 lattice: nodes share rays from the depot, and radii too past 25 nodes
        inst = point_set("lattice", np.random.default_rng(seed), n)
        xs, ys = [p.x for p in inst.nodes], [p.y for p in inst.nodes]
        for k in range(1, n + 1):
            got = _sector_partition(xs, ys, inst.depot.x, inst.depot.y, k)
            assert got == sector_partition_oracle(inst, k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40))
    def test_two_opt_one_node_from_local_optimum(self, family, seed, n):
        # A 2-opt-optimal tour with one node removed or inserted: the screen
        # of its new edges decides whether two_opt has a move to make.
        rng = np.random.default_rng(seed)
        inst = point_set(family, rng, n)
        D, depot = DistanceMatrix.from_instance(inst).entries, n
        perm = rng.permutation(n).tolist()
        tour, converged = two_opt(perm[: rng.integers(3, n)], D)
        assert converged
        assert two_opt_deltas(tour, D, depot).min() >= -baseline._IMPROVE_EPS

        t = int(rng.integers(len(tour)))
        trimmed = tour[:t] + tour[t + 1 :]
        assert_screen_decides(trimmed, (t,), D, depot)
        assert two_opt(trimmed, D)[0] == two_opt_oracle(trimmed, D, depot)

        node = perm[-1]
        [(best, _)] = best_insertions(tour, [node], D)
        for pos in {best, int(rng.integers(len(tour) + 1))}:
            grown = tour[:pos] + [node] + tour[pos:]
            assert_screen_decides(grown, (pos, pos + 1), D, depot)
            assert two_opt(grown, D)[0] == two_opt_oracle(grown, D, depot)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["generated", *FAMILIES]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 90),
    )
    def test_whole_solutions(self, family, seed, n):
        if family == "generated":
            inst = generate(n, seed)
        else:
            inst = point_set(family, np.random.default_rng(seed), n)
        for k in range(1, min(n, 6) + 1):
            trace: list[float] = []
            want: list[float] = []
            sol = minmax_local_search(inst, k=k, seed=0, trace=trace)
            assert sol == minmax_ls_oracle(inst, k=k, seed=0, trace=want)
            assert trace == want

    def test_routes_outgrow_the_starting_table(self):
        # Relocations grow a route from the constructive solution's longest,
        # 8 nodes, to 14, so the route table gains depot columns during the
        # solve; every route and length still has the oracle's bits.
        inst = generate(40, 5001)
        start = minmax_local_search(inst, k=5, seed=0, max_iterations=0)
        trace: list[float] = []
        want: list[float] = []
        sol = minmax_local_search(inst, k=5, seed=0, trace=trace)
        oracle = minmax_ls_oracle(inst, k=5, seed=0, trace=want)
        assert max(len(r.node_order) for r in start.routes) == 8
        assert max(len(r.node_order) for r in sol.routes) == 14
        assert [r.node_order for r in sol.routes] == [r.node_order for r in oracle.routes]
        assert [r.length.hex() for r in sol.routes] == [r.length.hex() for r in oracle.routes]
        assert [x.hex() for x in trace] == [x.hex() for x in want]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_two_opt_one_node_with_infinite_distances(self, seed):
        # Infinite distances make NaN move deltas (inf - inf). The full pass's
        # argmin takes the first NaN, so that NaN must drop a new edge.
        rng = np.random.default_rng(seed)
        n = 14
        D = DistanceMatrix.from_instance(point_set("uniform", rng, n)).entries.copy()
        depot = n
        tour, converged = two_opt(rng.permutation(n)[:10].tolist(), D)
        assert converged
        P = [depot, *tour, depot]
        on_tour = {frozenset(e) for e in zip(P, P[1:])}
        for a, b in rng.integers(n + 1, size=(30, 2)):
            if frozenset((a, b)) not in on_tour:  # the tour stays a local optimum
                D[a, b] = D[b, a] = np.inf
        t = int(rng.integers(len(tour)))
        D[P[t], P[t + 2]] = D[P[t + 2], P[t]] = np.inf
        trimmed = tour[:t] + tour[t + 1 :]
        assert np.isnan(two_opt_deltas(trimmed, D, depot)).any()
        assert_screen_decides(trimmed, (t,), D, depot)
        assert two_opt(trimmed, D)[0] == two_opt_oracle(trimmed, D, depot)

    @pytest.mark.parametrize("m", [3, 4, 5, 150])
    @pytest.mark.parametrize("family", ["duplicates", "infinite"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_two_opt_table_ends(self, family, m):
        # A pass reads S's flat buffer at two offsets; at m = 3 both slices
        # end inside it. Copies of one position tie many moves at 0.0, and
        # infinite distances, one of them on the tour, make NaN deltas, so
        # the first-minimum and first-NaN rules decide the moves.
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n = m + 3
            D = screen_distances(family, rng, n)
            order = rng.permutation(n)[:m].tolist()
            if family == "infinite":
                P, t = [n, *order, n], int(rng.integers(m))
                for a, b in [*rng.integers(n + 1, size=(n, 2)).tolist(), [P[t], P[t + 1]]]:
                    D[a, b] = D[b, a] = np.inf
            assert two_opt(order, D)[0] == two_opt_oracle(order, D, n)

    @pytest.mark.parametrize("scale", [1.0, 2.0**520])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_two_opt_upper_table_matches_full_table(self, family, scale):
        # Computed distances are symmetric, so on a finite table two_opt
        # keeps only the entries above its diagonal; a matrix, or distances
        # that overflow to inf (scale 2^520), keep the whole table. Both take
        # the same moves, with or without a first move, at m = 3 to 150 (to 8,
        # from one seed, on infinite tables, where a call runs all its passes).
        for seed in range(4 if scale == 1.0 else 1):
            rng = np.random.default_rng(seed)
            n = 150 if scale == 1.0 else 8
            base = point_set(family, rng, n)
            inst = synthetic_instance(
                [Point(x * scale, y * scale) for x, y in zip(*base.xy.tolist())],
                Point(base.depot.x * scale, base.depot.y * scale),
            )
            D = DistanceMatrix.from_instance(inst).entries
            for m in (3, 4, int(rng.integers(5, n)), n):
                order = rng.permutation(n)[:m].tolist()
                i = int(rng.integers(m - 1))
                for first in (None, (i, int(rng.integers(i + 1, m)))):
                    got = two_opt(order, baseline._Distances(inst), first=first)
                    assert got == two_opt(order, D, first=first)

    @pytest.mark.parametrize("seed", range(8))
    def test_nearest_neighbor_with_infinite_distances(self, seed):
        # A node whose distances to every unvisited node are inf continues at
        # the first unvisited node, as the (distance, node) rule does.
        rng = np.random.default_rng(seed)
        n = 14
        D = DistanceMatrix.from_instance(point_set("uniform", rng, n)).entries.copy()
        for a, b in rng.integers(n + 1, size=(60, 2)):
            D[a, b] = D[b, a] = np.inf
        row = int(rng.integers(n))
        D[row, :n] = D[:n, row] = np.inf
        nodes = rng.permutation(n)[: rng.integers(2, n + 1)].tolist()
        assert _nearest_neighbor(nodes, D) == nearest_neighbor_oracle(nodes, D, n)

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 500])
    def test_distances_match_oracle(self, n):
        # Every entry, of the matrix and of the distances minmax-ls computes
        # where it reads them, has the oracle's bits: on index arrays of any
        # broadcast shape, in both operand orders, the depot as -1 or n, and
        # on off-lattice points at every scale 2^j.
        rng = np.random.default_rng(n)
        insts = [point_set(family, np.random.default_rng(n), n) for family in FAMILIES]
        insts += [
            synthetic_instance([Point(x * 2.0**j, y * 2.0**j) for x, y in rng.random((n, 2))],
                               Point(*rng.random(2) * 2.0**j))
            for j in range(-30, 31)
        ]
        for inst in insts:
            want = distance_matrix_oracle(inst)
            got = DistanceMatrix.from_instance(inst).entries
            assert got.tobytes() == want.tobytes()
            rows = rng.integers(-1, n + 1, size=(7, 1, 1))
            cols = rng.integers(-1, n + 1, size=(3, 11))
            D = baseline._Distances(inst)
            assert D[rows, cols].tobytes() == want[rows, cols].tobytes()
            assert D[cols, rows].tobytes() == want[cols, rows].tobytes()

    @pytest.mark.parametrize("cap", [1, 2])
    def test_pass_cap_falls_back_to_full_passes(self, monkeypatch, cap):
        # Routes cut off by the pass cap are not known to be local optima, so
        # their relocations must not be screened.
        monkeypatch.setattr(baseline, "_TWO_OPT_MAX_PASSES", cap)
        monkeypatch.setattr(_oracles, "LS_TWO_OPT_MAX_PASSES", cap)
        for n, seed, k in ((60, 1, 3), (150, 2, 5), (200, 3, 4)):
            inst = generate(n, seed)
            assert minmax_local_search(inst, k=k, seed=0) == minmax_ls_oracle(inst, k=k, seed=0)


@pytest.mark.parametrize(
    ("family", "n", "seed", "k"),
    [("generated", 50, 1, 5), ("generated", 200, 2, 3), ("generated", 300, 3, 6),
     ("lattice", 60, 4, 4), ("duplicates", 40, 5, 3)],
)
def test_returned_routes_are_2opt_local_optima(family, n, seed, k):
    # The bound the relocation screen relies on: no 2-opt move on a returned
    # route of 3 or more nodes gains more than _IMPROVE_EPS.
    if family == "generated":
        inst = generate(n, seed)
    else:
        inst = point_set(family, np.random.default_rng(seed), n)
    D = distance_matrix_oracle(inst)
    sol = minmax_local_search(inst, k=k, seed=0)
    long_routes = [list(r.node_order) for r in sol.routes if len(r.node_order) >= 3]
    assert long_routes
    for order in long_routes:
        assert two_opt_deltas(order, D, n).min() >= -baseline._IMPROVE_EPS


def screen_distances(family: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """A distance matrix over n nodes and the depot (index n). "diagonal"
    puts them on the line y = x, 4096 apart: many moves gain exactly 0, and
    their rounding error is about _IMPROVE_EPS, so the screen's subtraction
    order decides whether they count as moves."""
    if family == "diagonal":
        xy = np.repeat(rng.integers(0, 40, size=(n + 1, 1)) * 4096.0, 2, axis=1)
        inst = synthetic_instance([Point(float(x), float(y)) for x, y in xy[:n]], Point(*xy[n]))
    else:
        inst = point_set("uniform" if family == "infinite" else family, rng, n)
    return DistanceMatrix.from_instance(inst).entries.copy()


def converged_tours(D: np.ndarray, rng: np.random.Generator, n: int) -> list[list[int]]:
    """2-opt local optima of three different lengths."""
    tours = []
    for size in sorted(rng.choice(np.arange(3, n), size=3, replace=False).tolist()):
        tour, converged = two_opt(rng.permutation(n)[:size].tolist(), D)
        if converged:
            tours.append(tour)
    return tours


class TestRelocationTables:
    """The relocation step's table forms against the helpers they replaced."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["diagonal", "infinite", *FAMILIES]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 30),
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_screen_table_finds_the_moves_screen_finds(self, family, seed, n):
        # Every converged tour with one node removed at every position and one
        # node inserted at every position: one table row per changed edge,
        # rows of different lengths padded with the depot or with any node.
        rng = np.random.default_rng(seed)
        D, depot = screen_distances(family, rng, n), n
        tours = converged_tours(D, rng, n)
        if family == "infinite":
            on_tour = {frozenset(e) for t in tours for e in zip([depot, *t], [*t, depot])}
            pairs = rng.integers(n + 1, size=(3 * n, 2)).tolist()
            for tour in tours:  # and one new edge of a trimmed tour, as in the 2-opt test
                P, t = [depot, *tour, depot], int(rng.integers(len(tour)))
                pairs.append([P[t], P[t + 2]])
            for a, b in pairs:
                if frozenset((a, b)) not in on_tour:  # the tours stay local optima
                    D[a, b] = D[b, a] = np.inf
        trials = []
        for tour in tours:
            trials += [(tour[:t] + tour[t + 1 :], (t,)) for t in range(len(tour))]
            node = next(v for v in rng.permutation(n).tolist() if v not in tour)
            trials += [(tour[:p] + [node] + tour[p:], (p, p + 1)) for p in range(len(tour) + 1)]
        trials = [(order, changed) for order, changed in trials if len(order) >= 3]
        assume(trials)  # two_opt may stop at its pass cap on collinear nodes
        width = max(len(order) for order, _ in trials) + 2
        rows, edges, stops = [], [], []
        for order, changed in trials:
            pad = depot if rng.random() < 0.5 else int(rng.integers(n + 1))
            row = [depot, *order, depot] + [pad] * (width - len(order) - 2)
            for e in changed:
                rows.append(row)
                edges.append(e)
                stops.append(len(order) + 1)
        tours_table = np.array(rows)
        cost = D[tours_table[:, :-1], tours_table[:, 1:]]
        gains = baseline._screen_table(D, tours_table, cost, np.array(stops), np.array(edges))
        found = (~(gains >= -baseline._IMPROVE_EPS)).any(axis=1).tolist()
        picks = baseline._screen_picks(gains, np.array(edges))
        at = 0
        for order, changed in trials:
            want = _oracles._screen(D, np.array([depot, *order, depot]), changed)
            assert any(found[at : at + len(changed)]) == (want is not None), (order, changed)
            if want is not None:  # the rows' smaller pick is the full pass's move
                assert tuple(min(picks[at : at + len(changed)])[2:]) == want, (order, changed)
                assert_screen_decides(order, changed, D, depot)
            at += len(changed)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_insertion_table_matches_sequential_scan(self, seed):
        # Tour edges are 1.0 long and a candidate's distances come from a set
        # with gaps below _IMPROVE_EPS, so a row's first minimum is often not
        # what the 1e-12 scan picks. Other rows hold a NaN or are all inf.
        rng = np.random.default_rng(seed)
        n, cands = 16, [12, 13, 14, 15]
        D = np.ones((n + 1, n + 1))
        np.fill_diagonal(D, 0.0)
        depot = n
        cut = sorted(rng.choice(np.arange(1, 12), size=2, replace=False).tolist())
        perm = rng.permutation(12).tolist()
        tours = [perm[: cut[0]], perm[cut[0] : cut[1]], perm[cut[1] :]]
        near = [0.5, 0.5 + 2**-42, 0.5 + 2**-41, 0.5 + 2**-40, 0.5 + 2**-38, 0.75]
        for c, kind in zip(cands, ["staircase", *rng.choice(["near", "nan", "inf"], size=3)]):
            if kind == "staircase":  # descends by steps below _IMPROVE_EPS along each tour
                for tour in tours:
                    for j, v in enumerate(tour):
                        D[c, v] = 0.5 + 2**-42 * (len(tour) - j)
                D[c, depot] = 0.75
            else:
                D[c, : n + 1] = rng.choice(near, size=n + 1)
                if kind == "nan":
                    D[c, rng.integers(n + 1)] = np.nan
                elif kind == "inf":
                    D[c, : n + 1] = np.inf
            D[:, c] = D[c, :]

        width = max(map(len, tours)) + 3
        pad = int(rng.integers(n + 1))
        table = np.array([[depot, *t, depot] + [pad] * (width - len(t) - 2) for t in tours])
        cost = D[table[:, :-1], table[:, 1:]]
        edges = np.array([len(t) + 1 for t in tours])
        scanned = []
        first_clear_min = baseline._first_clear_min

        def scan(row):
            scanned.append(row)
            return first_clear_min(row)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baseline, "_first_clear_min", scan)
            pos, added = baseline._insertions(D, table, cost, edges, cands)

        must_scan = []
        for c, node in enumerate(cands):
            for r, tour in enumerate(tours):
                assert (pos[c][r], added[c][r]) == best_insertion_oracle(tour, node, D, depot)
                P = [depot, *tour, depot]
                row = [D[a, node] + D[node, b] - D[a, b] for a, b in zip(P, P[1:])]
                first = int(np.argmin(row))
                if np.isnan(row).any() or any(row[first] < v <= row[first] + 1e-12 for v in row):
                    must_scan.append(row)
        assert must_scan  # the staircase candidate's rows, at least
        for row in must_scan:
            assert any(np.array_equal(row, s, equal_nan=True) for s in scanned)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["lattice", "duplicates", "circle"]),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        count=st.sampled_from([1, 3, 10]),
        j=st.sampled_from([-1060, -500, 0, 500, 1000]),
    )
    def test_shortlist_ranking_equals_full_ranking(self, family, seed, size, count, j):
        # "circle" puts nodes at distance 1 from the centre (0, 0), half of
        # them where np.hypot and math.hypot differ in the last bit.
        rng = np.random.default_rng(seed)
        if family == "lattice":
            xy = rng.integers(-16, 17, size=(size + 3, 2)) / 8
        elif family == "duplicates":
            xy = (rng.random((3, 2)) * 4)[rng.integers(3, size=size + 3)]
        else:
            angle = rng.random(400 * size) * 2 * math.pi
            x, y = np.cos(angle), np.sin(angle)
            differ = np.hypot(x, y) != [math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
            pick = np.concatenate([np.flatnonzero(differ)[: size - size // 2], np.arange(size // 2)])
            xy = np.concatenate([np.stack([x[pick], y[pick]], 1), [[0, 0], [3, 3], [-4, 1]]])
        xy = xy * 2.0**j
        X, Y = xy[:size, 0], xy[:size, 1]
        cx, cy = xy[size:, 0], xy[size:, 1]
        R = rng.permutation(size)
        xs, ys = X.tolist(), Y.tolist()
        want = sorted(
            (min(math.hypot(xs[i] - a, ys[i] - b) for a, b in zip(cx.tolist(), cy.tolist())), i, t)
            for t, i in enumerate(R.tolist())
        )[:count]
        assert baseline._nearest(R, X, Y, cx, cy, count) == want

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_distance_matrix_exactly_symmetric(self, family, seed, n):
        # The screen and insertion tables read D[c, a] for D[a, c].
        D = DistanceMatrix.from_instance(point_set(family, np.random.default_rng(seed), n)).entries
        assert np.array_equal(D, D.T)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_two_opt_runs_only_where_screen_finds_a_move(self, monkeypatch, seed):
        calls = []
        real = baseline.two_opt

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(baseline, "two_opt", counted)
        minmax_local_search(generate(500, seed), k=5, seed=0)
        assert len(calls) <= 30
