import dataclasses
import hashlib
import itertools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pondroute import geometry, hpp
from pondroute.baseline import TooLarge, minmax_local_search
from pondroute.evaluation import ALGORITHMS, InstanceMetrics, score, solve_with
from pondroute.geometry import (
    ConvexPolygon,
    DegenerateInput,
    Point,
    antipodal_pairs,
    convex_hull,
)
from pondroute.hpp import (
    ClusterAssignment,
    RepairImpossible,
    hpp_solve,
    kmeans,
    repair_clusters,
    route_cluster,
    serpentine_route,
)
from pondroute.instances import (
    FarmInstance,
    FormatError,
    _left_sum,
    generate,
    load,
    save,
)
from pondroute.solution import (
    InvalidK,
    Route,
    Solution,
    load_solution,
    save_solution,
)

import _oracles
from _oracles import (
    distance,
    hull_ring_oracle,
    kmeans_oracle,
    lane_sweep_oracle,
    min_depot_tour,
    min_fixed_endpoint_path,
    path_length,
    repair_oracle,
    route_cluster_oracle,
    serpentine_oracle,
    tour_length,
    xy_rows,
)

GRID_3X3 = [Point(float(x), float(y)) for y in range(3) for x in range(3)]


def grid_points(w: int, h: int) -> list[Point]:
    return [Point(float(x), float(y)) for y in range(h) for x in range(w)]


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        pts = [Point(0, 0), Point(2, 0), Point(1, 3)]
        assign = kmeans(pts, 1, seed=0)
        assert assign.labels == (0, 0, 0)
        assert assign.centroids[0] == Point(1.0, 1.0)

    def test_two_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        blob_a = [Point(float(x), float(y)) for x, y in rng.normal(0, 0.05, (10, 2))]
        blob_b = [Point(float(x + 50), float(y)) for x, y in rng.normal(0, 0.05, (10, 2))]
        assign = kmeans(blob_a + blob_b, 2, seed=1)
        first = set(assign.labels[:10])
        second = set(assign.labels[10:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_4x4_grid_matches_brute_force_sse(self):
        pts = grid_points(4, 4)
        assign = kmeans(pts, 2, seed=0)
        X = np.array([[p.x, p.y] for p in pts])

        def sse(labels: np.ndarray) -> float:
            total = 0.0
            for c in (0, 1):
                sub = X[labels == c]
                total += float(((sub - sub.mean(axis=0)) ** 2).sum())
            return total

        mine = sse(np.array(assign.labels))
        # Brute force over all 2-partitions (point 0 pinned to cluster 0).
        masks = np.arange(1 << 15)
        bits = ((masks[:, None] >> np.arange(15)) & 1).astype(bool)
        member = np.hstack([np.zeros((len(masks), 1), dtype=bool), bits])
        best = math.inf
        sq = (X**2).sum(axis=1)
        for side in (member, ~member):
            cnt = side.sum(axis=1)
            ok = (cnt > 0) & (cnt < 16)
            sx, sy, ss = side @ X[:, 0], side @ X[:, 1], side @ sq
            with np.errstate(invalid="ignore", divide="ignore"):
                part = ss - (sx**2 + sy**2) / cnt
            if side is member:
                sse_a, ok_a = part, ok
            else:
                sse_b = part
        total = np.where(ok_a, sse_a + sse_b, math.inf)
        best = float(total.min())
        assert mine == pytest.approx(best)
        # The optimal split is two 8-point halves along one axis.
        labels = np.array(assign.labels).reshape(4, 4)
        assert len(set(map(tuple, labels))) == 2 or len(set(map(tuple, labels.T))) == 2

    def test_labels_are_nearest_centroid(self):
        inst = generate(120, 9)
        assign = kmeans(inst.nodes, 5, seed=3)
        cents = assign.centroids
        for i, p in enumerate(inst.nodes):
            d = [distance(p, c) for c in cents]
            assert d[assign.labels[i]] == min(d)

    def test_deterministic(self):
        inst = generate(90, 2)
        a = kmeans(inst.nodes, 4, seed=5)
        b = kmeans(inst.nodes, 4, seed=5)
        assert a == b

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kmeans([Point(0, 0)], 2, seed=0)
        with pytest.raises(ValueError):
            kmeans([Point(0, 0), Point(1, 1)], 0, seed=0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(
            [
                "lattice",
                "few-positions",
                "collinear-bands",
                "blobs-1e-9",
                "negative-zero",
                "uniform",
            ]
        ),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        extra=st.integers(-1, 60),
    )
    def test_matches_oracle(self, family, seed, k, extra):
        # The same labels, centroids and error type and text as the k-means
        # that summed an (n, k, 2) broadcast and took k masked means. Centroids
        # compare with ==, which ignores the sign of a zero: bincount starts
        # each sum at 0.0, so a cluster whose x's are all -0.0 gets x = 0.0.
        rng = np.random.default_rng(seed)
        n = k + extra
        xy = rng.random((n, 2))
        if family == "lattice":
            xy = rng.integers(0, 4, size=(n, 2)) / 4
        elif family == "few-positions":
            spots = rng.random((int(rng.integers(1, max(k, 2))), 2))
            xy = spots[rng.integers(len(spots), size=n)]
        elif family == "collinear-bands":
            xy[:, 1] = 0.25 * rng.integers(1, 4, size=n)
            xy[:, 0] = np.round(xy[:, 0] * 8) / 8
        elif family == "blobs-1e-9":
            spots = rng.random((int(rng.integers(1, k + 2)), 2))
            xy = spots[rng.integers(len(spots), size=n)] + 1e-9 * rng.random((n, 2))
        elif family == "negative-zero":
            xy = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(n, 2))
        pts = [Point(float(x), float(y)) for x, y in xy]

        def outcome(fit):
            try:
                result = fit(pts, k, seed)
            except (ValueError, RepairImpossible) as exc:
                return type(exc), str(exc)
            return result.labels, result.centroids

        expected = outcome(kmeans_oracle)
        assert outcome(kmeans) == expected
        if family == "few-positions" and 1 < k <= n:
            assert expected == (RepairImpossible, "could not repair empty clusters")

    @pytest.mark.parametrize("cap", [1, 2])
    def test_iteration_cap(self, monkeypatch, cap):
        # A cap the loop reaches re-assigns labels to the last centroids
        # (the for-else path), on both sides.
        monkeypatch.setattr(hpp, "KMEANS_MAX_ITER", cap)
        monkeypatch.setattr(_oracles, "KMEANS_MAX_ITER", cap)
        nodes = generate(300, 4).nodes
        for k in (1, 5, 8):
            capped = kmeans(nodes, k, seed=k)
            assert capped == kmeans_oracle(nodes, k, seed=k)
        monkeypatch.setattr(hpp, "KMEANS_MAX_ITER", 100)
        assert kmeans(nodes, 8, seed=8) != capped

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["lattice", "nudged-1-ulp", "duplicates"]),
        exponent=st.sampled_from([-20, 0, 20]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        side=st.integers(2, 20),
    )
    def test_matches_oracle_near_ties(self, family, exponent, seed, k, side):
        # Bounded rounds on every table size, against full tables. The
        # lattices are dyadic and mirror-symmetric about both middle lines,
        # so points on the perpendicular bisector of two seeds (k-means++
        # seeds are points) or of two mirrored centroids are exactly
        # equidistant from both. "nudged-1-ulp" moves some coordinates one
        # ulp, just off such a bisector, and "duplicates" stacks several nodes
        # on each position. Scaling by 2^exponent is exact, so it scales the
        # ties with the instance.
        rng = np.random.default_rng(seed)
        width, height = side, int(rng.integers(1, side + 1))
        grid = np.array([(x, y) for x in range(width) for y in range(height)], dtype=float)
        half = grid[rng.random(len(grid)) < 0.5]
        half = np.vstack([half, half * [-1, 1] + [width - 1, 0]])
        xy = np.unique(np.vstack([half, half * [1, -1] + [0, height - 1]]), axis=0)
        if family == "nudged-1-ulp":
            moved = rng.random(xy.shape) < 0.2
            xy[moved] = np.nextafter(xy[moved], rng.choice([-np.inf, np.inf], moved.sum()))
        elif family == "duplicates":
            xy = xy[rng.integers(len(xy), size=min(400, 3 * len(xy)))]
        xy = np.ldexp(xy / 8, exponent)
        pts = [Point(float(x), float(y)) for x, y in xy]

        def outcome(fit):
            try:
                result = fit(pts, k, seed)
            except (ValueError, RepairImpossible) as exc:
                return type(exc), str(exc)
            return result.labels, result.centroids

        expected = outcome(kmeans_oracle)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hpp, "_BOUNDED_MIN_ENTRIES", 0)
            assert outcome(kmeans) == expected

    @pytest.mark.parametrize("exponent", [0, 20])
    @pytest.mark.parametrize("seed", [6, 9, 11])
    def test_tie_that_flips_in_a_bounded_round(self, exponent, seed):
        # Node p sits on the perpendicular bisector of the two seeds a and b
        # (these kmeans seeds pick a copy of a first, then of b), so the tie
        # gives it label 0. Node q on the far side of a then pulls centroid 0
        # away from p by 2^-24 / 22 per coordinate while centroid 1 stays,
        # and p must move to label 1 in the first bounded round, although
        # every centroid moved by less than 2^-27 s. Scaling by 2^20 is
        # exact; smaller scales stop at the absolute KMEANS_TOL first.
        h = 2.0**-24
        a, b, p, q = (0.5, 0.5), (0.5 + 2 * h, 0.5), (0.5 + h, 0.5 + h), (0.5 - 2 * h, 0.5 - 2 * h)
        xy = [a] * 20 + [b] * 20 + [p, q]
        pts = [Point(math.ldexp(x, exponent), math.ldexp(y, exponent)) for x, y in xy]
        expected = kmeans_oracle(pts, 2, seed)
        assert expected.labels[0] == 0 and expected.labels[40] == expected.labels[20] == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hpp, "_BOUNDED_MIN_ENTRIES", 0)
            assert kmeans(pts, 2, seed) == expected

    @pytest.mark.parametrize("n, seed", [(2000, 21), (2000, 22), (2000, 23), (5000, 21), (5000, 22)])
    def test_matches_oracle_at_farm_scale(self, n, seed):
        nodes = generate(n, seed).nodes
        assert kmeans(nodes, 20, seed=seed) == kmeans_oracle(nodes, 20, seed=seed)

    @pytest.fixture
    def full_tables(self, monkeypatch) -> list[tuple]:
        """The arguments of every ``hpp._assign_labels`` call: one per full
        (k, n) table that k-means builds."""
        full_table = hpp._assign_labels
        calls = []

        def counted(*args):
            calls.append(args)
            return full_table(*args)

        monkeypatch.setattr(hpp, "_assign_labels", counted)
        return calls

    @pytest.mark.parametrize("cap", [2, 5])
    def test_iteration_cap_after_bounded_rounds(self, monkeypatch, full_tables, cap):
        # The round at the cap is a bounded round too: only the first round
        # builds the full (k, n) table.
        monkeypatch.setattr(hpp, "KMEANS_MAX_ITER", cap)
        monkeypatch.setattr(_oracles, "KMEANS_MAX_ITER", cap)
        nodes = generate(2000, 24).nodes
        assert kmeans(nodes, 20, seed=0) == kmeans_oracle(nodes, 20, seed=0)
        assert len(full_tables) == 1

    @pytest.mark.parametrize("seed", [1001, 1002, 1003])
    def test_full_tables_at_most_twice(self, full_tables, seed):
        # The first round builds the full (k, n) table, and so may one round
        # that leaves a cluster empty; every other round recomputes only the
        # points its bounds cannot settle.
        kmeans(generate(2000, seed).nodes, 20, seed=0)
        assert 1 <= len(full_tables) <= 2


@pytest.mark.parametrize(
    "labels, k, message",
    [
        ((), 0, "need at least one centroid"),
        ((0, 2, 1), 2, "label 2 out of range for k=2"),
        ((0, -1), 2, "label -1 out of range for k=2"),
        ((0, 0, 2), 3, "every cluster must be non-empty"),
    ],
    ids=["no-centroid", "label-too-large", "negative-label", "empty-cluster"],
)
def test_cluster_assignment_rejects_invalid_labels(labels, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ClusterAssignment(labels=labels, centroids=(Point(0, 0),) * k)


class TestRepairClusters:
    def test_valid_assignment_is_identity(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(5, 5), Point(6, 5), Point(5, 6)]
        assign = ClusterAssignment(
            labels=(0, 0, 0, 1, 1, 1),
            centroids=(Point(1 / 3, 1 / 3), Point(16 / 3, 16 / 3)),
        )
        assert repair_clusters(assign, pts).labels == assign.labels

    def test_small_cluster_absorbs_until_valid(self):
        # k-means on this layout gives a 1-2 node cluster around the outlier.
        pts = [Point(float(x), float(y)) for x in range(3) for y in range(3)] + [Point(10, 10)]
        assign = kmeans(pts, 2, seed=0)
        repaired = repair_clusters(assign, pts)
        for c in range(2):
            members = [pts[i] for i in repaired.members(c)]
            assert len(members) >= 3
            convex_hull(members)  # non-collinear

    def test_collinear_cluster_repaired_by_greedy_replay(self):
        # Cluster 1 holds two collinear nodes; replay the documented greedy rule.
        pts = [
            Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1), Point(2, 0),
            Point(10, 0), Point(11, 0),
        ]
        assign = ClusterAssignment(
            labels=(0, 0, 0, 0, 0, 1, 1),
            centroids=(Point(0.8, 0.4), Point(10.5, 0.0)),
        )
        repaired = repair_clusters(assign, pts)
        for c in range(2):
            members = [pts[i] for i in repaired.members(c)]
            assert len(members) >= 3
            convex_hull(members)
        # Greedy replay: the invalid cluster pulls the nearest donor node whose
        # removal keeps the donor valid, recomputing its centroid each step.
        labels = list(assign.labels)
        while True:
            groups = {c: [i for i, l in enumerate(labels) if l == c] for c in (0, 1)}
            bad = None
            for c in (0, 1):
                members = [pts[i] for i in groups[c]]
                if len(members) < 3:
                    bad = c
                    break
                try:
                    convex_hull(members)
                except Exception:
                    bad = c
                    break
            if bad is None:
                break
            target_ids = groups[bad]
            cx = sum(pts[i].x for i in target_ids) / len(target_ids)
            cy = sum(pts[i].y for i in target_ids) / len(target_ids)
            donor = 1 - bad
            safe = []
            for i in groups[donor]:
                rest = [pts[m] for m in groups[donor] if m != i]
                ok = len(rest) >= 3
                if ok:
                    try:
                        convex_hull(rest)
                    except Exception:
                        ok = False
                if ok:
                    safe.append(i)
            pool = safe or groups[donor]
            moved = min(pool, key=lambda i: (math.hypot(pts[i].x - cx, pts[i].y - cy), i))
            labels[moved] = bad
        assert tuple(labels) == repaired.labels

    def test_near_collinear_cluster_is_repaired_before_its_hull(self):
        # Cluster 0 lies within EPS of one line by the hull's test; repair must
        # treat it as invalid, or routing it raises DegenerateInput.
        pts = [
            Point(0.3, 0.5), Point(0.3005, 0.5 + 4e-10), Point(0.9, 0.5), Point(0.1, 0.5 + 2e-10),
            Point(5, 5), Point(6, 5), Point(5, 6), Point(6, 6), Point(5.5, 7),
        ]
        assign = ClusterAssignment(
            labels=(0, 0, 0, 0, 1, 1, 1, 1, 1),
            centroids=(Point(0.4, 0.5), Point(5.5, 5.8)),
        )
        repaired = repair_clusters(assign, pts)
        assert repaired.labels != assign.labels
        for c in range(2):
            convex_hull([pts[i] for i in repaired.members(c)])

    @pytest.mark.parametrize("n", [6, 8], ids=["fewer-nodes", "extra-nodes"])
    def test_node_count_must_match_labels(self, n):
        # Seven labels: six nodes are still enough for k = 2 clusters of 3,
        # and an eighth node has no label.
        assign = ClusterAssignment(
            labels=(0, 0, 0, 1, 1, 1, 1), centroids=(Point(1.0, 0.0), Point(1.5, 1.0))
        )
        with pytest.raises(ValueError, match=f"^{n} nodes for 7 labels$"):
            repair_clusters(assign, grid_points(4, 2)[:n])

    def test_too_few_nodes_raises(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1), Point(2, 2)]
        assign = kmeans(pts, 2, seed=0)
        with pytest.raises(RepairImpossible):
            repair_clusters(assign, pts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["few-positions", "collinear-bands", "far-duplicates", "near-line"]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        extra=st.integers(-1, 30),
    )
    def test_matches_oracle(self, family, seed, k, extra):
        # Random labels, every cluster non-empty, on degenerate point sets:
        # the same labels, centroids and error texts as repair_oracle.
        rng = np.random.default_rng(seed)
        n = hpp.MIN_CLUSTER_SIZE * k + extra
        xy = rng.random((n, 2))
        if family == "few-positions":
            spots = rng.random((int(rng.integers(1, 5)), 2))
            xy = spots[rng.integers(len(spots), size=n)]
        elif family == "collinear-bands":
            xy[:, 1] = 0.25 * rng.integers(1, 4, size=n)
            xy[:, 0] = np.round(xy[:, 0] * 8) / 8
        elif family == "far-duplicates":
            xy[rng.random(n) < 0.3] = (3.0, 3.0)
        else:
            xy[:, 1] = 0.5 + rng.uniform(-1e-10, 1e-10, size=n)
            xy[rng.random(n) < 0.1, 1] += 0.2
        pts = [Point(float(x), float(y)) for x, y in xy]
        labels = rng.permutation(np.r_[np.arange(k), rng.integers(k, size=n - k)])
        assign = ClusterAssignment(
            labels=tuple(int(c) for c in labels), centroids=(Point(0, 0),) * k
        )

        def outcome(repair):
            try:
                result = repair(assign, pts)
            except RepairImpossible as exc:
                return str(exc)
            return result.labels, result.centroids

        assert outcome(repair_clusters) == outcome(repair_oracle)

    def test_hull_count_per_move_is_bounded_by_k(self, monkeypatch):
        # k-means puts the far copies in a cluster of one position; each move
        # may build hulls for the clusters it changes and for the donor it
        # draws from, not one per donor member.
        k = 5
        pts = list(generate(200, 1000).nodes)
        pts += [Point(3.0, 3.0)] * 12
        assign = kmeans(pts, k, seed=0)
        rings = count_rings(monkeypatch)
        repaired = repair_clusters(assign, pts)
        moves = sum(a != b for a, b in zip(assign.labels, repaired.labels))
        assert moves >= 1
        assert sum(rings) <= 2 * k * moves

    def test_hull_count_per_move_on_copies_is_bounded(self, monkeypatch):
        # Every cluster and every donor is invalid: 120 copies of each of four
        # positions. Repair builds k hulls first, and a step builds one per
        # (donor, position) it tries and two for the clusters it changes;
        # copies move back and forth, about three steps per changed label.
        k, spots = 3, [(0.1, 0.2), (0.8, 0.3), (0.4, 0.9), (0.5, 0.5)]
        pts = [Point(x, y) for x, y in spots for _ in range(120)]
        labels = [c for c in (0, 1, 1, 2) for _ in range(120)]
        assign = ClusterAssignment(labels=tuple(labels), centroids=(Point(0, 0),) * k)
        rings = count_rings(monkeypatch)
        repaired = repair_clusters(assign, pts)
        moves = sum(a != b for a, b in zip(assign.labels, repaired.labels))
        assert moves >= 1
        assert sum(rings) <= 3 * (k + len(spots)) * moves


class TestSerpentineRoute:
    def test_single_lane(self):
        # Three collinear nodes in one lane: anchors are the endpoints and the
        # interior node follows in sweep order.
        sub = [Point(0, 0), Point(1, 0), Point(2, 0)]
        seq = serpentine_route(sub, Point(0, 0), Point(2, 0), 1.0)
        assert [sub[i] for i in seq] == [Point(0, 0), Point(1, 0), Point(2, 0)]
        assert path_length([sub[i] for i in seq]) == pytest.approx(2.0)

    def test_3x3_diagonal_matches_expected_sequence(self):
        order = serpentine_route(GRID_3X3, Point(0, 0), Point(2, 2), 1.0)
        seq = [GRID_3X3[i] for i in order]
        assert seq == [
            Point(0, 0), Point(1, 0), Point(2, 0),
            Point(2, 1), Point(1, 1), Point(0, 1),
            Point(0, 2), Point(1, 2), Point(2, 2),
        ]
        # Exhaustive 7!-order oracle with fixed endpoints.
        start = GRID_3X3.index(Point(0, 0))
        end = GRID_3X3.index(Point(2, 2))
        assert path_length(seq) == pytest.approx(8.0)
        assert path_length(seq) == pytest.approx(
            min_fixed_endpoint_path(GRID_3X3, start, end)
        )

    def test_2x2_diagonal_both_orders_enumerated(self):
        pts = grid_points(2, 2)
        order = serpentine_route(pts, Point(0, 0), Point(1, 1), 1.0)
        seq = [pts[i] for i in order]
        assert seq[0] == Point(0, 0) and seq[-1] == Point(1, 1)
        # Enumerating both interior orders: each has length 2 + sqrt(2).
        interior = [p for p in pts if p not in (Point(0, 0), Point(1, 1))]
        lengths = [
            path_length([Point(0, 0), a, b, Point(1, 1)])
            for a, b in itertools.permutations(interior)
        ]
        assert all(l == pytest.approx(2.0 + math.sqrt(2)) for l in lengths)
        assert path_length(seq) == pytest.approx(2.0 + math.sqrt(2))

    def test_covers_every_node_exactly_once(self):
        inst = generate(40, 8)
        pts = list(inst.nodes)
        hull = convex_hull(pts)
        for i, j in antipodal_pairs(hull):
            p, q = hull.vertices[i], hull.vertices[j]
            for start, end in ((p, q), (q, p)):
                order = serpentine_route(pts, start, end, inst.spacing)
                assert sorted(order) == list(range(len(pts)))


class TestRouteCluster:
    def test_three_nodes_equals_brute_force(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.4, 0.8)]
        depot = Point(0.5, -3.0)
        route = route_cluster(list(enumerate(pts)), depot, 1.0)
        best = min(
            tour_length(depot, [pts[i] for i in perm])
            for perm in itertools.permutations(range(3))
        )
        assert route.length == pytest.approx(best)
        # the nearer anchor hangs off the depot leg
        first = pts[route.node_order[0]]
        last = pts[route.node_order[-1]]
        assert distance(depot, first) <= distance(depot, last)

    def test_3x3_grid_close_to_hamiltonian_oracle(self):
        depot = Point(1.0, -5.0)
        route = route_cluster(list(enumerate(GRID_3X3)), depot, 1.0)
        oracle = min_depot_tour(depot, GRID_3X3)
        # anchors are an antipodal pair of the cluster hull
        hull = convex_hull(GRID_3X3)
        hull_pts = {(p.x, p.y) for p in hull.vertices}
        first = GRID_3X3[route.node_order[0]]
        last = GRID_3X3[route.node_order[-1]]
        assert (first.x, first.y) in hull_pts and (last.x, last.y) in hull_pts
        assert route.length <= 1.10 * oracle
        assert route.length == pytest.approx(
            tour_length(depot, [GRID_3X3[i] for i in route.node_order])
        )

    def test_convex_ring_self_consistent(self):
        ring = [
            Point(math.cos(math.pi * t / 3) + 2, math.sin(math.pi * t / 3) + 2)
            for t in range(6)
        ]
        depot = Point(0, 0)
        route = route_cluster(list(enumerate(ring)), depot, 1.0)
        assert sorted(route.node_order) == list(range(6))
        assert route.length == pytest.approx(
            tour_length(depot, [ring[i] for i in route.node_order])
        )


@pytest.mark.parametrize(
    "spacing", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_bad_spacing_or_pair_raises_value_error(spacing):
    pts = grid_points(2, 2)
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        serpentine_route(pts, pts[0], pts[3], spacing)
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        route_cluster(list(enumerate(pts)), Point(0, -1), spacing)


@pytest.mark.parametrize(
    "coords, corners",
    [
        ([(0, 0), (1, 1), (3, 3), (2, 2)], 2),
        ([(0, 0), (1, 0), (0, 0), (1, 0.0)], 2),
        ([(0.5, 0.5)] * 3, 1),
    ],
    ids=["collinear", "two-distinct", "one-distinct"],
)
def test_route_cluster_raises_degenerate_input_on_no_polygon(coords, corners):
    pts = [Point(float(x), float(y)) for x, y in coords]
    message = f"need at least 3 distinct, non-collinear points, got {corners} hull corners"
    with pytest.raises(DegenerateInput) as hull_error:
        convex_hull(pts)
    assert str(hull_error.value) == message
    with pytest.raises(DegenerateInput) as route_error:
        route_cluster(list(enumerate(pts)), Point(0, -1), 1.0)
    assert str(route_error.value) == message


@pytest.mark.parametrize("orientation", ["forward", "reverse"])
def test_anchor_outside_cluster_raises_value_error(orientation):
    pts = [pt for pt in grid_points(3, 3) if pt != Point(0.0, 0.0)]
    ends = (Point(0.0, 0.0), Point(2.0, 2.0))
    start, end = ends if orientation == "forward" else ends[::-1]
    with pytest.raises(ValueError, match="sweep start and end must be cluster nodes"):
        serpentine_route(pts, start, end, 1.0)


PITCH = 0.05


def oracle_cluster(family: str, seed: int, w: int, h: int) -> tuple[list[Point], Point, Point]:
    """A cluster from one input family, plus the centre and bottom-middle of its grid.

    ``lattice`` thins a w x h grid, ``jittered`` moves every node up to half a
    pitch per axis (so anchors quantize lanes differently), ``duplicates``
    repeats some nodes exactly, ``full-grid`` keeps the whole grid.
    """
    rng = np.random.default_rng(seed)
    x0, y0 = rng.uniform(-1.0, 1.0, 2)
    xy = np.array([(x0 + i * PITCH, y0 + j * PITCH) for j in range(h) for i in range(w)])
    centre = Point(float(x0 + (w - 1) * PITCH / 2), float(y0 + (h - 1) * PITCH / 2))
    below = Point(centre.x, float(y0 - 3 * PITCH))
    if family != "full-grid":
        xy = xy[rng.random(len(xy)) < 0.8]
    if family == "jittered":
        xy = xy + rng.uniform(-0.5, 0.5, xy.shape) * PITCH
    elif family == "duplicates" and len(xy):
        xy = rng.permutation(np.vstack([xy, xy[rng.integers(len(xy), size=len(xy) // 3 + 1)]]))
    return [Point(float(x), float(y)) for x, y in xy], centre, below


def sweep_points(family: str, seed: int, n: int) -> list[Point]:
    """n points: distinct lattice points, uniform off-lattice points, distinct
    lattice points on one line, or lattice points drawn with repeats (and
    signed zeros) from a 3 x 3 grid."""
    rng = np.random.default_rng(seed)
    if family == "lattice":
        cells = rng.choice(64, size=min(n, 64), replace=False)
        xy = np.stack([cells % 8, cells // 8], axis=1) * PITCH
    elif family == "off-lattice":
        xy = rng.random((n, 2))
    elif family == "collinear":
        steps = rng.choice(20, size=min(n, 20), replace=False)
        direction = [(1, 0), (0, 1), (1, 1), (2, -1)][rng.integers(4)]
        xy = steps[:, None] * np.array(direction) * PITCH
    else:
        xy = rng.integers(0, 3, size=(n, 2)) * PITCH
        zeros = xy == 0.0
        xy[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return [Point(float(x), float(y)) for x, y in xy]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["lattice", "off-lattice", "collinear", "duplicates"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    data=st.data(),
)
def test_serpentine_route_visits_every_position_from_start_to_end(family, seed, n, data):
    pts = sweep_points(family, seed, n)
    start = pts[data.draw(st.integers(0, len(pts) - 1), label="start")]
    with pytest.raises(ValueError, match="must be different points"):
        serpentine_route(pts, start, start, PITCH)
    outside = Point(max(pt.x for pt in pts) + 1.0, 0.0)
    for ends in ((outside, start), (start, outside)):
        with pytest.raises(ValueError, match="must be cluster nodes"):
            serpentine_route(pts, *ends, PITCH)
    others = [pt for pt in pts if pt != start]
    if not others:
        return
    end = data.draw(st.sampled_from(others), label="end")
    order = serpentine_route(pts, start, end, PITCH)
    assert sorted(order) == list(range(len(pts)))
    assert (order[0], order[-1]) == (pts.index(start), pts.index(end))


class TestRouteClusterMatchesOracle:
    """Lane-table scoring against sweeping every candidate from scratch."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["lattice", "jittered", "duplicates", "full-grid"]),
        seed=st.integers(0, 2**32 - 1),
        w=st.integers(2, 9),
        h=st.integers(2, 9),
        depot=st.one_of(
            st.sampled_from(["centre", "below"]),
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        ),
    )
    def test_same_route_and_bit_equal_length(self, family, seed, w, h, depot):
        pts, centre, below = oracle_cluster(family, seed, w, h)
        if len(hull_ring_oracle(pts)) < 3:
            return
        if depot == "centre":
            depot = centre
        elif depot == "below":
            depot = below
        else:
            depot = Point(*depot)
        ids = [int(i) for i in np.random.default_rng(seed).permutation(len(pts)) + 10]
        members = list(zip(ids, pts))

        route = route_cluster(members, depot, PITCH)
        order, length = route_cluster_oracle(members, depot, PITCH)
        assert route.node_order == order
        assert route.length.hex() == length.hex()

        hull = convex_hull(pts)
        for i, j in antipodal_pairs(hull):
            p, q = hull.vertices[i], hull.vertices[j]
            for orientation, (start, end) in (("forward", (p, q)), ("reverse", (q, p))):
                want = serpentine_oracle(pts, hull, (i, j), orientation, PITCH)
                assert serpentine_route(pts, start, end, PITCH) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spacing", [1e-20, 1e-300])
    def test_lane_keys_beyond_int64(self, spacing):
        # offsets of up to ~1 are far more than 2^63 spacings: keys stay floats
        inst = generate(200, 1)
        assign = repair_clusters(kmeans(inst.nodes, 5, seed=0), inst.nodes)
        for c in range(5):
            members = [(i, inst.nodes[i]) for i in assign.members(c)]
            route = route_cluster(members, inst.depot, spacing)
            order, length = route_cluster_oracle(members, inst.depot, spacing)
            assert route.node_order == order
            assert route.length.hex() == length.hex()


def count_calls(monkeypatch, owners: dict[str, object]) -> dict[str, int]:
    """Calls, from now on, of each attribute ``owners`` names (the text after
    the last dot of its key) on its owner, counted in the returned dict."""
    calls = dict.fromkeys(owners, 0)
    for key, owner in owners.items():
        name = key.rpartition(".")[2]
        real = getattr(owner, name)

        def counted(*args, _key=key, _real=real):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def count_rings(monkeypatch) -> list[int]:
    """From now on, one entry per batched hull-ring call: the number of
    cluster rings it builds. The one-cluster ``_hull_ring`` goes through
    ``geometry._hull_rings`` too, so every ring built is counted."""
    built: list[int] = []
    real = geometry._hull_rings

    def counted(xs, ys, labels, k):
        built.append(k)
        return real(xs, ys, labels, k)

    monkeypatch.setattr(geometry, "_hull_rings", counted)
    monkeypatch.setattr(hpp, "_hull_rings", counted)
    return built


def batch(clusters: list[list[Point]], seed: int = 0) -> tuple[list[Point], np.ndarray]:
    """The clusters' nodes in a shuffled order, and the cluster of each."""
    labels = np.repeat(np.arange(len(clusters)), [len(pts) for pts in clusters])
    order = np.random.default_rng(seed).permutation(len(labels))
    nodes = [pt for pts in clusters for pt in pts]
    return [nodes[t] for t in order], labels[order]


def apart(clusters: list[list[Point]]) -> list[list[Point]]:
    """``oracle_cluster`` clusters moved 3 units apart in x, so no two overlap."""
    return [[Point(pt.x + 3.0 * c, pt.y) for pt in pts] for c, pts in enumerate(clusters)]


def assert_table_lengths_near_exact(clusters: list[list[Point]], spacing: float) -> None:
    """Every candidate's row and column table lengths are within 1e-10
    (relative beyond 1) of the exact length of the sweep that table builds,
    for clusters whose tables are built and scored together: each reads its
    lanes out of sums that run over the whole batch.

    route_cluster re-scores only candidates whose table score is within
    NEAR_BEST of the best, which picks the exhaustive route only while table
    and exact lengths differ by rounding.
    """
    nodes, labels = batch(clusters)
    xy = hpp._coordinate_rows(nodes)
    rings = hpp._repair(xy, labels, len(clusters))
    tables, start, end, _ = hpp._candidates(xy, labels, len(clusters), rings, spacing)
    for axis, lengths in enumerate(tables.lengths(start, end).tolist()):
        for i, j, table_length in zip(start.tolist(), end.tolist(), lengths):
            order = tables.sweep(axis, i, j)
            exact = _left_sum(distance(nodes[a], nodes[b]) for a, b in zip(order, order[1:]))
            assert abs(table_length - exact) <= 1e-10 * max(1.0, exact)


CLUSTER = st.tuples(
    st.sampled_from(["lattice", "jittered", "duplicates", "full-grid"]),
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.integers(2, 9),
)


def polygons(params) -> list[list[Point]]:
    """The ``oracle_cluster``s of ``params`` that span a polygon, moved apart."""
    clusters = apart([oracle_cluster(*p)[0] for p in params])
    return [pts for pts in clusters if len(hull_ring_oracle(pts)) >= 3]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(params=st.lists(CLUSTER, min_size=1, max_size=4), spacing=st.sampled_from([PITCH, 1e-300]))
def test_table_length_within_rounding_of_exact(params, spacing):
    clusters = polygons(params)
    if clusters:
        assert_table_lengths_near_exact(clusters, spacing)


def test_table_length_with_tied_lane_members():
    # (1, 0) and (1, 0.25) share a row lane and an x, and so do (0, 0) and
    # (0, 0.25): the rest of the lane reversed is not the sorted anchor run
    # from (2, 0), and its length differs by about 0.28. A lattice cluster
    # is routed beside it.
    coords = [(0, 0), (1, 0), (1, 0.25), (2, 0), (0, 0.25), (0, 1), (2, 1), (1, 1)]
    tied = [Point(float(x), float(y)) for x, y in coords]
    assert_table_lengths_near_exact([grid_points(3, 2), tied], 1.0)
    assert_table_lengths_near_exact([tied], 1.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    params=st.lists(CLUSTER, min_size=2, max_size=6),
    depot=st.tuples(st.floats(-3.0, 18.0), st.floats(-3.0, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
# the first cluster's rows fit in one lane for some anchor
@example(params=[("jittered", 6, 4, 2), ("lattice", 1, 3, 3)], depot=(0.0, -1.0), seed=0)
def test_clusters_routed_together_match_oracle(params, depot, seed):
    # One batch of lane tables for every cluster, jittered ones with several
    # tables per axis: each candidate's row and column sweeps are the sweeps
    # built from scratch for its cluster alone, and each cluster gets the
    # route that sweeping its every candidate from scratch gives.
    clusters = polygons(params)
    if len(clusters) < 2:
        return
    nodes, labels = batch(clusters, seed)
    members = [np.flatnonzero(labels == c).tolist() for c in range(len(clusters))]
    xy = hpp._coordinate_rows(nodes)
    rings = hpp._repair(xy, labels, len(clusters))
    tables, start, end, cluster = hpp._candidates(xy, labels, len(clusters), rings, PITCH)
    for i, j, c in zip(start.tolist(), end.tolist(), cluster.tolist()):
        pts = [nodes[t] for t in members[c]]
        corners = [tuple(tables.anchors[:, a].tolist()) for a in (i, j)]
        p, q = (next(t for t, pt in enumerate(pts) if (pt.x, pt.y) == at) for at in corners)
        for axis, stack in enumerate("yx"):
            want = [members[c][t] for t in lane_sweep_oracle(pts, p, q, PITCH, stack)]
            assert tables.sweep(axis, i, j) == want

    routes = hpp._route_clusters(xy, labels, len(clusters), rings, Point(*depot), PITCH)
    for route, ids in zip(routes, members):
        order, length = route_cluster_oracle([(i, nodes[i]) for i in ids], Point(*depot), PITCH)
        assert route.node_order == order
        assert route.length.hex() == length.hex()


# SHA-256 of the save_solution bytes of hpp_solve(k=5, seed=0) on generated
# instances. A different digest is a change to hpp's output, to be declared.
GOLDEN_SOLUTIONS = {
    (200, 42): "df4e6f83bcfbee5908a60f8abb6f55da14b65e8f71ba50ae5f43768e5eefa250",
    (200, 43): "82051e5779406e31af1146f3509938147470cff60bd464ba37510d268eb28672",
    (200, 44): "fb12a89dc7464058e552a9a03d908b68d56ec48a8a5ddd30f2957548a9a62d98",
    (700, 42): "c0db7a9c637d0cb1498a5be73d45dfdb7923e75feccd089d629486ecd74d95ae",
    (700, 43): "66959e4472f136916b18ce696a5df5b5a91c07872beea6c8835092ffd592713e",
    (700, 44): "eaf7829cee37d8792e3db3c7933d1dfe77d47fc0b6255a51efc96cc396c366f8",
}


@pytest.mark.parametrize(("n", "seed"), sorted(GOLDEN_SOLUTIONS))
def test_golden_solution_bytes(tmp_path, n, seed):
    inst = generate(n, seed)
    path = tmp_path / "sol.txt"
    save_solution(hpp_solve(inst, k=5, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SOLUTIONS[n, seed]


GOLDEN_LS_SOLUTIONS = {
    (200, 42): "23db497725d78e1585ef85896702a6467dadcd38f4a056cb68313dead08eb583",
    (200, 43): "c7bb0fd4d3333b2ea202c0a645fb813db775d4583795496a7eb02d1d4164aee6",
    (200, 44): "3fa4c5f082042138134b8cb3f44f20b658d8d418348b3814cf68a55fbe83fb08",
    (700, 42): "c16514a9f9834d358ebdfc764267fe4cf47a58a21fedfa0cd5f6cf1f7b86f612",
    (700, 43): "219a85fcb80134a1e0639c8425597c0676fb2ebfb80878897e1208e5cbab8004",
    (700, 44): "64e4beb20ee0d71671db8d004afcdfb4b5a54333e80c482069cf08f7162328a3",
}


@pytest.mark.parametrize(("n", "seed"), sorted(GOLDEN_LS_SOLUTIONS))
def test_golden_ls_solution_bytes(tmp_path, n, seed):
    inst = generate(n, seed)
    path = tmp_path / "sol.txt"
    save_solution(minmax_local_search(inst, k=5, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_LS_SOLUTIONS[n, seed]


class TestHppSolve:
    def test_separated_triangles_one_route_each(self):
        centers = [(0, 0), (50, 0), (0, 50), (50, 50)]
        pts = []
        for cx, cy in centers:
            pts += [Point(cx, cy), Point(cx + 1, cy), Point(cx, cy + 1)]
        from pondroute.geometry import Point as P
        from pondroute.instances import FarmInstance
        from pondroute.geometry import convex_hull as ch

        poly = ch([P(-5, -5), P(60, -5), P(60, 60), P(-5, 60)])
        inst = FarmInstance("tri", 0, poly, 1.0, P(-5, -5), P(25, -5), xy_rows(pts))
        sol = hpp_solve(inst, k=4, seed=0)
        groups = {frozenset(r.node_order) for r in sol.routes}
        assert groups == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5}),
            frozenset({6, 7, 8}), frozenset({9, 10, 11}),
        }

    def test_8_nodes_within_2x_of_exact(self):
        from pondroute.baseline import exact_minmax

        inst = generate(8, 0)
        sol = hpp_solve(inst, k=2, seed=0)
        exact = exact_minmax(inst, k=2)
        assert exact.max_length() <= sol.max_length() + 1e-9
        assert sol.max_length() <= 2.0 * exact.max_length()

    def test_partition_property(self):
        inst = generate(120, 4)
        sol = hpp_solve(inst, k=5, seed=0)
        seen = sorted(i for r in sol.routes for i in r.node_order)
        assert seen == list(range(120))

    def test_anchor_property(self):
        inst = generate(90, 6)
        sol = hpp_solve(inst, k=4, seed=1)
        from pondroute.geometry import antipodal_pairs

        for route in sol.routes:
            pts = [inst.nodes[i] for i in route.node_order]
            hull = convex_hull(pts)
            verts = {(p.x, p.y): i for i, p in enumerate(hull.vertices)}
            first = inst.nodes[route.node_order[0]]
            last = inst.nodes[route.node_order[-1]]
            assert (first.x, first.y) in verts and (last.x, last.y) in verts
            i, j = verts[(first.x, first.y)], verts[(last.x, last.y)]
            pairs = set(antipodal_pairs(hull))
            assert (min(i, j), max(i, j)) in pairs

    def test_length_audit(self):
        inst = generate(75, 10)
        sol = hpp_solve(inst, k=3, seed=2)
        for route in sol.routes:
            recomputed = tour_length(inst.depot, [inst.nodes[i] for i in route.node_order])
            assert abs(recomputed - route.length) <= 1e-9 * max(1.0, route.length)

    def test_determinism_byte_identical(self, tmp_path):
        inst = generate(60, 3)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_solution(hpp_solve(inst, k=4, seed=7), a)
        save_solution(hpp_solve(inst, k=4, seed=7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_k(self):
        inst = generate(12, 0)
        with pytest.raises(InvalidK):
            hpp_solve(inst, k=5, seed=0)
        with pytest.raises(InvalidK):
            hpp_solve(inst, k=0, seed=0)
        sol = hpp_solve(inst, k=4, seed=0)
        assert sol.k == 4

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_invalid_k_below_three_nodes(self, tmp_path, n):
        inst = generate(12, 0)
        save(dataclasses.replace(inst, xy=inst.xy[:, :n]), tmp_path / "small.txt")
        inst = load(tmp_path / "small.txt")
        assert len(inst.nodes) == n
        for k in (0, 1):
            with pytest.raises(InvalidK) as info:
                hpp_solve(inst, k=k, seed=0)
            assert str(info.value) == f"k={k} is infeasible: {n} nodes support no route of 3+ nodes"

    def test_one_hull_per_cluster(self, monkeypatch):
        # Valid k-means clusters are routed as they are: each cluster's hull
        # is the only validity check, and repair moves nothing. The solve
        # reads the coordinates into one array and keeps hull corners as
        # node indices into it, so it builds no Point and no ConvexPolygon and
        # hashes no Point to find the corners.
        inst = generate(300, 42)
        k = 5
        rings = count_rings(monkeypatch)
        calls = count_calls(monkeypatch, {
            "_caliper_pairs": hpp,
            "repair_clusters": hpp,
            "__hash__": Point,
            "__post_init__": Point,
            "ConvexPolygon.__post_init__": ConvexPolygon,
        })
        hpp_solve(inst, k=k, seed=0)
        assert sum(rings) == k
        # one batched call builds every ring, and one finds every ring's pairs
        assert len(rings) == 1 and calls["_caliper_pairs"] == 1
        assert calls == {
            "_caliper_pairs": 1,
            "repair_clusters": 0,
            "__hash__": 0,
            "__post_init__": 0,
            "ConvexPolygon.__post_init__": 0,
        }

    def test_repair_rebuilds_only_the_hulls_it_changes(self, monkeypatch):
        # k-means puts the far copies in a cluster of one position. Repair
        # keeps the k hulls it checks and rebuilds a hull only for a donor
        # position it tries and for the two clusters of each move, all on the
        # solve's coordinate array: k + 2 per move + 1 per donor position.
        inst = generate(2000, 1000)
        inst = dataclasses.replace(inst, xy=np.append(inst.xy, np.full((2, 12), 3.0), axis=1))
        k = 20
        rings = count_rings(monkeypatch)
        calls = count_calls(monkeypatch, {
            "__post_init__": Point,
            "ClusterAssignment.__post_init__": ClusterAssignment,
        })
        hpp_solve(inst, k=k, seed=0)
        assert sum(rings) == 26
        assert calls == {
            "__post_init__": 0,
            "ClusterAssignment.__post_init__": 0,
        }

    def test_scoring_sorts_no_anchor_lane_and_rescores_one_axis(self, monkeypatch):
        # Candidates are scored from the tables' sums, and on this lattice
        # instance no anchor lane is sorted, neither while scoring nor while
        # an exact re-score builds a sweep. That re-score builds both axes
        # only when their table lengths are within its cluster's slack of
        # each other.
        inst = generate(300, 42)
        batches = []  # per _candidates call: tables, candidates and their clusters
        scores = []  # per lengths call: the table lengths
        built = []  # (start, end, axis) per sweep built
        sorted_runs = 0

        def wrap(owner, name, wrapper):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: wrapper(real, *args))

        def candidates(real, *args):
            batches.append(real(*args))
            return batches[-1]

        def lengths(real, tables, start, end):
            scores.append(real(tables, start, end))
            return scores[-1]

        def sweep(real, tables, axis, start, end):
            built.append((start, end, axis))
            return real(tables, axis, start, end)

        def anchor_lanes(real, tables, anchor, *args):
            nonlocal sorted_runs
            sorted_runs += len(anchor)
            return real(tables, anchor, *args)

        wrap(hpp, "_candidates", candidates)
        wrap(hpp._LaneTables, "lengths", lengths)
        wrap(hpp._LaneTables, "sweep", sweep)
        wrap(hpp._LaneTables, "_anchor_lanes", anchor_lanes)
        hpp_solve(inst, k=5, seed=0)

        [(tables, start, end, cluster)] = batches
        [(rows, cols)] = scores
        assert sorted(set(cluster.tolist())) == list(range(5))
        assert sorted_runs == 0
        legs = [distance(inst.depot, Point(x, y)) for x, y in tables.anchors.T.tolist()]
        low = [math.inf] * 5
        for c, i, j, r, w in zip(cluster, start, end, rows, cols):
            low[c] = min(low[c], legs[i] + min(r, w) + legs[j])
        candidate = {(i, j): x for x, (i, j) in enumerate(zip(start.tolist(), end.tolist()))}
        one_axis = 0
        for (i, j), group in itertools.groupby(built, key=lambda b: b[:2]):
            x = candidate[i, j]
            slack = hpp.NEAR_BEST * max(1.0, low[cluster[x]])
            if cols[x] > rows[x] + slack:
                expected = [0]
            elif rows[x] > cols[x] + slack:
                expected = [1]
            else:
                expected = [0, 1]
            axes = [axis for _, _, axis in group]
            assert axes == expected
            one_axis += len(axes) == 1
        assert one_axis > 0


def _fallback_instance(family: str, seed: int, k: int, extra: int) -> FarmInstance:
    """Degenerate nodes from the families of TestRepairClusters::test_matches_oracle;
    ``far-copies`` is a generated instance plus 12 copies of one far point."""
    if family == "far-copies":
        inst = generate(200, seed)
        return dataclasses.replace(inst, xy=np.append(inst.xy, np.full((2, 12), 3.0), axis=1))
    rng = np.random.default_rng(seed)
    n = hpp.MIN_CLUSTER_SIZE * k + extra
    xy = rng.random((n, 2))
    if family == "few-positions":
        spots = rng.random((int(rng.integers(1, 5)), 2))
        xy = spots[rng.integers(len(spots), size=n)]
    elif family == "collinear-bands":
        xy[:, 1] = 0.25 * rng.integers(1, 4, size=n)
        xy[:, 0] = np.round(xy[:, 0] * 8) / 8
    else:
        xy[rng.random(n) < 0.3] = (3.0, 3.0)
    square = convex_hull([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    return FarmInstance("fallback", seed, square, 0.125, Point(0, 0), Point(0.5, 0), xy.T)


def test_fallback_matches_repair_first_pipeline(monkeypatch):
    """hpp_solve gives the same file, or the same error, as repairing every
    k-means assignment before routing it, and some examples route repaired
    clusters."""
    repair = hpp._repair
    moved = []  # per returning _repair call: whether it changed a label

    def counted(xy, labels, k):
        before = labels.copy()
        rings = repair(xy, labels, k)
        moved.append(bool((labels != before).any()))
        return rings

    monkeypatch.setattr(hpp, "_repair", counted)
    repaired_solves = []

    def outcome(solve, tmp: Path):
        try:
            save_solution(solve(), tmp / "sol.txt")
        except Exception as exc:
            return type(exc), str(exc)
        return (tmp / "sol.txt").read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["few-positions", "collinear-bands", "far-duplicates"]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        extra=st.integers(0, 30),
    )
    @example(family="far-copies", seed=1000, k=5, extra=0)
    def check(family, seed, k, extra):
        inst = _fallback_instance(family, seed, k, extra)

        def repair_first():
            assign = repair_clusters(kmeans(inst.nodes, k, 0), inst.nodes)
            routes = tuple(
                route_cluster(
                    [(i, inst.nodes[i]) for i in assign.members(c)], inst.depot, inst.spacing
                )
                for c in range(k)
            )
            return Solution(instance_ref=inst.name, algorithm="hpp", seed=0, routes=routes)

        with tempfile.TemporaryDirectory() as tmp:
            expected = outcome(repair_first, Path(tmp))
            moved.clear()
            assert outcome(lambda: hpp_solve(inst, k=k, seed=0), Path(tmp)) == expected
            repaired_solves.append(any(moved))

    check()
    assert sum(repaired_solves) >= 10


@pytest.mark.parametrize("spacing", [0.0, math.nan])
def test_spacing_is_checked_before_repair(spacing):
    # Two positions, one k-means cluster each: no cluster can ever span a
    # polygon, so repair raises. A bad spacing is reported first.
    square = convex_hull([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    nodes = (Point(0.25, 0.5), Point(0.75, 0.5)) * 6
    inst = FarmInstance("two-spots", 0, square, 0.125, Point(0, 0), Point(0.5, 0), xy_rows(nodes))
    with pytest.raises(RepairImpossible):
        hpp_solve(inst, k=2, seed=0)
    inst = dataclasses.replace(inst, spacing=spacing)
    with pytest.raises(ValueError, match="^spacing must be positive and finite$"):
        hpp_solve(inst, k=2, seed=0)


# Few distinct positions, on and off the 1/8 lattice, so that duplicates and
# collinear clusters are common.
_POSITION = st.tuples(
    *[st.one_of(st.integers(1, 7).map(lambda v: v / 8), st.floats(0.05, 0.95))] * 2
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    positions=st.lists(_POSITION, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=3, max_size=12),
    k=st.integers(1, 4),
)
@example(positions=[(0.5, 0.5)], picks=[0] * 6, k=2)
@example(positions=[(0.25, 0.5), (0.75, 0.5)], picks=[0, 1] * 6, k=3)
def test_duplicate_nodes_keep_error_contract(positions, picks, k):
    """On a loadable instance whose nodes repeat a few positions, every solver
    returns a partition ``score`` accepts or raises its documented error."""
    square = convex_hull([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    nodes = tuple(Point(*positions[i % len(positions)]) for i in picks)
    inst = FarmInstance("dup", 0, square, 0.125, Point(0, 0), Point(0.5, 0), xy_rows(nodes))
    with tempfile.TemporaryDirectory() as tmp:
        save(inst, Path(tmp) / "dup.txt")
        inst = load(Path(tmp) / "dup.txt")
    for algorithm in ALGORITHMS:
        try:
            sol = solve_with(algorithm, inst, k=k, seed=0)
        except (InvalidK, RepairImpossible, TooLarge):
            continue
        assert sol.k == k
        score(inst, sol)


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        inst = generate(40, 5)
        sol = hpp_solve(inst, k=3, seed=1)
        path = tmp_path / "s.txt"
        save_solution(sol, path)
        assert load_solution(path) == sol

    def test_total_adds_route_lengths_left_to_right(self, tmp_path):
        # 1e16 + 1 rounds back to 1e16 (ties to even), so the total is 1e16 on
        # every Python version; a compensated sum would give 1e16 + 2.
        lengths = (1e16, 1.0, 1.0)
        sol = Solution(
            instance_ref="x", algorithm="hpp", seed=0,
            routes=tuple(Route(node_order=(i,), length=x) for i, x in enumerate(lengths)),
        )
        assert sol.total_length() == 1e16
        assert InstanceMetrics(lengths).total_distance == 1e16
        save_solution(sol, tmp_path / "s.txt")
        assert "\ntotal: 10000000000000000\n" in (tmp_path / "s.txt").read_text()

    def test_route_invariants_enforced(self):
        with pytest.raises(ValueError):
            Route(node_order=(), length=1.0)
        with pytest.raises(ValueError):
            Solution(instance_ref="x", algorithm="hpp", seed=0, routes=())

    def test_malformed_solution(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("farm-solution v1\ninstance: x\n")
        with pytest.raises(FormatError):
            load_solution(path)

    @pytest.mark.parametrize(
        ("old", "new", "line"),
        [
            ("k: 3", "k: 2", 8),  # k differs from the route count
            ("k: 3", "k: 0", 4),
            ("routes: 3", "routes: -1", 8),
            ("route 1: length ", "route 1: length -", 10),
            ("route 1: length ", "route 1: length nan", 10),
        ],
        ids=["k-mismatch", "k-zero", "negative-route-count", "negative-length", "nan-length"],
    )
    def test_malformed_field_is_format_error(self, tmp_path, old, new, line):
        inst = generate(40, 5)
        path = tmp_path / "s.txt"
        save_solution(hpp_solve(inst, k=3, seed=1), path)
        text = path.read_text()
        if new.endswith("nan"):
            start = text.index(old)
            text = text[:start] + new + text[text.index(" nodes ", start):]
        else:
            text = text.replace(old, new, 1)
        path.write_text(text)
        with pytest.raises(FormatError, match=re.escape(f"{path}: line {line}: ")):
            load_solution(path)

    def test_trailing_content_rejected(self, tmp_path):
        inst = generate(40, 5)
        path = tmp_path / "s.txt"
        save_solution(hpp_solve(inst, k=3, seed=1), path)
        path.write_text(path.read_text() + "\nroute 3: length 0 nodes 0\n")
        with pytest.raises(FormatError, match="line 13: trailing content"):
            load_solution(path)
