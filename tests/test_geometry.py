import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pondroute.geometry as geometry
from pondroute.geometry import (
    EPS,
    ConvexPolygon,
    DegenerateInput,
    Point,
    antipodal_pairs,
    contains,
    convex_hull,
)
from pondroute.hpp import kmeans
from pondroute.instances import generate

from _oracles import (
    antipodal_oracle_arcs,
    antipodal_oracle_sweep,
    caliper_walk_oracle,
    distance,
    hull_ring_oracle,
    hull_vertex_oracle,
    inside_oracle,
)

UNIT_SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
TRIANGLE = ConvexPolygon((Point(0, 0), Point(4, 0), Point(1, 3)))


def random_hull(rng: np.random.Generator, n_points: int) -> ConvexPolygon:
    pts = [Point(float(x), float(y)) for x, y in rng.random((n_points, 2))]
    return convex_hull(pts)


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)


class TestConvexPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 0)))

    def test_rejects_two_vertices(self):
        with pytest.raises(ValueError, match="^polygon needs at least 3 vertices$"):
            ConvexPolygon((Point(0, 0), Point(1, 0)))

    def test_rejects_collinear_triple(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)))


class TestConvexHull:
    def test_triangle_already_convex(self):
        hull = convex_hull([Point(0, 0), Point(2, 0), Point(1, 1)])
        assert hull.vertices == (Point(0, 0), Point(2, 0), Point(1, 1))

    def test_integer_coordinates_at_every_size(self):
        # Coordinates are read as floats, so a lattice of ints gives the hull
        # of the same lattice of floats, with float corners, at any size.
        lattice = [Point(i % 7, i // 7) for i in range(42)]
        for n in (10, 42):
            floats = [Point(float(p.x), float(p.y)) for p in lattice[:n]]
            ring = convex_hull(lattice[:n]).vertices
            assert ring == convex_hull(floats).vertices
            assert all(type(c) is float for p in ring for c in (p.x, p.y))

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([Point(0, 0), Point(1, 0), Point(2, 0)])

    def test_near_collinear_band_is_collinear(self):
        # Every chain point is within EPS of its neighbours' chord, although the
        # line through the first two points misses (0.9, 0.5) by 4.8e-7.
        pts = [
            Point(0.3, 0.5), Point(0.3005, 0.5 + 4e-10), Point(0.9, 0.5), Point(0.1, 0.5 + 2e-10),
        ]
        assert len(hull_ring_oracle(pts)) < 3
        with pytest.raises(DegenerateInput):
            convex_hull(pts)
        assert Point(0.5, 0.6) in convex_hull(pts + [Point(0.5, 0.6)]).vertices

    def test_too_few_distinct_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([Point(0, 0), Point(1, 1), Point(0, 0)])

    def test_duplicates_are_ignored(self):
        hull = convex_hull([Point(0, 0), Point(0, 0), Point(2, 0), Point(1, 1), Point(1, 1)])
        assert len(hull) == 3

    def test_canonical_start_and_orientation(self):
        hull = convex_hull([Point(3, 1), Point(0, 0), Point(2, 2), Point(2, -1)])
        assert hull.vertices[0] == Point(0, 0)
        assert hull.area() > 0  # CCW

    def test_30_random_points_match_membership_oracle(self):
        rng = np.random.default_rng(2024)
        pts = [Point(float(x), float(y)) for x, y in rng.random((30, 2))]
        hull = convex_hull(pts)
        assert {(v.x, v.y) for v in hull.vertices} == hull_vertex_oracle(pts)
        assert all(contains(hull, p) for p in pts)
        input_set = {(p.x, p.y) for p in pts}
        assert all((v.x, v.y) in input_set for v in hull.vertices)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False, width=32),
                st.floats(-10, 10, allow_nan=False, width=32),
            ),
            min_size=3,
            max_size=40,
        )
    )
    def test_idempotence_and_containment(self, raw):
        pts = [Point(float(x), float(y)) for x, y in raw]
        try:
            hull = convex_hull(pts)
        except DegenerateInput:
            return
        again = convex_hull(list(hull.vertices))
        assert again.vertices == hull.vertices
        assert all(contains(hull, p) for p in pts)

    def test_keeps_a_corner_beyond_its_neighbours_chord(self):
        # The upper chain reads the column x = -2.13e-17 top first: with
        # (0, -1) and (-2.13e-17, 1) on the chain, (-2.13e-17, 0) makes a
        # left turn of 2.1e-17, below EPS times the chord. The top lies
        # beyond that chord, so it stays; popped, it would lie 1 unit
        # outside the hull.
        x = -2.1305760520699788e-17
        pts = [Point(0.0, -1.0), Point(-1.0, 0.0), Point(x, 0.0), Point(x, 1.0)]
        hull = convex_hull(pts)
        assert all(contains(hull, p) for p in pts)


@pytest.mark.xfail(strict=True, reason="the chain's EPS test depends on the sweep's orientation")
def test_a_quarter_turn_keeps_the_hull_outcome():
    # (x, y) -> (-y, x) is exact, so the three points and their turn should
    # both span a hull or both raise; today the column of the first keeps a
    # sliver and the row of the second is collinear.
    s = 2.0**-57

    def outcome(pts: list[Point]) -> str:
        try:
            convex_hull(pts)
        except DegenerateInput:
            return "degenerate"
        return "hull"

    pts = [Point(0.0, 0.0), Point(0.0, 2.0), Point(s, 1.0)]
    assert outcome(pts) == outcome([Point(-p.y, p.x) for p in pts])


def hull_ring(points: list[Point]) -> tuple[list[tuple[float, float]], list[int]]:
    """``_hull_ring`` of the points: its corners' coordinates, and their
    positions in ``points``."""
    xs, ys = geometry._coordinate_rows(points)
    ring = geometry._hull_ring(xs, ys)
    return list(zip(xs[ring].tolist(), ys[ring].tolist())), ring


def ring_and_reads(points: list[Point]) -> tuple[list[tuple[float, float]], int]:
    """``_hull_ring`` of the points as coordinates, and how many points its
    two chains read."""
    reads: list[int] = []
    chain = geometry._chain

    def counted(xs, ys):
        reads.append(len(xs))
        return chain(xs, ys)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_chain", counted)
        ring, _ = hull_ring(points)
    return ring, sum(reads)


def bits(ring: list[tuple[float, float]]) -> list[tuple[str, str]]:
    """Coordinates as hex strings, so -0.0 and 0.0 differ."""
    return [(x.hex(), y.hex()) for x, y in ring]


def filter_margin(w: float, h: float) -> float:
    """The bound ``_hull_ring``'s docstring sets on gx * gy for extents w, h."""
    return EPS * math.hypot(w, h) * (1.0 + 2.0**-40) + 2.0**-48 * w * h + 2.0**-1070


def margin_points(scale: float, above: bool) -> list[Point]:
    """34 points in three columns, x = 0, gx and scale: the outer two at
    pitch scale / 8 in y, the middle one 16 points at pitch gy = scale / 256
    from scale / 2. gx * gy is 2^-20 above or below the filter margin."""
    gy = scale * 2.0**-8
    gx = filter_margin(scale, scale) / gy * (1.0 + (2.0**-20 if above else -(2.0**-20)))
    outer = [Point(x, scale * i / 8) for x in (0.0, scale) for i in range(9)]
    return outer + [Point(gx, scale / 2 + gy * k) for k in range(16)]


RING_FAMILIES = ["lattice", "jittered", "near-line", "duplicates", "margin"]
RING_SCALES = [-500, -30, 0, 30, 500]


def ring_points(family: str, rng: np.random.Generator, n: int, j: int) -> list[Point]:
    """Up to n points of the family, scaled by exactly 2^j."""
    if family == "margin":
        return margin_points(2.0**j, above=bool(rng.integers(2)))
    cols, rows = rng.integers(2, 14, size=2)
    grid = np.stack(np.meshgrid(np.arange(cols), np.arange(rows)), axis=-1).reshape(-1, 2) / 8
    xy = rng.permutation(grid)[:n]  # a lattice with random deletions
    if family == "jittered":
        xy = xy + (rng.random(xy.shape) < 0.3) * rng.normal(0.0, 2.0**-12, xy.shape)
    elif family == "near-line":  # a band about EPS wide around one line
        xy[:, 1] = 0.25 + rng.choice([0.0, 0.5, 3.0]) * xy[:, 0]
        xy[:, 1] += rng.integers(-2, 3, size=len(xy)) * 4e-10
    elif family == "duplicates":  # repeated positions, zeros of both signs
        xy = rng.choice([-0.25, -0.0, 0.0, 0.25, 0.5], size=(n, 2))
    return [Point(float(x) * 2.0**j, float(y) * 2.0**j) for x, y in xy]


class TestHullRing:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(RING_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 120),
    )
    # Small duplicate sets whose ring changes if another copy of a zero is kept.
    @example(family="duplicates", seed=207, n=12)
    @example(family="duplicates", seed=175, n=31)
    @example(family="duplicates", seed=241, n=32)
    def test_matches_unfiltered_chain(self, family, seed, n):
        # The same corners, in the same order and with the same zero signs,
        # as the chains over every distinct point, at every scale and size;
        # each at the position of the first point with its coordinates.
        rng = np.random.default_rng(seed)
        for j in RING_SCALES:
            pts = ring_points(family, rng, n, j)
            ring, positions = hull_ring(pts)
            assert bits(ring) == bits(hull_ring_oracle(pts)), j
            first: dict[tuple[float, float], int] = {}
            for i, p in enumerate(pts):
                first.setdefault((p.x, p.y), i)  # -0.0 and 0.0 are one key
            assert positions == [first[corner] for corner in ring], j

    @pytest.mark.parametrize("j", RING_SCALES)
    @pytest.mark.parametrize("above", [True, False])
    def test_margin_decides_the_path(self, j, above):
        # Just above the margin the chains read only the column ends; just
        # below it they read every point. At j < 0 no x gap can reach the
        # margin, so every set takes the full chains.
        pts = margin_points(2.0**j, above)
        ring, reads = ring_and_reads(pts)
        assert bits(ring) == bits(hull_ring_oracle(pts))
        filtered = reads < 2 * len(pts)
        assert filtered == (above and j >= 0)
        if filtered:
            assert reads == 8  # 3 column bottoms + the last top, 3 tops + the first bottom

    def test_chains_read_a_quarter_of_each_cluster(self):
        # On hpp's k-means clusters of generated farms, every column holds
        # several lattice points, and the chains skip all but its two ends.
        for seed in (1000, 1001, 1002):
            inst = generate(2000, seed)
            assign = kmeans(inst.nodes, 5, seed=0)
            for c in range(5):
                pts = [inst.nodes[i] for i in assign.members(c)]
                ring, reads = ring_and_reads(pts)
                assert ring == hull_ring_oracle(pts)
                assert reads <= 0.25 * len({(p.x, p.y) for p in pts}), (seed, c)


def labelled_clusters(
    rng: np.random.Generator, j: int, k: int
) -> tuple[list[Point], np.ndarray]:
    """k clusters of ``ring_points`` at scale 2^j, shuffled together, and the
    label of each point. Cluster 0 holds fewer than 3 distinct points, one
    of them a zero of each sign; cluster 1 holds a point of cluster 2 too,
    and every cluster gets (0.0, -0.0) or (-0.0, 0.0)."""
    s = 2.0**j
    clusters = [[Point(-0.0, s), Point(s, 0.0), Point(0.0, s)]]
    for _ in range(1, k):
        family = RING_FAMILIES[int(rng.integers(len(RING_FAMILIES)))]
        clusters.append(ring_points(family, rng, int(rng.integers(0, 50)), j))
    for c, pts in enumerate(clusters[1:], 1):
        pts.append(Point(0.0, -0.0) if c % 2 else Point(-0.0, 0.0))
    clusters[1].append(clusters[2][0])
    labels = np.repeat(np.arange(k), [len(pts) for pts in clusters])
    order = rng.permutation(len(labels))
    nodes = [pt for pts in clusters for pt in pts]
    return [nodes[t] for t in order], labels[order]


class TestHullRings:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        j=st.sampled_from(RING_SCALES),
        k=st.integers(3, 6),
    )
    def test_matches_oracle_cluster_by_cluster(self, seed, j, k):
        # One call over all clusters gives, for each, the corners of the
        # chains over its distinct points, zero signs included, each at the
        # node index of the cluster's first point with its coordinates.
        pts, labels = labelled_clusters(np.random.default_rng(seed), j, k)
        xs, ys = geometry._coordinate_rows(pts)
        rings = geometry._hull_rings(xs, ys, labels, k)
        assert len(rings) == k
        for c, ring in enumerate(rings):
            ids = np.flatnonzero(labels == c).tolist()
            want = hull_ring_oracle([pts[i] for i in ids])
            assert bits([(pts[i].x, pts[i].y) for i in ring]) == bits(want), c
            first: dict[tuple[float, float], int] = {}
            for i in ids:
                first.setdefault((pts[i].x, pts[i].y), i)
            assert ring == [first[corner] for corner in want], c
        assert len(rings[0]) < 3

    @pytest.mark.parametrize("j", [0, 30, 500])
    @pytest.mark.parametrize("above_first", [True, False])
    def test_margin_decides_per_cluster(self, j, above_first):
        # One call over two clusters at one scale: the one just above the
        # margin reads only its column ends, the one just below it every
        # point.
        above, below = margin_points(2.0**j, True), margin_points(2.0**j, False)
        clusters = [above, below] if above_first else [below, above]
        pts = clusters[0] + clusters[1]
        labels = np.repeat([0, 1], [len(clusters[0]), len(clusters[1])])
        reads: list[int] = []
        chain = geometry._chain

        def counted(xs, ys):
            reads.append(len(xs))
            return chain(xs, ys)

        xs, ys = geometry._coordinate_rows(pts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_chain", counted)
            rings = geometry._hull_rings(xs, ys, labels, 2)
        for ring, members in zip(rings, clusters):
            corners = [(pts[i].x, pts[i].y) for i in ring]
            assert bits(corners) == bits(hull_ring_oracle(members))
        # two chains per cluster, in cluster order
        per_cluster = [reads[0] + reads[1], reads[2] + reads[3]]
        assert per_cluster == ([8, 2 * len(below)] if above_first else [2 * len(below), 8])


def caliper_rings(rng: np.random.Generator) -> list[list[tuple[float, float]]]:
    """Strictly convex CCW rings of 3-30 corners: random hulls, rectangles,
    regular hexagons and octagons (whose parallel edges take the tie
    branch), each at scale 2^j for every j in ``RING_SCALES``."""
    shapes = []
    while len(shapes) < 12:
        hull = random_hull(rng, int(rng.integers(3, 40)))
        if len(hull) <= 30:
            shapes.append([(p.x, p.y) for p in hull.vertices])
    for w, h in rng.integers(1, 9, size=(4, 2)).tolist():
        shapes.append([(0.0, 0.0), (w / 8, 0.0), (w / 8, h / 8), (0.0, h / 8)])
    for m in (6, 8):
        t = 2.0 * np.pi * np.arange(m) / m
        shapes.append(list(zip(np.cos(t).tolist(), np.sin(t).tolist())))
    return [[(x * 2.0**j, y * 2.0**j) for x, y in ring] for j in RING_SCALES for ring in shapes]


class TestCaliperPairs:
    def test_matches_the_walk_ring_by_ring(self):
        # One call over every ring gives each ring's pairs, offset by its
        # first corner, exactly as the one-ring walk lists them.
        rings = caliper_rings(np.random.default_rng(31))
        xs = np.array([x for ring in rings for x, _ in ring])
        ys = np.array([y for ring in rings for _, y in ring])
        pairs = geometry._caliper_pairs(xs, ys, [len(ring) for ring in rings]).tolist()
        want, first = [], 0
        for ring in rings:
            walk = caliper_walk_oracle([x for x, _ in ring], [y for _, y in ring])
            want += [[first + a, first + b] for a, b in walk]
            first += len(ring)
        assert pairs == want

    def test_memory_is_linear_in_the_corners(self):
        # A walk keeps one height pair at a time: a 1000-gon's pairs need
        # well under a megabyte, where a table of every corner's height
        # above every edge would hold a million entries.
        poly = regular_polygon(1000)
        xs, ys = (np.array(c) for c in zip(*((p.x, p.y) for p in poly.vertices)))
        tracemalloc.start()
        try:
            pairs = geometry._caliper_pairs(xs, ys, [1000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        walk = caliper_walk_oracle(xs.tolist(), ys.tolist())
        assert pairs.tolist() == [list(pair) for pair in walk]


class TestAntipodalPairs:
    def test_unit_square_all_six(self):
        assert antipodal_pairs(UNIT_SQUARE) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_triangle_all_three(self):
        assert antipodal_pairs(TRIANGLE) == [(0, 1), (0, 2), (1, 2)]

    def test_seven_vertex_hull_matches_sampled_sweep(self):
        # The literal sampled oracle: one million evenly spaced directions.
        rng = np.random.default_rng(7)
        hull = None
        while hull is None or len(hull) != 7:
            hull = random_hull(rng, 12)
        ours = set(antipodal_pairs(hull))
        assert ours == antipodal_oracle_sweep(hull, n_directions=1_000_000)

    def test_parallel_edges_match_oracle(self):
        # Exactly parallel opposite edges exercise the tie branch.
        rect = ConvexPolygon((Point(0, 0), Point(3, 0), Point(3, 1), Point(0, 1)))
        hexagon = ConvexPolygon(
            tuple(
                Point(math.cos(math.pi * t / 3), math.sin(math.pi * t / 3))
                for t in range(6)
            )
        )
        for poly in (rect, hexagon):
            ours = set(antipodal_pairs(poly))
            assert ours == antipodal_oracle_arcs(poly)
        # hexagon: the three opposite pairs plus the six skip-one pairs
        hex_pairs = set(antipodal_pairs(hexagon))
        assert hex_pairs == {
            (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5),
        }

    def test_matches_arc_overlap_oracle_on_200_hulls(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 31))
            hull = random_hull(rng, max(n, 3))
            ours = set(antipodal_pairs(hull))
            assert ours == antipodal_oracle_arcs(hull), f"hull #{checked}"
            checked += 1

    def test_includes_diameter_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            hull = random_hull(rng, 15)
            pairs = set(antipodal_pairs(hull))
            v = hull.vertices
            far = max(
                ((i, j) for i in range(len(v)) for j in range(i + 1, len(v))),
                key=lambda ij: distance(v[ij[0]], v[ij[1]]),
            )
            assert far in pairs

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for angle in (0.3, 1.1, 2.9, 4.2):
            hull = random_hull(rng, 14)
            base = antipodal_pairs(hull)
            c, s = math.cos(angle), math.sin(angle)
            rotated = ConvexPolygon(
                tuple(Point(c * p.x - s * p.y, s * p.x + c * p.y) for p in hull.vertices)
            )
            assert antipodal_pairs(rotated) == base


class TestContains:
    def test_interior(self):
        assert contains(UNIT_SQUARE, Point(0.5, 0.5))

    def test_boundary_counts(self):
        assert contains(UNIT_SQUARE, Point(1.0, 0.5))

    def test_outside_beyond_tolerance(self):
        assert not contains(UNIT_SQUARE, Point(1.0 + 1e-6, 0.5))


def regular_polygon(m: int, scale: float = 1.0, phase: float = 0.0) -> ConvexPolygon:
    t = phase + 2.0 * np.pi * np.arange(m) / m
    return ConvexPolygon(
        tuple(Point(float(x), float(y)) for x, y in zip(scale * np.cos(t), scale * np.sin(t)))
    )


class TestInside:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 40), j=st.integers(-20, 20))
    def test_matches_scalar_loop(self, seed, m, j):
        # Outlines with up to 40 edges (so more than one edge block), with
        # points uniform over the box and points within 2 EPS of an edge,
        # tested as flat arrays and as a lattice (x row against y column).
        rng = np.random.default_rng(seed)
        poly = regular_polygon(m, 2.0**j, float(rng.uniform(0, 2 * np.pi)))
        edges = geometry._edges(poly)
        ends = np.array([[a.x, a.y, b.x, b.y] for a, b in poly.edges()])
        pick = rng.integers(0, len(ends), 60)
        ax, ay, bx, by = ends[pick].T
        t = rng.random(60)
        offset = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], 60) * EPS
        length = np.hypot(bx - ax, by - ay)
        near_x = ax + t * (bx - ax) + offset * (by - ay) / length
        near_y = ay + t * (by - ay) - offset * (bx - ax) / length
        box_x, box_y = rng.uniform(-1.2, 1.2, (2, 60)) * 2.0**j
        xs, ys = np.concatenate([near_x, box_x]), np.concatenate([near_y, box_y])
        want = [inside_oracle(poly, x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert geometry._inside(edges, xs, ys).tolist() == want
        row, col = xs[::10], ys[::10]
        grid = [[inside_oracle(poly, x, y) for x in row.tolist()] for y in col.tolist()]
        assert geometry._inside(edges, row, col[:, None]).tolist() == grid

    def test_nan_counts_as_inside(self):
        nan = np.array([math.nan, 0.5, math.nan])
        half = np.array([0.5, math.nan, math.nan])
        got = geometry._inside(geometry._edges(UNIT_SQUARE), nan, half)
        assert got.tolist() == [inside_oracle(UNIT_SQUARE, x, y) for x, y in zip(nan, half)]
        assert got.all()

    def test_edge_blocks_bound_memory(self):
        # All 1024 edges against 8192 points in one broadcast would need a
        # 64 MB cross-product table; blocks of edges keep the peak far below.
        poly = regular_polygon(1024)
        edges = geometry._edges(poly)
        xs, ys = np.random.default_rng(0).uniform(-1.2, 1.2, (2, 8192))
        tracemalloc.start()
        try:
            inside = geometry._inside(edges, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        head = zip(xs[:256].tolist(), ys[:256].tolist())
        assert inside[:256].tolist() == [inside_oracle(poly, x, y) for x, y in head]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
QUADS = st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=30)
POINTS = st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=12)
EXTREME_QUADS = [
    (1.7e308, -0.0, -1.7e308, 0.0),  # the x difference overflows
    (1e200, 1e-200, -1e-200, 1e200),  # both squares overflow
    (5e-324, -5e-324, -5e-324, 5e-324),  # subnormal differences, squares round to 0
    (0.0, -0.0, -0.0, 0.0),
    (-0.0, 2.5e-308, 0.0, -2.5e-308),
]


def squared_distances(*operands: np.ndarray) -> np.ndarray:
    """``geometry._squared_distances`` with overflow to inf allowed."""
    with np.errstate(over="ignore"):
        return geometry._squared_distances(*operands)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


class TestSquaredDistances:
    """The kernel's exactness contract, on finite floats of every kind."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(quads=QUADS)
    @example(quads=EXTREME_QUADS)
    def test_entries_are_the_scalar_formula(self, quads):
        operands = np.array(quads).T
        got = squared_distances(*operands)
        want = [(a - b) * (a - b) + (c - d) * (c - d) for a, c, b, d in quads]
        assert bits(got) == bits(want)
        assert not any(np.shares_memory(got, x) for x in operands)

    def test_overflow_gives_inf(self):
        got = squared_distances(*np.array(EXTREME_QUADS).T)
        assert got.tolist() == [math.inf, math.inf, 0.0, 0.0, 0.0]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(quads=QUADS)
    @example(quads=EXTREME_QUADS)
    def test_swapping_a_and_b_keeps_the_bits(self, quads):
        ax, ay, bx, by = np.array(quads).T
        assert bits(squared_distances(bx, by, ax, ay)) == bits(squared_distances(ax, ay, bx, by))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=POINTS, b=POINTS)
    @example(a=[q[:2] for q in EXTREME_QUADS], b=[q[2:] for q in EXTREME_QUADS])
    def test_row_by_column_broadcast_gives_the_elementwise_entries(self, a, b):
        (ax, ay), (bx, by) = np.array(a).T, np.array(b).T
        table = squared_distances(ax, ay, bx[:, None], by[:, None])
        assert table.shape == (len(b), len(a))
        m, k = len(a), len(b)
        flat = squared_distances(np.tile(ax, k), np.tile(ay, k), np.repeat(bx, m), np.repeat(by, m))
        assert bits(table) == bits(flat)
