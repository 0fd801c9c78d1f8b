import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pondroute.geometry import (
    AntipodalPair,
    ConvexPolygon,
    DegenerateInput,
    Point,
    antipodal_pairs,
    collinear,
    contains,
    convex_hull,
    dist,
)

from _oracles import antipodal_oracle_arcs, antipodal_oracle_sweep, hull_vertex_oracle

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

    def test_pair_requires_ordered_indices(self):
        with pytest.raises(ValueError):
            AntipodalPair(2, 2)
        with pytest.raises(ValueError):
            AntipodalPair(3, 1)


class TestConvexPolygon:
    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 0)))

    def test_rejects_collinear_triple(self):
        with pytest.raises(ValueError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)))


class TestConvexHull:
    def test_triangle_already_convex(self):
        hull = convex_hull([Point(0, 0), Point(2, 0), Point(1, 1)])
        assert hull.vertices == (Point(0, 0), Point(2, 0), Point(1, 1))

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([Point(0, 0), Point(1, 0), Point(2, 0)])

    def test_near_collinear_band_is_collinear(self):
        # Every chain point is within EPS of its neighbours' chord, although the
        # line through the first two points misses (0.9, 0.5) by 4.8e-7.
        pts = [
            Point(0.3, 0.5), Point(0.3005, 0.5 + 4e-10), Point(0.9, 0.5), Point(0.1, 0.5 + 2e-10),
        ]
        assert collinear(pts)
        with pytest.raises(DegenerateInput):
            convex_hull(pts)
        assert not collinear(pts + [Point(0.5, 0.6)])

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


class TestAntipodalPairs:
    def test_unit_square_all_six(self):
        pairs = antipodal_pairs(UNIT_SQUARE)
        assert [(p.i, p.j) for p in pairs] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_triangle_all_three(self):
        pairs = antipodal_pairs(TRIANGLE)
        assert [(p.i, p.j) for p in pairs] == [(0, 1), (0, 2), (1, 2)]

    def test_seven_vertex_hull_matches_sampled_sweep(self):
        # The literal sampled oracle: one million evenly spaced directions.
        rng = np.random.default_rng(7)
        hull = None
        while hull is None or len(hull) != 7:
            hull = random_hull(rng, 12)
        ours = {(p.i, p.j) for p in antipodal_pairs(hull)}
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
            ours = {(p.i, p.j) for p in antipodal_pairs(poly)}
            assert ours == antipodal_oracle_arcs(poly)
        # hexagon: the three opposite pairs plus the six skip-one pairs
        hex_pairs = {(p.i, p.j) for p in antipodal_pairs(hexagon)}
        assert hex_pairs == {
            (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5),
        }

    def test_matches_arc_overlap_oracle_on_200_hulls(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 31))
            hull = random_hull(rng, max(n, 3))
            ours = {(p.i, p.j) for p in antipodal_pairs(hull)}
            assert ours == antipodal_oracle_arcs(hull), f"hull #{checked}"
            checked += 1

    def test_includes_diameter_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            hull = random_hull(rng, 15)
            pairs = {(p.i, p.j) for p in antipodal_pairs(hull)}
            v = hull.vertices
            far = max(
                ((i, j) for i in range(len(v)) for j in range(i + 1, len(v))),
                key=lambda ij: dist(v[ij[0]], v[ij[1]]),
            )
            assert far in pairs

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        for angle in (0.3, 1.1, 2.9, 4.2):
            hull = random_hull(rng, 14)
            base = [(p.i, p.j) for p in antipodal_pairs(hull)]
            c, s = math.cos(angle), math.sin(angle)
            rotated = ConvexPolygon(
                tuple(Point(c * p.x - s * p.y, s * p.x + c * p.y) for p in hull.vertices)
            )
            assert [(p.i, p.j) for p in antipodal_pairs(rotated)] == base


class TestContains:
    def test_interior(self):
        assert contains(UNIT_SQUARE, Point(0.5, 0.5))

    def test_boundary_counts(self):
        assert contains(UNIT_SQUARE, Point(1.0, 0.5))

    def test_outside_beyond_tolerance(self):
        assert not contains(UNIT_SQUARE, Point(1.0 + 1e-6, 0.5))
