"""Hand cases for the test oracles that have no library counterpart."""

import pytest

from pondroute.geometry import ConvexPolygon, Point

from _oracles import convex_intersection_area


def square(x: float, y: float, side: float = 1.0) -> ConvexPolygon:
    return ConvexPolygon(
        (Point(x, y), Point(x + side, y), Point(x + side, y + side), Point(x, y + side))
    )


class TestConvexIntersectionArea:
    def test_unit_squares_offset_by_half(self):
        assert convex_intersection_area(square(0, 0), square(0.5, 0)) == pytest.approx(0.5)
        assert convex_intersection_area(square(0, 0), square(0.5, 0.5)) == pytest.approx(0.25)

    def test_disjoint_squares(self):
        assert convex_intersection_area(square(0, 0), square(2, 0)) == 0.0
        assert convex_intersection_area(square(0, 0), square(3, 3)) == 0.0

    def test_squares_sharing_an_edge(self):
        assert convex_intersection_area(square(0, 0), square(1, 0)) == 0.0
        assert convex_intersection_area(square(0, 1), square(0, 0)) == 0.0

    def test_contained_and_identical(self):
        inner = square(0.25, 0.25, 0.5)
        assert convex_intersection_area(square(0, 0), inner) == pytest.approx(0.25)
        assert convex_intersection_area(inner, square(0, 0)) == pytest.approx(0.25)
        assert convex_intersection_area(square(0, 0), square(0, 0)) == pytest.approx(1.0)

    def test_triangle_corner_of_square(self):
        # The triangle's legs lie on x = 0.5 and y = 0.5 and its hypotenuse
        # x + y = 2 only touches the square, so the overlap is [0.5, 1]^2.
        tri = ConvexPolygon((Point(0.5, 0.5), Point(1.5, 0.5), Point(0.5, 1.5)))
        assert convex_intersection_area(square(0, 0), tri) == pytest.approx(0.25)
