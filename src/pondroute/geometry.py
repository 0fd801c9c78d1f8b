"""Planar geometry primitives: convex hulls, antipodal pairs, containment.

Coordinates live at unit-square scale, so a single tolerance ``EPS = 1e-9``
serves both the collinearity and the boundary-containment tests; it is far
below the grid pitch of any generated instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

EPS = 1e-9


class DegenerateInput(ValueError):
    """Hull requested for fewer than 3 distinct points, or collinear input."""


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinate ({self.x!r}, {self.y!r})")


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _cross(o: Point, a: Point, b: Point) -> float:
    """Twice the signed area of triangle (o, a, b); positive when CCW."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon: CCW vertices, no duplicates, no collinear triple."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(v) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if len({(p.x, p.y) for p in v}) != len(v):
            raise ValueError("polygon has duplicate vertices")
        n = len(v)
        for i in range(n):
            if _cross(v[i], v[(i + 1) % n], v[(i + 2) % n]) <= 0.0:
                raise ValueError("vertices are not strictly convex in CCW order")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def area(self) -> float:
        s = 0.0
        for a, b in self.edges():
            s += a.x * b.y - b.x * a.y
        return 0.5 * s


@dataclass(frozen=True, slots=True)
class AntipodalPair:
    """Indices (i < j) of two polygon vertices admitting parallel support lines."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not (0 <= self.i < self.j):
            raise ValueError(f"pair indices must satisfy 0 <= i < j, got ({self.i}, {self.j})")


def _hull_ring(points: Iterable[Point]) -> list[tuple[float, float]]:
    """Strict corners of the monotone-chain hull, CCW from the smallest (x, y).

    Exact coordinate duplicates are dropped first, and a chain point whose
    perpendicular deviation from the chord of its neighbours is at most EPS
    (a distance, so the cross product is normalized by the chord length)
    counts as collinear. Fewer than 3 entries means the points span no
    polygon.
    """
    pts = sorted({(p.x, p.y) for p in points})
    if len(pts) < 3:
        return pts

    def build(seq: list[tuple[float, float]]) -> list[tuple[float, float]]:
        chain: list[tuple[float, float]] = []
        for x, y in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
                if turn > 0.0 and turn > EPS * math.hypot(x - ox, y - oy):
                    break
                chain.pop()
            chain.append((x, y))
        return chain

    return build(pts)[:-1] + build(pts[::-1])[:-1]


def collinear(points: Iterable[Point]) -> bool:
    """True iff the points span no polygon, which is exactly when
    ``convex_hull`` raises DegenerateInput: fewer than 3 distinct points, or
    no hull corner deviates more than EPS from the chord of its neighbours."""
    return len(_hull_ring(points)) < 3


def convex_hull(points: Iterable[Point]) -> ConvexPolygon:
    """Monotone-chain convex hull.

    The result is canonical: CCW order starting from the lexicographically
    smallest (x, then y) vertex. Exact coordinate duplicates are dropped
    first, and a chain point whose perpendicular deviation from the chord of
    its neighbours is at most EPS (a distance, so the cross product is
    normalized by the chord length) counts as collinear, so every returned
    vertex is a strict corner.

    Raises DegenerateInput for fewer than 3 distinct points or collinear
    input (see ``collinear``).
    """
    ring = _hull_ring(points)
    if len(ring) < 3:
        raise DegenerateInput(
            f"need at least 3 distinct, non-collinear points, got {len(ring)} hull corners"
        )
    return ConvexPolygon(tuple(Point(x, y) for x, y in ring))


def antipodal_pairs(poly: ConvexPolygon) -> list[AntipodalPair]:
    """Enumerate all antipodal vertex pairs by rotating calipers.

    For each edge, one pointer walks to the vertex farthest from the edge line
    (the walk is monotone around the polygon, so the whole scan is linear).
    That vertex is antipodal to both edge endpoints; when the next vertex is
    equally far the opposite edge is parallel and the tied vertex contributes
    the extra pair combinations. Returns a deduplicated list sorted by (i, j).
    """
    v = poly.vertices
    n = len(v)
    pairs: set[tuple[int, int]] = set()
    j = 1  # absolute counter, vertex index is j % n

    def height(i: int, i1: int, idx: int) -> float:
        return _cross(v[i], v[i1], v[idx % n])

    for i in range(n):
        i1 = (i + 1) % n
        if j < i + 1:
            j = i + 1
        while height(i, i1, j + 1) > height(i, i1, j) + EPS:
            j += 1
            if j > i + 2 * n:  # cannot happen for a valid polygon
                raise RuntimeError("antipodal pointer failed to terminate")
        far = j % n
        for a in (i, i1):
            if a != far:
                pairs.add((min(a, far), max(a, far)))
        if abs(height(i, i1, j + 1) - height(i, i1, j)) <= EPS:
            far2 = (j + 1) % n
            for a in (i, i1):
                if a != far2:
                    pairs.add((min(a, far2), max(a, far2)))
    return [AntipodalPair(a, b) for a, b in sorted(pairs)]


def _inside(poly: ConvexPolygon, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of the points (xs[i], ys[i]) inside or on the polygon: none lies
    more than EPS (a distance, so the cross product is normalized by the
    edge length) to the right of any CCW edge."""
    inside = np.ones(xs.shape, dtype=bool)
    for a, b in poly.edges():
        cross = (b.x - a.x) * (ys - a.y) - (b.y - a.y) * (xs - a.x)
        inside &= ~(cross < -EPS * math.hypot(b.x - a.x, b.y - a.y))
    return inside


def contains(poly: ConvexPolygon, p: Point) -> bool:
    """True iff ``p`` is inside or on the polygon (boundary tolerance EPS)."""
    return bool(_inside(poly, np.array([p.x]), np.array([p.y]))[0])
