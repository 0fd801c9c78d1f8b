"""Planar geometry primitives: convex hulls, antipodal pairs, containment.

Coordinates live at unit-square scale, so a single tolerance ``EPS = 1e-9``
serves both the collinearity and the boundary-containment tests; it is far
below the grid pitch of any generated instance. There it bounds a distance
(each cross product is divided by an edge length). It also bounds the height
ties of ``antipodal_pairs``, where it is compared with a raw cross product,
an area (twice the triangle's), not a distance.

A hull of m points costs one ``np.lexsort`` and a few O(m) array passes,
then the two monotone chains in Python over the lowest and highest point of
each x column only: about a fifth of the points on ``hpp``'s lattice
clusters (the column filter of ``_hull_ring``). Below
``_FILTER_MIN_POINTS`` points, where numpy's per-call cost outweighs the
chain, the points are sorted as a set of tuples and the chains read all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

EPS = 1e-9
_FILTER_MIN_POINTS = 32  # fewest points for which _hull_ring sorts arrays and filters columns


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


def _chain(xs: list[float], ys: list[float]) -> list[tuple[float, float]]:
    """One monotone chain over points in sweep order; a point whose turn is
    not a left turn by more than EPS times the chord is popped."""
    chain: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
            if turn > 0.0 and turn > EPS * math.hypot(x - ox, y - oy):
                break
            chain.pop()
        chain.append((x, y))
    return chain


def _hull_ring(points: Iterable[Point]) -> list[tuple[float, float]]:
    """Strict corners of the monotone-chain hull, CCW from the smallest (x, y).

    Exact coordinate duplicates are dropped first (the first copy is kept,
    and ``-0.0 == 0.0``), and a chain point whose perpendicular deviation
    from the chord of its neighbours is at most EPS (a distance, so the
    cross product is normalized by the chord length) counts as collinear.
    Fewer than 3 entries means the points span no polygon.

    From ``_FILTER_MIN_POINTS`` points on, the points are sorted by one
    ``np.lexsort`` (stable, so the first copy of a duplicate comes first)
    and each chain reads only the ends of the x columns: the lower chain
    every column's bottom plus the last column's top, the upper chain every
    column's top, right to left, plus the first column's bottom. That gives
    the ring of the chains over every point whenever

        gx * gy > EPS * hypot(W, H) * (1 + 2^-40) + 2^-48 * W * H + 2^-1070,

    W and H being the x and y extents, gx the smallest gap between distinct
    x and gy the smallest gap between successive y of one column, all as
    computed in floats. Otherwise, or when gx * gy or 4 * W * H is not
    finite, the chains read every point.

    Proof for the lower chain; the upper one is its mirror image. Let a
    column at x = c hold y1 < y2 < ... < yk, and u = 2^-53. (a) When yj,
    j >= 2, arrives with (o, y1) on top of the chain, o lies in an earlier
    column and both x-differences of the turn are the same float
    d = fl(c - ox), gx <= d <= W. The turn is fl(fl(d * A) - fl(B * d)) with
    A = fl(yj - oy) and B = fl(y1 - oy), both at most H in size, so
    A - B >= gy * (1 - u) - 2u * H * (1 + u) and the turn is at least
    gx * gy * (1 - 2u) - 8u * W * H - 2^-1073 (no product overflows, as
    4 * W * H is finite). The chord ``hypot(d, A)`` is at most
    hypot(W, H) * (1 + 4u), ``math.hypot`` erring by less than one ulp. The
    margin covers both with room for its own rounding, so yj passes the
    test and pops nothing. If y1 is the chain's only point there is no test
    and yj is pushed. (b) The point after yj in the column finds (y1, yj)
    on top; both x-differences are exactly 0, so its turn is a zero and it
    pops yj, and (a) applies to it. (c) The next column's bottom finds
    (y1, yk) on top, with turn 0 * A - (yk - y1) * (c' - c) <= 0, and pops
    yk. So after every column but the last the chain holds what it holds
    after y1 alone, and each test on the column ends has the operands of
    the same test on all points. In the last column, (b) leaves yk alone on
    y1, as on the column ends.
    """
    pts = list(points)
    if len(pts) < _FILTER_MIN_POINTS:
        ring = sorted({(p.x, p.y) for p in pts})
        if len(ring) < 3:
            return ring
        xs, ys = [x for x, _ in ring], [y for _, y in ring]
        return _chain(xs, ys)[:-1] + _chain(xs[::-1], ys[::-1])[:-1]
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    by = np.lexsort((ys, xs))
    xs, ys = xs[by], ys[by]
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    xs, ys = xs[keep], ys[keep]
    if len(xs) < 3:
        return list(zip(xs.tolist(), ys.tolist()))
    new_col = xs[1:] != xs[:-1]  # point i + 1 starts a column, point i ends one
    if _column_ends_suffice(xs, ys, new_col):
        lower = np.ones(len(xs), dtype=bool)
        lower[1:-1] = new_col[:-1]
        upper = np.ones(len(xs), dtype=bool)
        upper[1:-1] = new_col[1:]
        xl, yl = xs[lower].tolist(), ys[lower].tolist()
        xu, yu = xs[upper][::-1].tolist(), ys[upper][::-1].tolist()
    else:
        xl, yl = xs.tolist(), ys.tolist()
        xu, yu = xl[::-1], yl[::-1]
    return _chain(xl, yl)[:-1] + _chain(xu, yu)[:-1]


def _column_ends_suffice(xs: np.ndarray, ys: np.ndarray, new_col: np.ndarray) -> bool:
    """The margin test of ``_hull_ring`` over its (x, y)-sorted distinct
    points. Extents are checked first, so no array difference overflows."""
    w = float(xs[-1]) - float(xs[0])
    h = float(ys.max()) - float(ys.min())
    if not math.isfinite(4.0 * w * h):
        return False
    gx = float((xs[1:] - xs[:-1])[new_col].min(initial=math.inf))
    gy = float((ys[1:] - ys[:-1])[~new_col].min(initial=math.inf))
    margin = EPS * math.hypot(w, h) * (1.0 + 2.0**-40) + 2.0**-48 * w * h + 2.0**-1070
    return math.isfinite(gx * gy) and gx * gy > margin


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


def antipodal_pairs(poly: ConvexPolygon) -> list[tuple[int, int]]:
    """Enumerate all antipodal vertex pairs by rotating calipers.

    For each edge, one pointer walks to the vertex farthest from the edge line
    (the walk is monotone around the polygon, so the whole scan is linear).
    That vertex is antipodal to both edge endpoints; when the next vertex is
    equally far the opposite edge is parallel and the tied vertex contributes
    the extra pair combinations. Returns the vertex-index pairs ``(i, j)``
    with i < j, deduplicated and sorted.
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
    return sorted(pairs)


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
