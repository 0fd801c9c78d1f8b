"""Planar geometry primitives: convex hulls, antipodal pairs, containment.

Coordinates live at unit-square scale, so a single tolerance ``EPS = 1e-9``
serves both the collinearity and the boundary-containment tests; it is far
below the grid pitch of any generated instance. There it bounds a distance
(each cross product is divided by an edge length). It also bounds the height
ties of ``antipodal_pairs``, where it is compared with a raw cross product,
an area (twice the triangle's), not a distance.

Hulls and antipodal pairs are computed on coordinate arrays, a hull's
corners as positions into them, so an ``hpp`` solve reads its coordinates
once; only the public functions take or build ``Point``s and
``ConvexPolygon``s. A hull of m points costs one ``np.lexsort`` and a few
O(m) array passes, then the two monotone chains in Python over the lowest
and highest point of each x column only: about a fifth of the points on
``hpp``'s lattice clusters (the column filter of ``_hull_ring``). Small
inputs take the same path: on a hull of a few dozen points numpy's per-call
cost adds some tens of microseconds, far below what a solve or an instance
generation resolves.

Containment (``_inside``) tests every edge of an outline in one broadcast:
``_edges`` builds the polygon's edge table once, with the edges on a leading
axis, and the points may be any arrays that broadcast together, so the
generator tests a lattice as an x row against a y column and builds no
meshgrid. Edges go ``_EDGE_BLOCK`` at a time, so memory stays
O(block * points) on an outline of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

EPS = 1e-9
_EDGE_BLOCK = 16  # edges per broadcast in ``_inside``


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


def _chain(xs: list[float], ys: list[float]) -> list[int]:
    """One monotone chain over points in sweep order, as indices into ``xs``
    and ``ys``; a point whose turn is not a left turn by more than EPS times
    the chord is popped."""
    chain: list[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            turn = (xs[a] - xs[o]) * (y - ys[o]) - (ys[a] - ys[o]) * (x - xs[o])
            if turn > 0.0 and turn > EPS * math.hypot(x - xs[o], y - ys[o]):
                break
            chain.pop()
        chain.append(i)
    return chain


def _coordinate_rows(points: Iterable[Point]) -> np.ndarray:
    """The x row over the y row of the points, read as floats."""
    pts = list(points)
    return np.array([[p.x for p in pts], [p.y for p in pts]], dtype=float)


def _hull_ring(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Positions in (``xs``, ``ys``) of the strict corners of the
    monotone-chain hull, CCW from the smallest (x, y).

    Exact duplicates are dropped first (the position of the first copy is
    kept, and ``-0.0 == 0.0``), and a chain point whose perpendicular
    deviation from the chord of its neighbours is at most EPS (a distance,
    so the cross product is normalized by the chord length) counts as
    collinear. Fewer than 3 entries means the points span no polygon.

    The points are sorted by one ``np.lexsort`` (stable, so the first copy
    of a duplicate comes first), and each chain reads only the ends of the
    x columns: the lower chain every column's bottom plus the last column's
    top, the upper chain every column's top, right to left, plus the first
    column's bottom. That gives the ring of the chains over every point,
    at any input size, whenever

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
    by = np.lexsort((ys, xs))
    xs, ys = xs[by], ys[by]
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    by, xs, ys = by[keep], xs[keep], ys[keep]
    if len(xs) < 3:
        return by.tolist()
    lower = np.ones(len(xs), dtype=bool)
    upper = np.ones(len(xs), dtype=bool)
    new_col = xs[1:] != xs[:-1]  # point i + 1 starts a column, point i ends one
    if _column_ends_suffice(xs, ys, new_col):
        lower[1:-1] = new_col[:-1]
        upper[1:-1] = new_col[1:]
    lower, upper = np.flatnonzero(lower), np.flatnonzero(upper)[::-1]
    lower_chain = _chain(xs[lower].tolist(), ys[lower].tolist())
    upper_chain = _chain(xs[upper].tolist(), ys[upper].tolist())
    return by[np.append(lower[lower_chain[:-1]], upper[upper_chain[:-1]])].tolist()


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


def _polygon_ring(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """``_hull_ring`` of points that must span a polygon, else DegenerateInput."""
    ring = _hull_ring(xs, ys)
    if len(ring) < 3:
        raise DegenerateInput(
            f"need at least 3 distinct, non-collinear points, got {len(ring)} hull corners"
        )
    return ring


def collinear(points: Iterable[Point]) -> bool:
    """True iff the points span no polygon, which is exactly when
    ``convex_hull`` raises DegenerateInput: fewer than 3 distinct points, or
    no hull corner deviates more than EPS from the chord of its neighbours."""
    return len(_hull_ring(*_coordinate_rows(points))) < 3


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
    xs, ys = _coordinate_rows(points)
    ring = _polygon_ring(xs, ys)
    return ConvexPolygon(tuple(map(Point, xs[ring].tolist(), ys[ring].tolist())))


def _caliper_pairs(xs: list[float], ys: list[float]) -> list[tuple[int, int]]:
    """``antipodal_pairs`` of the strictly convex CCW polygon with corners
    (``xs``, ``ys``)."""
    n = len(xs)
    pairs: set[tuple[int, int]] = set()
    j = 1  # absolute counter, vertex index is j % n

    def height(i: int, i1: int, idx: int) -> float:
        b = idx % n  # _cross(v[i], v[i1], v[b]), operand for operand
        return (xs[i1] - xs[i]) * (ys[b] - ys[i]) - (ys[i1] - ys[i]) * (xs[b] - xs[i])

    for i in range(n):
        i1 = (i + 1) % n
        if j < i + 1:
            j = i + 1
        h, h_next = height(i, i1, j), height(i, i1, j + 1)
        while h_next > h + EPS:
            j += 1
            if j > i + 2 * n:  # cannot happen for a valid polygon
                raise RuntimeError("antipodal pointer failed to terminate")
            h, h_next = h_next, height(i, i1, j + 1)
        far = j % n
        for a in (i, i1):
            if a != far:
                pairs.add((min(a, far), max(a, far)))
        if abs(h_next - h) <= EPS:
            far2 = (j + 1) % n
            for a in (i, i1):
                if a != far2:
                    pairs.add((min(a, far2), max(a, far2)))
    return sorted(pairs)


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
    return _caliper_pairs([p.x for p in v], [p.y for p in v])


def _edges(poly: ConvexPolygon) -> np.ndarray:
    """A (5, E) table of the polygon's E CCW edges from a to b: rows a.x, a.y,
    b.x - a.x, b.y - a.y and the tolerance -EPS * hypot(b.x - a.x, b.y - a.y),
    taken by ``math.hypot`` (``np.hypot`` can differ in the last bit)."""
    rows = []
    for a, b in poly.edges():
        dx, dy = b.x - a.x, b.y - a.y
        rows.append((a.x, a.y, dx, dy, -EPS * math.hypot(dx, dy)))
    return np.array(rows, dtype=float).T


def _inside(edges: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of the points (xs, ys) inside or on the polygon of ``_edges``:
    none lies more than EPS (a distance, so the cross product is normalized
    by the edge length) to the right of any CCW edge. A NaN cross product
    counts as inside.

    ``xs`` and ``ys`` may have any shapes that broadcast together; a lattice
    is an x row against a y column. All edges are tested in one broadcast,
    with the edges on a leading axis, ``_EDGE_BLOCK`` at a time so that
    memory stays O(block * points) on an outline of any size. Each (edge,
    point) decision has the operands and order of a scalar loop. A lattice
    count of the generator is one call, on an edge table built once per
    outline; ``generate`` makes 42-55 of them per instance.
    """
    ax, ay, dx, dy, tol = edges.reshape(edges.shape + (1,) * max(np.ndim(xs), np.ndim(ys)))
    outside = np.zeros(np.broadcast(xs, ys).shape, dtype=bool)
    for lo in range(0, edges.shape[1], _EDGE_BLOCK):
        e = slice(lo, lo + _EDGE_BLOCK)
        cross = dx[e] * (ys - ay[e]) - dy[e] * (xs - ax[e])
        outside |= (cross < tol[e]).any(axis=0)
    return ~outside


def contains(poly: ConvexPolygon, p: Point) -> bool:
    """True iff ``p`` is inside or on the polygon (boundary tolerance EPS)."""
    return bool(_inside(_edges(poly), np.array([p.x]), np.array([p.y]))[0])
