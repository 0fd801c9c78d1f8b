"""Planar geometry primitives: convex hulls, antipodal pairs, containment.

Coordinates live at unit-square scale, so a single tolerance ``EPS = 1e-9``
serves both the collinearity and the boundary-containment tests; it is far
below the grid pitch of any generated instance. There it bounds a distance
(each cross product is divided by an edge length). It also bounds the height
ties of ``antipodal_pairs``, where it is compared with a raw cross product,
an area (twice the triangle's), not a distance.

Hulls and antipodal pairs are computed on coordinate arrays, and a hull's
corners come back as indices into them (a cluster's too, when the points are
labelled), so an ``hpp`` solve reads its coordinates once; only the public
functions take or build ``Point``s and ``ConvexPolygon``s. The hulls of
every cluster of a labelled point set come from one call, ``_hull_rings``:
one ``np.lexsort`` by (cluster, x, y) and a few array passes over all
points, then, per cluster, the two monotone chains in Python over the lowest
and highest point of each x column only: about a fifth of the points on
``hpp``'s lattice clusters (the column filter). ``_hull_ring`` is its
one-cluster call. The antipodal pairs of every polygon of a batch likewise
come from one call, ``_caliper_pairs``: the rotating-calipers walk of each
polygon, O(m) steps for m corners; ``antipodal_pairs`` is its one-polygon
call. Small inputs take the same path: on a hull of a few dozen points
numpy's per-call cost adds some tens of microseconds, far below what a solve
or an instance generation resolves; ``hpp``'s cluster repair pays it once
per donor it tries.

Containment (``_inside``) tests every edge of an outline in one broadcast:
``_edges`` builds the polygon's edge table once, with the edges on a leading
axis, and the points may be any arrays that broadcast together, so the
generator tests a lattice as an x row against a y column and builds no
meshgrid. Edges go ``_EDGE_BLOCK`` at a time, so memory stays
O(block * points) on an outline of any size.

Both solvers compute squared point distances through one kernel,
``_squared_distances``: ``hpp``'s k-means tables and seeding, and
``baseline._Distances``, which serves ``minmax-ls`` and ``exact``. Its
docstring states the two facts their exactness arguments use.
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
    and ``ys``. The chain's top is popped when the next point makes no left
    turn with it, or a left turn of at most EPS times the chord of the top's
    neighbours while the top lies within that chord's extent (its
    projection onto the chord's line falls on the chord). A top beyond the
    chord is a corner, however thin its turn."""
    chain: list[int] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            vx, vy = x - xs[o], y - ys[o]
            turn = (xs[a] - xs[o]) * vy - (ys[a] - ys[o]) * vx
            if turn > 0.0 and (
                turn > EPS * math.hypot(vx, vy)
                or not 0.0 <= (xs[a] - xs[o]) * vx + (ys[a] - ys[o]) * vy <= vx * vx + vy * vy
            ):
                break
            chain.pop()
        chain.append(i)
    return chain


def _coordinate_rows(points: Iterable[Point]) -> np.ndarray:
    """The x row over the y row of the points, read as floats."""
    pts = list(points)
    return np.array([[p.x for p in pts], [p.y for p in pts]], dtype=float)


def _squared_distances(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> np.ndarray:
    """Squared distances between the points (``ax``, ``ay``) and (``bx``,
    ``by``), as a new array; the x operands and the y operands broadcast to
    one shape, which the result has.

    Every entry is ``(ax - bx)**2 + (ay - by)**2`` as two differences, two
    squares and one sum, in that order, each rounded once. So an entry's
    bits depend only on its own four operands, not on the shape of the call
    or on the entries computed with it; and swapping a with b gives the same
    bits, since the differences only change sign, which the squares do not
    see. ``hpp``'s k-means tables and ``baseline._Distances`` rest their
    exactness on these two facts.
    """
    d, e = ax - bx, ay - by
    d *= d
    e *= e
    d += e
    return d


def _hull_ring(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Indices into (``xs``, ``ys``) of the strict corners of the
    monotone-chain hull, CCW from the smallest (x, y): the one-cluster call
    of ``_hull_rings``."""
    return _hull_rings(xs, ys, np.zeros(len(xs), dtype=np.intp), 1)[0]


def _hull_rings(xs: np.ndarray, ys: np.ndarray, labels: np.ndarray, k: int) -> list[list[int]]:
    """The hull ring of each of the k clusters of ``labels`` over the points
    (``xs``, ``ys``): the indices, into (``xs``, ``ys``), of the strict
    corners of its monotone-chain hull, CCW from its smallest (x, y).

    Exact duplicates within a cluster are dropped first (the index of the
    first copy is kept, and ``-0.0 == 0.0``); the same point in two clusters
    stays in both. A chain point that lies within the extent of the chord of
    its neighbours, at a perpendicular deviation of at most EPS from it (a
    distance, so the cross product is normalized by the chord length),
    counts as collinear (``_chain``). Fewer than 3 entries means the cluster
    spans no polygon; a cluster of fewer than 3 distinct points gets those,
    in (x, y) order.

    All clusters are sorted by one stable ``np.lexsort`` on (label, x, y),
    so the first copy of a duplicate comes first, and their column ends and
    margin tests (``_column_ends_suffice``) are whole-array operations.
    Where a cluster's margin holds, its chains read only the ends of its x
    columns: the lower chain every column's bottom plus the last column's
    top, the upper chain every column's top, right to left, plus the first
    column's bottom. Otherwise they read every point. Only the two chains of
    each cluster run in Python, on its slices of the concatenated candidate
    lists.
    """
    by = np.lexsort((ys, xs, labels))
    lab, xs, ys = labels[by], xs[by], ys[by]
    keep = np.ones(len(by), dtype=bool)
    keep[1:] = (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]) | (lab[1:] != lab[:-1])
    pos, lab, xs, ys = by[keep], lab[keep], xs[keep], ys[keep]
    # cut[i]: point i is its cluster's first, col[i]: its column's bottom;
    # both hold at the end, i = len(xs), too.
    cut = np.ones(len(xs) + 1, dtype=bool)
    cut[1:-1] = lab[1:] != lab[:-1]
    col = cut.copy()
    col[1:-1] |= xs[1:] != xs[:-1]
    bounds = cut.nonzero()[0]  # the non-empty clusters, end to end
    every = np.ones(k, dtype=bool)  # the chains read every point of the cluster
    every[lab[bounds[:-1]]] = ~_column_ends_suffice(xs, ys, col, bounds)
    size = np.bincount(lab, minlength=k)  # distinct points per cluster
    every, chained = every[lab], (size >= 3)[lab]
    lower = (chained & (every | col[:-1] | cut[1:])).nonzero()[0]
    upper = (chained & (every | col[1:] | cut[:-1])).nonzero()[0][::-1]
    lower_count = np.bincount(lab[lower], minlength=k).tolist()
    upper_count = np.bincount(lab[upper], minlength=k).tolist()
    lx, ly, lp = xs[lower].tolist(), ys[lower].tolist(), pos[lower].tolist()
    ux, uy, up = xs[upper].tolist(), ys[upper].tolist(), pos[upper].tolist()
    # Cluster c's lower candidates follow those of the clusters before it;
    # its upper ones, right to left, precede them in the reversed list.
    rings: list[list[int]] = []
    a, lo, u = 0, 0, len(up)
    for n, nl, nu in zip(size.tolist(), lower_count, upper_count):
        u -= nu
        if n < 3:
            rings.append(pos[a : a + n].tolist())
        else:
            lower_chain = _chain(lx[lo : lo + nl], ly[lo : lo + nl])
            upper_chain = _chain(ux[u : u + nu], uy[u : u + nu])
            ring = [lp[lo + i] for i in lower_chain[:-1]]
            rings.append(ring + [up[u + i] for i in upper_chain[:-1]])
        a, lo = a + n, lo + nl
    return rings


def _column_ends_suffice(
    xs: np.ndarray, ys: np.ndarray, col: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Per cluster, whether the chains of ``_hull_rings`` may read only its
    column ends: the margin test over the (x, y)-sorted distinct points
    ``xs[bounds[c]:bounds[c + 1]]``, ``ys[bounds[c]:bounds[c + 1]]`` of each
    cluster c, ``col[i]`` marking the bottom of each column (a cluster's
    first point starts one).

    The chains of a cluster's column ends give the ring of the chains over
    every point, at any input size, whenever

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
    yk. A turn of at most zero pops the top wherever it lies, and one above
    the margin keeps it, so the chord-extent rule of ``_chain`` decides
    none of these tests. So after every column but the last the chain
    holds what it holds after y1 alone, and each test on the column ends
    has the operands, and so the outcome, of the same test on all points.
    In the last column, (b) leaves yk alone on y1, as on the column ends.

    The extents and gaps are whole-array reductions over all clusters; the
    margin of each is taken in Python floats, as the proof has it.
    Differences across clusters, and the extents of clusters that fail the
    test, may overflow; they decide nothing, so overflow is not reported.
    """
    start, end = bounds[:-1], bounds[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        widths = xs[end - 1] - xs[start]
        heights = np.maximum.reduceat(ys, start) - np.minimum.reduceat(ys, start)
        gaps = np.full((2, len(xs)), math.inf)  # entry i: the gap from point i to i + 1
        np.subtract(xs[1:], xs[:-1], out=gaps[0, :-1], where=col[1:-1])
        np.subtract(ys[1:], ys[:-1], out=gaps[1, :-1], where=~col[1:-1])
    gaps[0, end - 1] = math.inf  # from a cluster's last point to the next cluster
    suffice = []
    gx, gy = np.minimum.reduceat(gaps, start, axis=1).tolist()
    for w, h, gx, gy in zip(widths.tolist(), heights.tolist(), gx, gy):
        if not (math.isfinite(4.0 * w * h) and math.isfinite(gx * gy)):
            suffice.append(False)
            continue
        margin = EPS * math.hypot(w, h) * (1.0 + 2.0**-40) + 2.0**-48 * w * h + 2.0**-1070
        suffice.append(gx * gy > margin)
    return np.array(suffice, dtype=bool)


def _polygon_ring(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """``_hull_ring`` of points that must span a polygon, else DegenerateInput."""
    ring = _hull_ring(xs, ys)
    if len(ring) < 3:
        raise DegenerateInput(
            f"need at least 3 distinct, non-collinear points, got {len(ring)} hull corners"
        )
    return ring


def convex_hull(points: Iterable[Point]) -> ConvexPolygon:
    """Monotone-chain convex hull.

    The result is canonical: CCW order starting from the lexicographically
    smallest (x, then y) vertex. Exact coordinate duplicates are dropped
    first, and a chain point that lies within the extent of the chord of its
    neighbours, at a perpendicular deviation of at most EPS from it (a
    distance, so the cross product is normalized by the chord length),
    counts as collinear, so every returned vertex is a strict corner.

    Raises DegenerateInput when the points span no polygon: fewer than 3
    distinct points, or fewer than 3 chain points that are not collinear
    in that sense.
    """
    xs, ys = _coordinate_rows(points)
    ring = _polygon_ring(xs, ys)
    return ConvexPolygon(tuple(map(Point, xs[ring].tolist(), ys[ring].tolist())))


def _caliper_pairs(xs: np.ndarray, ys: np.ndarray, sizes: list[int]) -> np.ndarray:
    """``antipodal_pairs`` of every strictly convex CCW polygon of a batch:
    polygon r has the ``sizes[r]`` corners that follow the earlier ones in
    (``xs``, ``ys``). Returns a (P, 2) array of corner positions into
    (``xs``, ``ys``), each pair in ascending order, deduplicated and sorted,
    so polygon by polygon.

    Each polygon gets its own pointer walk in Python, one height at a time,
    so a polygon of m corners costs O(m) steps and memory. The walk records
    per edge only where it stops and whether the next corner ties; the
    pairs are built from those, for all polygons, in a few array passes.
    """
    px, py = xs.tolist(), ys.tolist()
    far, tie = [], []  # per edge: where the walk stops, and whether the next corner ties
    o = 0  # the polygon's first position
    for n in sizes:
        j = 1  # absolute counter, corner o + j % n
        for i in range(n):
            x0, y0 = px[o + i], py[o + i]
            i1 = o + (i + 1) % n
            ex, ey = px[i1] - x0, py[i1] - y0  # heights are _cross(v[i], v[i1], v[b])
            if j < i + 1:
                j = i + 1
            b = o + j % n
            h = ex * (py[b] - y0) - ey * (px[b] - x0)
            b = o + (j + 1) % n
            h_next = ex * (py[b] - y0) - ey * (px[b] - x0)
            # j never passes i + n, for any n >= 1 corners, so the walk ends.
            # The heights of corners i and i + 1 are each exactly +-0.0:
            # ``ex * 0.0 - ey * 0.0`` and ``ex * ey - ey * ex``, with the same
            # rounded operands; where a difference overflows, a height is
            # NaN. Either way ``h_next > h + EPS`` is false when stepping from
            # position i + n to i + n + 1. By induction: edge 0 starts at
            # j = 1 <= n, and once edge i ends with j <= i + n, edge i + 1
            # starts at max(j, i + 2) <= (i + 1) + n.
            while h_next > h + EPS:
                j += 1
                b = o + (j + 1) % n
                h, h_next = h_next, ex * (py[b] - y0) - ey * (px[b] - x0)
            far.append(j % n)
            tie.append(abs(h_next - h) <= EPS)
        o += n
    # Edge (e, e1) pairs both ends with its far corner, and with the corner
    # after it on a tie (the opposite edge is parallel); a corner is not
    # paired with itself.
    sizes = np.asarray(sizes, dtype=np.intp)
    m, e = np.repeat(sizes, sizes), np.arange(len(px))
    o = np.repeat(np.cumsum(sizes) - sizes, sizes)
    far, tie = np.array(far, dtype=np.intp), np.array(tie, dtype=bool)
    e1, after, far = o + (e - o + 1) % m, o + (far + 1) % m, o + far
    a = np.concatenate([e, e1, e[tie], e1[tie]])
    b = np.concatenate([far, far, after[tie], after[tie]])
    # Sorted and deduplicated by hand: a process's first ``np.unique`` call
    # allocates about 1 MB once, which shows in a benchmark's peak RSS.
    key = np.sort((np.minimum(a, b) * len(e) + np.maximum(a, b))[a != b])
    key = key[np.diff(key, prepend=-1) != 0]
    return np.stack(np.divmod(key, len(e)), axis=1)


def antipodal_pairs(poly: ConvexPolygon) -> list[tuple[int, int]]:
    """Enumerate all antipodal vertex pairs by rotating calipers.

    For each edge, one pointer walks to the vertex farthest from the edge line
    (the walk is monotone around the polygon, so the whole scan is linear).
    That vertex is antipodal to both edge endpoints; when the next vertex is
    equally far the opposite edge is parallel and the tied vertex contributes
    the extra pair combinations. Returns the vertex-index pairs ``(i, j)``
    with i < j, deduplicated and sorted. This is the one-polygon call of
    ``_caliper_pairs``.
    """
    xs, ys = _coordinate_rows(poly.vertices)
    return list(map(tuple, _caliper_pairs(xs, ys, [len(xs)]).tolist()))


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
    point) decision has the operands and order of a scalar loop. Each
    lattice count of the generator is one call, on an edge table built once
    per outline. Per instance, ``generate`` makes 4-9 calls on the full
    lattice, one per sign class of the edges to build its bracket
    certificate, and 42-50 on the certificate's few dozen uncertain points.
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
