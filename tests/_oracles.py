"""Independent brute-force oracles used to derive expected test values.

Everything here is deliberately written against different primitives than the
library (angles instead of cross-product walks, literal enumeration instead
of greedy construction) so that agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from pondroute.geometry import EPS, ConvexPolygon, Point
from pondroute.instances import GenerationFailure

TWO_PI = 2.0 * math.pi


def xy_rows(points) -> list[list[float]]:
    """The x row over the y row of ``points``, as ``FarmInstance.xy`` takes them."""
    return [[p.x for p in points], [p.y for p in points]]


def left_sum(values) -> float:
    """Floats added one at a time from the left, as ``sum`` did before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


def instance_text_oracle(inst) -> str:
    """The instance file of ``inst``, each float written by its own ``%.17g``
    and nothing checked, as ``instances.save`` wrote it before it formatted
    each distinct node coordinate once."""
    def fmt(x: float) -> str:
        return "%.17g" % x

    lines = [
        "farm-instance v1",
        f"name: {inst.name}",
        f"seed: {inst.seed}",
        f"spacing: {fmt(inst.spacing)}",
        f"lattice_origin: {fmt(inst.lattice_origin.x)} {fmt(inst.lattice_origin.y)}",
        f"depot: {fmt(inst.depot.x)} {fmt(inst.depot.y)}",
        f"polygon: {len(inst.polygon)}",
        *(f"{fmt(p.x)} {fmt(p.y)}" for p in inst.polygon),
        f"nodes: {inst.xy.shape[1]}",
        *(f"{fmt(x)} {fmt(y)}" for x, y in zip(*inst.xy.tolist())),
    ]
    return "\n".join(lines) + "\n"


def hull_vertex_oracle(points: list[Point]) -> set[tuple[float, float]]:
    """O(n^3) extreme-point test: p is a hull vertex iff some line through p
    and another point has every remaining point strictly on one side."""
    coords = [(p.x, p.y) for p in points]
    vertices = set()
    for px, py in coords:
        for qx, qy in coords:
            if (qx, qy) == (px, py):
                continue
            sides = []
            for rx, ry in coords:
                if (rx, ry) in ((px, py), (qx, qy)):
                    continue
                sides.append((qx - px) * (ry - py) - (qy - py) * (rx - px))
            if all(s > 1e-12 for s in sides) or all(s < -1e-12 for s in sides):
                vertices.add((px, py))
                break
    return vertices


def hull_ring_oracle(points: list[Point]) -> list[tuple[float, float]]:
    """The monotone-chain ring over every distinct point, with no column
    filter: ``geometry._hull_ring`` as it was before the filter, so the
    filtered ring can be compared with it. A top within EPS of its
    neighbours' line is popped only when it lies within their chord's
    extent, as in ``geometry._chain``."""
    pts = sorted({(p.x, p.y) for p in points})
    if len(pts) < 3:
        return pts

    def build(seq: list[tuple[float, float]]) -> list[tuple[float, float]]:
        chain: list[tuple[float, float]] = []
        for x, y in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
                along = (ax - ox) * (x - ox) + (ay - oy) * (y - oy)
                chord = (x - ox) * (x - ox) + (y - oy) * (y - oy)
                if turn > 0.0 and (
                    turn > EPS * math.hypot(x - ox, y - oy) or not 0.0 <= along <= chord
                ):
                    break
                chain.pop()
            chain.append((x, y))
        return chain

    return build(pts)[:-1] + build(pts[::-1])[:-1]


def inside_oracle(poly: ConvexPolygon, x: float, y: float) -> bool:
    """One point against one edge at a time, in Python floats: outside as
    soon as it lies more than EPS (cross product over edge length) to the
    right of a CCW edge. A NaN cross product decides nothing."""
    for a, b in poly.edges():
        cross = (b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x)
        if cross < -EPS * math.hypot(b.x - a.x, b.y - a.y):
            return False
    return True


def lattice_points_oracle(poly: ConvexPolygon, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the lattice points inside the polygon, in (y, x) order, as
    a full meshgrid filtered by one array pass per edge."""
    xmin, ymin, xmax, ymax = poly.bounding_box()
    na = int(math.floor((xmax - xmin) / spacing + 1e-12)) + 1
    nb = int(math.floor((ymax - ymin) / spacing + 1e-12)) + 1
    xs = xmin + spacing * np.arange(na)
    ys = ymin + spacing * np.arange(nb)
    gx, gy = np.meshgrid(xs, ys)  # row-major flattening yields (y, x) order
    gx, gy = gx.ravel(), gy.ravel()
    inside = np.ones(gx.shape, dtype=bool)
    for a, b in poly.edges():
        cross = (b.x - a.x) * (gy - a.y) - (b.y - a.y) * (gx - a.x)
        inside &= ~(cross < -EPS * math.hypot(b.x - a.x, b.y - a.y))
    return gx[inside], gy[inside]


def spacing_oracle(
    poly: ConvexPolygon, target: int, minimum: int
) -> tuple[float | None, dict[float, int]]:
    """The spacing bisection with every count taken from the full meshgrid
    (``lattice_points_oracle``): the chosen spacing (None when no count
    fits) and each visited spacing's count, in visiting order."""
    counts: dict[float, int] = {}

    def count(s: float) -> int:
        if s not in counts:
            counts[s] = len(lattice_points_oracle(poly, s)[0])
        return counts[s]

    s0 = math.sqrt(max(poly.area(), 1e-12) / target)
    lo = hi = s0
    for _ in range(64):
        if count(lo) >= target:
            break
        lo *= 0.5
    else:
        raise GenerationFailure(f"could not bracket {target} lattice points from below")
    for _ in range(64):
        if count(hi) <= target:
            break
        hi *= 2.0
    else:
        raise GenerationFailure(f"could not bracket {target} lattice points from above")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if count(mid) >= target:
            lo = mid
        else:
            hi = mid
    fits = [
        (abs(c - target), -s) for s, c in counts.items() if c >= minimum and abs(c - target) <= 2
    ]
    return (-min(fits)[1] if fits else None), counts


def _support_arcs(poly: ConvexPolygon) -> list[tuple[float, float]]:
    """Per-vertex (start angle, width) of the directions where it is the argmax."""
    v = poly.vertices
    n = len(v)
    normals = []
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        normals.append(math.atan2(-(b.x - a.x), b.y - a.y))  # outward normal of CCW edge
    arcs = []
    for i in range(n):
        start = normals[i - 1]
        width = (normals[i] - start) % TWO_PI
        arcs.append((start % TWO_PI, width))
    return arcs


def antipodal_oracle_arcs(poly: ConvexPolygon, tol: float = 1e-9) -> set[tuple[int, int]]:
    """Exact continuous-limit direction sweep: (i, j) is antipodal iff the
    support arc of i overlaps the support arc of j rotated by pi."""
    arcs = _support_arcs(poly)
    n = len(poly.vertices)

    def in_arc(theta: float, start: float, width: float) -> bool:
        return (theta - start) % TWO_PI <= width + tol

    pairs = set()
    for i in range(n):
        ai, wi = arcs[i]
        for j in range(i + 1, n):
            aj, wj = (arcs[j][0] + math.pi) % TWO_PI, arcs[j][1]
            if in_arc(aj, ai, wi) or in_arc(ai, aj, wj):
                pairs.add((i, j))
    return pairs


def antipodal_oracle_sweep(
    poly: ConvexPolygon, n_directions: int = 1_000_000, tie_tol: float = 1e-12
) -> set[tuple[int, int]]:
    """Literal sampled direction sweep: for each direction record every
    (argmax, argmin) combination of vertex projections, ties included."""
    coords = np.array([[p.x, p.y] for p in poly.vertices])
    pairs: set[tuple[int, int]] = set()
    chunk = 100_000
    for lo in range(0, n_directions, chunk):
        theta = TWO_PI * np.arange(lo, min(lo + chunk, n_directions)) / n_directions
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        proj = dirs @ coords.T  # (directions, vertices)
        hi = proj.max(axis=1, keepdims=True)
        lo_ = proj.min(axis=1, keepdims=True)
        arg_hi = (proj >= hi - tie_tol).astype(np.int64)
        arg_lo = (proj <= lo_ + tie_tol).astype(np.int64)
        # together[a, b] = number of directions with a among the argmax and b
        # among the argmin vertices
        together = arg_hi.T @ arg_lo
        np.fill_diagonal(together, 0)
        for a, b in zip(*np.nonzero(together)):
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    return pairs


def caliper_walk_oracle(xs: list[float], ys: list[float]) -> list[tuple[int, int]]:
    """The rotating-calipers walk of ``geometry.antipodal_pairs`` over one
    strictly convex CCW polygon with corners (``xs``, ``ys``), one height at
    a time, frozen as the library had it before it walked many polygons at
    once."""
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


def distance(a: Point, b: Point) -> float:
    """Euclidean distance, the one ``math.hypot`` of the path oracles."""
    return math.hypot(a.x - b.x, a.y - b.y)


def path_length(seq: list[Point]) -> float:
    return sum(distance(a, b) for a, b in zip(seq, seq[1:]))


def tour_length(depot: Point, seq: list[Point]) -> float:
    """Depot-to-depot length of a route visiting ``seq`` in order."""
    if not seq:
        return 0.0
    return distance(depot, seq[0]) + path_length(seq) + distance(seq[-1], depot)


def min_fixed_endpoint_path(pts: list[Point], start: int, end: int) -> float:
    """Exhaustive minimum Hamiltonian path length with both endpoints fixed."""
    interior = [i for i in range(len(pts)) if i not in (start, end)]
    best = math.inf
    for perm in itertools.permutations(interior):
        seq = [pts[start]] + [pts[i] for i in perm] + [pts[end]]
        best = min(best, path_length(seq))
    return best


def min_depot_tour(depot: Point, pts: list[Point]) -> float:
    """Exhaustive minimum depot-anchored tour over all visit orders."""
    best = math.inf
    for perm in itertools.permutations(range(len(pts))):
        best = min(best, tour_length(depot, [pts[i] for i in perm]))
    return best


def brute_minmax(depot: Point, pts: list[Point], k: int) -> float:
    """Minimum over all k-way partitions and visit orders of the max route length."""
    n = len(pts)
    best = math.inf
    for labels in itertools.product(range(k), repeat=n):
        groups = [[i for i in range(n) if labels[i] == c] for c in range(k)]
        if any(not g for g in groups):
            continue
        worst = max(min_depot_tour(depot, [pts[i] for i in g]) for g in groups)
        best = min(best, worst)
    return best


def lane_sweep_oracle(
    pts: list[Point], pos_p: int, pos_q: int, spacing: float, stack_axis: str
) -> list[int]:
    """Per-candidate boustrophedon order, rebuilt from scratch for every call.

    Nodes are bucketed into lanes by their quantized offset from p along the
    stacking axis and each lane is swept along the other axis, alternating
    direction per visited lane. The sweep runs from p's lane toward q's lane;
    lanes behind p are taken right after p's lane, lanes beyond q right before
    q's lane, and q's own lane is reordered so q comes last.
    """
    if stack_axis == "y":
        sc = lambda pt: pt.y  # noqa: E731 - tiny accessors
        tc = lambda pt: pt.x  # noqa: E731
    else:
        sc = lambda pt: pt.x  # noqa: E731
        tc = lambda pt: pt.y  # noqa: E731

    p, q = pts[pos_p], pts[pos_q]
    lam = {pos: round((sc(pt) - sc(p)) / spacing) for pos, pt in enumerate(pts)}
    lanes: dict[int, list[int]] = {}
    for pos in range(len(pts)):
        if pos in (pos_p, pos_q):
            continue
        lanes.setdefault(lam[pos], []).append(pos)

    lp, lq = lam[pos_p], lam[pos_q]
    all_lams = sorted(set(lam.values()))
    if lq >= lp:
        rear = [v for v in all_lams if v < lp][::-1]
        mids = [v for v in all_lams if lp < v < lq]
        beyond = [v for v in all_lams if v > lq][::-1]
    else:
        rear = [v for v in all_lams if v > lp]
        mids = [v for v in all_lams if lq < v < lp][::-1]
        beyond = [v for v in all_lams if v < lq]
    visit = [lp] + rear + mids + beyond + ([lq] if lq != lp else [])

    order = [pos_p]
    start_members = sorted(
        lanes.get(lp, []), key=lambda i: (abs(tc(pts[i]) - tc(p)), tc(pts[i]), i)
    )
    order.extend(start_members)
    base_dir = 1
    if len(start_members) >= 1 and tc(pts[start_members[-1]]) < tc(p):
        base_dir = -1

    for step, lane in enumerate(visit[1:], start=1):
        members = lanes.get(lane, [])
        if not members:
            continue
        if lane == lq and lq != lp:
            members = sorted(members, key=lambda i: (-abs(tc(pts[i]) - tc(q)), tc(pts[i]), i))
        else:
            ascending = (base_dir * (-1) ** step) > 0
            members = sorted(members, key=lambda i: (tc(pts[i]), i), reverse=not ascending)
        order.extend(members)
    order.append(pos_q)
    return order


def serpentine_oracle(
    pts: list[Point], hull: ConvexPolygon, pair, orientation: str, spacing: float
) -> list[int]:
    """Both stacking axes swept from scratch; the shorter wins, ties to rows."""
    i, j = pair
    p_pt, q_pt = hull.vertices[i], hull.vertices[j]
    if orientation == "reverse":
        p_pt, q_pt = q_pt, p_pt
    pos_p = next(i for i, pt in enumerate(pts) if pt == p_pt)
    pos_q = next(i for i, pt in enumerate(pts) if pt == q_pt and i != pos_p)
    best_order, best_len = None, math.inf
    for stack_axis in ("y", "x"):
        order = lane_sweep_oracle(pts, pos_p, pos_q, spacing, stack_axis)
        length = left_sum(distance(pts[a], pts[b]) for a, b in zip(order, order[1:]))
        if length < best_len - 1e-12:
            best_order, best_len = order, length
    return best_order


def route_cluster_oracle(
    members: list[tuple[int, Point]], depot: Point, spacing: float
) -> tuple[tuple[int, ...], float]:
    """(node order, depot-to-depot length) of the best serpentine candidate,
    every antipodal pair and orientation swept from scratch in (i, j,
    orientation) order; a later candidate wins only by more than 1e-12."""
    from pondroute.geometry import antipodal_pairs, convex_hull

    ids = [i for i, _ in members]
    pts = [pt for _, pt in members]
    hull = convex_hull(pts)
    best: tuple[float, list[int]] | None = None
    for pair in antipodal_pairs(hull):
        for orientation in ("forward", "reverse"):
            order = serpentine_oracle(pts, hull, pair, orientation, spacing)
            seq = [pts[t] for t in order]
            length = distance(depot, seq[0])
            for a, b in zip(seq, seq[1:]):
                length += distance(a, b)
            length += distance(seq[-1], depot)
            if best is None or length < best[0] - 1e-12:
                best = (length, order)
    return tuple(ids[t] for t in best[1]), best[0]


def convex_intersection_area(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Area of the intersection of two convex polygons.

    Sutherland-Hodgman clipping ("Reentrant polygon clipping", 1974): ``a``
    is clipped by the inner half-plane of each CCW edge of ``b`` in turn, then
    the shoelace formula measures what is left. Points on an edge count as
    inside, so polygons that only touch leave a zero-area sliver.
    """
    ring = [(p.x, p.y) for p in a.vertices]
    clip = [(p.x, p.y) for p in b.vertices]
    for (ex, ey), (fx, fy) in zip(clip, clip[1:] + clip[:1]):

        def side(x: float, y: float) -> float:
            return (fx - ex) * (y - ey) - (fy - ey) * (x - ex)

        kept = []
        for (px, py), (qx, qy) in zip(ring[-1:] + ring[:-1], ring):
            sp, sq = side(px, py), side(qx, qy)
            if (sp >= 0) != (sq >= 0):  # the edge p -> q crosses the clip line
                t = sp / (sp - sq)
                kept.append((px + t * (qx - px), py + t * (qy - py)))
            if sq >= 0:
                kept.append((qx, qy))
        ring = kept
        if not ring:
            return 0.0
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]))
    return 0.5 * twice


def hull_overlap_area(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """``convex_intersection_area``, checked against shapely when it is installed."""
    area = convex_intersection_area(a, b)
    try:
        from shapely.geometry import Polygon
    except ImportError:
        return area
    reference = Polygon([(p.x, p.y) for p in a.vertices]).intersection(
        Polygon([(p.x, p.y) for p in b.vertices])
    ).area
    assert math.isclose(area, reference, rel_tol=1e-9, abs_tol=1e-12), (area, reference)
    return max(area, reference)


def repair_oracle(assign, nodes: list[Point]):
    """Cluster repair as first written: every step rescans the labels, and
    every member of every donor is tested for safety by building the hull of
    the donor without it; the nearest safe member moves, else the nearest."""
    from pondroute.hpp import MIN_CLUSTER_SIZE, ClusterAssignment, RepairImpossible

    def _cluster_valid(pts: list[Point]) -> bool:
        return len(hull_ring_oracle(pts)) >= 3

    k = assign.k
    n = len(nodes)
    if n < MIN_CLUSTER_SIZE * k:
        raise RepairImpossible(
            f"{n} nodes cannot give {k} clusters {MIN_CLUSTER_SIZE} members each"
        )
    labels = list(assign.labels)

    def member_ids(c: int) -> list[int]:
        return [i for i, lab in enumerate(labels) if lab == c]

    def centroid(ids: list[int]) -> Point:
        return Point(
            left_sum(nodes[i].x for i in ids) / len(ids),
            left_sum(nodes[i].y for i in ids) / len(ids),
        )

    for _ in range(10 * n):
        invalid = next(
            (c for c in range(k) if not _cluster_valid([nodes[i] for i in member_ids(c)])),
            None,
        )
        if invalid is None:
            break
        target = centroid(member_ids(invalid))
        members = {c: member_ids(c) for c in range(k)}
        donors = [c for c in range(k) if c != invalid and len(members[c]) > MIN_CLUSTER_SIZE]
        if not donors:
            biggest = max(
                (c for c in range(k) if c != invalid and len(members[c]) > 1),
                key=lambda c: (len(members[c]), -c),
                default=None,
            )
            if biggest is None:
                raise RepairImpossible("no cluster can donate a node")
            donors = [biggest]
        safe, unsafe = [], []
        for c in donors:
            for i in members[c]:
                rest = [nodes[m] for m in members[c] if m != i]
                (safe if _cluster_valid(rest) else unsafe).append(i)
        candidates = safe or unsafe
        moved = min(candidates, key=lambda i: (distance(nodes[i], target), i))
        labels[moved] = invalid
    else:
        raise RepairImpossible("cluster repair did not converge")

    centroids = tuple(centroid(member_ids(c)) for c in range(k))
    return ClusterAssignment(labels=tuple(labels), centroids=centroids)


# ---------------------------------------------------------------------------
# minmax-ls as first written: every 2-opt pass gathers two m x m blocks of the
# distance matrix and scans every move; construction and insertion loop in
# Python. The library's version must agree with it bit for bit.

LS_TWO_OPT_MAX_PASSES = 1000
LS_IMPROVE_EPS = 1e-12
LS_RELOCATE_CANDIDATES = 10


def distance_matrix_oracle(inst) -> np.ndarray:
    """Euclidean distances over the nodes plus the depot at index n."""
    coords = np.array(
        [[p.x, p.y] for p in inst.nodes] + [[inst.depot.x, inst.depot.y]], dtype=float
    )
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def route_cost_oracle(D: np.ndarray, depot: int, order: list[int]) -> float:
    if not order:
        return 0.0
    cost = D[depot, order[0]] + D[order[-1], depot]
    for a, b in zip(order, order[1:]):
        cost += D[a, b]
    return float(cost)


def two_opt_oracle(order: list[int], D: np.ndarray, depot: int) -> list[int]:
    order = list(order)
    m = len(order)
    if m < 3:
        return order
    for _ in range(LS_TWO_OPT_MAX_PASSES):
        P = np.empty(m + 2, dtype=int)
        P[0] = P[-1] = depot
        P[1:-1] = order
        # delta[i, j] = cost change of reversing order[i..j]
        new_a = D[np.ix_(P[:m], P[1 : m + 1])]
        new_b = D[np.ix_(P[1 : m + 1], P[2 : m + 2])]
        cons = D[P[:-1], P[1:]]
        delta = new_a + new_b - cons[:m, None] - cons[None, 1 : m + 1]
        delta = np.triu(delta, k=1)  # only i < j moves are meaningful
        i, j = np.unravel_index(np.argmin(delta), delta.shape)
        if delta[i, j] >= -LS_IMPROVE_EPS:
            break
        order[i : j + 1] = order[i : j + 1][::-1]
    return order


def nearest_neighbor_oracle(nodes: list[int], D: np.ndarray, depot: int) -> list[int]:
    remaining = list(nodes)
    order: list[int] = []
    current = depot
    while remaining:
        nxt = min(remaining, key=lambda i: (D[current, i], i))
        order.append(nxt)
        remaining.remove(nxt)
        current = nxt
    return order


def sector_partition_oracle(inst, k: int) -> list[list[int]]:
    """Split nodes into k contiguous angular sectors of near-equal counts (+-1).

    The sweep starts at the angle of node 0 relative to the depot; angular
    ties break by radius, then index.
    """
    dx, dy = inst.depot.x, inst.depot.y
    angles = [math.atan2(p.y - dy, p.x - dx) for p in inst.nodes]
    base = angles[0]
    keyed = sorted(
        range(len(inst.nodes)),
        key=lambda i: (
            (angles[i] - base) % (2.0 * math.pi),
            math.hypot(inst.nodes[i].x - dx, inst.nodes[i].y - dy),
            i,
        ),
    )
    n = len(keyed)
    quota, extra = divmod(n, k)
    sectors = []
    pos = 0
    for c in range(k):
        size = quota + (1 if c < extra else 0)
        sectors.append(keyed[pos : pos + size])
        pos += size
    return sectors


def best_insertion_oracle(
    order: list[int], node: int, D: np.ndarray, depot: int
) -> tuple[int, float]:
    P = [depot] + order + [depot]
    best_pos, best_delta = 0, math.inf
    for pos in range(len(order) + 1):
        delta = D[P[pos], node] + D[node, P[pos + 1]] - D[P[pos], P[pos + 1]]
        if delta < best_delta - LS_IMPROVE_EPS:
            best_pos, best_delta = pos, float(delta)
    return best_pos, best_delta


def minmax_ls_oracle(inst, k: int = 5, seed: int = 0, max_iterations: int = 100, trace=None):
    """Sector sweep + 2-opt + longest-route relocation, as first written."""
    from pondroute.solution import InvalidK, Route, Solution

    n = len(inst.nodes)
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    D, depot = distance_matrix_oracle(inst), n

    orders = [
        two_opt_oracle(nearest_neighbor_oracle(sector, D, depot), D, depot)
        for sector in sector_partition_oracle(inst, k)
    ]
    lengths = [route_cost_oracle(D, depot, o) for o in orders]
    if trace is not None:
        trace.append(max(lengths))

    for _ in range(max_iterations if k > 1 else 0):
        cur_max = max(lengths)
        longest = min(r for r in range(k) if lengths[r] == cur_max)
        if len(orders[longest]) < 2:
            break

        other_centroids = {}
        for r in range(k):
            if r == longest or not orders[r]:
                continue
            xs = [inst.nodes[i].x for i in orders[r]]
            ys = [inst.nodes[i].y for i in orders[r]]
            other_centroids[r] = (left_sum(xs) / len(xs), left_sum(ys) / len(ys))

        def centroid_gap(i: int) -> float:
            px, py = inst.nodes[i].x, inst.nodes[i].y
            return min(math.hypot(px - cx, py - cy) for cx, cy in other_centroids.values())

        candidates = sorted(orders[longest], key=lambda i: (centroid_gap(i), i))
        candidates = candidates[:LS_RELOCATE_CANDIDATES]

        scored = []
        P = [depot] + orders[longest] + [depot]
        pos_of = {node: t for t, node in enumerate(orders[longest])}
        others_max = max((lengths[r] for r in range(k) if r != longest), default=0.0)
        for node in candidates:
            t = pos_of[node]
            gain = D[P[t], node] + D[node, P[t + 2]] - D[P[t], P[t + 2]]
            for target in range(k):
                if target == longest:
                    continue
                _, ins = best_insertion_oracle(orders[target], node, D, depot)
                est = max(lengths[longest] - gain, lengths[target] + ins, others_max)
                scored.append((float(est), node, target))
        scored.sort()

        best_move = None
        for _, node, target in scored[:LS_RELOCATE_CANDIDATES]:
            trimmed = [i for i in orders[longest] if i != node]
            trimmed = two_opt_oracle(trimmed, D, depot)
            pos, _ = best_insertion_oracle(orders[target], node, D, depot)
            grown = orders[target][:pos] + [node] + orders[target][pos:]
            grown = two_opt_oracle(grown, D, depot)
            new_lengths = list(lengths)
            new_lengths[longest] = route_cost_oracle(D, depot, trimmed)
            new_lengths[target] = route_cost_oracle(D, depot, grown)
            new_max = max(new_lengths)
            if new_max < cur_max - LS_IMPROVE_EPS:
                key = (new_max, node, target)
                if best_move is None or key < (best_move[0], best_move[1], best_move[2]):
                    best_move = (new_max, node, target, trimmed, grown)
        if best_move is None:
            break
        _, node, target, trimmed, grown = best_move
        orders[longest] = trimmed
        orders[target] = grown
        lengths[longest] = route_cost_oracle(D, depot, trimmed)
        lengths[target] = route_cost_oracle(D, depot, grown)
        if trace is not None:
            trace.append(max(lengths))

    routes = tuple(
        Route(node_order=tuple(order), length=route_cost_oracle(D, depot, order))
        for order in orders
    )
    return Solution(instance_ref=inst.name, algorithm="minmax-ls", seed=seed, routes=routes)


# ---------------------------------------------------------------------------
# A minmax-ls helper copied verbatim from the library before its relocation
# step became table operations over all trials and targets: the 2-opt screen
# of the moves that drop a changed edge. The library's table version must
# agree with it bit for bit.

_IMPROVE_EPS = LS_IMPROVE_EPS


def _screen(D: np.ndarray, P: np.ndarray, changed: tuple[int, ...]) -> tuple[int, int] | None:
    """``two_opt``'s first pass when only moves that drop a ``changed`` edge
    can gain more than ``_IMPROVE_EPS``: the pass's move, or None to stop.

    It reads the rows and the columns of the full pass's distance block that
    touch the changed edges. Each block of moves below holds (i, e - 1),
    i < e - 1, or (e, j), j > e, for one changed edge e, computed as the
    full pass computes them, with the flat index i * m + j of its first move
    and the step between moves.
    """
    m = len(P) - 2
    lo, hi = min(changed), max(changed) + 2
    rows = D[P[lo:hi, None], P]  # rows[a - lo, b] = D[P[a], P[b]]
    cols = D[P[:, None], P[lo:hi]]  # cols[a, b - lo] = D[P[a], P[b]]
    cons = D[P[:-1], P[1:]]
    blocks = []
    for e in changed:
        c = e - lo
        if e >= 2:
            col = cols[: e - 1, c] + cols[1:e, c + 1] - cons[: e - 1] - cons[e]
            blocks.append((col, e - 1, m))
        if e <= m - 2:
            row = rows[c, e + 2 : m + 1] + rows[c + 1, e + 3 :] - cons[e] - cons[e + 2 :]
            blocks.append((row, e * m + e + 1, 1))
    if all(vals.min() >= -_IMPROVE_EPS for vals, _, _ in blocks):
        return None
    # The full pass's argmin: the first NaN, else the first minimum.
    vals = np.concatenate([v for v, _, _ in blocks])
    flat = np.concatenate([first + step * np.arange(len(v)) for v, first, step in blocks])
    pick = np.isnan(vals)
    if not pick.any():
        pick = vals == vals.min()
    i, j = divmod(int(flat[pick].min()), m)
    return i, j


# ---------------------------------------------------------------------------
# The exact oracle as first written: the subset DP relaxes one (mask, last,
# prev) triple at a time, parent pointers live in one dict per mask, and
# partitions come from a recursive generator and are compared one key at a
# time. The library's version must write the same bytes.


def subset_tours_oracle(
    D: np.ndarray, n: int, depot: int
) -> tuple[np.ndarray, np.ndarray, list[dict[int, int]]]:
    """Optimal depot-to-depot tour cost for every non-empty node subset.

    Returns (cost per mask, best final node per mask, parent pointers).
    dp[mask][last] = cheapest depot -> ... -> last path visiting exactly
    ``mask``; closing back to the depot is taken at query time.
    """
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent: list[dict[int, int]] = [dict() for _ in range(size)]
    for v in range(n):
        dp[1 << v][v] = D[depot, v]
    for mask in range(1, size):
        for last in range(n):
            if not mask & (1 << last):
                continue
            prev_mask = mask ^ (1 << last)
            if prev_mask == 0:
                continue
            best_cost, best_prev = np.inf, -1
            for prev in range(n):
                if not prev_mask & (1 << prev):
                    continue
                c = dp[prev_mask][prev] + D[prev, last]
                if c < best_cost:
                    best_cost, best_prev = c, prev
            dp[mask][last] = best_cost
            parent[mask][last] = best_prev

    tour_cost = np.full(size, np.inf)
    tour_last = np.full(size, -1, dtype=int)
    for mask in range(1, size):
        closes = dp[mask] + D[:n, depot]
        last = int(np.argmin(closes))
        tour_cost[mask] = closes[last]
        tour_last[mask] = last
    return tour_cost, tour_last, parent


def reconstruct_oracle(parent: list[dict[int, int]], mask: int, last: int) -> list[int]:
    order = [last]
    while parent[mask].get(last, -1) >= 0:
        prev = parent[mask][last]
        mask ^= 1 << last
        last = prev
        order.append(last)
    return order[::-1]


def partitions_oracle(full: int, k: int):
    """Yield tuples of k disjoint non-empty masks covering ``full`` exactly once."""
    if k == 1:
        yield (full,)
        return
    lowest = full & -full
    rest = full ^ lowest
    sub = rest
    while True:
        first = lowest | sub
        remainder = full ^ first
        if remainder:
            if k == 2:
                yield (first, remainder)
            else:
                for tail in partitions_oracle(remainder, k - 1):
                    yield (first,) + tail
        if sub == 0:
            break
        sub = (sub - 1) & rest


def exact_oracle(inst, k: int):
    """Exhaustive min-max optimum for tiny instances (n <= 10, k <= 3).

    Minimizes the maximum route length over all partitions into k non-empty
    routes and all visit orders; ties break by total distance, then by the
    lexicographically smallest canonical route content.
    """
    from pondroute.baseline import EXACT_MAX_NODES, EXACT_MAX_ROUTES, TooLarge
    from pondroute.solution import InvalidK, Route, Solution

    n = len(inst.nodes)
    if n > EXACT_MAX_NODES or k > EXACT_MAX_ROUTES:
        raise TooLarge(
            f"exact oracle is limited to {EXACT_MAX_NODES} nodes and "
            f"{EXACT_MAX_ROUTES} routes, got n={n}, k={k}"
        )
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    D, depot = distance_matrix_oracle(inst), n
    tour_cost, tour_last, parent = subset_tours_oracle(D, n, depot)
    full = (1 << n) - 1

    best_key: tuple[float, float] | None = None
    best_parts: list[tuple[int, ...]] | None = None
    for parts in partitions_oracle(full, k):
        costs = [tour_cost[m] for m in parts]
        key = (max(costs), float(left_sum(costs)))
        if best_key is None or key < best_key:
            best_key, best_parts = key, [parts]
        elif key == best_key:
            best_parts.append(parts)

    assert best_parts is not None

    def canonical_routes(parts) -> list[tuple[tuple[int, ...], float]]:
        routes = []
        for mask in parts:
            order = reconstruct_oracle(parent, mask, int(tour_last[mask]))
            fwd, rev = tuple(order), tuple(order[::-1])
            chosen = min(fwd, rev)
            routes.append((chosen, route_cost_oracle(D, depot, list(chosen))))
        routes.sort(key=lambda item: item[0])
        return routes

    chosen = min(canonical_routes(p) for p in best_parts)
    routes = tuple(Route(node_order=order, length=length) for order, length in chosen)
    return Solution(instance_ref=inst.name, algorithm="exact", seed=0, routes=routes)


# ---------------------------------------------------------------------------
# k-means as first written: each Lloyd round sums an (n, k, 2) broadcast over
# its last axis and takes k boolean-mask means. The library's version must
# return the same labels and centroids bit for bit, and the same errors.

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 100


def _assign_labels_oracle(pts: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    from pondroute.hpp import RepairImpossible

    k = len(cents)
    cents = cents.copy()
    for _ in range(2 * k + 1):
        d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        sizes = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return labels, cents
        farthest = int(d2.min(axis=1).argmax())
        cents[int(empty[0])] = pts[farthest]
    raise RepairImpossible("could not repair empty clusters")


def _kmeans_pp_init_oracle(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(pts)
    chosen = [int(rng.integers(n))]
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            nxt = next(i for i in range(n) if i not in chosen)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            nxt = min(nxt, n - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return pts[chosen].copy()


def kmeans_oracle(nodes: list[Point], k: int, seed: int):
    from pondroute.hpp import ClusterAssignment
    from pondroute.rng import make_rng

    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(nodes) < k:
        raise ValueError(f"need at least k={k} nodes, got {len(nodes)}")
    pts = np.array([[p.x, p.y] for p in nodes], dtype=float)
    rng = make_rng(seed)
    cents = _kmeans_pp_init_oracle(pts, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        labels, cents = _assign_labels_oracle(pts, cents)
        new_cents = np.vstack([pts[labels == c].mean(axis=0) for c in range(k)])
        if float(np.abs(new_cents - cents).max()) < KMEANS_TOL:
            break
        cents = new_cents
    else:
        labels, cents = _assign_labels_oracle(pts, cents)
    return ClusterAssignment(
        labels=tuple(int(x) for x in labels),
        centroids=tuple(Point(float(x), float(y)) for x, y in cents),
    )
