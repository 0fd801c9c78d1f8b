"""Cluster-then-route coverage solver (`hpp`).

Pipeline: k-means over the node set, cluster repair so every cluster can form
a polygon, then one boustrophedon sweep per cluster anchored at an antipodal
pair of the cluster hull. Every antipodal pair is tried in both orientations
and the candidate with the shortest depot-to-depot length wins.

Candidates are scored without building them. Per cluster and stacking axis
(rows, columns) the nodes are bucketed into lanes and sorted once; a
candidate's length is then summed lane by lane from each lane's end points,
its internal length and the hops between lanes, O(#lanes) per candidate
instead of a sort and a full walk. Only candidates within rounding of the
best are built in full and re-scored by exact summation, so the chosen route
and its stored length are the ones exhaustive scoring gives. A cluster of m
nodes with h hull vertices costs one vectorised O(h * m) quantization, an
O(m log m) sort per distinct lane table (one per axis on a lattice),
O(h * #lanes) to score every candidate, and O(m) per exact re-score (about
two per cluster on generated instances). The routes come back as a
``solution.Solution``, whose module also holds the file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .geometry import (
    AntipodalPair,
    ConvexPolygon,
    Point,
    antipodal_pairs,
    collinear,
    convex_hull,
    dist,
)
from .instances import FarmInstance, _left_sum
from .rng import make_rng
from .solution import InvalidK, Route, Solution, route_length
# Re-exported: the benchmark digests solution files through hpp.save_solution.
from .solution import save_solution  # noqa: F401

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 100
MIN_CLUSTER_SIZE = 3
NEAR_BEST = 1e-9  # relative slack of route_cluster's exact re-scoring


class RepairImpossible(RuntimeError):
    """Clusters cannot all be filled, or cannot all reach 3 non-collinear members."""


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    centroids: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.centroids:
            raise ValueError("need at least one centroid")
        counts = [0] * self.k
        for lab in self.labels:
            if not 0 <= lab < self.k:
                raise ValueError(f"label {lab} out of range for k={self.k}")
            counts[lab] += 1
        if any(c == 0 for c in counts):
            raise ValueError("every cluster must be non-empty")

    @property
    def k(self) -> int:
        return len(self.centroids)

    def members(self, c: int) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == c]


# ---------------------------------------------------------------------------
# clustering


def _assign_labels(pts: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels (ties to the lowest index), reseeding empty clusters.

    An empty cluster's centroid is moved onto the point farthest from its
    nearest centroid, then labels are recomputed. Raises RepairImpossible when
    a cluster is still empty after ``2 * k + 1`` rounds.
    """
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


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def kmeans(nodes: Sequence[Point], k: int, seed: int) -> ClusterAssignment:
    """Lloyd's algorithm from k-means++ seeding; deterministic for a fixed seed.

    Stops when the largest centroid movement falls below 1e-9 or after 100
    iterations; returned labels are exactly nearest-centroid with respect to
    the returned centroids. Raises RepairImpossible when some cluster stays
    empty, as it must when the nodes sit on fewer than ``k`` distinct positions.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(nodes) < k:
        raise ValueError(f"need at least k={k} nodes, got {len(nodes)}")
    pts = np.array([[p.x, p.y] for p in nodes], dtype=float)
    rng = make_rng(seed)
    cents = _kmeans_pp_init(pts, k, rng)
    for _ in range(KMEANS_MAX_ITER):
        labels, cents = _assign_labels(pts, cents)
        new_cents = np.vstack([pts[labels == c].mean(axis=0) for c in range(k)])
        if float(np.abs(new_cents - cents).max()) < KMEANS_TOL:
            break
        cents = new_cents
    else:
        labels, cents = _assign_labels(pts, cents)
    return ClusterAssignment(
        labels=tuple(int(x) for x in labels),
        centroids=tuple(Point(float(x), float(y)) for x, y in cents),
    )


def _cluster_valid(member_pts: list[Point]) -> bool:
    return len(member_pts) >= MIN_CLUSTER_SIZE and not collinear(member_pts)


def repair_clusters(assign: ClusterAssignment, nodes: Sequence[Point]) -> ClusterAssignment:
    """Grow invalid clusters until each has >= 3 non-collinear members.

    While some cluster is invalid it absorbs the node nearest to its centroid,
    drawn from clusters with more than 3 members; if none can spare a node the
    most populous cluster donates. A node whose removal would leave its donor
    invalid is only taken when no safe candidate exists, which keeps the
    greedy loop from ping-ponging a node between two small clusters.
    Centroids are recomputed after each move. Candidates are tried nearest
    first, so a donor hull is built only until a safe one is found, and at
    most once per step for each (donor, position): copies of one position
    leave the same point set behind.
    """
    k = assign.k
    n = len(nodes)
    if n < MIN_CLUSTER_SIZE * k:
        raise RepairImpossible(
            f"{n} nodes cannot give {k} clusters {MIN_CLUSTER_SIZE} members each"
        )
    labels = list(assign.labels)
    members: list[list[int]] = [[] for _ in range(k)]  # ascending node indices
    for i, lab in enumerate(labels):
        members[lab].append(i)

    def centroid(ids: list[int]) -> Point:
        return Point(
            _left_sum(nodes[i].x for i in ids) / len(ids),
            _left_sum(nodes[i].y for i in ids) / len(ids),
        )

    safe: dict[tuple[int, Point], bool] = {}  # (donor, position) -> donor stays valid

    def leaves_donor_valid(i: int) -> bool:
        key = (labels[i], nodes[i])
        if key not in safe:
            safe[key] = _cluster_valid([nodes[m] for m in members[labels[i]] if m != i])
        return safe[key]

    for _ in range(10 * n):
        invalid = next(
            (c for c in range(k) if not _cluster_valid([nodes[i] for i in members[c]])),
            None,
        )
        if invalid is None:
            break
        target = centroid(members[invalid])
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
        nearest = sorted(
            (i for c in donors for i in members[c]),
            key=lambda i: (dist(nodes[i], target), i),
        )
        safe.clear()
        moved = next((i for i in nearest if leaves_donor_valid(i)), nearest[0])
        members[labels[moved]].remove(moved)
        members[invalid] = sorted(members[invalid] + [moved])
        labels[moved] = invalid
    else:
        raise RepairImpossible("cluster repair did not converge")

    centroids = tuple(centroid(ids) for ids in members)
    return ClusterAssignment(labels=tuple(labels), centroids=centroids)


# ---------------------------------------------------------------------------
# serpentine routing


class _Lanes:
    """One stacking axis of a cluster, bucketed into lanes and sorted once.

    ``lam`` holds each position's lane key and ``tc`` its coordinate along
    the lanes. Lanes are stored in key order; each lists its positions in
    (tc, position) order, with ``sums`` the length of that path. Any anchor
    whose own quantization puts the nodes into the same lanes in the same
    order shares the table, since a sweep depends only on that order.
    """

    def __init__(self, lam: np.ndarray, tc: np.ndarray, xy: np.ndarray) -> None:
        m = len(lam)
        by_lane = np.lexsort((np.arange(m), tc, lam))
        cuts = np.flatnonzero(np.diff(lam[by_lane])) + 1
        steps = np.hypot(*np.diff(xy[by_lane], axis=0).T)
        steps[cuts - 1] = 0.0  # hops between lanes
        bounds = [0, *cuts.tolist(), m]
        flat = by_lane.tolist()
        self.members = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        self.sums = np.add.reduceat(np.append(steps, 0.0), bounds[:-1]).tolist()
        lane_of = np.empty(m, dtype=np.intp)
        lane_of[by_lane] = np.repeat(np.arange(len(self.members)), np.diff(bounds))
        self.lane_of = lane_of.tolist()
        self.tc = tc.tolist()
        self.xs, self.ys = xy[:, 0].tolist(), xy[:, 1].tolist()
        self._anchor_lanes: dict[tuple[int, int, int], tuple[list[int], float]] = {}

    def _gap(self, a: int, b: int) -> float:
        return math.hypot(self.xs[a] - self.xs[b], self.ys[a] - self.ys[b])

    def _anchor_lane(
        self, lane: int, anchor: int, other: int, toward: int
    ) -> tuple[list[int], float]:
        """An anchor lane without the anchors, sorted by distance from ``anchor``
        along the lane (nearest first for ``toward`` 1, farthest first for -1),
        and the length of that path."""
        excluded = other if self.lane_of[other] == lane else -1
        key = (anchor, toward, excluded)
        if key not in self._anchor_lanes:
            tc, t0 = self.tc, self.tc[anchor]
            run = sorted(
                (i for i in self.members[lane] if i != anchor and i != other),
                key=lambda i: (toward * abs(tc[i] - t0), tc[i], i),
            )
            inner = _left_sum(self._gap(a, b) for a, b in zip(run, run[1:]))
            self._anchor_lanes[key] = (run, inner)
        return self._anchor_lanes[key]

    def runs(self, p: int, q: int) -> Iterator[tuple[list[int], bool, float]]:
        """(lane members, forward, path length) of each lane the sweep from p
        to q covers, in visit order; a backward lane is walked in reverse.

        The sweep starts in p's lane, nearest nodes first, then takes the
        lanes behind p, the lanes between p and q, the lanes beyond q from the
        far end back, and finally q's lane, farthest from q first. Directions
        alternate per lane after the first.
        """
        a, b = self.lane_of[p], self.lane_of[q]
        last = len(self.members) - 1
        if b >= a:
            visit = [*range(a - 1, -1, -1), *range(a + 1, b), *range(last, b, -1)]
        else:
            visit = [*range(a + 1, last + 1), *range(a - 1, b, -1), *range(b)]
        start, inner = self._anchor_lane(a, p, q, 1)
        if start:
            yield start, True, inner
        forward = bool(start) and self.tc[start[-1]] < self.tc[p]
        for lane in visit:
            yield self.members[lane], forward, self.sums[lane]
            forward = not forward
        if b != a:
            end, inner = self._anchor_lane(b, q, p, -1)
            if end:
                yield end, True, inner

    def length(self, p: int, q: int) -> float:
        """Path length of the sweep from p to q, summed lane by lane."""
        total, prev = 0.0, p
        for run, forward, inner in self.runs(p, q):
            head, tail = (run[0], run[-1]) if forward else (run[-1], run[0])
            total += self._gap(prev, head) + inner
            prev = tail
        return total + self._gap(prev, q)

    def order(self, p: int, q: int) -> list[int]:
        order = [p]
        for run, forward, _ in self.runs(p, q):
            order.extend(run if forward else reversed(run))
        order.append(q)
        return order


class _ClusterLanes:
    """Row (``"y"``) and column (``"x"``) lane tables of one cluster for the
    given start anchors.

    A sweep from anchor p quantizes each node's offset from p along the
    stacking axis, ``round((s - s_p) / spacing)``. All anchors are quantized
    at once with ``np.rint`` (half to even, like ``round``, on the same IEEE
    quotients), and anchors whose lanes come out as translates of each other
    share one table, so a lattice cluster builds one table per axis and
    off-lattice nodes still land in exactly the lanes p itself gives them.
    """

    def __init__(self, pts: Sequence[Point], starts: Sequence[int], spacing: float) -> None:
        xy = np.array([(pt.x, pt.y) for pt in pts], dtype=float)
        self.tables: dict[tuple[str, int], _Lanes] = {}
        for axis, s, t in (("y", 1, 0), ("x", 0, 1)):
            lam = np.rint((xy[:, s] - xy[starts, s][:, None]) / spacing)
            # float keys: an offset may be more than 2^63 spacings; + 0.0 turns -0.0 into 0.0
            lam = lam - lam.min(axis=1, keepdims=True) + 0.0
            shared: dict[bytes, _Lanes] = {}
            for p, row in zip(starts, lam):
                key = row.tobytes()
                if key not in shared:
                    shared[key] = _Lanes(row, xy[:, t], xy)
                self.tables[axis, p] = shared[key]

    def length(self, p: int, q: int) -> float:
        """Shorter of the row and column sweep lengths, summed from the tables."""
        return min(self.tables["y", p].length(p, q), self.tables["x", p].length(p, q))

    def order(self, p: int, q: int) -> list[int]:
        """Visit order from p to q: the shorter of the row and column sweeps by
        exact summation, ties within 1e-12 going to rows."""
        best_order: list[int] = []
        best_len = math.inf
        for axis in ("y", "x"):
            table = self.tables[axis, p]
            order = table.order(p, q)
            length = _left_sum(table._gap(a, b) for a, b in zip(order, order[1:]))
            if length < best_len - 1e-12:
                best_order, best_len = order, length
        return best_order


def _first_positions(pts: Sequence[Point]) -> dict[Point, int]:
    first: dict[Point, int] = {}
    for pos, pt in enumerate(pts):
        first.setdefault(pt, pos)
    return first


def serpentine_route(
    pts: Sequence[Point],
    hull: ConvexPolygon,
    pair: AntipodalPair,
    orientation: str,
    spacing: float,
) -> list[int]:
    """Back-and-forth visit order over ``pts`` anchored at an antipodal pair.

    ``orientation`` is ``"forward"`` (start at vertex ``pair.i``) or
    ``"reverse"``. Lane stacking along y (grid rows) and along x are both
    tried and the shorter sweep wins, ties going to rows. Returns positions
    into ``pts``; the first is the start anchor, the last the end anchor.
    """
    if orientation not in ("forward", "reverse"):
        raise ValueError(f"orientation must be 'forward' or 'reverse', got {orientation!r}")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    p_pt = hull.vertices[pair.i]
    q_pt = hull.vertices[pair.j]
    if orientation == "reverse":
        p_pt, q_pt = q_pt, p_pt
    first = _first_positions(pts)
    try:
        pos_p, pos_q = first[p_pt], first[q_pt]
    except KeyError:
        raise ValueError("anchor pair endpoints must be cluster nodes") from None
    return _ClusterLanes(pts, [pos_p], spacing).order(pos_p, pos_q)


def route_cluster(
    members: Sequence[tuple[int, Point]], depot: Point, spacing: float
) -> Route:
    """Best serpentine route for one cluster, depot legs included in the score.

    Every antipodal pair of the cluster hull is tried in both orientations;
    ties go to the lexicographically smallest (pair.i, pair.j, orientation).

    Each candidate is first scored from the cluster's lane tables. Only those
    within ``NEAR_BEST * max(1, lowest)`` plus 1e-12 per candidate of the
    lowest table score are built in full and scored by exact summation, in
    candidate order, a later one winning only by more than 1e-12. That picks
    the same route as building and summing every candidate: table and exact
    scores differ only by rounding, far below ``NEAR_BEST``, and a candidate
    whose exact length is more than 1e-12 per candidate above the shortest
    can neither win nor, through the 1e-12 rule, block one that would.
    """
    ids = [i for i, _ in members]
    pts = [pt for _, pt in members]
    hull = convex_hull(pts)
    first = _first_positions(pts)
    anchors = [first[v] for v in hull.vertices]
    lanes = _ClusterLanes(pts, anchors, spacing)
    ends = []
    for pair in antipodal_pairs(hull):
        p, q = anchors[pair.i], anchors[pair.j]
        ends += [(p, q), (q, p)]
    legs = {a: dist(depot, pts[a]) for a in anchors}
    scores = [legs[p] + lanes.length(p, q) + legs[q] for p, q in ends]
    low = min(scores)
    cutoff = low + NEAR_BEST * max(1.0, low) + 1e-12 * len(ends)
    best: tuple[float, list[int]] | None = None
    for (p, q), approx in zip(ends, scores):
        if approx > cutoff:
            continue
        order = lanes.order(p, q)
        length = route_length(depot, [pts[t] for t in order])
        if best is None or length < best[0] - 1e-12:
            best = (length, order)
    assert best is not None
    return Route(node_order=tuple(ids[t] for t in best[1]), length=best[0])


def hpp_solve(inst: FarmInstance, k: int = 5, seed: int = 0) -> Solution:
    """Cluster the instance into ``k`` groups and route each as a serpentine.

    Raises InvalidK unless ``1 <= k <= n // 3``, and RepairImpossible when the
    nodes cannot form ``k`` clusters of 3+ non-collinear members.
    """
    n = len(inst.nodes)
    if k < 1 or MIN_CLUSTER_SIZE * k > n:
        raise InvalidK(
            f"k={k} is infeasible: {n} nodes support between 1 and "
            f"{n // MIN_CLUSTER_SIZE} routes of {MIN_CLUSTER_SIZE}+ nodes each"
        )
    assign = kmeans(inst.nodes, k, seed)
    assign = repair_clusters(assign, inst.nodes)
    routes = []
    for c in range(k):
        members = [(i, inst.nodes[i]) for i in assign.members(c)]
        routes.append(route_cluster(members, inst.depot, inst.spacing))
    return Solution(instance_ref=inst.name, algorithm="hpp", seed=seed, routes=tuple(routes))

