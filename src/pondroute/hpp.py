"""Cluster-then-route coverage solver (`hpp`).

Pipeline: k-means over the node set, then one boustrophedon sweep per cluster
anchored at an antipodal pair of the cluster hull. That hull is the only
validity check: cluster repair runs only when some k-means cluster spans no
polygon, and the repaired clusters are then routed instead. Every antipodal
pair is tried in both orientations and the candidate with the shortest
depot-to-depot length wins. A k-means round over n nodes and k clusters
costs two ``bincount``s for the new centroids, O(n) bound updates and the
squared distances, one ``argmin`` and one ``min`` over k entries of only the
nodes whose bounds overlap (about a fifth of them at n = 2000, k = 20). The
full (k, n) table is built in the first round, in a round that leaves a
cluster empty, at the iteration cap, and in every round when n * k < 10000.

Candidates are scored without building them. Per cluster and stacking axis
(rows, columns) the nodes are bucketed into lanes and sorted once, and each
lane table keeps prefix sums of its lane lengths and of the hops between
adjacent lanes. A sweep from anchor p to anchor q walks the rest of p's lane
away from p, then the lanes behind p, the lanes between p and q, and the
lanes beyond q from the far end back, alternating direction per lane, and
ends with the rest of q's lane toward q. A candidate's table length is then
O(1): its two anchor runs are the rest of the anchors' lanes, and the lanes
between them are a few prefix differences. An anchor lane is sorted, for
scoring and building alike, only when it holds both anchors, when the
anchor sits inside it (off-lattice clusters), or when distances along it
tie. Only candidates within rounding of the best are built in full and
re-scored by exact summation, and each builds only the axis that can win
unless its two table lengths are that close too, so the chosen route and
its stored length are the ones exhaustive scoring gives. A cluster of m
nodes with h hull vertices costs one vectorised O(h * m) quantization, an
O(m log m) sort per distinct lane table (one per axis on a lattice), one
pass over each anchor's lane, O(1) per candidate, and O(m) per exact
re-score (about two per cluster on generated instances). The routes come
back as a ``solution.Solution``, whose module also holds the file format.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    DegenerateInput,
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
_BOUNDED_MIN_ENTRIES = 10_000  # smallest n * k for which kmeans bounds its points


class RepairImpossible(RuntimeError):
    """Clusters cannot all be filled, or cannot all reach 3 non-collinear members."""


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    centroids: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.centroids:
            raise ValueError("need at least one centroid")
        k = len(self.centroids)
        counts = [0] * k
        for lab in self.labels:
            if not 0 <= lab < k:
                raise ValueError(f"label {lab} out of range for k={k}")
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


def _table(xs: np.ndarray, ys: np.ndarray, cents: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Squared distances from the centroids to the m points (``xs``, ``ys``),
    one row per centroid and one column per point, written into the first
    k * m entries of ``work[0]``.

    ``cents`` holds the centroid x row over the y row, and ``work`` is
    (2, k * n) scratch space with n >= m; reusing it across rounds saves
    faulting in two fresh tables each time. Every entry is
    ``(x - cx)**2 + (y - cy)**2`` in that order, so a point's column is the
    same floats whichever points are computed with it.
    """
    k, m = cents.shape[1], len(xs)
    d2, dy = work[:, : k * m].reshape(2, k, m)
    np.subtract(xs, cents[0][:, None], out=d2)
    np.subtract(ys, cents[1][:, None], out=dy)
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def _assign_labels(
    xs: np.ndarray, ys: np.ndarray, cents: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-centroid labels (ties to the lowest index) and cluster sizes
    from the full (k, n) ``_table``, reseeding empty clusters.

    An empty cluster's centroid is moved onto the point farthest from its
    nearest centroid, then labels are recomputed. On return ``work[0]``
    holds the table of the returned centroids. Raises RepairImpossible when
    a cluster is still empty after ``2 * k + 1`` rounds.
    """
    k = cents.shape[1]
    cents = cents.copy()
    for _ in range(2 * k + 1):
        d2 = _table(xs, ys, cents, work)
        labels = d2.argmin(axis=0)
        sizes = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size == 0:
            return labels, sizes, cents
        farthest = int(d2.min(axis=0).argmax())
        cents[:, int(empty[0])] = xs[farthest], ys[farthest]
    raise RepairImpossible("could not repair empty clusters")


def _bounds(d2: np.ndarray, labels: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """``kmeans``' upper and lower bounds of the points whose ``_table``
    columns are ``d2`` and labels ``labels``: the root of the own entry plus
    ``slack``, and the root of the smallest other entry minus ``slack``.
    Overwrites the own entries."""
    own = (labels, np.arange(len(labels)))
    upper = np.sqrt(d2[own])
    upper += slack
    d2[own] = np.inf
    lower = np.sqrt(d2.min(axis=0))
    lower -= slack
    return upper, lower


def _bound_slack(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """``kmeans``' bound slack, 2^-40 s for the instance scale s: the smallest
    power of two at least the largest |coordinate|, 1 when every coordinate
    is 0. None when s is outside [2^-400, 2^400], where the rounding argument
    in ``kmeans`` does not hold."""
    top = max(float(np.abs(xs).max()), float(np.abs(ys).max()))
    mantissa, exponent = math.frexp(top)
    scale = math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent) if top else 1.0
    return 2.0**-40 * scale if 2.0**-400 <= scale <= 2.0**400 else None


def _kmeans_pp_init(
    xs: np.ndarray, ys: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(xs)
    chosen = [int(rng.integers(n))]
    d2 = (xs - xs[chosen[0]]) ** 2 + (ys - ys[chosen[0]]) ** 2
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            nxt = next(i for i in range(n) if i not in chosen)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            nxt = min(nxt, n - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, (xs - xs[nxt]) ** 2 + (ys - ys[nxt]) ** 2)
    return np.array([xs[chosen], ys[chosen]])


def kmeans(nodes: Sequence[Point], k: int, seed: int) -> ClusterAssignment:
    """Lloyd's algorithm from k-means++ seeding; deterministic for a fixed seed.

    Stops when no centroid coordinate moves by 1e-9 or more (the largest
    ``|dx|`` or ``|dy|``) or after 100 iterations; returned labels are exactly
    nearest-centroid with respect to the returned centroids. Raises
    RepairImpossible when some cluster stays empty, as it must when the nodes
    sit on fewer than ``k`` distinct positions.

    New centroids are two weighted ``bincount``s. ``bincount`` adds a
    cluster's coordinates one at a time in index order, so each centroid is
    the same float as the ``mean`` of its cluster's rows, up to the sign of a
    zero. A point's label is the ``argmin`` of its ``_table`` column, ties
    going to the lowest index. ``_assign_labels`` builds the full (k, n)
    table in the first round, in a round that leaves a cluster empty (its
    reseed needs the whole table) and at the iteration cap. Every other round
    recomputes, with the same operations, only the columns of the points
    whose label the bounds below do not fix (Hamerly 2010, "Making k-means
    even faster"), so labels and centroids are the floats that full tables
    give. A table of fewer than
    ``_BOUNDED_MIN_ENTRIES`` entries is cheaper to rebuild than to bound, so
    it is built in full every round, as it is when ``_bound_slack`` gives
    None.

    Each point keeps an upper bound ``u`` on its distance to its own
    centroid and a lower bound ``l`` on its distance to every other centroid,
    reset to the roots of its column's own and smallest other entry, plus
    and minus a slack delta. When the centroids move, ``u`` grows by its own
    centroid's move plus delta, and ``l`` shrinks by the largest move of any
    centroid plus delta. The point's column is recomputed only when
    ``u >= l``.

    Why a skipped point's ``argmin`` is its label. Let eps = 2^-53 and s the
    instance scale, the smallest power of two at least the largest
    |coordinate|, so that under 2^j scaling the same points are skipped.
    ``_bound_slack`` gives delta = 2^-40 s, for 2^-400 <= s <= 2^400. Take
    m = delta / 2. Centroids are points or means of points, so every
    point-centroid distance and every centroid move is below 3s, and each
    relative error below is also absolute, a multiple of eps s.

    - A table entry is four rounded operations on d^2 (differences, squares,
      sum): d^2 (1 + t) with |t| <= 4 eps, plus at most 2^-1072 from gradual
      underflow. Its root is d within 3 eps d < 9 eps s. A reset adds delta,
      rounding by 3 eps s more, so it leaves ``u >= d_own + m`` and
      ``l <= d_other - m`` with d the exact distances.
    - A move's two rounded differences and ``hypot`` are off by at most
      3 eps of it, under 9 eps s. A point can be skipped only while both
      bounds are below 3s: ``l`` only shrinks from a root, and ``u`` only
      grows and must stay under ``l``. So adding delta to the move and then
      the move to the bound rounds by at most 9 eps s more. ``l -= ...`` can
      cancel, so these errors are absolute and would add up over rounds;
      but each round's delta covers its own error, and by the triangle
      inequality ``u >= d_own + m`` and ``l <= d_other - m`` still hold.

    A skipped point then has d_other - d_own > 2m, so d_other^2 - d_own^2 >
    2m (d_other + d_own). The two entries are off by at most 4 eps (d_other^2
    + d_own^2) <= 24 eps s (d_other + d_own) plus 2^-1071, less than that
    when s >= 2^-400, so the own entry is strictly the smallest whatever the
    tie rule. Below s = 2^400 no square overflows. A wider slack only
    recomputes more points; it never changes a label.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(nodes) < k:
        raise ValueError(f"need at least k={k} nodes, got {len(nodes)}")
    xs = np.array([p.x for p in nodes], dtype=float)
    ys = np.array([p.y for p in nodes], dtype=float)
    rng = make_rng(seed)
    cents = _kmeans_pp_init(xs, ys, k, rng)
    slack = _bound_slack(xs, ys) if len(xs) * k >= _BOUNDED_MIN_ENTRIES else None
    work = np.empty((2, k * len(xs)))
    labels, sizes, cents = _assign_labels(xs, ys, cents, work)
    if slack is not None:
        upper, lower = _bounds(work[0].reshape(k, -1), labels, slack)
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        new_cents = np.array([np.bincount(labels, xs, k), np.bincount(labels, ys, k)]) / sizes
        moved = new_cents - cents
        if float(np.abs(moved).max()) < KMEANS_TOL:
            break
        cents = new_cents
        if slack is None or iteration == KMEANS_MAX_ITER:
            labels, sizes, cents = _assign_labels(xs, ys, cents, work)
            continue  # at the cap, the loop ends with these labels
        moves = np.hypot(moved[0], moved[1])
        moves += slack
        upper += moves[labels]
        lower -= moves.max()
        stale = np.flatnonzero(upper >= lower)
        if stale.size:
            d2 = _table(xs[stale], ys[stale], cents, work)
            relabelled = d2.argmin(axis=0)
            labels[stale] = relabelled
            upper[stale], lower[stale] = _bounds(d2, relabelled, slack)
        sizes = np.bincount(labels, minlength=k)
        if not sizes.all():
            labels, sizes, cents = _assign_labels(xs, ys, cents, work)
            upper, lower = _bounds(work[0].reshape(k, -1), labels, slack)
    return ClusterAssignment(
        labels=tuple(labels.tolist()),
        centroids=tuple(Point(x, y) for x, y in zip(*cents.tolist())),
    )


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
    leave the same point set behind. Raises ValueError unless there is one
    node per label.
    """
    k = assign.k
    n = len(nodes)
    if n != len(assign.labels):
        raise ValueError(f"{n} nodes for {len(assign.labels)} labels")
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
            safe[key] = not collinear([nodes[m] for m in members[labels[i]] if m != i])
        return safe[key]

    for _ in range(10 * n):
        invalid = next(
            (c for c in range(k) if collinear([nodes[i] for i in members[c]])),
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

    ``lam`` holds each position's lane key. ``xs`` and ``ys`` are the
    cluster's coordinate lists, shared by all its tables, and ``tc`` is the
    one along the lanes. Lanes are stored in key order; each lists its
    positions in (tc, position) order, with ``sums`` the length of that path.
    Any anchor whose own quantization puts the nodes into the same lanes in
    the same order shares the table, since a sweep depends only on that order.

    The sweep from p to q starts with p's anchor run, then covers the lanes
    of ``_spans`` (those behind p, those between p and q, and those beyond q
    from the far end back), alternating direction per lane, and ends with
    q's anchor run reversed. An anchor run is the anchor's lane without
    either anchor, nearest to the anchor first. It is the rest of the lane,
    unsorted, when the anchor is its lane's first or last member, the other
    anchor lies in another lane, and distances from the anchor strictly
    rise along it. Otherwise (both anchors in one lane, an anchor inside
    its lane, or tied distances) ``_anchor_lane`` sorts it.

    ``length`` scores a sweep in O(1) from prefix sums and ``order`` builds
    it. They add in different orders, so the two agree up to rounding.
    """

    def __init__(self, lam: np.ndarray, xy: np.ndarray, t: int, xys: list[list[float]]) -> None:
        m = len(lam)
        by_lane = np.lexsort((np.arange(m), xy[t], lam))
        cuts = np.flatnonzero(np.diff(lam[by_lane])) + 1
        steps = np.hypot(*np.diff(xy[:, by_lane], axis=1))
        steps[cuts - 1] = 0.0  # hops between lanes
        bounds = [0, *cuts.tolist(), m]
        flat = by_lane.tolist()
        self.members = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        self.sums = np.add.reduceat(np.append(steps, 0.0), bounds[:-1]).tolist()
        lane_of = np.empty(m, dtype=np.intp)
        lane_of[by_lane] = np.repeat(np.arange(len(self.members)), np.diff(bounds))
        self.lane_of = lane_of.tolist()
        self.xs, self.ys = xys
        self.tc = xys[t]
        # Scoring tables: prefix sums of the lane lengths, and of the hops
        # between adjacent lanes' first members or last members, alternating:
        # ``hops[0]`` hops between last members after an even lane and
        # between first members after an odd one, ``hops[1]`` the other way.
        self.prefix = [0.0, *itertools.accumulate(self.sums)]
        firsts = self.firsts = [flat[a] for a in bounds[:-1]]
        lasts = self.lasts = [flat[b - 1] for b in bounds[1:]]
        xs, ys, hypot = self.xs, self.ys, math.hypot
        first_hop = [hypot(xs[a] - xs[b], ys[a] - ys[b]) for a, b in zip(firsts, firsts[1:])]
        last_hop = [hypot(xs[a] - xs[b], ys[a] - ys[b]) for a, b in zip(lasts, lasts[1:])]
        even, odd = last_hop[:], first_hop[:]
        even[1::2], odd[1::2] = first_hop[1::2], last_hop[1::2]
        self.hops = ([0.0, *itertools.accumulate(even)], [0.0, *itertools.accumulate(odd)])
        self._rests: dict[int, tuple[list[int], float] | None] = {}

    def _gap(self, a: int, b: int) -> float:
        return math.hypot(self.xs[a] - self.xs[b], self.ys[a] - self.ys[b])

    def _spans(self, a: int, b: int) -> tuple[tuple[int, int, int], ...]:
        """(first, last, step) of the three spans of lanes that a sweep from
        lane a to lane b covers between its anchor runs, in visit order. A
        span with ``(last - first) * step < 0`` is empty."""
        last = len(self.members) - 1
        if b >= a:
            return ((a - 1, 0, -1), (a + 1, b - 1, 1), (last, b + 1, -1))
        return ((a + 1, last, 1), (a - 1, b + 1, -1), (0, b - 1, 1))

    def _anchor_run(self, anchor: int, other: int, toward: int) -> tuple[list[int], float]:
        """``anchor``'s run (``toward`` 1 for a start run, -1 for an end run)
        and the path length from ``anchor`` through it, 0.0 if it is empty.
        An unsorted run is cached once per anchor; with the hop from the
        anchor it is the whole lane's path."""
        lane = self.lane_of[anchor]
        if self.lane_of[other] != lane:
            if anchor not in self._rests:
                members, tc, t0 = self.members[lane], self.tc, self.tc[anchor]
                rest = members[1:] if anchor == members[0] else members[-2::-1]
                far = [abs(tc[i] - t0) for i in rest]
                rises = anchor in (members[0], members[-1]) and all(
                    a < b for a, b in zip(far, far[1:])
                )
                self._rests[anchor] = (rest, self.sums[lane]) if rises else None
            if self._rests[anchor] is not None:
                return self._rests[anchor]
        return self._anchor_lane(lane, anchor, other, toward)

    def _anchor_lane(
        self, lane: int, anchor: int, other: int, toward: int
    ) -> tuple[list[int], float]:
        """``_anchor_run``'s sorted run.

        The lane is sorted in visit order, by distance from ``anchor`` along
        it (nearest first for ``toward`` 1, farthest first for -1) and then
        by (tc, position), and its length is summed in that order before the
        run is returned nearest first."""
        tc, t0 = self.tc, self.tc[anchor]
        run = sorted(
            (i for i in self.members[lane] if i != anchor and i != other),
            key=lambda i: (toward * abs(tc[i] - t0), tc[i], i),
        )
        inner = _left_sum(self._gap(a, b) for a, b in zip(run, run[1:]))
        run = run[::toward]
        return run, self._gap(anchor, run[0]) + inner if run else 0.0

    def length(self, p: int, q: int) -> float:
        """Path length of the sweep from p to q, in O(1) from the prefix sums.

        Each span costs one hop from the previous tail, a difference of
        ``prefix`` over its lanes, and a difference of the one ``hops`` list
        that joins last members after each lane the span walks forward.
        """
        firsts, lasts, prefix, gap = self.firsts, self.lasts, self.prefix, self._gap
        total, prev, forward = 0.0, p, False
        start, start_length = self._anchor_run(p, q, 1)
        if start:
            total, prev = start_length, start[-1]
            forward = self.tc[prev] < self.tc[p]
        a, b = self.lane_of[p], self.lane_of[q]
        for s, e, step in self._spans(a, b):
            if (e - s) * step < 0:
                continue
            lo, hi = (s, e) if step == 1 else (e, s)
            hops = self.hops[forward ^ (s & 1) ^ (step == 1)]
            head = firsts[s] if forward else lasts[s]
            forward ^= (hi - lo) & 1  # direction of the span's last lane
            total += gap(prev, head) + (prefix[hi + 1] - prefix[lo]) + (hops[hi] - hops[lo])
            prev, forward = (lasts[e] if forward else firsts[e]), not forward
        end, end_length = self._anchor_run(q, p, -1) if b != a else ([], 0.0)
        if end:
            return total + gap(prev, end[-1]) + end_length
        return total + gap(prev, q)

    def order(self, p: int, q: int) -> list[int]:
        """Visit order of the sweep from p to q, both anchors included."""
        start, _ = self._anchor_run(p, q, 1)
        order = [p, *start]
        forward = bool(start) and self.tc[start[-1]] < self.tc[p]
        a, b = self.lane_of[p], self.lane_of[q]
        for s, e, step in self._spans(a, b):
            for lane in range(s, e + step, step):
                order.extend(self.members[lane] if forward else reversed(self.members[lane]))
                forward = not forward
        if b != a:
            order.extend(reversed(self._anchor_run(q, p, -1)[0]))
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
    ``xy`` holds the x row over the y row; all tables share its one set of lists.
    """

    def __init__(self, xy: np.ndarray, starts: Sequence[int], spacing: float) -> None:
        xys = xy.tolist()
        self.tables: dict[tuple[str, int], _Lanes] = {}
        for axis, s, t in (("y", 1, 0), ("x", 0, 1)):
            lam = np.rint((xy[s] - xy[s, starts][:, None]) / spacing)
            # float keys: an offset may be more than 2^63 spacings; + 0.0 turns -0.0 into 0.0
            lam = lam - lam.min(axis=1, keepdims=True) + 0.0
            shared: dict[bytes, _Lanes] = {}
            for p, row in zip(starts, lam):
                key = row.tobytes()
                if key not in shared:
                    shared[key] = _Lanes(row, xy, t, xys)
                self.tables[axis, p] = shared[key]

    def lengths(self, p: int, q: int) -> tuple[float, float]:
        """Row and column sweep lengths from p to q, from the tables."""
        return self.tables["y", p].length(p, q), self.tables["x", p].length(p, q)

    def order(self, p: int, q: int, axes: Sequence[str]) -> list[int]:
        """Visit order from p to q: the shorter of the sweeps along ``axes``
        (rows before columns) by exact summation, ties within 1e-12 going to
        rows. A single axis is built and not summed."""
        orders = [self.tables[axis, p].order(p, q) for axis in axes]
        if len(orders) == 1:
            return orders[0]
        gap = self.tables["y", p]._gap
        rows, cols = (_left_sum(gap(a, b) for a, b in zip(o, o[1:])) for o in orders)
        return orders[1] if cols < rows - 1e-12 else orders[0]


def _check_spacing(spacing: float) -> None:
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError("spacing must be positive and finite")


def _coordinates(pts: Sequence[Point], corners: Sequence[Point]) -> tuple[np.ndarray, list[int]]:
    """The x row over the y row of ``pts``, and the first position in ``pts``
    of each corner. Raises ValueError when a corner is not in ``pts``."""
    xy = np.array([[pt.x for pt in pts], [pt.y for pt in pts]], dtype=float)
    cxy = np.array([[c.x for c in corners], [c.y for c in corners]], dtype=float)
    hits = (xy[0] == cxy[0][:, None]) & (xy[1] == cxy[1][:, None])
    if not hits.any(axis=1).all():
        raise ValueError("sweep start and end must be cluster nodes")
    return xy, hits.argmax(axis=1).tolist()


def serpentine_route(pts: Sequence[Point], start: Point, end: Point, spacing: float) -> list[int]:
    """Back-and-forth visit order over ``pts`` from ``start`` to ``end``.

    Lane stacking along y (grid rows) and along x are both tried and the
    shorter sweep wins, ties going to rows. Returns positions into ``pts``;
    the first is that of ``start``, the last that of ``end`` (the first copy
    of each). Raises ValueError unless ``spacing`` is positive and finite,
    both endpoints are in ``pts`` and they are different points.
    """
    _check_spacing(spacing)
    if start == end:
        raise ValueError("sweep start and end must be different points")
    xy, (p, q) = _coordinates(pts, (start, end))
    return _ClusterLanes(xy, [p], spacing).order(p, q, ("y", "x"))


def route_cluster(
    members: Sequence[tuple[int, Point]], depot: Point, spacing: float
) -> Route:
    """Best serpentine route for one cluster, depot legs included in the score.

    Every antipodal pair of the cluster hull is tried in both orientations;
    ties go to the lexicographically smallest (i, j, orientation).
    Raises DegenerateInput when the members span no polygon (``hpp_solve``
    relies on this to detect a cluster that needs repair), and ValueError
    unless ``spacing`` is positive and finite.

    Each candidate is first scored from the cluster's lane tables. Only those
    within ``NEAR_BEST * max(1, lowest)`` plus 1e-12 per candidate of the
    lowest table score are built in full and scored by exact summation, in
    candidate order, a later one winning only by more than 1e-12. That picks
    the same route as building and summing every candidate: table and exact
    scores differ only by rounding, far below ``NEAR_BEST``, and a candidate
    whose exact length is more than 1e-12 per candidate above the shortest
    can neither win nor, through the 1e-12 rule, block one that would.
    A re-scored candidate builds only its row sweep or only its column sweep
    when the other axis's table length is longer by more than
    ``NEAR_BEST * max(1, lowest)``, since the rows-first 1e-12 rule between
    the two exact lengths would pick the same axis; otherwise it builds both.
    """
    _check_spacing(spacing)
    ids = [i for i, _ in members]
    pts = [pt for _, pt in members]
    hull = convex_hull(pts)
    xy, anchors = _coordinates(pts, hull.vertices)
    lanes = _ClusterLanes(xy, anchors, spacing)
    ends = []
    for i, j in antipodal_pairs(hull):
        p, q = anchors[i], anchors[j]
        ends += [(p, q), (q, p)]
    legs = {a: dist(depot, pts[a]) for a in anchors}
    axis_lengths = [lanes.lengths(p, q) for p, q in ends]
    scores = [legs[p] + min(both) + legs[q] for (p, q), both in zip(ends, axis_lengths)]
    low = min(scores)
    slack = NEAR_BEST * max(1.0, low)
    cutoff = low + slack + 1e-12 * len(ends)
    best: tuple[float, list[int]] | None = None
    for (p, q), approx, (rows, cols) in zip(ends, scores, axis_lengths):
        if approx > cutoff:
            continue
        axes = ("y",) if cols > rows + slack else ("x",) if rows > cols + slack else ("y", "x")
        order = lanes.order(p, q, axes)
        length = route_length(depot, [pts[t] for t in order])
        if best is None or length < best[0] - 1e-12:
            best = (length, order)
    assert best is not None
    return Route(node_order=tuple(ids[t] for t in best[1]), length=best[0])


def _route_clusters(assign: ClusterAssignment, inst: FarmInstance) -> list[Route]:
    members: list[list[tuple[int, Point]]] = [[] for _ in range(assign.k)]
    for i, (lab, node) in enumerate(zip(assign.labels, inst.nodes)):
        members[lab].append((i, node))
    return [route_cluster(m, inst.depot, inst.spacing) for m in members]


def hpp_solve(inst: FarmInstance, k: int = 5, seed: int = 0) -> Solution:
    """Cluster the instance into ``k`` groups and route each as a serpentine.

    Clusters are repaired only when a k-means cluster spans no polygon.
    Raises InvalidK unless ``1 <= k <= n // 3``, and RepairImpossible when the
    nodes cannot form ``k`` clusters of 3+ non-collinear members.
    """
    n = len(inst.nodes)
    if k < 1 or MIN_CLUSTER_SIZE * k > n:
        support = (
            f"between 1 and {n // MIN_CLUSTER_SIZE} routes of {MIN_CLUSTER_SIZE}+ nodes each"
            if n >= MIN_CLUSTER_SIZE
            else f"no route of {MIN_CLUSTER_SIZE}+ nodes"
        )
        raise InvalidK(f"k={k} is infeasible: {n} nodes support {support}")
    assign = kmeans(inst.nodes, k, seed)
    try:
        routes = _route_clusters(assign, inst)
    except DegenerateInput:
        routes = _route_clusters(repair_clusters(assign, inst.nodes), inst)
    return Solution(instance_ref=inst.name, algorithm="hpp", seed=seed, routes=tuple(routes))

