"""Cluster-then-route coverage solver (`hpp`).

Pipeline: k-means over the node set, then one boustrophedon sweep per cluster
anchored at an antipodal pair of the cluster hull. That hull is the only
validity check, and it is built once per cluster: when some k-means cluster
spans no polygon, repair moves nodes into it, each move keeping the donor's
ring from the trial it takes and building only the receiver's, and the hulls
it ends with are routed.
Every antipodal pair is tried in both orientations and the candidate with
the shortest depot-to-depot length wins. A k-means round over n nodes and k
clusters costs two ``bincount``s for the new centroids, O(n) bound updates
and the squared distances, one ``argmin`` and one ``min`` over k entries of
only the nodes whose bounds overlap (about a fifth of them at n = 2000,
k = 20). The full (k, n) table is built in the first round, in a round that
leaves a cluster empty, and in every round when n * k < 10000. Its entries,
and the k-means++ seeding's, come from ``geometry._squared_distances``, the
kernel ``baseline``'s distances use too. A solve reads
the instance's (2, n) coordinate array ``FarmInstance.xy``, which k-means,
hulls (every cluster's corners are node indices into it), cluster repair,
lane tables and exact re-scores share; ``Point``, ``ConvexPolygon`` and
``ClusterAssignment`` are built only by the public functions.

Candidates are scored without building them, every cluster of a solve in
one pass. Per stacking axis (rows, columns) a cluster's nodes fall into
lanes, and the lane tables of all clusters and anchors share one array,
sorted once, with running sums of the lane lengths and of the hops between
adjacent lanes. A sweep from anchor p to anchor q walks the rest of p's lane
away from p, then the lanes behind p, the lanes between p and q, and the
lanes beyond q from the far end back, alternating direction per lane, and
ends with the rest of q's lane toward q. A candidate's table length is then
a few differences of those sums, computed for every candidate and both axes
as whole arrays. An anchor lane is sorted, for scoring and building alike,
only when it holds both anchors, when the anchor sits inside it (off-lattice
clusters), or when distances along it tie. Only candidates within rounding
of their cluster's best are built in full and re-scored by exact summation,
and each builds only the axis that can win unless its two table lengths are
that close too, so the chosen routes and their stored lengths are the ones
exhaustive scoring gives. Routing k clusters of n nodes in all costs, per
cluster of m nodes with c hull corners, the two monotone chains in Python
over its column ends (about a fifth of the nodes on a lattice), a
rotating-calipers walk of O(c) Python steps for the antipodal pairs, and
O(m) per exact re-score (about two per cluster on generated instances); and
for all clusters together, one ``lexsort`` of the n nodes by (cluster, x,
y) with every cluster's column ends and margin test as whole-array
operations (``geometry._hull_rings``), one call that walks every hull
(``geometry._caliper_pairs``), one sort of the n nodes by (cluster,
coordinate) per axis, a lane key for each hull corner at each distinct row
and column coordinate of its cluster, one sort of the table entries (a
table lists its cluster's m nodes, and a lattice cluster has one table per
axis, so 2n entries), and a fixed number of array operations over all
candidates. The routes come back as a ``solution.Solution``, whose module
also holds the file format.

Every array step of a solve is a ufunc, a C function or an ndarray method:
a difference is a subtraction of slices (``geometry._steps`` where
``np.diff`` would prepend a value), arrays are joined by ``np.concatenate``,
and running sums, repeats, sorts and searches are the arrays' own methods.
numpy's helpers written in Python (``np.diff``, ``np.tile``, ``np.clip``,
``np.append``, the ``np.cumsum``-style wrappers) cost 1-10 µs a call on top
of the routine they end in, and at the benchmark's sizes a solve is bound
by such fixed costs: at n = 700, k = 5 a solve made 549 calls into numpy's
Python sources through them, and makes 168 without them, mostly the
argument dispatch of C functions such as ``np.bincount``.
``tests/test_numpy_helpers.py`` keeps them off the solve paths.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Point,
    _caliper_pairs,
    _coordinate_rows,
    _hull_ring,
    _hull_rings,
    _polygon_ring,
    _squared_distances,
    _steps,
)
# Bound here for the benchmark, which times hulls and pairs as hpp.<name>.
from .geometry import antipodal_pairs, convex_hull  # noqa: F401
from .instances import FarmInstance, _left_sum
from .rng import make_rng
from .solution import InvalidK, Route, Solution, _path_length
# Re-exported: the benchmark digests solution files through hpp.save_solution.
from .solution import save_solution  # noqa: F401

KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 100
MIN_CLUSTER_SIZE = 3
NEAR_BEST = 1e-9  # relative slack of _route_clusters' exact re-scoring
_BOUNDED_MIN_ENTRIES = 10_000  # smallest n * k for which _kmeans bounds its points


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
        stray = [lab for lab in self.labels if not 0 <= lab < k]
        if stray:
            raise ValueError(f"label {stray[0]} out of range for k={k}")
        if len(set(self.labels)) < k:
            raise ValueError("every cluster must be non-empty")

    @property
    def k(self) -> int:
        return len(self.centroids)

    def members(self, c: int) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == c]


# ---------------------------------------------------------------------------
# clustering


def _assign_labels(
    xs: np.ndarray, ys: np.ndarray, cents: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-centroid labels (ties to the lowest index), cluster sizes and
    centroids from the full (k, n) table of squared distances, one row per
    centroid (x row over y row in ``cents``) and one column per point, each
    entry from ``geometry._squared_distances``; reseeds empty clusters, and
    returns that table of the returned centroids too.

    An empty cluster's centroid is moved onto the point farthest from its
    nearest centroid, then labels are recomputed. Raises RepairImpossible
    when a cluster is still empty after ``2 * k + 1`` rounds.
    """
    k = cents.shape[1]
    cents = cents.copy()
    for _ in range(2 * k + 1):
        d2 = _squared_distances(xs, ys, cents[0][:, None], cents[1][:, None])
        labels = d2.argmin(axis=0)
        sizes = np.bincount(labels, minlength=k)
        if sizes.all():
            return labels, sizes, cents, d2
        farthest = int(d2.min(axis=0).argmax())
        cents[:, int(sizes.argmin())] = xs[farthest], ys[farthest]  # the first empty one
    raise RepairImpossible("could not repair empty clusters")


def _bounds(d2: np.ndarray, labels: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """``_kmeans``' upper and lower bounds of the points whose columns of
    ``geometry._squared_distances`` to the centroids are ``d2`` and labels
    ``labels``: the root of the own entry plus ``slack``, and the root of
    the smallest other entry minus ``slack``. Overwrites the own entries."""
    own = (labels, np.arange(len(labels)))
    upper = np.sqrt(d2[own])
    upper += slack
    d2[own] = np.inf
    lower = np.sqrt(d2.min(axis=0))
    lower -= slack
    return upper, lower


def _bound_slack(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """``_kmeans``' bound slack, 2^-40 s for the instance scale s: the smallest
    power of two at least the largest |coordinate|, 1 when every coordinate
    is 0. None when s is outside [2^-400, 2^400], where the rounding argument
    in ``_kmeans`` does not hold."""
    top = max(float(np.abs(xs).max()), float(np.abs(ys).max()))
    mantissa, exponent = math.frexp(top)
    scale = math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent) if top else 1.0
    return 2.0**-40 * scale if 2.0**-400 <= scale <= 2.0**400 else None


def _kmeans_pp_init(
    xs: np.ndarray, ys: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(xs)
    chosen = [int(rng.integers(n))]
    d2 = _squared_distances(xs, ys, xs[chosen[0]], ys[chosen[0]])
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            nxt = next(i for i in range(n) if i not in chosen)
        else:
            r = rng.random() * total
            nxt = int(d2.cumsum().searchsorted(r, side="right"))
            nxt = min(nxt, n - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, _squared_distances(xs, ys, xs[nxt], ys[nxt]))
    return np.array([xs[chosen], ys[chosen]])


def kmeans(nodes: Sequence[Point], k: int, seed: int) -> ClusterAssignment:
    """Lloyd's algorithm from k-means++ seeding; deterministic for a fixed seed.

    Stops when no centroid coordinate moves by 1e-9 or more (the largest
    ``|dx|`` or ``|dy|``) or after 100 iterations; returned labels are exactly
    nearest-centroid with respect to the returned centroids. Raises
    RepairImpossible when some cluster stays empty, as it must when the nodes
    sit on fewer than ``k`` distinct positions, and ValueError unless
    ``1 <= k <= len(nodes)``.
    """
    return _assignment(*_kmeans(*_coordinate_rows(nodes), k, seed))


def _assignment(labels: np.ndarray, cents: np.ndarray) -> ClusterAssignment:
    """The ``ClusterAssignment`` of a label array and a centroid array (x row
    over y row)."""
    return ClusterAssignment(tuple(labels.tolist()), tuple(map(Point, *cents.tolist())))


def _kmeans(xs: np.ndarray, ys: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``kmeans``' label and centroid (x row over y row) arrays of (``xs``, ``ys``).

    New centroids are two weighted ``bincount``s. ``bincount`` adds a
    cluster's coordinates one at a time in index order, so each centroid is
    the same float as the ``mean`` of its cluster's rows, up to the sign of a
    zero. A point's label is the ``argmin`` of its column of the squared
    distance table (``_assign_labels``), ties going to the lowest index.
    ``_assign_labels`` builds the full (k, n) table in the first round and
    in a round that leaves a cluster empty (its reseed needs the whole
    table), and the bounds restart from the table it returns. Every other
    round, the one at the iteration cap included, recomputes, through the
    same ``geometry._squared_distances``, only the columns of the points
    whose label the bounds below do not fix (Hamerly 2010, "Making k-means
    even faster"). A kernel entry's bits depend only on its own operands, so
    labels and centroids are the floats that full tables give. A table of
    fewer than ``_BOUNDED_MIN_ENTRIES`` entries is cheaper to rebuild than
    to bound, so it is built in full every round, as it is when
    ``_bound_slack`` gives None.

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

    - A table entry is ``geometry._squared_distances``' four rounded
      operations on d^2 (differences, squares, sum): d^2 (1 + t) with
      |t| <= 4 eps, plus at most 2^-1072 from gradual underflow. Its root
      is d within 3 eps d < 9 eps s. A reset adds delta, rounding by
      3 eps s more, so it leaves ``u >= d_own + m`` and ``l <= d_other - m``
      with d the exact distances.
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
    if len(xs) < k:
        raise ValueError(f"need at least k={k} nodes, got {len(xs)}")
    rng = make_rng(seed)
    cents = _kmeans_pp_init(xs, ys, k, rng)
    slack = _bound_slack(xs, ys) if len(xs) * k >= _BOUNDED_MIN_ENTRIES else None
    labels, sizes, cents, d2 = _assign_labels(xs, ys, cents)
    if slack is not None:
        upper, lower = _bounds(d2, labels, slack)
    for _ in range(KMEANS_MAX_ITER):
        new_cents = np.array([np.bincount(labels, xs, k), np.bincount(labels, ys, k)]) / sizes
        moved = new_cents - cents
        if float(np.abs(moved).max()) < KMEANS_TOL:
            break
        cents = new_cents
        if slack is None:
            labels, sizes, cents, _ = _assign_labels(xs, ys, cents)
            continue
        moves = np.hypot(moved[0], moved[1])
        moves += slack
        upper += moves[labels]
        lower -= moves.max()
        stale = (upper >= lower).nonzero()[0]
        if stale.size:
            d2 = _squared_distances(xs[stale], ys[stale], cents[0][:, None], cents[1][:, None])
            relabelled = d2.argmin(axis=0)
            labels[stale] = relabelled
            upper[stale], lower[stale] = _bounds(d2, relabelled, slack)
        sizes = np.bincount(labels, minlength=k)
        if not sizes.all():
            labels, sizes, cents, d2 = _assign_labels(xs, ys, cents)
            upper, lower = _bounds(d2, labels, slack)
    return labels, cents


def repair_clusters(assign: ClusterAssignment, nodes: Sequence[Point]) -> ClusterAssignment:
    """Grow invalid clusters until each has >= 3 non-collinear members.

    The greedy rule is ``_repair``'s; centroids are the repaired clusters'
    means. Raises ValueError unless there is one node per label.
    """
    k = assign.k
    n = len(nodes)
    if n != len(assign.labels):
        raise ValueError(f"{n} nodes for {len(assign.labels)} labels")
    if n < MIN_CLUSTER_SIZE * k:
        raise RepairImpossible(
            f"{n} nodes cannot give {k} clusters {MIN_CLUSTER_SIZE} members each"
        )
    xy, labels = _coordinate_rows(nodes), np.array(assign.labels)
    _repair(xy, labels, k)
    return _assignment(labels, np.array([np.bincount(labels, w) for w in xy]) / np.bincount(labels))


def _repair(xy: np.ndarray, labels: np.ndarray, k: int) -> list[list[int]]:
    """Hull ring of each of the k clusters of ``labels`` over ``xy``, as
    node indices into ``xy``, after growing every cluster that spans no
    polygon (a ring of fewer than 3 corners).
    ``labels`` is updated in place; every cluster must be non-empty.

    While some cluster is invalid, the first one absorbs the node nearest to
    its centroid, drawn from clusters with more than 3 members; if none can
    spare a node the most populous cluster donates. A node whose removal
    would leave its donor invalid is only taken when no safe candidate
    exists, which keeps the greedy loop from ping-ponging a node between two
    small clusters. Candidates are tried nearest first, so a donor's trial
    ring (its ring without the candidate) is built only until a safe one is
    found, and at most once per step for each (donor, position): copies of
    one position leave the same point set behind. The candidate taken is the
    first in that order with its (donor, position), so its trial ring,
    mapped to node indices, is the donor's ring after the move. The k rings
    come from one ``_hull_rings`` call; a move keeps the donor's trial ring
    and builds only the receiver's, with one ``_hull_ring`` on its ascending
    members. Raises RepairImpossible when no cluster can donate or after
    10 n moves.
    """
    rings = _hull_rings(*xy, labels, k)
    if all(len(ring) >= 3 for ring in rings):
        return rings
    xs, ys = xy.tolist()
    groups = [(labels == c).nonzero()[0].tolist() for c in range(k)]  # ascending
    trials: dict[tuple[int, float, float], list[int]] = {}  # (donor, x, y) -> trial ring

    def trial_ring(i: int, donor: int) -> list[int]:
        key = (donor, xs[i], ys[i])
        if key not in trials:
            rest = [m for m in groups[donor] if m != i]
            trials[key] = [rest[j] for j in _hull_ring(*xy[:, rest])]
        return trials[key]

    for _ in range(10 * len(xs)):
        invalid = next((c for c, ring in enumerate(rings) if len(ring) < 3), None)
        if invalid is None:
            return rings
        ids = groups[invalid]
        cx, cy = _left_sum(xs[i] for i in ids) / len(ids), _left_sum(ys[i] for i in ids) / len(ids)
        donors = [c for c in range(k) if c != invalid and len(groups[c]) > MIN_CLUSTER_SIZE]
        if not donors:
            biggest = max(
                (c for c in range(k) if c != invalid and len(groups[c]) > 1),
                key=lambda c: (len(groups[c]), -c),
                default=None,
            )
            if biggest is None:
                raise RepairImpossible("no cluster can donate a node")
            donors = [biggest]
        # nearest first, ties to the lowest position
        nearest = sorted(
            (math.hypot(xs[i] - cx, ys[i] - cy), i, c) for c in donors for i in groups[c]
        )
        trials.clear()
        _, moved, donor = next((t for t in nearest if len(trial_ring(*t[1:])) >= 3), nearest[0])
        rings[donor] = trial_ring(moved, donor)
        groups[donor].remove(moved)
        bisect.insort(ids, moved)
        labels[moved] = invalid
        rings[invalid] = [ids[j] for j in _hull_ring(*xy[:, ids])]
    raise RepairImpossible("cluster repair did not converge")


# ---------------------------------------------------------------------------
# serpentine routing


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``first[r] ... first[r] + count[r] - 1`` laid end to end,
    and the offset at which each range starts."""
    at = count.cumsum() - count
    return np.arange(int(count.sum())) + (first - at).repeat(count), at


def _spans(a, b, last):
    """(first, last, step) of the three spans of lanes that a sweep from
    lane a to lane b covers between its anchor runs, in visit order: the
    lanes behind a, those between a and b, and those beyond b from the far
    end back. ``last`` is the table's last lane. A span with
    ``(last - first) * step < 0`` is empty. Works on ints and, elementwise,
    on integer arrays."""
    up = (b >= a) * 2 - 1  # 1 when b is not behind a
    return ((a - up, (up < 0) * last, -up), (a + up, b - up, up), ((up > 0) * last, b + up, -up))


class _LaneTables:
    """Row and column lane tables of a batch of clusters, for the given
    anchors, in one sorted array.

    ``members`` lists positions into ``xy`` cluster by cluster, ascending
    within each, and ``bounds`` delimits the clusters; a slot is an index
    into ``members``. Anchor ``i`` is the member at slot ``starts[i]``, and
    ``anchors[:, i]`` is its point. Axis 0 stacks lanes along y
    (rows) and axis 1 along x (columns), and ``tc`` is the coordinate along
    the lanes. The tables' entries are addressed by their index in the
    sorted array.

    A sweep from anchor p quantizes each node's offset from p along the
    stacking axis, ``round((s - s_p) / spacing)``, all anchors at once with
    ``np.rint`` (half to even, like ``round``, on the same IEEE quotients).
    The key depends on a node only through its stacking coordinate, so it
    is computed once per distinct coordinate (level) of the cluster. Anchors
    of one cluster whose keys come out as translates of each other share a
    table, so a lattice cluster has one table per axis and off-lattice nodes
    still land in exactly the lanes p itself gives them. Each table lists
    all of its cluster's nodes, lanes in key order and each lane in (tc,
    position) order. A key never falls as the level rises, so each table's
    lanes are the runs of equal keys along its levels, and the batch is
    sorted once, by (lane, tc rank).

    Per lane the tables keep its path length and its first and last entry.
    Running sums over the batch of the lane lengths (``prefix``) and of the
    hops between adjacent lanes' first or last entries (``hops``) give a
    span's length as differences of two entries of one table; the hop out
    of a table's last lane is 0. ``hops[0]`` hops between last entries after
    a lane with an even index in its table and between first entries after
    an odd one, ``hops[1]`` the other way.

    The sweep from p to q starts with p's anchor run, covers the lanes of
    ``_spans``, alternating direction per lane, and ends with q's anchor run
    reversed. An anchor run is the anchor's lane without either anchor,
    nearest to the anchor first. It is the rest of the lane, unsorted, when
    the anchor is its lane's first or last entry, the other anchor lies in
    another lane, and distances from the anchor strictly rise along it
    (``fast``). Otherwise (both anchors in one lane, an anchor inside its
    lane, or tied distances) ``_anchor_lanes`` sorts it.

    ``lengths`` scores sweeps from the sums and ``sweep`` builds one. They
    add in different orders, so the two agree up to rounding.
    """

    def __init__(
        self,
        xy: np.ndarray,
        members: np.ndarray,
        bounds: np.ndarray,
        starts: np.ndarray,
        spacing: float,
    ) -> None:
        slots, k, rows = len(members), len(bounds) - 1, len(starts)
        sizes = bounds[1:] - bounds[:-1]
        coords = xy[:, members]
        cluster = np.arange(k).repeat(sizes)
        # Group g = axis * k + cluster holds one cluster's slots on one axis;
        # ``tc_rank`` and ``level`` are indexed by axis * slots + slot. Axis a
        # runs along coordinate a and stacks along coordinate 1 - a, so one
        # sort per coordinate gives the (cluster, coordinate, slot) order that
        # both need: ranks compare only within a lane, which lies in one
        # cluster. ``stacked`` walks group by group in stacking order, and a
        # group's levels are its distinct stacking coordinates, ascending.
        by = [np.lexsort((c, cluster)) for c in coords]
        tc_rank = np.empty(2 * slots, dtype=np.intp)
        rank = np.arange(slots)
        tc_rank[np.concatenate([by[0], by[1] + slots])] = np.concatenate([rank, rank])
        stacked = np.concatenate([by[1], by[0] + slots])
        v = np.concatenate(coords[::-1])[stacked]
        group = np.add.outer([0, k], cluster).reshape(-1)[stacked]
        new = (_steps(v, np.nan) != 0) | (_steps(group, -1) != 0)
        count = np.bincount(group[new], minlength=2 * k)
        first = count.cumsum() - count
        level = np.empty(2 * slots, dtype=np.intp)
        level[stacked] = new.cumsum() - 1 - first[group]
        self.starts = starts
        self.anchors = coords[:, starts]

        # Lane keys of every (axis, anchor) row over its group's levels.
        row_group = np.add.outer([0, k], cluster[starts]).reshape(-1)
        length = count[row_group]
        place, row0 = _ranges(first[row_group], length)
        offsets = np.concatenate(coords[::-1, starts]).repeat(length)
        keys = np.rint((v[new][place] - offsets) / spacing)
        # float keys: an offset may be more than 2^63 spacings; + 0.0 turns -0.0 into 0.0
        keys -= np.minimum.reduceat(keys, row0).repeat(length)
        keys += 0.0
        # Rows share a table when their group and keys' bytes match.
        raw, first_row = keys.tobytes(), {}
        key_rows = zip(row_group.tolist(), row0.tolist(), length.tolist())
        rep = np.array([
            first_row.setdefault((g, raw[8 * a : 8 * (a + n)]), r)
            for r, (g, a, n) in enumerate(key_rows)
        ])
        tables = (rep == np.arange(2 * rows)).nonzero()[0]
        self.table = tables.searchsorted(rep).reshape(2, rows)
        place, at = _ranges(row0[tables], length[tables])
        opens = _steps(keys[place], np.nan) != 0
        opens[at] = True
        lane_at_level = opens.cumsum() - 1

        # Entries: every table lists its cluster's slots, sorted by lane and tc.
        table_cluster = row_group[tables] % k
        table_size = sizes[table_cluster]
        slot, entry0 = _ranges(bounds[table_cluster], table_size)
        self.entry0 = entry0 - bounds[table_cluster]
        entry_axis = (tables // rows).repeat(table_size)
        flat = entry_axis * slots + slot
        lane = lane_at_level[at.repeat(table_size) + level[flat]]
        by = (lane * slots + tc_rank[flat]).argsort()
        self.inv = np.empty_like(by)
        self.inv[by] = np.arange(len(by))
        slot = slot[by]
        self.lane = lane = lane[by]
        self.L0 = lane_at_level[at]
        lane_size = np.bincount(lane)
        self.last = lane_size.cumsum() - 1
        self.first = self.last - lane_size + 1
        self.last_lane = np.concatenate([self.L0[1:], [len(lane_size)]]) - self.L0 - 1
        lane_table = np.arange(len(tables)).repeat(self.last_lane + 1)

        self.x, self.y = x, y = coords[:, slot]
        self.tc = tc = np.where(entry_axis[by] == 0, x, y)
        steps = np.hypot(x[1:] - x[:-1], y[1:] - y[:-1])
        same_lane = (lane[1:] - lane[:-1]) == 0
        steps[~same_lane] = 0.0  # hops between lanes
        self.sums = np.add.reduceat(np.concatenate([steps, [0.0]]), self.first)
        self.prefix = np.concatenate([[0.0], self.sums.cumsum()])
        fx, fy, lx, ly = x[self.first], y[self.first], x[self.last], y[self.last]
        first_hop = np.hypot(fx[1:] - fx[:-1], fy[1:] - fy[:-1])
        last_hop = np.hypot(lx[1:] - lx[:-1], ly[1:] - ly[:-1])
        out = (lane_table[1:] - lane_table[:-1]) != 0
        first_hop[out] = last_hop[out] = 0.0
        even = (np.arange(len(lane_size) - 1) - self.L0[lane_table[:-1]]) % 2 == 0
        self.hops = np.zeros((2, len(lane_size)))
        np.where(even, last_hop, first_hop).cumsum(out=self.hops[0, 1:])
        np.where(even, first_hop, last_hop).cumsum(out=self.hops[1, 1:])

        # A run from a lane's first entry is fast when distances to the
        # entries after it strictly rise; from its last, to those before it.
        at_first = np.concatenate([[True], ~same_lane])
        at_last = np.concatenate([~same_lane, [True]])
        ahead = np.abs(tc - tc[self.first][lane])
        behind = np.abs(tc - tc[self.last][lane])
        tie_ahead = np.zeros(len(lane_size), dtype=bool)
        tie_ahead[lane[1:][same_lane & ~at_first[:-1] & ~(ahead[1:] > ahead[:-1])]] = True
        tie_behind = np.zeros(len(lane_size), dtype=bool)
        tie_behind[lane[1:][same_lane & ~at_last[1:] & ~(behind[:-1] > behind[1:])]] = True
        self.fast = np.where(at_first, ~tie_ahead[lane], at_last & ~tie_behind[lane])
        # the other end of the entry's lane, or its first entry
        self.far = np.where(at_first, self.last[lane], self.first[lane])
        # what ``sweep`` reads, as lists
        self.positions = members[slot].tolist()
        self.lane_first, self.lane_last = self.first.tolist(), self.last.tolist()

    def _entry(self, table, anchor):
        """Sorted index of anchor ``anchor`` in ``table``."""
        return self.inv[self.entry0[table] + self.starts[anchor]]

    def _run(self, anchor: int, other: int, toward: int) -> list[int]:
        """``anchor``'s run (``toward`` 1 for a start run, -1 for an end
        run), nearest to the anchor first."""
        lane = self.lane[anchor]
        if self.lane[other] != lane and self.fast[anchor]:
            a, b = self.first[lane], self.last[lane]
            return list(range(a + 1, b + 1) if anchor == a else range(b - 1, a - 1, -1))
        return self._anchor_lanes(np.array([anchor]), np.array([other]), toward)[0].tolist()

    def _anchor_lanes(
        self, anchor: np.ndarray, other: np.ndarray, toward: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted runs of the entries ``anchor`` (``toward`` 1 for start
        runs, -1 for end runs), each without its ``other`` anchor: their
        entries laid end to end, each run nearest to its anchor first; the
        path length from each anchor through its run, 0.0 for an empty run;
        and each run's last entry, or its anchor when it is empty.

        A lane is sorted in visit order, by distance from the anchor along
        it (nearest first for a start run, farthest first for an end run)
        and then by (tc, position), which is entry order; an end run is
        returned reversed."""
        lane = self.lane[anchor]
        size = self.last[lane] - self.first[lane] + 1
        entries, _ = _ranges(self.first[lane], size)
        run = np.arange(len(anchor)).repeat(size)
        keep = (entries != anchor[run]) & (entries != other[run])
        entries, run = entries[keep], run[keep]
        by = np.lexsort((toward * entries, np.abs(self.tc[entries] - self.tc[anchor[run]]), run))
        entries, run = entries[by], run[by]
        x, y = self.x[entries], self.y[entries]
        steps = np.hypot(x[1:] - x[:-1], y[1:] - y[:-1])
        steps[(run[1:] - run[:-1]) != 0] = 0.0
        count = np.bincount(run, minlength=len(anchor))
        full = count > 0
        at = (count.cumsum() - count)[full]
        nearest = entries[at]
        length = np.zeros(len(anchor))
        length[full] = np.add.reduceat(np.concatenate([steps, [0.0]]), at) + np.hypot(
            self.x[anchor[full]] - self.x[nearest], self.y[anchor[full]] - self.y[nearest]
        )
        tail = anchor.copy()
        tail[full] = entries[at + count[full] - 1]
        return entries, length, tail

    def lengths(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Row and column table lengths, shape (2, len(start)), of the sweeps
        from anchor ``start[c]`` to anchor ``end[c]`` of the same cluster.

        Each span costs one hop from the previous tail, a difference of
        ``prefix`` over its lanes, and a difference of the one ``hops`` row
        that joins last entries after each lane the span walks forward.
        """
        table = self.table[:, start].reshape(-1)
        p = self._entry(table, np.concatenate([start, start]))
        q = self._entry(table, np.concatenate([end, end]))
        L0 = self.L0[table]
        a, b = self.lane[p] - L0, self.lane[q] - L0
        # Anchor runs: the rest of the lane where fast, else sorted.
        p_run, q_run = self.far[p] != p, self.far[q] != q  # lanes of more than the anchor
        total = np.where(p_run, self.sums[self.lane[p]], 0.0)
        prev = np.where(p_run, self.far[p], p)
        tail = np.where(q_run & (a != b), self.sums[self.lane[q]], 0.0)
        head = np.where(q_run & (a != b), self.far[q], q)
        ranked = (a == b) | ~self.fast[p]
        if ranked.any():
            _, total[ranked], prev[ranked] = self._anchor_lanes(p[ranked], q[ranked], 1)
        ranked = (a != b) & ~self.fast[q]
        if ranked.any():
            _, tail[ranked], head[ranked] = self._anchor_lanes(q[ranked], p[ranked], -1)
        forward = self.tc[prev] < self.tc[p]  # False after an empty run too
        # The three spans, one row each.
        last = self.last_lane[table]
        s, e, step = (np.array(v) for v in zip(*_spans(a, b, last)))
        full = (e - s) * step >= 0
        # empty spans read in range
        s, e = np.minimum(np.maximum(s, 0), last), np.minimum(np.maximum(e, 0), last)
        lo, hi = L0 + np.minimum(s, e), L0 + np.maximum(s, e)
        odd = full & ((hi - lo) % 2 == 0)  # a full span of an odd lane count flips direction
        forward = forward ^ ((odd.cumsum(axis=0) - odd) % 2 == 1)
        tip = np.where(forward, self.first[L0 + s], self.last[L0 + s])
        leave = np.where(forward ^ ((hi - lo) % 2 == 1), self.last[L0 + e], self.first[L0 + e])
        tails = [prev]
        for span in range(3):
            tails.append(np.where(full[span], leave[span], tails[-1]))
        prev = np.array(tails[:3])
        row = (forward ^ (s % 2 == 1) ^ (step == 1)) * 1
        span = (
            np.hypot(self.x[prev] - self.x[tip], self.y[prev] - self.y[tip])
            + (self.prefix[hi + 1] - self.prefix[lo])
            + (self.hops[row, hi] - self.hops[row, lo])
        )
        total = total + np.where(full, span, 0.0).sum(axis=0)
        prev = tails[3]
        closing = np.hypot(self.x[prev] - self.x[head], self.y[prev] - self.y[head])
        return (total + closing + tail).reshape(2, -1)

    def sweep(self, axis: int, start: int, end: int) -> list[int]:
        """Visit order, as positions into ``xy``, of the sweep on ``axis``
        from anchor ``start`` to anchor ``end``, both included."""
        table = self.table[axis, start]
        p, q = int(self._entry(table, start)), int(self._entry(table, end))
        pos, first, last = self.positions, self.lane_first, self.lane_last
        run = self._run(p, q, 1)
        order = [pos[p], *(pos[i] for i in run)]
        forward = bool(run) and self.tc[run[-1]] < self.tc[p]
        L0 = int(self.L0[table])
        a, b = int(self.lane[p]) - L0, int(self.lane[q]) - L0
        for s, e, step in _spans(a, b, int(self.last_lane[table])):
            for lane in range(L0 + s, L0 + e + step, step):
                entries = pos[first[lane] : last[lane] + 1]
                order.extend(entries if forward else reversed(entries))
                forward = not forward
        if b != a:
            order.extend(pos[i] for i in reversed(self._run(q, p, -1)))
        order.append(pos[q])
        return order


def _check_spacing(spacing: float) -> None:
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError("spacing must be positive and finite")


def _shorter(xs: list[float], ys: list[float], rows: list[int], cols: list[int]) -> list[int]:
    """The shorter of a row and a column sweep by exact summation, ties
    within 1e-12 going to rows."""
    return cols if _path_length(xs, ys, cols) < _path_length(xs, ys, rows) - 1e-12 else rows


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
    if start not in pts or end not in pts:
        raise ValueError("sweep start and end must be cluster nodes")
    ends = np.array([pts.index(start), pts.index(end)])
    xy = _coordinate_rows(pts)
    tables = _LaneTables(xy, np.arange(len(pts)), np.array([0, len(pts)]), ends, spacing)
    return _shorter(*xy.tolist(), tables.sweep(0, 0, 1), tables.sweep(1, 0, 1))


def _candidates(
    xy: np.ndarray, labels: np.ndarray, k: int, rings: list[list[int]], spacing: float
) -> tuple[_LaneTables, np.ndarray, np.ndarray, np.ndarray]:
    """The lane tables of the k clusters of ``labels`` over the points
    ``xy``, anchored at their hull corners, and the candidate sweeps: each
    one's start and end anchor and its cluster. ``rings`` holds each
    cluster's hull corners as node indices into ``xy`` (``_repair``), and
    one scatter over ``members`` gives each node's slot in the tables.
    Clusters come in order and, within one, each antipodal pair (i, j) of
    the hull as (i, j) then (j, i)."""
    members = labels.argsort(kind="stable")
    bounds = np.concatenate([[0], np.bincount(labels, minlength=k).cumsum()])
    sizes = [len(ring) for ring in rings]
    corners = np.concatenate(rings)
    slot = np.empty_like(members)
    slot[members] = np.arange(len(members))
    ends = _caliper_pairs(*xy[:, corners], sizes)
    cluster = np.arange(k).repeat(sizes)[ends[:, 0]].repeat(2)
    tables = _LaneTables(xy, members, bounds, slot[corners], spacing)
    return tables, ends.reshape(-1), ends[:, ::-1].reshape(-1), cluster


def _route_clusters(
    xy: np.ndarray, labels: np.ndarray, k: int, rings: list[list[int]], depot: Point, spacing: float
) -> list[Route]:
    """Best serpentine route of each of the k clusters of ``labels`` over
    ``xy``, with the hull ``rings`` of ``_candidates``, picked as
    ``route_cluster`` picks it, all scored in one pass."""
    tables, start, end, cluster = _candidates(xy, labels, k, rings, spacing)
    rows, cols = tables.lengths(start, end)
    legs = np.hypot(tables.anchors[0] - depot.x, tables.anchors[1] - depot.y)
    scores = legs[start] + np.minimum(rows, cols) + legs[end]
    count = np.bincount(cluster, minlength=k)
    low = np.minimum.reduceat(scores, count.cumsum() - count)
    slack = NEAR_BEST * np.maximum(1.0, low)
    cutoff = low + slack + 1e-12 * count
    best: list[tuple[float, list[int]] | None] = [None] * k
    xs, ys = np.concatenate([xy, [[depot.x], [depot.y]]], axis=1).tolist()  # the depot last
    home = len(xs) - 1
    rescore = (~(scores > cutoff[cluster])).nonzero()[0]
    for c, i, j, r, w in zip(*(v[rescore].tolist() for v in (cluster, start, end, rows, cols))):
        if w > r + slack[c]:
            order = tables.sweep(0, i, j)
        elif r > w + slack[c]:
            order = tables.sweep(1, i, j)
        else:
            order = _shorter(xs, ys, tables.sweep(0, i, j), tables.sweep(1, i, j))
        length = _path_length(xs, ys, [home, *order, home])
        if best[c] is None or length < best[c][0] - 1e-12:
            best[c] = (length, order)
    return [Route(node_order=tuple(order), length=length) for length, order in best]


def route_cluster(
    members: Sequence[tuple[int, Point]], depot: Point, spacing: float
) -> Route:
    """Best serpentine route for one cluster, depot legs included in the score.

    Every antipodal pair of the cluster hull is tried in both orientations;
    ties go to the lexicographically smallest (i, j, orientation).
    Raises ValueError unless ``spacing`` is positive and finite, and then
    DegenerateInput when the members span no polygon. ``hpp_solve`` routes
    all of its clusters, repaired so that each spans a polygon, through the
    same routine at once.

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
    ids = [i for i, _ in members]
    xy = _coordinate_rows(pt for _, pt in members)
    _check_spacing(spacing)
    rings = [_polygon_ring(*xy)]
    [route] = _route_clusters(xy, np.zeros(len(ids), dtype=np.intp), 1, rings, depot, spacing)
    return Route(node_order=tuple(ids[t] for t in route.node_order), length=route.length)


def hpp_solve(inst: FarmInstance, k: int = 5, seed: int = 0) -> Solution:
    """Cluster the instance into ``k`` groups and route each as a serpentine.

    Clusters are repaired only when a k-means cluster spans no polygon.
    Raises InvalidK unless ``1 <= k <= n // 3``, ValueError unless the
    spacing is positive and finite, and RepairImpossible when the nodes
    cannot form ``k`` clusters of 3+ non-collinear members.
    """
    n = inst.xy.shape[1]
    if k < 1 or MIN_CLUSTER_SIZE * k > n:
        support = (
            f"between 1 and {n // MIN_CLUSTER_SIZE} routes of {MIN_CLUSTER_SIZE}+ nodes each"
            if n >= MIN_CLUSTER_SIZE
            else f"no route of {MIN_CLUSTER_SIZE}+ nodes"
        )
        raise InvalidK(f"k={k} is infeasible: {n} nodes support {support}")
    labels, _ = _kmeans(*inst.xy, k, seed)
    _check_spacing(inst.spacing)
    rings = _repair(inst.xy, labels, k)
    routes = _route_clusters(inst.xy, labels, k, rings, inst.depot, inst.spacing)
    return Solution(instance_ref=inst.name, algorithm="hpp", seed=seed, routes=tuple(routes))
