"""Reference solvers: a min-max local search and an exhaustive tiny-instance oracle.

``minmax_local_search`` builds k routes from an angular sector sweep around
the depot, polishes each with 2-opt, then relocates nodes off the longest
route while the maximum strictly decreases. The routes live in one table for
the whole solve: route r is row r, depot to depot and padded with the depot,
and ``sizes[r]`` counts its nodes. Construction fills the table once, each
step reads it at ``max(sizes) + 3`` columns (a depot column is added when a
route outgrew it), and an accepted move copies two trial rows in. Each
relocation step tries up to 10 moves and re-polishes the two routes of each.
Those routes are 2-opt local optima with one node removed or inserted, so
only the O(m) moves that drop a new edge can improve them, for a route of m
nodes. A step is a fixed set of table operations, whatever k and the number
of trials: one ``np.hypot`` table shortlists the candidate nodes, one
(candidates x routes x edges) table prices every insertion, one table over
all trial tours screens their new-edge moves, and one row-wise fold sums
their lengths. That screen alone decides whether 2-opt runs: ``two_opt`` has
one path, full O(m^2) best-improvement passes, and runs only on the few
trial tours whose screen finds an improving move. Each screen row's
``argmin`` is that row's move in a full first pass, so such a trial starts
from its screen's move and skips one table. A pass fills one contiguous m x
(m + 2) table of move costs with one flat add over the tour's distances. No
table bigger than a route's is built: every distance is computed where it is
read, from the coordinate array (``_Distances``, the root of
``geometry._squared_distances``), so a solve's memory grows with its
routes, not with n^2. Each sector's nearest-neighbour tour is one
(m + 1) x m table and one ``argmin`` per node.

``exact_minmax`` reads one (n + 1)^2 table from ``_Distances`` and scores
every partition of up to 10 nodes into at most 3 routes as one array of
masks. Per-subset optimal tours are walked back from a single (2^n, n)
dynamic-programming cost array relaxed one subset size per numpy step, each
subset's route once; only the chosen routes are priced. It is the ground
truth the heuristics are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _squared_distances
from .instances import FarmInstance, _left_sum
from .solution import InvalidK, Route, Solution

EXACT_MAX_NODES = 10
EXACT_MAX_ROUTES = 3
_RELOCATE_CANDIDATES = 10
_IMPROVE_EPS = 1e-12
_TWO_OPT_MAX_PASSES = 1000
_DEPOT = -1  # the depot's row and column: the distance matrix's last


class TooLarge(ValueError):
    """Instance exceeds the exact oracle's enforced limits."""


class _Distances:
    """Euclidean distances over an instance's nodes 0..n-1 and its depot at
    index n (or ``_DEPOT``), each computed where it is read.

    ``d[rows, cols]`` takes index arrays of any broadcast shape, gathers
    the coordinates of rows and columns, and takes the ``sqrt`` of their
    ``geometry._squared_distances``. An entry's bits depend only on its own
    row and column, so every entry has the bits of a full matrix built with
    the same operations, and swapping the operands gives the same bits.
    """

    def __init__(self, inst: FarmInstance) -> None:
        self.xs, self.ys = np.append(inst.xy, [[inst.depot.x], [inst.depot.y]], axis=1)

    def __getitem__(self, index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        rows, cols = index
        d = _squared_distances(self.xs[rows], self.ys[rows], self.xs[cols], self.ys[cols])
        return np.sqrt(d, out=d)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Euclidean distances over nodes 0..n-1 plus the depot at index n.

    No solver builds one: they compute their distances where they read them
    (``_Distances``), with the same operations. Only API callers build one,
    and the benchmark's traced run still times ``from_instance``.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square matrix with the depot last")

    @classmethod
    def from_instance(cls, inst: FarmInstance) -> "DistanceMatrix":
        every = np.arange(inst.xy.shape[1] + 1)
        return cls(entries=_Distances(inst)[every[:, None], every])


def _route_cost(D: np.ndarray, order: list[int]) -> float:
    P = np.array([_DEPOT, *order, _DEPOT])
    return _tour_lengths(D[P[:-1], P[1:]][None], np.array([len(order)]))[0]


def _tour_lengths(legs: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Each tour's length, added one float at a time: the two depot legs
    first, then every other leg in tour order.

    Row r holds the edge lengths of a tour of sizes[r] nodes, as a
    depot-to-depot node row padded with the depot: its closing leg is
    legs[r, sizes[r]], and every later entry is ``D[depot, depot]``, 0.0,
    which changes no sum. The closing leg is moved into the first column,
    and ``np.add.accumulate`` adds along each row strictly from the left.
    """
    rows = np.arange(len(legs))
    legs = legs.copy()
    legs[:, 0] += legs[rows, sizes]
    legs[rows, sizes] = 0.0
    return np.add.accumulate(legs, axis=1)[:, -1].tolist()


def two_opt(
    order: list[int], D: np.ndarray | _Distances, *, first: tuple[int, int] | None = None
) -> tuple[list[int], bool]:
    """Best-improvement 2-opt on a depot-anchored tour until no move helps
    (at most ``_TWO_OPT_MAX_PASSES`` passes).

    Returns the tour and whether it converged: True only when the search
    stopped because no move helps, False when it ran into the pass cap or
    the tour has fewer than 3 nodes. Edge t of the tour joins its positions
    t and t + 1, where the depot is position 0 and position
    ``len(order) + 1``; reversing ``order[i..j]`` replaces edges i and j + 1.
    ``first``, when given, is the move (i, j) that the first pass would
    take: pass 1 reverses ``order[i..j]`` without building its table, and
    counts against the pass cap as any pass does. ``D`` is a distance
    matrix or a ``_Distances``; either is read as one (m + 2)^2 table S of
    the tour's distances, ``D[P[:, None], P]`` for the tour's positions P.

    Each pass writes every move's cost change into one contiguous m x w
    table, w = m + 2, with one flat add over S:
    entry (i, j) is S[i, j + 1] + S[i + 1, j + 2], so it sits w + 1
    elements after S[i, j + 1] in S's flat buffer, and the last two columns
    of each row are padding. The argmin of its flat index i * w + j takes
    the moves in row-major (i, j) order.
    """
    m = len(order)
    P = np.array([_DEPOT, *order, _DEPOT])
    passes = _TWO_OPT_MAX_PASSES
    if first is not None:
        i, j = first
        P[i + 1 : j + 2] = P[j + 1 : i : -1]
        passes -= 1
    converged = False
    if m >= 3:
        w = m + 2
        S = D[P[:, None], P]  # S[a, b] = D[P[a], P[b]]
        flat = S.ravel()
        cons = S.diagonal(1)  # cons[t] = length of edge t, a view of S
        after = np.zeros(w)  # after[j] = cons[j + 1], then two zeros for the padding
        delta = np.empty((m, w))
        out = delta.ravel()
        skip = np.tri(m, w, dtype=bool)  # j <= i: not a move
        skip[:, m:] = True
        for _ in range(passes):
            # delta[i, j] = cost change of reversing order[i..j]
            np.add(flat[1 : m * w + 1], flat[w + 2 : (m + 1) * w + 2], out=out)
            delta -= cons[:m, None]
            after[:m] = cons[1:]
            delta -= after
            np.copyto(delta, 0.0, where=skip)
            i, j = divmod(int(np.argmin(out)), w)
            if delta[i, j] >= -_IMPROVE_EPS:
                converged = True
                break
            P[i + 1 : j + 2] = P[j + 1 : i : -1]
            S[i + 1 : j + 2] = S[j + 1 : i : -1]
            S[:, i + 1 : j + 2] = S[:, j + 1 : i : -1]
    return P[1:-1].tolist(), converged


def _screen_table(
    D: np.ndarray | _Distances, tours: np.ndarray, cost: np.ndarray, stop: np.ndarray,
    e: np.ndarray,
) -> np.ndarray:
    """Cost change of every 2-opt move of tour row r that drops its edge e[r],
    +inf where there is no such move.

    Edge s of row r joins tours[r, s] and tours[r, s + 1] and is cost[r, s]
    long; edges from ``stop[r]`` on pad a shorter tour. With (a, b) edge
    e[r] and (c, d) edge s, ``two_opt``'s full pass computes a move with
    s < e[r] - 1 as ((D[c, a] + D[d, b]) - D[c, d]) - D[a, b] (the column
    block of edge e[r]), and one with e[r] + 1 < s < stop[r] as ((D[a, c] +
    D[b, d]) - D[a, b]) - D[c, d] (its row block). D is symmetric to the
    bit, as ``_Distances`` is (``geometry._squared_distances`` gives the
    same bits with its operands swapped), so both blocks add the same two
    distances. Edges e[r] - 1 and e[r] + 1 share a node with edge e[r], so
    neither they nor e[r] itself make a move.
    """
    rows = np.arange(len(e))
    new = cost[rows, e][:, None]
    ends = D[tours[:, :-1], tours[rows, e][:, None]]
    ends += D[tours[:, 1:], tours[rows, e + 1][:, None]]
    before = ends - cost
    before -= new
    ends -= new
    ends -= cost
    s = np.arange(cost.shape[1])
    d = s - e[:, None]
    return np.where(d < -1, before, np.where((d > 1) & (s < stop[:, None]), ends, np.inf))


def _screen_picks(screen: np.ndarray, e: np.ndarray) -> list[tuple[bool, float, int, int]]:
    """Each ``_screen_table`` row's first-pass move as a sort key (no NaN,
    cost change, i, j): of two rows' keys the smaller is the move a full
    pass over both rows' moves takes, its first NaN, else its first minimum.

    Column s of row r is move (s, e[r] - 1) when s < e[r] - 1 and move
    (e[r], s - 1) when s > e[r] + 1, so the columns run in row-major (i, j)
    order and the row's ``argmin`` is its first NaN, else its first minimum.
    A key's move is an improving one when it is NaN or its cost change is
    below -_IMPROVE_EPS; a row without such a move has a meaningless (i, j).
    """
    s = screen.argmin(axis=1)
    change = screen[np.arange(len(s)), s]
    nan = np.isnan(change)
    return list(zip(
        (~nan).tolist(),
        np.where(nan, 0.0, change).tolist(),
        np.minimum(s, e).tolist(),
        (np.maximum(s, e) - 1).tolist(),
    ))


def _nearest_neighbor(nodes: list[int], D: np.ndarray | _Distances) -> list[int]:
    """Greedy tour from the depot, each step to the (distance, node) minimum
    among the unvisited nodes.

    Row t of one (m + 1) x m table holds the distances from the t-th node in
    ascending order (the depot last) to all m; a visited column is set to
    inf, so ``argmin``'s first index is the minimum among the unvisited. A
    row whose minimum is inf has only infinite distances left, and takes
    the first unvisited column, as that rule does.
    """
    ids = np.array(sorted(nodes), dtype=np.intp)
    sub = D[np.append(ids, _DEPOT)[:, None], ids]
    cols = sub.T  # cols[t] is column t of sub, so one index sets it
    unvisited = np.ones(len(ids), dtype=bool)
    picks: list[np.intp] = []
    row = sub[-1]
    for _ in range(len(ids)):
        t = row.argmin()
        if row[t] == np.inf:
            t = unvisited.argmax()
        unvisited[t] = False
        cols[t] = np.inf
        picks.append(t)
        row = sub[t]
    return ids[picks].tolist()


def _sector_partition(
    xs: list[float], ys: list[float], dx: float, dy: float, k: int
) -> list[list[int]]:
    """Split the nodes (``xs``, ``ys``) into k contiguous angular sectors of
    near-equal counts (+-1) around the depot (``dx``, ``dy``).

    The sweep starts at the angle of node 0 relative to the depot; angular
    ties break by radius, then index.
    """
    angles = [math.atan2(y - dy, x - dx) for x, y in zip(xs, ys)]
    base = angles[0]
    keyed = sorted(
        range(len(xs)),
        key=lambda i: ((angles[i] - base) % (2.0 * math.pi), math.hypot(xs[i] - dx, ys[i] - dy), i),
    )
    quota, extra = divmod(len(keyed), k)
    cuts = [c * quota + min(c, extra) for c in range(k + 1)]  # sector c starts at cuts[c]
    return [keyed[a:b] for a, b in zip(cuts, cuts[1:])]


def _insertions(
    D: np.ndarray | _Distances, tours: np.ndarray, cost: np.ndarray, edges: np.ndarray,
    nodes: list[int],
) -> tuple[list[list[int]], list[list[float]]]:
    """Cheapest position to insert each of ``nodes`` into each tour, alone:
    positions and added costs, indexed [node][tour].

    ``tours[r]`` is a depot-to-depot node row whose first ``edges[r]`` edges
    are real, the rest padding; ``cost[r]`` holds their lengths. Along a row
    of insertion costs a later position wins only by more than
    ``_IMPROVE_EPS`` (``_first_clear_min``). That scan stops at the row's
    first minimum unless the row holds a NaN or a value v above the minimum
    for which ``min < v - _IMPROVE_EPS`` fails, so only such rows are
    scanned.
    """
    # near[c, r, s] = D[tours[r, s], nodes[c]], as D is symmetric
    near = D[np.array(nodes)[:, None, None], tours]
    # deltas[c, r, pos] = added cost of nodes[c] between tours[r, pos] and tours[r, pos + 1]
    deltas = near[:, :, :-1] + near[:, :, 1:]
    deltas -= cost
    np.copyto(deltas, np.inf, where=np.arange(cost.shape[1]) >= edges[:, None])
    pos = deltas.argmin(axis=2)
    least = deltas.min(axis=2, keepdims=True)
    unclear = ~((deltas <= least) | (least < deltas - _IMPROVE_EPS))
    pos, least = pos.tolist(), least[..., 0].tolist()
    for c, r in zip(*np.nonzero(unclear.any(axis=2))):
        pos[c][r], least[c][r] = _first_clear_min(deltas[c, r, : edges[r]].tolist())
    return pos, least


def _first_clear_min(row: list[float]) -> tuple[int, float]:
    best_pos, best_delta = 0, math.inf
    # not an argmin: a later position wins only by more than _IMPROVE_EPS
    for pos, delta in enumerate(row):
        if delta < best_delta - _IMPROVE_EPS:
            best_pos, best_delta = pos, delta
    return best_pos, best_delta


def _nearest(
    R: np.ndarray, X: np.ndarray, Y: np.ndarray, cx: np.ndarray, cy: np.ndarray, count: int
) -> list[tuple[float, int, int]]:
    """The ``count`` smallest (gap, node, position) rows of the route R, where
    a node's gap is its smallest ``math.hypot`` distance to any of the
    centres (cx, cy), and node i lies at (X[i], Y[i]).

    Only a shortlist gets the exact key. ``np.hypot`` ranks every node first:
    its overflow-free distance and ``math.hypot``'s are each within one ulp
    of the true distance of the same operands, so a node's two gaps h and g
    differ by at most 2^-51 g + 2^-1073 (two ulps, normal or subnormal).
    Let T be the count-th smallest h. The count nodes with h <= T have
    g <= (T + 2^-1073) / (1 - 2^-51), which bounds G, the count-th smallest
    g, and every node with g <= G then has h < T (1 + 2^-49) + 2^-1071. The
    shortlist limit T (1 + 2^-40) + 2^-1070 is at least that in floating
    point: for normal T, T (1 + 2^-40) rounds to at least T (1 + 2^-41);
    for subnormal T it rounds to at least T, T 2^-49 < 2^-1071, and adding
    2^-1070 is exact. So no node outside the shortlist has g <= G, and the
    shortlist sorted by the exact key begins with the full ranking's rows.
    """
    gaps = np.hypot(X[R, None] - cx, Y[R, None] - cy).min(axis=1)
    keep = np.arange(len(R))
    if len(R) > count:
        kth = np.partition(gaps, count - 1)[count - 1]
        keep = np.flatnonzero(gaps <= kth * (1 + 2**-40) + 2**-1070)
    S = R[keep]
    centres = list(zip(cx.tolist(), cy.tolist()))
    return sorted(
        (min(math.hypot(x - cx, y - cy) for cx, cy in centres), i, t)
        for t, i, x, y in zip(keep.tolist(), S.tolist(), X[S].tolist(), Y[S].tolist())
    )[:count]


def minmax_local_search(
    inst: FarmInstance,
    k: int = 5,
    seed: int = 0,
    max_iterations: int = 100,
    trace: list[float] | None = None,
) -> Solution:
    """Sector sweep + 2-opt + longest-route relocation (`minmax-ls`).

    At most ``max_iterations`` relocation steps run. ``seed`` is recorded for
    provenance; the procedure itself is deterministic. Pass a list as
    ``trace`` to collect the max route length after the start and each
    accepted relocation.
    """
    n = inst.xy.shape[1]
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    D = _Distances(inst)
    # Node coordinates, and 0.0 at _DEPOT: a depot entry adds nothing to a sum.
    X, Y = np.append(inst.xy, [[0.0], [0.0]], axis=1)

    # Route r is row r of one table, depot to depot and padded with the
    # depot, over its sizes[r] nodes. optimal[r]: no 2-opt move on it gains
    # more than _IMPROVE_EPS.
    xs, ys = X[:_DEPOT].tolist(), Y[:_DEPOT].tolist()
    sectors = _sector_partition(xs, ys, inst.depot.x, inst.depot.y, k)
    built = [two_opt(_nearest_neighbor(sector, D), D) for sector in sectors]
    optimal = [done for _, done in built]
    sizes = np.array([len(tour) for tour, _ in built])
    width = int(sizes.max()) + 3
    table = np.array([[_DEPOT, *tour] + [_DEPOT] * (width - 1 - len(tour)) for tour, _ in built])
    lengths = _tour_lengths(D[table[:, :-1], table[:, 1:]], sizes)
    if trace is not None:
        trace.append(max(lengths))

    for _ in range(max_iterations if k > 1 else 0):  # one route has no relocation target
        cur_max = max(lengths)
        longest = lengths.index(cur_max)
        m = int(sizes[longest])
        if m < 2:
            break
        others = [r for r in range(k) if r != longest]  # each holds at least one node

        # The routes at a width that leaves room for one more node, and the
        # lengths of their edges. A move grows a route by one node, so a
        # route outgrows the table by at most one depot column.
        width = int(sizes.max()) + 3
        if table.shape[1] < width:
            table = np.append(table, np.full((k, 1), _DEPOT), axis=1)
        tours = table[:, :width]
        cost = D[tours[:, :-1], tours[:, 1:]]

        # The nodes nearest another route's centroid: (gap, node, position)
        # rows. Each coordinate sum starts from the depot's 0.0 and adds the
        # route's nodes strictly from the left, as _left_sum does.
        cx = np.add.accumulate(X[tours[others]], axis=1)[:, -1] / sizes[others]
        cy = np.add.accumulate(Y[tours[others]], axis=1)[:, -1] / sizes[others]
        nearest = _nearest(tours[longest, 1 : m + 1], X, Y, cx, cy, _RELOCATE_CANDIDATES)

        # Cheap screening: removal gain plus cheapest-insertion cost.
        P = tours[longest]
        T = np.array([t for _, _, t in nearest])
        N = P[T + 1]
        gains = (D[P[T], N] + D[N, P[T + 2]] - D[P[T], P[T + 2]]).tolist()
        others_max = max(lengths[r] for r in others)
        places, added = _insertions(
            D, tours[others], cost[others], sizes[others] + 1, [i for _, i, _ in nearest]
        )
        scored = sorted(
            (max(lengths[longest] - gain, lengths[target] + ins, others_max), node, target, pos, t)
            for target, at, extra in zip(others, zip(*places), zip(*added))
            for (_, node, t), gain, pos, ins in zip(nearest, gains, at, extra)
        )[:_RELOCATE_CANDIDATES]

        # The trial tours, one row each: the longest route without the node
        # at each distinct removed position t, then each target with its node
        # at pos. A trial's changed edges are t, or pos and pos + 1.
        node, target, pos, t = np.array([move[1:] for move in scored]).T
        cut_of = {c: i for i, c in enumerate(dict.fromkeys(t.tolist()))}
        cuts = np.array(list(cut_of))
        span = np.arange(width)
        trials = np.concatenate([
            P[np.minimum(span + (span > cuts[:, None]), width - 1)],
            tours[target[:, None], span - (span > pos[:, None] + 1)],
        ])
        grown = len(cuts) + np.arange(len(scored))
        trials[grown, pos + 1] = node
        trial_sizes = np.concatenate([np.full(len(cuts), m - 1), sizes[target] + 1])
        legs = D[trials[:, :-1], trials[:, 1:]]

        # The screen of every trial tour in one table, one row per changed
        # edge. On a trial of a route known to be optimal only the moves
        # that drop a changed edge can gain more than _IMPROVE_EPS, so
        # two_opt runs only where the screen finds one, and then its first
        # pass takes the screen's move; on any other route two_opt runs.
        rows = np.concatenate([np.arange(len(cuts)), np.repeat(grown, 2)])
        changed = np.concatenate([cuts, np.stack([pos, pos + 1], axis=1).ravel()])
        screen = _screen_table(D, trials[rows], legs[rows], trial_sizes[rows] + 1, changed)
        picks = _screen_picks(screen, changed)
        # one pick per trial: a grown trial's two rows give the smaller key
        picks[len(cuts) :] = map(min, picks[len(cuts) :: 2], picks[len(cuts) + 1 :: 2])

        # Each trial is polished in its own row. converged[i]: no 2-opt move
        # on trial i gains more than _IMPROVE_EPS.
        converged = []
        for i, (size, (no_nan, change, a, b)) in enumerate(zip(trial_sizes.tolist(), picks)):
            known = optimal[longest if i < len(cuts) else target[i - len(cuts)]]
            hit = not (no_nan and change >= -_IMPROVE_EPS)
            if size < 3 or (known and not hit):
                converged.append(size >= 3)
                continue
            first = (a, b) if known else None
            tour, done = two_opt(trials[i, 1 : size + 1].tolist(), D, first=first)
            converged.append(done)
            trials[i, 1 : size + 1] = tour
            legs[i] = D[trials[i, :-1], trials[i, 1:]]
        trial_lengths = _tour_lengths(legs, trial_sizes)

        moves = []  # (new_max, node, target, cut row, grown row, new_lengths)
        for g, (_, v, r, _, cut) in zip(grown.tolist(), scored):
            c = cut_of[cut]
            new_lengths = list(lengths)
            new_lengths[longest] = trial_lengths[c]
            new_lengths[r] = trial_lengths[g]
            new_max = max(new_lengths)
            if new_max < cur_max - _IMPROVE_EPS:
                moves.append((new_max, v, r, c, g, new_lengths))
        if not moves:
            break
        # (node, target) is unique per move, so only the first three fields are compared
        _, _, r, c, g, lengths = min(moves)
        tours[longest], tours[r] = trials[c], trials[g]
        sizes[longest], sizes[r] = trial_sizes[c], trial_sizes[g]
        optimal[longest], optimal[r] = converged[c], converged[g]
        if trace is not None:
            trace.append(max(lengths))

    orders = (tuple(row[1 : size + 1].tolist()) for row, size in zip(table, sizes.tolist()))
    routes = tuple(map(Route, orders, lengths))
    return Solution(instance_ref=inst.name, algorithm="minmax-ls", seed=seed, routes=routes)


# ---------------------------------------------------------------------------
# exact oracle


def _subset_tours(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal depot-to-depot tour cost for every non-empty subset of the
    ``len(D) - 1`` nodes.

    Returns (cost per mask, best final node per mask, dp). dp[mask, last] is
    the cheapest depot -> ... -> last path over exactly ``mask``, relaxed by
    subset size; closing back to the depot is taken at query time.
    """
    n = len(D) - 1
    size = 1 << n
    dp = np.full((size, n), np.inf)
    bit = 1 << np.arange(n)
    dp[bit, np.arange(n)] = D[_DEPOT, :n]
    in_mask = (np.arange(size)[:, None] & bit) != 0
    count = in_mask.sum(axis=1)
    for c in range(2, n + 1):
        mask, last = np.nonzero(in_mask & (count == c)[:, None])
        # min over prev of dp[mask without last, prev] + D[prev, last], inf off that mask
        dp[mask, last] = (dp[mask ^ bit[last]] + D[:n, last].T).min(axis=1)

    closes = dp + D[:n, _DEPOT]
    tour_last = np.argmin(closes, axis=1)
    tour_cost = closes[np.arange(size), tour_last]
    tour_cost[0], tour_last[0] = np.inf, -1
    return tour_cost, tour_last, dp


def _reconstruct(dp: np.ndarray, D: np.ndarray, mask: int, last: int) -> list[int]:
    """Walk the path ``dp[mask, last]`` back: each step takes the first prev
    minimising dp[mask without last, prev] + D[prev, last], until none is finite."""
    order = [last]
    while True:
        mask ^= 1 << last
        cand = dp[mask] + D[:-1, last]
        last = int(np.argmin(cand))
        if not cand[last] < np.inf:
            return order[::-1]
        order.append(last)


def _partitions(n: int, k: int) -> np.ndarray:
    """(P, k) masks of every partition of nodes 0..n-1 into k non-empty blocks,
    from restricted-growth labels: node 0 is in block 0 and each later node joins
    an open block or opens the next, so blocks come in order of smallest node."""
    labels = np.zeros((1, 1), dtype=np.int64)
    for _ in range(1, n):
        opened = labels.max(axis=1) + 1
        labels = np.concatenate(
            [np.insert(labels[opened >= b], labels.shape[1], b, axis=1) for b in range(k)]
        )
    labels = labels[labels.max(axis=1) == k - 1]
    bit = 1 << np.arange(n)
    return np.stack([(labels == b) @ bit for b in range(k)], axis=1)


def exact_minmax(inst: FarmInstance, k: int) -> Solution:
    """Exhaustive min-max optimum for tiny instances (n <= 10, k <= 3).

    Minimizes the maximum route length over all partitions into k non-empty
    routes and all visit orders; ties break by total distance, then by the
    lexicographically smallest canonical route content: the sorted list of
    its routes, each in the smaller of its two directions. Over the tied
    partitions it reconstructs each subset's route once; only the chosen
    routes are priced. Distinct partitions have distinct route lists, so the
    lengths never decide between them.
    """
    n = inst.xy.shape[1]
    if n > EXACT_MAX_NODES or k > EXACT_MAX_ROUTES:
        raise TooLarge(
            f"exact oracle is limited to {EXACT_MAX_NODES} nodes and "
            f"{EXACT_MAX_ROUTES} routes, got n={n}, k={k}"
        )
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    every = np.arange(n + 1)
    D = _Distances(inst)[every[:, None], every]
    tour_cost, tour_last, dp = _subset_tours(D)
    partitions = _partitions(n, k)
    costs = tour_cost[partitions]  # costs[p, r]: route r of partition p
    worst = costs.max(axis=1)
    total = _left_sum(costs.T)  # column by column, as sum() adds a row
    tied = np.flatnonzero(worst == worst.min())
    parts = partitions[tied[total[tied] == total[tied].min()]]  # the tied partitions
    canonical = {}  # mask -> its route in the smaller of its two directions
    for mask in np.unique(parts).tolist():
        order = _reconstruct(dp, D, mask, int(tour_last[mask]))
        canonical[mask] = min(tuple(order), tuple(order[::-1]))
    chosen = min(sorted(canonical[mask] for mask in part) for part in parts.tolist())
    routes = tuple(Route(node_order=order, length=_route_cost(D, list(order))) for order in chosen)
    return Solution(instance_ref=inst.name, algorithm="exact", seed=0, routes=routes)
