"""Reference solvers: a min-max local search and an exhaustive tiny-instance oracle.

``minmax_local_search`` builds k routes from an angular sector sweep around
the depot, polishes each with 2-opt, then relocates nodes off the longest
route while the maximum strictly decreases. Each relocation step tries up to
10 moves and re-polishes the two routes of each. Those routes are 2-opt local
optima with one node removed or inserted, so ``two_opt`` first scans only the
O(m) moves that drop a new edge, for a route of m nodes; full O(m^2) passes
run only after that scan finds an improving move.

``exact_minmax`` scores every partition of up to 10 nodes into at most 3
routes as one array of masks. Per-subset optimal tours are walked back from a
single (2^n, n) dynamic-programming cost array relaxed one subset size per
numpy step. It is the ground truth the heuristics are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Euclidean distances over nodes 0..n-1 plus the depot at index n."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("entries must be a square matrix with the depot last")

    @classmethod
    def from_instance(cls, inst: FarmInstance) -> "DistanceMatrix":
        xs = np.array([p.x for p in inst.nodes] + [inst.depot.x], dtype=float)
        ys = np.array([p.y for p in inst.nodes] + [inst.depot.y], dtype=float)
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        dx *= dx
        dy *= dy
        dx += dy
        return cls(entries=np.sqrt(dx, out=dx))


def _route_cost(D: np.ndarray, order: list[int]) -> float:
    if not order:
        return 0.0
    P = np.array(order)
    cost = float(D[_DEPOT, order[0]] + D[order[-1], _DEPOT])
    for leg in D[P[:-1], P[1:]].tolist():  # one leg at a time, in tour order
        cost += leg
    return cost


def two_opt(
    order: list[int],
    D: np.ndarray,
    *,
    changed: tuple[int, ...] | None = None,
    converged: list[bool] | None = None,
) -> list[int]:
    """Best-improvement 2-opt on a depot-anchored tour until no move helps
    (at most ``_TWO_OPT_MAX_PASSES`` passes).

    Edge t of the tour joins its positions t and t + 1, where the depot is
    position 0 and position ``len(order) + 1``; reversing ``order[i..j]``
    replaces edges i and j + 1. ``changed`` names the edges of ``order``
    that are new since one node was removed from or inserted into a tour on
    which no move gained more than ``_IMPROVE_EPS``. Every move that keeps
    them is a move of that tour, with the same four distances in the same
    order, so the first pass scans only the O(m) moves that drop one of
    them; ``None`` scans every move. A list passed as ``converged`` gets
    True appended when the search stopped because no move helps, and False
    when it ran into the pass cap or the tour has fewer than 3 nodes.
    """
    m = len(order)
    P = np.array([_DEPOT, *order, _DEPOT])
    stopped = False
    if m >= 3:
        S = None  # S[a, b] = D[P[a], P[b]], gathered at the first full pass
        for pass_index in range(_TWO_OPT_MAX_PASSES):
            if pass_index == 0 and changed is not None:
                move = _screen(D, P, changed)
            else:
                if S is None:
                    S = D[P[:, None], P]
                    cons = S.diagonal(1)  # cons[t] = length of edge t, a view of S
                    lower = np.tri(m, dtype=bool)  # j <= i: not a move
                # delta[i, j] = cost change of reversing order[i..j]
                delta = S[:m, 1 : m + 1] + S[1 : m + 1, 2:]
                delta -= cons[:m, None]
                delta -= cons[None, 1:]
                np.copyto(delta, 0.0, where=lower)
                i, j = divmod(int(np.argmin(delta)), m)
                move = None if delta[i, j] >= -_IMPROVE_EPS else (i, j)
            if move is None:
                stopped = True
                break
            i, j = move
            P[i + 1 : j + 2] = P[j + 1 : i : -1]
            if S is not None:
                S[i + 1 : j + 2] = S[j + 1 : i : -1]
                S[:, i + 1 : j + 2] = S[:, j + 1 : i : -1]
    if converged is not None:
        converged.append(stopped)
    return P[1:-1].tolist()


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


def _nearest_neighbor(nodes: list[int], D: np.ndarray) -> list[int]:
    remaining = np.array(sorted(nodes))
    order: list[int] = []
    current = _DEPOT
    for left in range(len(nodes), 0, -1):
        # argmin's first index in ascending node order is the (distance, node) minimum
        t = int(np.argmin(D[current, remaining[:left]]))
        current = int(remaining[t])
        order.append(current)
        remaining[t : left - 1] = remaining[t + 1 : left]
    return order


def _sector_partition(inst: FarmInstance, k: int) -> list[list[int]]:
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
    quota, extra = divmod(len(keyed), k)
    cuts = [c * quota + min(c, extra) for c in range(k + 1)]  # sector c starts at cuts[c]
    return [keyed[a:b] for a, b in zip(cuts, cuts[1:])]


def _best_insertions(order: list[int], nodes: list[int], D: np.ndarray) -> list[tuple[int, float]]:
    """Cheapest position to insert each of ``nodes`` into ``order``, alone:
    (position, added cost) per node."""
    P = np.array([_DEPOT, *order, _DEPOT])
    N = np.array(nodes)
    # deltas[c, pos] = added cost of nodes[c] between P[pos] and P[pos + 1]
    deltas = D[P[:-1], N[:, None]] + D[N[:, None], P[1:]] - D[P[:-1], P[1:]]
    best = []
    for row in deltas.tolist():
        best_pos, best_delta = 0, math.inf
        # not an argmin: a later position wins only by more than _IMPROVE_EPS
        for pos, delta in enumerate(row):
            if delta < best_delta - _IMPROVE_EPS:
                best_pos, best_delta = pos, delta
        best.append((best_pos, best_delta))
    return best


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
    n = len(inst.nodes)
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    D = DistanceMatrix.from_instance(inst).entries
    xs = [p.x for p in inst.nodes]
    ys = [p.y for p in inst.nodes]

    # optimal[r]: no 2-opt move on orders[r] gains more than _IMPROVE_EPS
    optimal: list[bool] = []
    orders = [
        two_opt(_nearest_neighbor(sector, D), D, converged=optimal)
        for sector in _sector_partition(inst, k)
    ]
    lengths = [_route_cost(D, o) for o in orders]
    if trace is not None:
        trace.append(max(lengths))

    for _ in range(max_iterations if k > 1 else 0):  # one route has no relocation target
        cur_max = max(lengths)
        longest = lengths.index(cur_max)
        route = orders[longest]
        if len(route) < 2:
            break
        others = [r for r in range(k) if r != longest]  # each holds at least one node

        # The nodes nearest another route's centroid: (gap, node, position) rows.
        centroids = [
            (_left_sum(xs[i] for i in orders[r]) / len(orders[r]),
             _left_sum(ys[i] for i in orders[r]) / len(orders[r]))
            for r in others
        ]
        nearest = sorted(
            (min(math.hypot(xs[i] - cx, ys[i] - cy) for cx, cy in centroids), i, t)
            for t, i in enumerate(route)
        )[:_RELOCATE_CANDIDATES]
        candidates = [i for _, i, _ in nearest]

        # Cheap screening: removal gain plus cheapest-insertion cost.
        P = np.array([_DEPOT, *route, _DEPOT])
        T = np.array([t for _, _, t in nearest])
        N = P[T + 1]
        gains = (D[P[T], N] + D[N, P[T + 2]] - D[P[T], P[T + 2]]).tolist()
        others_max = max(lengths[r] for r in others)
        scored = []
        for target in others:
            inserts = _best_insertions(orders[target], candidates, D)
            for (_, node, t), gain, (pos, ins) in zip(nearest, gains, inserts):
                est = max(lengths[longest] - gain, lengths[target] + ins, others_max)
                scored.append((est, node, target, pos, t))
        scored.sort()

        moves = []  # (new_max, node, target, trimmed, grown, converged, new_lengths)
        for _, node, target, pos, t in scored[:_RELOCATE_CANDIDATES]:
            found: list[bool] = []
            trimmed = two_opt(
                route[:t] + route[t + 1 :], D,
                changed=(t,) if optimal[longest] else None, converged=found,
            )
            grown = two_opt(
                orders[target][:pos] + [node] + orders[target][pos:], D,
                changed=(pos, pos + 1) if optimal[target] else None, converged=found,
            )
            new_lengths = list(lengths)
            new_lengths[longest] = _route_cost(D, trimmed)
            new_lengths[target] = _route_cost(D, grown)
            new_max = max(new_lengths)
            if new_max < cur_max - _IMPROVE_EPS:
                moves.append((new_max, node, target, trimmed, grown, found, new_lengths))
        if not moves:
            break
        # (node, target) is unique per move, so only the first three fields are compared
        _, _, target, trimmed, grown, found, lengths = min(moves)
        orders[longest], orders[target] = trimmed, grown
        optimal[longest], optimal[target] = found
        if trace is not None:
            trace.append(max(lengths))

    routes = tuple(
        Route(node_order=tuple(order), length=length) for order, length in zip(orders, lengths)
    )
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
    lexicographically smallest canonical route content.
    """
    n = len(inst.nodes)
    if n > EXACT_MAX_NODES or k > EXACT_MAX_ROUTES:
        raise TooLarge(
            f"exact oracle is limited to {EXACT_MAX_NODES} nodes and "
            f"{EXACT_MAX_ROUTES} routes, got n={n}, k={k}"
        )
    if k < 1 or k > n:
        raise InvalidK(f"k={k} infeasible for {n} nodes")
    D = DistanceMatrix.from_instance(inst).entries
    tour_cost, tour_last, dp = _subset_tours(D)
    partitions = _partitions(n, k)
    costs = tour_cost[partitions]  # costs[p, r]: route r of partition p
    worst = costs.max(axis=1)
    total = _left_sum(costs.T)  # column by column, as sum() adds a row
    tied = np.flatnonzero(worst == worst.min())
    tied = tied[total[tied] == total[tied].min()]

    def canonical_routes(parts) -> list[tuple[tuple[int, ...], float]]:
        orders = [_reconstruct(dp, D, mask, int(tour_last[mask])) for mask in parts]
        chosen = sorted(min(tuple(o), tuple(o[::-1])) for o in orders)
        return [(order, _route_cost(D, list(order))) for order in chosen]

    chosen = min(canonical_routes(partitions[p].tolist()) for p in tied)
    routes = tuple(Route(node_order=order, length=length) for order, length in chosen)
    return Solution(instance_ref=inst.name, algorithm="exact", seed=0, routes=routes)
