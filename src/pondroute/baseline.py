"""Reference solvers: a min-max local search and an exhaustive tiny-instance oracle.

``minmax_local_search`` builds k routes from an angular sector sweep around
the depot, polishes each with 2-opt, then relocates nodes off the longest
route while the maximum strictly decreases. ``exact_minmax`` enumerates every
partition of up to 10 nodes into at most 3 routes, with per-subset optimal
visit orders from a dynamic program over subsets, and is the ground truth the
heuristics are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import FarmInstance
from .solution import InvalidK, Route, Solution

EXACT_MAX_NODES = 10
EXACT_MAX_ROUTES = 3
_RELOCATE_CANDIDATES = 10
_IMPROVE_EPS = 1e-12
_TWO_OPT_MAX_PASSES = 1000


class TooLarge(ValueError):
    """Instance exceeds the exact oracle's enforced limits."""


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric Euclidean distances over nodes 0..n-1 plus the depot at index n."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.n + 1, self.n + 1):
            raise ValueError("entries must be (n+1) x (n+1) with the depot last")

    @classmethod
    def from_instance(cls, inst: FarmInstance) -> "DistanceMatrix":
        coords = np.array(
            [[p.x, p.y] for p in inst.nodes] + [[inst.depot.x, inst.depot.y]], dtype=float
        )
        diff = coords[:, None, :] - coords[None, :, :]
        return cls(n=len(inst.nodes), entries=np.sqrt((diff**2).sum(axis=2)))

    @property
    def depot(self) -> int:
        return self.n


def _route_cost(D: np.ndarray, depot: int, order: list[int]) -> float:
    if not order:
        return 0.0
    cost = D[depot, order[0]] + D[order[-1], depot]
    for a, b in zip(order, order[1:]):
        cost += D[a, b]
    return float(cost)


def two_opt(order: list[int], D: np.ndarray, depot: int) -> list[int]:
    """Best-improvement 2-opt on a depot-anchored tour until no move helps
    (at most 1000 passes)."""
    order = list(order)
    m = len(order)
    if m < 3:
        return order
    for _ in range(_TWO_OPT_MAX_PASSES):
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
        if delta[i, j] >= -_IMPROVE_EPS:
            break
        order[i : j + 1] = order[i : j + 1][::-1]
    return order


def _nearest_neighbor(nodes: list[int], D: np.ndarray, depot: int) -> list[int]:
    remaining = list(nodes)
    order: list[int] = []
    current = depot
    while remaining:
        nxt = min(remaining, key=lambda i: (D[current, i], i))
        order.append(nxt)
        remaining.remove(nxt)
        current = nxt
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
    n = len(keyed)
    quota, extra = divmod(n, k)
    sectors = []
    pos = 0
    for c in range(k):
        size = quota + (1 if c < extra else 0)
        sectors.append(keyed[pos : pos + size])
        pos += size
    return sectors


def _best_insertion(order: list[int], node: int, D: np.ndarray, depot: int) -> tuple[int, float]:
    """Cheapest position to insert ``node``; returns (position, added cost)."""
    P = [depot] + order + [depot]
    best_pos, best_delta = 0, math.inf
    for pos in range(len(order) + 1):
        delta = D[P[pos], node] + D[node, P[pos + 1]] - D[P[pos], P[pos + 1]]
        if delta < best_delta - _IMPROVE_EPS:
            best_pos, best_delta = pos, float(delta)
    return best_pos, best_delta


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
    dm = DistanceMatrix.from_instance(inst)
    D, depot = dm.entries, dm.depot

    orders = [
        two_opt(_nearest_neighbor(sector, D, depot), D, depot)
        for sector in _sector_partition(inst, k)
    ]
    lengths = [_route_cost(D, depot, o) for o in orders]
    if trace is not None:
        trace.append(max(lengths))

    for _ in range(max_iterations if k > 1 else 0):  # one route has no relocation target
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
            other_centroids[r] = (sum(xs) / len(xs), sum(ys) / len(ys))

        def centroid_gap(i: int) -> float:
            px, py = inst.nodes[i].x, inst.nodes[i].y
            return min(math.hypot(px - cx, py - cy) for cx, cy in other_centroids.values())

        candidates = sorted(orders[longest], key=lambda i: (centroid_gap(i), i))
        candidates = candidates[:_RELOCATE_CANDIDATES]

        # Cheap screening: removal gain plus cheapest-insertion cost.
        scored = []
        P = [depot] + orders[longest] + [depot]
        pos_of = {node: t for t, node in enumerate(orders[longest])}
        others_max = max(
            (lengths[r] for r in range(k) if r != longest), default=0.0
        )
        for node in candidates:
            t = pos_of[node]
            gain = D[P[t], node] + D[node, P[t + 2]] - D[P[t], P[t + 2]]
            for target in range(k):
                if target == longest:
                    continue
                _, ins = _best_insertion(orders[target], node, D, depot)
                est = max(lengths[longest] - gain, lengths[target] + ins, others_max)
                scored.append((float(est), node, target))
        scored.sort()

        best_move = None  # (new_max, node, target, new_longest, new_target)
        for _, node, target in scored[:_RELOCATE_CANDIDATES]:
            trimmed = [i for i in orders[longest] if i != node]
            trimmed = two_opt(trimmed, D, depot)
            pos, _ = _best_insertion(orders[target], node, D, depot)
            grown = orders[target][:pos] + [node] + orders[target][pos:]
            grown = two_opt(grown, D, depot)
            new_lengths = list(lengths)
            new_lengths[longest] = _route_cost(D, depot, trimmed)
            new_lengths[target] = _route_cost(D, depot, grown)
            new_max = max(new_lengths)
            if new_max < cur_max - _IMPROVE_EPS:
                key = (new_max, node, target)
                if best_move is None or key < (best_move[0], best_move[1], best_move[2]):
                    best_move = (new_max, node, target, trimmed, grown)
        if best_move is None:
            break
        _, node, target, trimmed, grown = best_move
        orders[longest] = trimmed
        orders[target] = grown
        lengths[longest] = _route_cost(D, depot, trimmed)
        lengths[target] = _route_cost(D, depot, grown)
        if trace is not None:
            trace.append(max(lengths))

    routes = tuple(
        Route(node_order=tuple(order), length=_route_cost(D, depot, order)) for order in orders
    )
    return Solution(
        instance_ref=inst.name, algorithm="minmax-ls", k=k, seed=seed, routes=routes
    )


# ---------------------------------------------------------------------------
# exact oracle


def _subset_tours(
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


def _reconstruct(parent: list[dict[int, int]], mask: int, last: int) -> list[int]:
    order = [last]
    while parent[mask].get(last, -1) >= 0:
        prev = parent[mask][last]
        mask ^= 1 << last
        last = prev
        order.append(last)
    return order[::-1]


def _partitions(full: int, k: int):
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
                for tail in _partitions(remainder, k - 1):
                    yield (first,) + tail
        if sub == 0:
            break
        sub = (sub - 1) & rest


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
    dm = DistanceMatrix.from_instance(inst)
    D, depot = dm.entries, dm.depot
    tour_cost, tour_last, parent = _subset_tours(D, n, depot)
    full = (1 << n) - 1

    best_key: tuple[float, float] | None = None
    best_parts: list[tuple[int, ...]] | None = None
    for parts in _partitions(full, k):
        costs = [tour_cost[m] for m in parts]
        key = (max(costs), float(sum(costs)))
        if best_key is None or key < best_key:
            best_key, best_parts = key, [parts]
        elif key == best_key:
            best_parts.append(parts)

    assert best_parts is not None

    def canonical_routes(parts) -> list[tuple[tuple[int, ...], float]]:
        routes = []
        for mask in parts:
            order = _reconstruct(parent, mask, int(tour_last[mask]))
            fwd, rev = tuple(order), tuple(order[::-1])
            chosen = min(fwd, rev)
            routes.append((chosen, _route_cost(D, depot, list(chosen))))
        routes.sort(key=lambda item: item[0])
        return routes

    chosen = min(canonical_routes(p) for p in best_parts)
    routes = tuple(Route(node_order=order, length=length) for order, length in chosen)
    return Solution(instance_ref=inst.name, algorithm="exact", k=k, seed=0, routes=routes)
