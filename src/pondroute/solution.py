"""The solution every solver returns, and its file format.

``hpp``, ``minmax-ls`` and ``exact`` all return a ``Solution``: ``k`` routes,
each a depot-to-depot visit order over node indices of one instance, with
the route's length as the solver computed it. ``_path_length`` is the one
exact path sum; ``hpp`` and ``evaluation.score`` both measure routes with it.

Solution file format (version 1)::

    farm-solution v1
    instance: <instance name>
    algorithm: <text>
    k: <int>
    seed: <int>
    total: <float>
    max: <float>
    routes: <k>
    route <r>: length <float> nodes <i0> <i1> ...

Stored lengths are advisory; consumers must recompute them from coordinates.
The instance name and the algorithm label must each fit on one line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .instances import _fmt, _left_sum, _LineReader, _one_line

SOLUTION_HEADER = "farm-solution v1"


class InvalidK(ValueError):
    """Requested route count is infeasible for the instance."""


@dataclass(frozen=True)
class Route:
    node_order: tuple[int, ...]
    length: float

    def __post_init__(self) -> None:
        if not self.node_order:
            raise ValueError("route must visit at least one node")
        if not (math.isfinite(self.length) and self.length >= 0):
            raise ValueError("route length must be finite and non-negative")


@dataclass(frozen=True)
class Solution:
    instance_ref: str
    algorithm: str
    seed: int
    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("a solution needs at least one route")

    @property
    def k(self) -> int:
        return len(self.routes)

    def total_length(self) -> float:
        return _left_sum(r.length for r in self.routes)

    def max_length(self) -> float:
        return max(r.length for r in self.routes)


def _path_length(xs: list[float], ys: list[float], order: list[int]) -> float:
    """Length of the path through the positions ``order`` of (``xs``,
    ``ys``), its hops added one at a time from the left."""
    return _left_sum(math.hypot(xs[a] - xs[b], ys[a] - ys[b]) for a, b in zip(order, order[1:]))


def save_solution(sol: Solution, path: Path | str) -> None:
    lines = [
        SOLUTION_HEADER,
        f"instance: {_one_line('instance', sol.instance_ref)}",
        f"algorithm: {_one_line('algorithm', sol.algorithm)}",
        f"k: {sol.k}",
        f"seed: {sol.seed}",
        f"total: {_fmt(sol.total_length())}",
        f"max: {_fmt(sol.max_length())}",
        f"routes: {len(sol.routes)}",
    ]
    for r, route in enumerate(sol.routes):
        idx = " ".join(str(i) for i in route.node_order)
        lines.append(f"route {r}: length {_fmt(route.length)} nodes {idx}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _route(text: str) -> Route:
    """A route line's value, ``length <float> nodes <i0> <i1> ...``."""
    length, sep, nodes = text.partition(" nodes ")
    if not (sep and length.startswith("length ")):
        raise ValueError(f"expected 'length <float> nodes <i0> ...', got {text!r}")
    return Route(tuple(int(t) for t in nodes.split()), float(length[len("length "):]))


def load_solution(path: Path | str) -> Solution:
    """Load and validate a solution file; see the module docstring for the format.

    Raises FormatError (VersionError for another version) naming the line.
    """
    r = _LineReader(Path(path), SOLUTION_HEADER)
    instance_ref = r.field("instance")
    algorithm = r.field("algorithm")
    k = r.field("k", int)
    if k < 1:
        raise r.error("k must be positive")
    seed = r.field("seed", int)
    r.field("total", float)
    r.field("max", float)
    n_routes = r.count("routes")
    if n_routes != k:
        raise r.error(f"{n_routes} routes, but k is {k}")
    routes = tuple(r.field(f"route {i}", _route) for i in range(k))
    r.end()
    return Solution(instance_ref, algorithm, seed, routes)

