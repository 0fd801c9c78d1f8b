"""Benchmark harness: batch solving, the three metrics, CSV and table reports.

Per instance the harness records total distance and maximum route length.
Per (size, algorithm) it reports their means plus the batch time: the wall
time of one sequential pass of solve calls (monotonic clock; file parsing,
scoring and report writing are excluded).

CSV schema: ``size,algorithm,mean_total,mean_max,batch_time_s,instances,mode``
with one row per (size, algorithm); means carry full precision. ``mode`` is
``sequential``, or ``skipped`` for the exact oracle above its size limits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline, hpp
from .instances import FarmInstance, FormatError, _fmt, _left_sum, load, load_manifest
from .solution import Solution, _path_length

ALGORITHMS = ("hpp", "minmax-ls", "exact")


class InvalidSolution(ValueError):
    """Solution does not validate against its instance."""


@dataclass(frozen=True)
class InstanceMetrics:
    route_lengths: tuple[float, ...]

    @property
    def total_distance(self) -> float:
        return _left_sum(self.route_lengths)

    @property
    def max_route_length(self) -> float:
        return max(self.route_lengths)


@dataclass(frozen=True)
class ReportRow:
    size: int
    algorithm: str
    mean_total: float | None
    mean_max: float | None
    batch_time_s: float | None
    instance_count: int

    @property
    def mode(self) -> str:
        """``skipped`` for a row without results, else ``sequential``."""
        return "skipped" if self.mean_total is None else "sequential"


def score(inst: FarmInstance, sol: Solution) -> InstanceMetrics:
    """Recompute all route lengths from coordinates; stored lengths are ignored.

    Raises InvalidSolution unless the routes partition the instance's node
    indices.
    """
    n = inst.xy.shape[1]
    seen: dict[int, int] = {}
    for r, route in enumerate(sol.routes):
        for idx in route.node_order:
            if not 0 <= idx < n:
                raise InvalidSolution(f"route {r} references node {idx}, instance has {n}")
            if idx in seen:
                raise InvalidSolution(
                    f"node {idx} appears in routes {seen[idx]} and {r}"
                )
            seen[idx] = r
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen.keys())
        raise InvalidSolution(f"nodes not covered by any route: {missing[:10]}")

    xs, ys = np.append(inst.xy, [[inst.depot.x], [inst.depot.y]], axis=1).tolist()
    return InstanceMetrics(
        tuple(_path_length(xs, ys, [n, *route.node_order, n]) for route in sol.routes)
    )


def solve_with(
    algorithm: str,
    inst: FarmInstance,
    k: int,
    seed: int,
    max_iterations: int = 100,
) -> Solution:
    """Dispatch one solve; algorithm is one of ``hpp``, ``minmax-ls``, ``exact``.

    ``max_iterations`` bounds the local search of ``minmax-ls``; the other
    algorithms ignore it.
    """
    if algorithm == "hpp":
        return hpp.hpp_solve(inst, k=k, seed=seed)
    if algorithm == "minmax-ls":
        return baseline.minmax_local_search(inst, k=k, seed=seed, max_iterations=max_iterations)
    if algorithm == "exact":
        return baseline.exact_minmax(inst, k=k)
    raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def run_benchmark(
    manifest: Path | str,
    algorithms: list[str],
    k: int = 5,
    seed: int = 0,
    max_iterations: int = 100,
) -> tuple[ReportRow, ...]:
    """Solve every manifest instance with every algorithm and aggregate means:
    one row per (size, algorithm), sizes ascending.

    The exact oracle is skipped (marked row) for sizes above its limits. A
    solver failure aborts the whole batch, naming the failing instance. An
    instance whose node count is not its manifest size raises FormatError.
    An empty, unknown or repeated algorithm list raises ValueError.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"algorithms must be distinct, got {algorithms}")
    entries = load_manifest(manifest)
    by_size: dict[int, list] = {}
    for e in entries:
        by_size.setdefault(e.size, []).append(e)

    rows: list[ReportRow] = []
    for size in sorted(by_size):
        batch = by_size[size]
        instances = [load(e.path) for e in batch]
        for e, inst in zip(batch, instances):
            if inst.xy.shape[1] != size:
                raise FormatError(
                    f"{manifest}: {e.path} has {inst.xy.shape[1]} nodes, the manifest lists {size}"
                )
        for algorithm in algorithms:
            if algorithm == "exact" and (
                size > baseline.EXACT_MAX_NODES or k > baseline.EXACT_MAX_ROUTES
            ):
                rows.append(ReportRow(size, algorithm, None, None, None, len(batch)))
                continue
            t0 = time.perf_counter()
            solutions = []
            for inst in instances:
                try:
                    solutions.append(solve_with(algorithm, inst, k, seed, max_iterations))
                except Exception as exc:
                    raise RuntimeError(
                        f"solver {algorithm!r} failed on instance {inst.name}: {exc}"
                    ) from exc
            batch_time = time.perf_counter() - t0
            metrics = [score(i, s) for i, s in zip(instances, solutions)]
            mean_total = _left_sum(m.total_distance for m in metrics) / len(metrics)
            mean_max = _left_sum(m.max_route_length for m in metrics) / len(metrics)
            rows.append(
                ReportRow(size, algorithm, mean_total, mean_max, batch_time, len(batch))
            )
    return tuple(rows)


CSV_HEADER = "size,algorithm,mean_total,mean_max,batch_time_s,instances,mode"


def write_csv(rows: tuple[ReportRow, ...], path: Path | str) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        mt, mm, bt = (
            "" if x is None else _fmt(x) for x in (r.mean_total, r.mean_max, r.batch_time_s)
        )
        lines.append(f"{r.size},{r.algorithm},{mt},{mm},{bt},{r.instance_count},{r.mode}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_table(rows: tuple[ReportRow, ...]) -> str:
    """Aligned text table: one block per metric, sizes as rows, algorithms as columns."""
    algorithms = list(dict.fromkeys(r.algorithm for r in rows))
    sizes = sorted({r.size for r in rows})
    cell: dict[tuple[int, str], ReportRow] = {(r.size, r.algorithm): r for r in rows}
    counts = {r.instance_count for r in rows}
    count_label = f"{counts.pop()} instances" if len(counts) == 1 else "batch"

    def block(title: str, getter, fmt: str) -> list[str]:
        width = max([10, *(len(a) + 2 for a in algorithms)])
        out = [title]
        header = f"{'nodes':>8}" + "".join(f"{a:>{width}}" for a in algorithms)
        out.append(header)
        for size in sizes:
            row = f"{size:>8}"
            for a in algorithms:
                r = cell.get((size, a))
                value = getter(r) if r is not None else None
                row += f"{'---' if value is None else format(value, fmt):>{width}}"
            out.append(row)
        out.append("")
        return out

    lines: list[str] = []
    lines += block("Average total distance", lambda r: r.mean_total, ".2f")
    lines += block("Average maximum route length", lambda r: r.mean_max, ".2f")
    lines += block(f"Run time for {count_label} (s)", lambda r: r.batch_time_s, ".2E")
    return "\n".join(lines)
