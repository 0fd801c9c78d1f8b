"""Command-line interface: generate, solve, bench, plot.

Exit codes: 0 success, 1 runtime failure (solver or file errors), 2 usage
errors. All randomness flows from explicit ``--seed`` flags.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import baseline, evaluation, hpp, instances
from .geometry import DegenerateInput, Point, convex_hull
from .instances import FormatError, GenerationFailure
from .solution import InvalidK, load_solution, save_solution

ROUTE_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes or any(s < 3 for s in sizes):
        raise argparse.ArgumentTypeError("every size must be an integer >= 3")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"sizes must be distinct, got {text!r}")
    return sizes


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_count = _int_at_least(1)
_non_negative = _int_at_least(0)


def _parse_algorithms(text: str) -> list[str]:
    algos = [t.strip() for t in text.split(",") if t.strip()]
    bad = [a for a in algos if a not in evaluation.ALGORITHMS]
    if not algos or bad:
        raise argparse.ArgumentTypeError(
            f"algorithms must be drawn from {', '.join(evaluation.ALGORITHMS)}"
        )
    if len(set(algos)) != len(algos):
        raise argparse.ArgumentTypeError(f"algorithms must be distinct, got {text!r}")
    return algos


def cmd_generate(args: argparse.Namespace) -> int:
    manifest = instances.generate_dataset(
        sizes=args.sizes, count_per_size=args.count, base_seed=args.seed, out_dir=args.out
    )
    print(manifest)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    inst = instances.load(args.instance)
    t0 = time.perf_counter()
    sol = evaluation.solve_with(
        args.algorithm, inst, k=args.routes, seed=args.seed, max_iterations=args.iterations
    )
    elapsed = time.perf_counter() - t0
    metrics = evaluation.score(inst, sol)
    if args.out:
        save_solution(sol, args.out)
    print(
        f"{args.algorithm} total={metrics.total_distance:.12g} "
        f"max={metrics.max_route_length:.12g} time={elapsed:.6f}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows = evaluation.run_benchmark(
        manifest=args.manifest,
        algorithms=args.algorithms,
        k=args.routes,
        seed=args.seed,
        max_iterations=args.iterations,
    )
    evaluation.write_csv(rows, args.report)
    table = evaluation.format_table(rows)
    if args.table:
        Path(args.table).write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


def _svg_document(inst, sol, draw_clusters: bool, width: int, height: int) -> str:
    xs = [p.x for p in inst.nodes] + [p.x for p in inst.polygon] + [inst.depot.x]
    ys = [p.y for p in inst.nodes] + [p.y for p in inst.polygon] + [inst.depot.y]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    scale = min(width / (xmax - xmin + 2 * pad), height / (ymax - ymin + 2 * pad))
    ox = (width - (xmax - xmin) * scale) / 2.0
    oy = (height - (ymax - ymin) * scale) / 2.0

    def px(p: Point) -> tuple[float, float]:
        return (ox + (p.x - xmin) * scale, height - oy - (p.y - ymin) * scale)

    def pts_attr(points) -> str:
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in (px(p) for p in points))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polygon points="{pts_attr(inst.polygon.vertices)}" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>',
    ]
    if sol is not None:
        if draw_clusters:
            for r, route in enumerate(sol.routes):
                pts = [inst.nodes[i] for i in route.node_order]
                try:
                    hull = convex_hull(pts)
                except DegenerateInput:
                    continue
                color = ROUTE_COLORS[r % len(ROUTE_COLORS)]
                parts.append(
                    f'<polygon points="{pts_attr(hull.vertices)}" fill="none" '
                    f'stroke="{color}" stroke-width="0.8" stroke-dasharray="4 3"/>'
                )
        for r, route in enumerate(sol.routes):
            color = ROUTE_COLORS[r % len(ROUTE_COLORS)]
            path = [inst.depot] + [inst.nodes[i] for i in route.node_order] + [inst.depot]
            parts.append(
                f'<polyline points="{pts_attr(path)}" fill="none" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
    for p in inst.nodes:
        x, y = px(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#333333"/>')
    dx, dy = px(inst.depot)
    parts.append(
        f'<rect x="{dx - 5:.2f}" y="{dy - 5:.2f}" width="10" height="10" fill="#1f77b4"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    inst = instances.load(args.instance)
    sol = None
    if args.solution:
        sol = load_solution(args.solution)
        if sol.instance_ref != inst.name:
            raise evaluation.InvalidSolution(
                f"solution is for {sol.instance_ref!r}, instance is {inst.name!r}"
            )
        evaluation.score(inst, sol)  # validate before any drawing
    document = _svg_document(inst, sol, args.clusters, args.width, args.height)
    Path(args.out).write_text(document, encoding="utf-8")
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pondroute",
        description="Generate, solve, benchmark, and plot multi-route farm coverage instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset of instances plus a manifest")
    p.add_argument("--sizes", type=_parse_sizes, required=True,
                   help="comma-separated node counts, e.g. 50,100,200")
    p.add_argument("--count", type=_count, default=100, help="instances per size")
    p.add_argument("--seed", type=_non_negative, default=42,
                   help="base seed; instance i uses seed+i")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one instance and write a solution file")
    p.add_argument("--algorithm", choices=evaluation.ALGORITHMS, required=True)
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--routes", type=_count, default=5, help="route count k (default 5)")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--iterations", type=_non_negative, default=100,
                   help="local-search iteration budget (minmax-ls only)")
    p.add_argument("--out", type=Path, default=None, help="solution file to write")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run the benchmark protocol over a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--algorithms", type=_parse_algorithms, required=True,
                   help="comma-separated subset of: " + ",".join(evaluation.ALGORITHMS))
    p.add_argument("--routes", type=_count, default=5)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--iterations", type=_non_negative, default=100,
                   help="local-search iteration budget (minmax-ls only)")
    p.add_argument("--report", type=Path, required=True, help="CSV report path")
    p.add_argument("--table", type=Path, default=None, help="also write the text table here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="render an instance (and optional solution) to SVG")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--solution", type=Path, default=None)
    p.add_argument("--clusters", action="store_true", help="draw per-route convex hulls")
    p.add_argument("--width", type=_count, default=900)
    p.add_argument("--height", type=_count, default=900)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        DegenerateInput,
        GenerationFailure,
        FormatError,
        hpp.RepairImpossible,
        InvalidK,
        baseline.TooLarge,
        evaluation.InvalidSolution,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
