import pytest

from pondroute.evaluation import (
    CSV_HEADER,
    InvalidSolution,
    format_table,
    run_benchmark,
    score,
    solve_with,
    write_csv,
)
from pondroute.geometry import Point, convex_hull
from pondroute.hpp import hpp_solve
from pondroute.instances import FarmInstance, GeneratorConfig, generate, generate_dataset
from pondroute.solution import Route, Solution, load_solution, save_solution


def synthetic_instance(nodes: list[Point], depot: Point) -> FarmInstance:
    xs = [p.x for p in nodes] + [depot.x]
    ys = [p.y for p in nodes] + [depot.y]
    poly = convex_hull(
        [
            Point(min(xs) - 1, min(ys) - 1),
            Point(max(xs) + 1, min(ys) - 1),
            Point(max(xs) + 1, max(ys) + 1),
            Point(min(xs) - 1, max(ys) + 1),
        ]
    )
    return FarmInstance(
        name="synthetic", seed=0, polygon=poly, spacing=1.0,
        lattice_origin=Point(0, 0), depot=depot, nodes=tuple(nodes),
    )


def one_route_solution(order: tuple[int, ...], length: float = 0.0) -> Solution:
    return Solution(
        instance_ref="synthetic", algorithm="hpp", k=1, seed=0,
        routes=(Route(order, length),),
    )


class TestScore:
    def test_three_four_five(self):
        inst = synthetic_instance([Point(3, 4)], Point(0, 0))
        metrics = score(inst, one_route_solution((0,)))
        assert metrics.total_distance == pytest.approx(10.0)
        assert metrics.max_route_length == pytest.approx(10.0)

    def test_singleton_routes(self):
        pts = [Point(1, 0), Point(0, 2), Point(-3, 0)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = Solution(
            instance_ref="synthetic", algorithm="exact", k=3, seed=0,
            routes=tuple(Route((i,), 0.0) for i in range(3)),
        )
        metrics = score(inst, sol)
        assert metrics.total_distance == pytest.approx(2 * (1 + 2 + 3))
        assert metrics.max_route_length == pytest.approx(6.0)

    def test_repeated_node_rejected(self):
        pts = [Point(1, 0), Point(0, 1)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = Solution(
            instance_ref="synthetic", algorithm="hpp", k=2, seed=0,
            routes=(Route((0,), 0.0), Route((0,), 0.0)),
        )
        with pytest.raises(InvalidSolution, match="node 0"):
            score(inst, sol)

    def test_missing_node_rejected(self):
        pts = [Point(1, 0), Point(0, 1)]
        inst = synthetic_instance(pts, Point(0, 0))
        with pytest.raises(InvalidSolution, match="not covered"):
            score(inst, one_route_solution((0,)))

    def test_out_of_range_index_rejected(self):
        inst = synthetic_instance([Point(1, 0)], Point(0, 0))
        with pytest.raises(InvalidSolution, match="references node 5"):
            score(inst, one_route_solution((5,)))

    def test_ignores_stored_lengths(self, tmp_path):
        inst = generate(GeneratorConfig(node_count=30, seed=4))
        sol = hpp_solve(inst, k=3, seed=0)
        clean = score(inst, sol)
        path = tmp_path / "s.txt"
        save_solution(sol, path)
        text = path.read_text().replace(
            f"length {format(sol.routes[0].length, '.17g')}", "length 999"
        )
        path.write_text(text)
        corrupted = load_solution(path)
        assert score(inst, corrupted).total_distance == clean.total_distance
        assert score(inst, corrupted).max_route_length == clean.max_route_length

    def test_total_is_sum_and_max_is_max(self):
        inst = generate(GeneratorConfig(node_count=40, seed=6))
        metrics = score(inst, hpp_solve(inst, k=4, seed=0))
        assert metrics.total_distance == pytest.approx(
            sum(metrics.route_lengths), rel=1e-9
        )
        assert metrics.max_route_length == max(metrics.route_lengths)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return generate_dataset([8, 16], 3, base_seed=0, out_dir=out)


class TestRunBenchmark:
    def test_row_structure(self, small_manifest):
        report = run_benchmark(small_manifest, ["hpp", "minmax-ls"], k=2, seed=0)
        assert len(report.rows) == 4  # 2 sizes x 2 algorithms
        assert [(r.size, r.algorithm) for r in report.rows] == [
            (8, "hpp"), (8, "minmax-ls"), (16, "hpp"), (16, "minmax-ls"),
        ]
        for row in report.rows:
            assert row.instance_count == 3
            assert row.mode == "sequential"
            assert row.mean_total > row.mean_max > 0

    def test_exact_skipped_above_limits(self, small_manifest):
        report = run_benchmark(small_manifest, ["exact"], k=2, seed=0)
        by_size = {r.size: r for r in report.rows}
        assert by_size[8].mode == "sequential"
        assert by_size[16].mode == "skipped"
        assert by_size[16].mean_total is None

    def test_deterministic_means(self, small_manifest):
        a = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        b = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        assert [(r.mean_total, r.mean_max) for r in a.rows] == [
            (r.mean_total, r.mean_max) for r in b.rows
        ]

    def test_aggregation_is_arithmetic_mean(self, small_manifest):
        from pondroute.instances import load, load_manifest

        report = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        entries = [e for e in load_manifest(small_manifest) if e.size == 8]
        metrics = [
            score(load(e.path), solve_with("hpp", load(e.path), 2, 0)) for e in entries
        ]
        row = next(r for r in report.rows if r.size == 8)
        assert row.mean_total == pytest.approx(
            sum(m.total_distance for m in metrics) / len(metrics), abs=1e-12
        )
        assert row.mean_max == pytest.approx(
            sum(m.max_route_length for m in metrics) / len(metrics), abs=1e-12
        )

    def test_unknown_algorithm_rejected(self, small_manifest):
        with pytest.raises(ValueError):
            run_benchmark(small_manifest, ["glop"], k=2, seed=0)


class TestReports:
    def test_csv_schema_and_precision(self, tmp_path):
        manifest = generate_dataset([10], 2, base_seed=3, out_dir=tmp_path)
        report = run_benchmark(manifest, ["hpp", "exact"], k=2, seed=0)
        out = tmp_path / "report.csv"
        write_csv(report, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        row = lines[1].split(",")
        assert int(row[0]) == 10 and row[1] == "hpp"
        # full-precision round trip
        assert float(row[2]) == report.rows[0].mean_total

    def test_table_blocks_and_skip_markers(self, tmp_path):
        manifest = generate_dataset([10, 16], 2, base_seed=3, out_dir=tmp_path)
        report = run_benchmark(manifest, ["hpp", "exact"], k=2, seed=0)
        table = format_table(report)
        assert "Average total distance" in table
        assert "Average maximum route length" in table
        assert "Run time for 2 instances (s)" in table
        assert "---" in table  # exact skipped at size 16
        assert "hpp" in table and "exact" in table
