import dataclasses
import hashlib
import re

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
from pondroute.geometry import ConvexPolygon, Point, convex_hull
from pondroute.baseline import minmax_local_search
from pondroute.hpp import hpp_solve
from pondroute.instances import (
    FarmInstance,
    FormatError,
    generate,
    generate_dataset,
    load,
    save,
)
from pondroute.solution import InvalidK, Route, Solution, load_solution, save_solution

from _oracles import xy_rows


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
        lattice_origin=Point(0, 0), depot=depot, xy=xy_rows(nodes),
    )


def one_route_solution(order: tuple[int, ...], length: float = 0.0) -> Solution:
    return Solution(
        instance_ref="synthetic", algorithm="hpp", seed=0,
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
            instance_ref="synthetic", algorithm="exact", seed=0,
            routes=tuple(Route((i,), 0.0) for i in range(3)),
        )
        metrics = score(inst, sol)
        assert metrics.total_distance == pytest.approx(2 * (1 + 2 + 3))
        assert metrics.max_route_length == pytest.approx(6.0)

    def test_repeated_node_rejected(self):
        pts = [Point(1, 0), Point(0, 1)]
        inst = synthetic_instance(pts, Point(0, 0))
        sol = Solution(
            instance_ref="synthetic", algorithm="hpp", seed=0,
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
        inst = generate(30, 4)
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
        inst = generate(40, 6)
        metrics = score(inst, hpp_solve(inst, k=4, seed=0))
        assert metrics.total_distance == pytest.approx(
            sum(metrics.route_lengths), rel=1e-9
        )
        assert metrics.max_route_length == max(metrics.route_lengths)


class TestCoordinateArray:
    """Every solver and ``score`` read ``FarmInstance.xy``; a node ``Point``
    is built only on request, so the data path builds as many ``Point``s
    (polygon, depot and lattice origin) at any n."""

    @staticmethod
    def points_built(monkeypatch, tmp_path, n: int) -> int:
        built = []
        check = Point.__post_init__
        monkeypatch.setattr(Point, "__post_init__", lambda p: built.append(check(p)))
        save(generate(n, 1000), tmp_path / f"n{n}.txt")
        inst = load(tmp_path / f"n{n}.txt")
        hpp_solve(inst, k=5, seed=0)
        score(inst, minmax_local_search(inst, k=5, seed=0))
        return len(built)

    def test_point_count_does_not_grow_with_n(self, monkeypatch, tmp_path):
        small = self.points_built(monkeypatch, tmp_path, 200)
        assert small < 200
        assert self.points_built(monkeypatch, tmp_path, 2000) == small

    def test_xy_is_read_only_and_c_contiguous(self, tmp_path):
        inst = generate(50, 3)
        save(inst, tmp_path / "i.txt")
        moved = dataclasses.replace(inst, depot=Point(0.5, 0.0))
        for xy in (inst.xy, load(tmp_path / "i.txt").xy, moved.xy):
            assert xy.shape == (2, 50) and xy.dtype == float
            assert xy.flags.c_contiguous and not xy.flags.writeable

    def test_equality_compares_coordinates_by_value(self):
        inst = synthetic_instance([Point(0.0, 1.0), Point(2.0, 3.0)], Point(0, 0))
        negated = dataclasses.replace(inst, xy=[[-0.0, 2.0], [1.0, 3.0]])
        assert negated == inst
        with pytest.raises(TypeError, match="unhashable"):
            hash(inst)
        assert dataclasses.replace(inst, xy=[[0.0, 2.0], [1.0, 3.5]]) != inst
        others = {
            "name": "other", "seed": 1, "spacing": 2.0, "xy": [[9.0, 2.0], [1.0, 3.0]],
            "polygon": ConvexPolygon(inst.polygon.vertices[1:] + inst.polygon.vertices[:1]),
            "lattice_origin": Point(5.0, 5.0), "depot": Point(5.0, 5.0),
        }
        assert others.keys() == {f.name for f in dataclasses.fields(inst)}
        for name, value in others.items():  # every field takes part
            assert dataclasses.replace(inst, **{name: value}) != inst, name
        assert inst.__eq__(inst.name) is NotImplemented and inst != inst.name
        assert inst.nodes == (Point(0.0, 1.0), Point(2.0, 3.0))

    @pytest.mark.parametrize("xy", [[0.0, 1.0], [[0.0], [1.0], [2.0]], [[0.0], [float("nan")]]])
    def test_rejects_other_shapes_and_non_finite(self, xy):
        inst = synthetic_instance([Point(0.0, 1.0)], Point(0, 0))
        with pytest.raises(ValueError, match=r"xy must be a \(2, n\) array of finite floats"):
            dataclasses.replace(inst, xy=xy)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return generate_dataset([8, 16], 3, base_seed=0, out_dir=out)


class TestRunBenchmark:
    def test_row_structure(self, small_manifest):
        report = run_benchmark(small_manifest, ["hpp", "minmax-ls"], k=2, seed=0)
        assert len(report) == 4  # 2 sizes x 2 algorithms
        assert [(r.size, r.algorithm) for r in report] == [
            (8, "hpp"), (8, "minmax-ls"), (16, "hpp"), (16, "minmax-ls"),
        ]
        for row in report:
            assert row.instance_count == 3
            assert row.mode == "sequential"
            assert row.mean_total > row.mean_max > 0

    def test_exact_skipped_above_limits(self, small_manifest):
        report = run_benchmark(small_manifest, ["exact"], k=2, seed=0)
        by_size = {r.size: r for r in report}
        assert by_size[8].mode == "sequential"
        assert by_size[16].mode == "skipped"
        assert by_size[16].mean_total is None

    def test_deterministic_means(self, small_manifest):
        a = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        b = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        assert [(r.mean_total, r.mean_max) for r in a] == [
            (r.mean_total, r.mean_max) for r in b
        ]

    def test_aggregation_is_arithmetic_mean(self, small_manifest):
        from pondroute.instances import load, load_manifest

        report = run_benchmark(small_manifest, ["hpp"], k=2, seed=0)
        entries = [e for e in load_manifest(small_manifest) if e.size == 8]
        metrics = [
            score(load(e.path), solve_with("hpp", load(e.path), 2, 0)) for e in entries
        ]
        row = next(r for r in report if r.size == 8)
        assert row.mean_total == pytest.approx(
            sum(m.total_distance for m in metrics) / len(metrics), abs=1e-12
        )
        assert row.mean_max == pytest.approx(
            sum(m.max_route_length for m in metrics) / len(metrics), abs=1e-12
        )

    def test_unknown_algorithm_rejected(self, small_manifest):
        with pytest.raises(ValueError):
            run_benchmark(small_manifest, ["glop"], k=2, seed=0)

    def test_solve_with_unknown_algorithm(self):
        expected = "unknown algorithm 'nope', expected one of ('hpp', 'minmax-ls', 'exact')"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            solve_with("nope", generate(12, 0), 2, 0)

    def test_no_algorithm_rejected(self, small_manifest):
        with pytest.raises(ValueError, match="at least one algorithm"):
            run_benchmark(small_manifest, [], k=2, seed=0)

    def test_repeated_algorithm_rejected(self, small_manifest):
        with pytest.raises(ValueError, match="distinct"):
            run_benchmark(small_manifest, ["hpp", "minmax-ls", "hpp"], k=2, seed=0)

    def test_size_column_must_match_node_count(self, tmp_path):
        generate_dataset([30], 1, base_seed=0, out_dir=tmp_path)
        manifest = tmp_path / "wrong.txt"
        manifest.write_text("farm-manifest v1\nfarm-n30-s0.txt 12 0\n")
        with pytest.raises(FormatError, match=r"wrong\.txt: .*farm-n30-s0\.txt has 30 nodes"):
            run_benchmark(manifest, ["hpp"], k=2, seed=0)

    def test_solver_failure_names_instance(self, tmp_path):
        manifest = generate_dataset([8], 1, 0, tmp_path)
        with pytest.raises(
            RuntimeError, match=r"^solver 'hpp' failed on instance farm-n8-s0: k=5 is infeasible"
        ) as info:
            run_benchmark(manifest, ["hpp"], k=5)
        assert isinstance(info.value.__cause__, InvalidK)


GOLDEN_BENCH = "9104f615c361dee75786795f822575786a6a32afe84201cd6407178b18976b41"


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
        assert float(row[2]) == report[0].mean_total

    def test_table_blocks_and_skip_markers(self, tmp_path):
        manifest = generate_dataset([10, 16], 2, base_seed=3, out_dir=tmp_path)
        report = run_benchmark(manifest, ["hpp", "exact"], k=2, seed=0)
        table = format_table(report)
        assert "Average total distance" in table
        assert "Average maximum route length" in table
        assert "Run time for 2 instances (s)" in table
        assert "---" in table  # exact skipped at size 16
        assert "hpp" in table and "exact" in table

    def test_empty_report(self, tmp_path):
        # No rows: the table keeps its three titled blocks with only their
        # header lines, as the CSV keeps its header.
        write_csv((), tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text() == CSV_HEADER + "\n"
        header = f"{'nodes':>8}"
        assert format_table(()) == "\n".join([
            "Average total distance", header, "",
            "Average maximum route length", header, "",
            "Run time for batch (s)", header, "",
        ])

    def test_golden_bench_bytes(self, tmp_path):
        # The CSV without its batch_time_s column plus the table's two mean
        # blocks; the exact rows include one skipped size.
        manifest = generate_dataset([9, 10, 60], 3, base_seed=3, out_dir=tmp_path / "data")
        rows = run_benchmark(manifest, ["hpp", "minmax-ls", "exact"], k=3, seed=0)
        assert [r.mode for r in rows if r.algorithm == "exact"] == [
            "sequential", "sequential", "skipped",
        ]
        write_csv(rows, tmp_path / "report.csv")
        csv = [
            ",".join(f for c, f in enumerate(line.split(",")) if c != 4)
            for line in (tmp_path / "report.csv").read_text().splitlines()
        ]
        means = format_table(rows).split("Run time for")[0]
        text = "\n".join(csv) + "\n" + means
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BENCH

