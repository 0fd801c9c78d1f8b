import argparse
import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from pondroute import evaluation
from pondroute.baseline import TooLarge
from pondroute.cli import build_parser, main
from pondroute.evaluation import InvalidSolution
from pondroute.geometry import DegenerateInput
from pondroute.hpp import RepairImpossible
from pondroute.instances import (
    FormatError,
    GenerationFailure,
    VersionError,
    generate,
    generate_dataset,
    load,
    save,
)
from pondroute.solution import InvalidK, load_solution

from test_instances import write_square


@pytest.fixture()
def instance_file(tmp_path):
    inst = generate(20, 1)
    path = tmp_path / "inst.txt"
    save(inst, path)
    return path


class TestGenerate:
    def test_writes_dataset_and_prints_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["generate", "--sizes", "10", "--count", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        manifest = capsys.readouterr().out.strip()
        assert manifest.endswith("manifest.txt")
        assert (out / "manifest.txt").exists()
        assert len(list(out.glob("farm-*.txt"))) == 1

    def test_multiple_sizes(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["generate", "--sizes", "10,12", "--count", "2", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("farm-*.txt"))) == 4

    @pytest.mark.parametrize("flag", [["--count", "0"], ["--seed", "-1"]])
    def test_invalid_count_or_seed_usage_error(self, tmp_path, flag):
        out = tmp_path / "data"
        with pytest.raises(SystemExit) as err:
            main(["generate", "--sizes", "10", "--out", str(out), *flag])
        assert err.value.code == 2
        assert not out.exists()

    def test_invalid_size_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        for sizes, message in (
            ("0", "every size must be an integer >= 3"),  # below 3
            ("10,10", "sizes must be distinct, got '10,10'"),  # repeated
            ("5,x", "sizes must be comma-separated integers, got '5,x'"),  # not a number
        ):
            with pytest.raises(SystemExit) as err:
                main(["generate", "--sizes", sizes, "--count", "1", "--seed", "1",
                      "--out", str(out)])
            assert err.value.code == 2
            assert not out.exists()
            assert message in capsys.readouterr().err


class TestSolve:
    def test_hpp_writes_solution_and_parseable_line(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sol.txt"
        code = main(["solve", "--algorithm", "hpp", "--routes", "4",
                     "--instance", str(instance_file), "--out", str(out), "--seed", "0"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        tokens = line.split()
        assert tokens[0] == "hpp"
        kv = dict(t.split("=", 1) for t in tokens[1:])
        assert set(kv) == {"total", "max", "time"}
        assert float(kv["total"]) >= float(kv["max"]) > 0
        assert out.exists()

    def test_exact_too_large_exits_1(self, instance_file, capsys):
        code = main(["solve", "--algorithm", "exact", "--instance", str(instance_file)])
        assert code == 1
        assert "TooLarge" in capsys.readouterr().err

    def test_infeasible_k_exits_1_then_succeeds_with_fewer_routes(self, tmp_path, capsys):
        inst = generate(12, 0)
        path = tmp_path / "i12.txt"
        save(inst, path)
        code = main(["solve", "--algorithm", "hpp", "--routes", "5",
                     "--instance", str(path)])
        assert code == 1
        assert "InvalidK" in capsys.readouterr().err
        code = main(["solve", "--algorithm", "hpp", "--routes", "4",
                     "--instance", str(path)])
        assert code == 0

    @pytest.mark.parametrize(("scale", "low"), [(1e155, 0.0), (9e307, -1.0)])
    def test_overflowing_coordinates_exit_1(self, tmp_path, capsys, scale, low):
        path = write_square(tmp_path / "sq.txt", scale, low)
        code = main(["solve", "--algorithm", "exact", "--routes", "2", "--instance", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: FormatError: ")

    def test_non_utf8_instance_exits_1(self, instance_file, capsys):
        instance_file.write_bytes(instance_file.read_bytes().replace(b"name: ", b"name: \xe9", 1))
        code = main(["solve", "--algorithm", "hpp", "--instance", str(instance_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: FormatError: ") and "inst.txt: byte " in err
        assert "Traceback" not in err

    def test_missing_instance_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--algorithm", "hpp", "--instance",
                     str(tmp_path / "nope.txt")])
        assert code == 1

    @pytest.mark.parametrize("cls", [
        DegenerateInput, GenerationFailure, FormatError, VersionError, RepairImpossible,
        InvalidK, TooLarge, InvalidSolution, RuntimeError, FileNotFoundError,
    ])
    def test_documented_errors_exit_1_with_one_line(self, instance_file, monkeypatch, capsys, cls):
        def fail(*args, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(evaluation, "solve_with", fail)
        code = main(["solve", "--algorithm", "hpp", "--instance", str(instance_file)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cls.__name__}: boom\n"

    @pytest.mark.parametrize("cls", [ValueError, KeyError])
    def test_other_errors_propagate(self, instance_file, monkeypatch, cls):
        def fail(*args, **kwargs):
            raise cls("boom")

        monkeypatch.setattr(evaluation, "solve_with", fail)
        with pytest.raises(cls):
            main(["solve", "--algorithm", "hpp", "--instance", str(instance_file)])


class TestBench:
    def test_csv_written_and_deterministic(self, tmp_path, capsys):
        out = tmp_path / "data"
        manifest = generate_dataset([10], 2, base_seed=0, out_dir=out)
        report1 = tmp_path / "r1.csv"
        report2 = tmp_path / "r2.csv"
        for report in (report1, report2):
            code = main(["bench", "--manifest", str(manifest),
                         "--algorithms", "hpp,minmax-ls", "--routes", "2",
                         "--seed", "0", "--report", str(report)])
            assert code == 0
        def means(path):
            rows = path.read_text().splitlines()[1:]
            return [tuple(r.split(",")[:4]) for r in rows]
        assert means(report1) == means(report2)
        table = capsys.readouterr().out
        assert "Average total distance" in table

    def test_exact_skipped_rows(self, tmp_path):
        out = tmp_path / "data"
        manifest = generate_dataset([16], 1, base_seed=0, out_dir=out)
        report = tmp_path / "r.csv"
        code = main(["bench", "--manifest", str(manifest), "--algorithms", "exact",
                     "--routes", "2", "--report", str(report)])
        assert code == 0
        rows = report.read_text().splitlines()
        assert rows[1].endswith("skipped")

    def test_manifest_without_entries_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("farm-manifest v1\n")
        code = main(["bench", "--manifest", str(manifest), "--algorithms", "hpp",
                     "--report", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: FormatError: ") and "manifest.txt" in err
        assert "Traceback" not in err

    def test_manifest_size_mismatch_exits_1(self, tmp_path, capsys):
        generate_dataset([30], 1, base_seed=0, out_dir=tmp_path)
        manifest = tmp_path / "wrong.txt"
        manifest.write_text("farm-manifest v1\nfarm-n30-s0.txt 12 0\n")
        report = tmp_path / "r.csv"
        code = main(["bench", "--manifest", str(manifest), "--algorithms", "hpp",
                     "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: FormatError: ") and "farm-n30-s0.txt" in err
        assert not report.exists()

    def test_solver_failure_exits_1_without_report(self, tmp_path, capsys):
        manifest = generate_dataset([8], 1, 0, tmp_path / "data")
        report = tmp_path / "r.csv"
        code = main(["bench", "--manifest", str(manifest), "--algorithms", "hpp",
                     "--routes", "5", "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: RuntimeError: solver 'hpp' failed on instance farm-n8-s0: ")
        assert "Traceback" not in err
        assert not report.exists()

    def test_table_file_matches_printed_table(self, tmp_path, capsys):
        manifest = generate_dataset([10], 2, 0, tmp_path / "data")
        table = tmp_path / "table.txt"
        code = main(["bench", "--manifest", str(manifest), "--algorithms", "hpp,minmax-ls",
                     "--routes", "2", "--report", str(tmp_path / "r.csv"),
                     "--table", str(table)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Average total distance" in printed
        assert table.read_text(encoding="utf-8") == printed


# (node count, seed, algorithm, k) of each plotted farm: minmax-ls gives
# generate(12, 1) routes of 5, 2, 1 and 4 nodes, so two hulls are skipped.
PLOT_CASES = {
    "hpp-20": (20, 1, "hpp", 4),
    "minmax-ls-12": (12, 1, "minmax-ls", 4),
    "hpp-200": (200, 3, "hpp", 5),
}
# SHA-256 of each case's SVG, drawn alone, with --solution, and with
# --solution --clusters.
PLOT_SHA256 = {
    ("hpp-20", "alone"): "18ded4d5525dcc906719ea9981b2f100aee4950aaf6e6cdef5682c302e6b0637",
    ("hpp-20", "solution"): "c9e2622a5a206fc4fa9b0f6fb49ad9721a2a53055524ccce2b620bb587791aa8",
    ("hpp-20", "clusters"): "e12891d32a13ceb158b95ca68f05d4ede37035aec4282b68f33a6c556b7a0651",
    ("minmax-ls-12", "alone"): "f45c2ed6b1cd29628bec99a2dd2bd98c99b60f0ffb3921899c9d827bf3200a1d",
    ("minmax-ls-12", "solution"): "e031850a0447721e2bbd4fe4bc4f52ecc095bff497e49d6599e4ac210fa7d548",
    ("minmax-ls-12", "clusters"): "3b822796869590c1735d7b035075019cd5abba8c80b681da457c855b212a9151",
    ("hpp-200", "alone"): "bb01defeaff66969bb95fcce55f8d779b2b5e97787381e9895a8e95ae859715c",
    ("hpp-200", "solution"): "47f80f31c9cce106545ca0b9aebe5e844ea451693bf11a3f5af40d491eb1cfc8",
    ("hpp-200", "clusters"): "aa0d0c99efd999d3ee419b0d0f5cdb153f0d0a260d9ba1ae74d49036b3375a93",
}


class TestPlot:
    @pytest.mark.parametrize(("case", "mode"), list(PLOT_SHA256))
    def test_svg_bytes(self, tmp_path, capsys, case, mode):
        n, seed, algorithm, k = PLOT_CASES[case]
        inst_path, sol_path, out = tmp_path / "i.txt", tmp_path / "sol.txt", tmp_path / "p.svg"
        save(generate(n, seed), inst_path)
        assert main(["solve", "--algorithm", algorithm, "--routes", str(k),
                     "--instance", str(inst_path), "--out", str(sol_path)]) == 0
        flags = {"alone": [], "solution": ["--solution", str(sol_path)],
                 "clusters": ["--solution", str(sol_path), "--clusters"]}[mode]
        assert main(["plot", "--instance", str(inst_path), *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PLOT_SHA256[case, mode]

    def test_instance_only(self, instance_file, tmp_path, capsys):
        out = tmp_path / "plot.svg"
        code = main(["plot", "--instance", str(instance_file), "--out", str(out)])
        assert code == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        tags = [child.tag.split("}")[-1] for child in root.iter()]
        assert "polygon" in tags and "circle" in tags and "rect" in tags
        assert "polyline" not in tags

    def test_instance_with_solution_draws_routes(self, instance_file, tmp_path):
        sol_path = tmp_path / "sol.txt"
        main(["solve", "--algorithm", "hpp", "--routes", "4",
              "--instance", str(instance_file), "--out", str(sol_path)])
        out = tmp_path / "plot.svg"
        code = main(["plot", "--instance", str(instance_file),
                     "--solution", str(sol_path), "--clusters", "--out", str(out)])
        assert code == 0
        root = ET.fromstring(out.read_text())
        polylines = [c for c in root.iter() if c.tag.split("}")[-1] == "polyline"]
        assert len(polylines) == 4
        inst = load(instance_file)
        # every polyline starts and ends at the depot marker pixel
        for pl in polylines:
            pts = pl.attrib["points"].split()
            assert pts[0] == pts[-1]
        # all coordinates inside the declared viewport
        width = float(root.attrib["width"])
        height = float(root.attrib["height"])
        for pl in polylines:
            for token in pl.attrib["points"].split():
                x, y = map(float, token.split(","))
                assert -1 <= x <= width + 1 and -1 <= y <= height + 1

    def test_clusters_skip_routes_without_a_hull(self, tmp_path):
        # minmax-ls gives this instance routes of 5, 2, 1 and 4 nodes; the
        # two- and one-node routes have no hull to draw, and the plot is
        # still written.
        inst_path, sol_path, out = tmp_path / "i12.txt", tmp_path / "sol.txt", tmp_path / "p.svg"
        save(generate(12, 1), inst_path)
        main(["solve", "--algorithm", "minmax-ls", "--routes", "4",
              "--instance", str(inst_path), "--out", str(sol_path)])
        assert [len(r.node_order) for r in load_solution(sol_path).routes] == [5, 2, 1, 4]
        code = main(["plot", "--instance", str(inst_path),
                     "--solution", str(sol_path), "--clusters", "--out", str(out)])
        assert code == 0
        children = list(ET.fromstring(out.read_text()).iter())
        assert len([c for c in children if c.tag.endswith("polyline")]) == 4
        assert len([c for c in children if "stroke-dasharray" in c.attrib]) == 2

    def test_mismatched_solution_no_output(self, instance_file, tmp_path, capsys):
        other = generate(15, 9)
        other_path = tmp_path / "other.txt"
        save(other, other_path)
        sol_path = tmp_path / "sol.txt"
        main(["solve", "--algorithm", "hpp", "--routes", "4",
              "--instance", str(other_path), "--out", str(sol_path)])
        out = tmp_path / "plot.svg"
        code = main(["plot", "--instance", str(instance_file),
                     "--solution", str(sol_path), "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestUsage:
    def test_option_sets(self):
        # Each subcommand's options in declaration order, the order --help
        # lists them: option strings, default, required.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {
            name: [(tuple(a.option_strings), a.default, a.required) for a in parser._actions]
            for name, parser in sub.choices.items()
        }
        help_ = (("-h", "--help"), argparse.SUPPRESS, False)
        assert options == {
            "generate": [help_, (("--sizes",), None, True), (("--count",), 100, False),
                         (("--seed",), 42, False), (("--out",), None, True)],
            "solve": [help_, (("--algorithm",), None, True), (("--instance",), None, True),
                      (("--routes",), 5, False), (("--seed",), 0, False),
                      (("--iterations",), 100, False), (("--out",), None, False)],
            "bench": [help_, (("--manifest",), None, True), (("--algorithms",), None, True),
                      (("--routes",), 5, False), (("--seed",), 0, False),
                      (("--iterations",), 100, False), (("--report",), None, True),
                      (("--table",), None, False)],
            "plot": [help_, (("--instance",), None, True), (("--solution",), None, False),
                     (("--clusters",), False, False), (("--width",), 900, False),
                     (("--height",), 900, False), (("--out",), None, True)],
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--algorithm", "minmax-ls", "--iterations", "-1"],
            ["solve", "--algorithm", "minmax-ls", "--seed", "-1"],
            ["solve", "--algorithm", "hpp", "--seed", "x"],
            ["bench", "--algorithms", "minmax-ls", "--iterations", "-1"],
            ["bench", "--algorithms", "minmax-ls", "--seed", "-1"],
            ["bench", "--algorithms", "minmax-ls", "--jobs", "2"],
            ["solve", "--algorithm", "hpp", "--routes", "0"],
            ["bench", "--algorithms", "hpp", "--routes", "0"],
            ["plot", "--width", "0"],
            ["plot", "--width", "-5"],
            ["plot", "--height", "0"],
        ],
        ids=[
            "solve-iterations", "solve-seed", "solve-seed-text",
            "bench-iterations", "bench-seed", "bench-jobs",
            "solve-routes", "bench-routes", "plot-width", "plot-width-negative", "plot-height",
        ],
    )
    def test_out_of_range_number_usage_error(self, instance_file, tmp_path, argv, capsys):
        where = {
            "solve": ["--instance", str(instance_file)],
            "bench": ["--manifest", str(tmp_path / "m.txt"), "--report", str(tmp_path / "r.csv")],
            "plot": ["--instance", str(instance_file), "--out", str(tmp_path / "p.svg")],
        }[argv[0]]
        with pytest.raises(SystemExit) as err:
            main([*argv, *where])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_repeated_algorithm_usage_error(self, tmp_path, capsys):
        manifest = generate_dataset([10], 1, base_seed=0, out_dir=tmp_path)
        report = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--manifest", str(manifest), "--algorithms", "hpp,hpp",
                  "--report", str(report)])
        assert err.value.code == 2
        assert "algorithms must be distinct" in capsys.readouterr().err
        assert not report.exists()

    def test_unknown_algorithm_in_list_usage_error(self, tmp_path, capsys):
        manifest = generate_dataset([10], 1, base_seed=0, out_dir=tmp_path)
        report = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as err:
            main(["bench", "--manifest", str(manifest), "--algorithms", "hpp,foo",
                  "--report", str(report)])
        assert err.value.code == 2
        assert "algorithms must be drawn from hpp, minmax-ls, exact" in capsys.readouterr().err
        assert not report.exists()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_algorithm(self, instance_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--algorithm", "glop", "--instance", str(instance_file)])
        assert err.value.code == 2


class TestModuleEntryPoint:
    """``python -m pondroute.cli`` exits with ``main``'s status."""

    @staticmethod
    def run_module(*argv, cwd):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "pondroute.cli", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
        )

    def test_missing_instance_exits_1(self, tmp_path):
        done = self.run_module("solve", "--algorithm", "hpp", "--instance", "nope.txt", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("error: FileNotFoundError")

    def test_missing_subcommand_exits_2(self, tmp_path):
        done = self.run_module(cwd=tmp_path)
        assert done.returncode == 2
        assert "usage:" in done.stderr
