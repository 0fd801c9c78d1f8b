"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

From the repository root::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SIZES = {"hpp-sweep": (40, 60), "hpp-many-routes": (80,), "ls-relocate": (40,)}


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)
    assert sorted(TINY_SIZES) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY_SIZES))
def test_every_metric_prints_with_its_unit(name, trace, workdir):
    wl = dataclasses.replace(harness.WORKLOADS[name], sizes=TINY_SIZES[name], count=2)
    result = harness.run_workload(wl, seed=1, seconds=0.2, trace=trace, workdir=workdir, setup_repeats=1)
    assert result.correct, result.errors
    assert result.attempted >= 2 * len(wl.sizes)

    lines = run.report(result, run.environment(1))
    printed = json.loads(lines[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.split()[0] == metric and line.split()[-1] == unit for line in lines[:-1])

    if trace:
        wall = result.metrics["solve_ms.traced"].value
        assert 0 < result.self_ms_total <= wall * (1 + 1e-9)
        other = ("baseline.",) if wl.algorithm == "hpp" else ("hpp.", "geometry.")
        assert not [s for s in result.spans if s.startswith(other)]


def test_tracer_restores_originals_and_reports_missing_names():
    from pondroute import baseline, hpp

    before = hpp.serpentine_route
    matrix = vars(baseline.DistanceMatrix)["from_instance"]
    gone = tracing.Target("hpp", "no_such_function", "hpp.gone")
    tracer = tracing.Tracer()
    with tracer.installed(tracing.TARGETS + (gone,)):
        assert hpp.serpentine_route is not before
        assert vars(baseline.DistanceMatrix)["from_instance"] is not matrix
    assert hpp.serpentine_route is before
    assert vars(baseline.DistanceMatrix)["from_instance"] is matrix
    assert tracer.absent == ["hpp.gone"]
