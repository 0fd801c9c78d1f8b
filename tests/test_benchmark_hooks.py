"""The names the benchmark in ``perfbench/`` hooks into must keep existing.

The benchmark wraps library functions from outside to time each layer,
builds and solves its dataset through ``instances`` and ``evaluation``, and
digests solution files through ``hpp.save_solution``. A rename here would
silently drop a layer from its trace or break its set-up, its checks or its
byte-identity digest, so these tests read its target list and its harness
source and fail instead.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_trace_target_resolves(tracing):
    missing = [t.span for t in tracing.TARGETS if tracing._resolve(t) is None]
    assert not missing


def test_local_search_takes_trace():
    from pondroute.baseline import minmax_local_search

    assert "trace" in inspect.signature(minmax_local_search).parameters


def test_hpp_save_solution_is_the_solution_writer():
    from pondroute import hpp, solution

    assert hpp.save_solution is solution.save_solution


def test_every_library_name_the_harness_reads_resolves():
    tree = ast.parse((PERFBENCH / "harness.py").read_text())
    modules = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pondroute"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {
        ("evaluation", "solve_with"),
        ("evaluation", "score"),
        ("instances", "generate_dataset"),
        ("instances", "load_manifest"),
        ("instances", "load"),
    } <= used
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"pondroute.{module}"), name)
    ]
    assert not missing


def test_harness_reads_of_dataset_solution_and_metrics_resolve(tmp_path):
    from pondroute import evaluation, instances

    manifest = instances.generate_dataset([12], 1, 0, tmp_path)
    (entry,) = instances.load_manifest(manifest)
    assert (entry.size, entry.seed) == (12, 0)
    inst = instances.load(entry.path)
    sol = evaluation.solve_with("hpp", inst, 2, seed=0)
    scored = evaluation.score(inst, sol)
    assert sol.k == len(sol.routes) == len(scored.route_lengths) == 2
    assert [r.length for r in sol.routes] == pytest.approx(scored.route_lengths, abs=1e-9)
    assert scored.total_distance == sum(scored.route_lengths)
    assert scored.max_route_length == max(scored.route_lengths)


@pytest.mark.parametrize(
    "algorithm, spans",
    [
        # hpp_solve runs k-means, hulls and pairs on its coordinate array,
        # not through the public kmeans, convex_hull and antipodal_pairs.
        ("hpp", {"hpp.hpp_solve"}),
        # minmax_local_search computes its distances where it reads them,
        # not through DistanceMatrix.from_instance.
        ("minmax-ls", {"baseline.minmax_local_search", "baseline.two_opt"}),
    ],
    ids=["hpp", "minmax-ls"],
)
def test_trace_spans_that_fire(tracing, algorithm, spans):
    # Work moved out of a traced name silently empties that layer's span; a
    # change that does so on purpose has to update this list and say so.
    from pondroute import evaluation
    from pondroute.instances import generate

    tracer = tracing.Tracer()
    with tracer.installed():
        evaluation.solve_with(algorithm, generate(300, 42), 5, seed=0)
    tracer.finish_solve()
    assert set(tracer.calls) == spans
    assert not tracer.absent
    if algorithm == "minmax-ls":
        assert tracer.counts[tracing.RELOCATION_SPAN] > 0
