"""The names the benchmark in ``perfbench/`` hooks into must keep existing.

The benchmark wraps library functions from outside to time each layer and
digests solution files through ``hpp.save_solution``. A rename here would
silently drop a layer from its trace or break its byte-identity check, so
these tests read its target list and fail instead.
"""

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
