"""The solve paths call numpy's compiled routines, not its Python helpers.

Many numpy functions are written in Python around the ufunc, C function or
ndarray method they end in, and each call costs 1-10 µs on top of it. Per
call, timeit, 2 vCPU, Python 3.11.7, numpy 2.4.6: ``np.diff(v,
prepend=np.nan)`` on 1400 floats 7.7 µs against 2.6 µs for the same
subtractions into one array, ``np.diff(v)`` 2.6 µs against 0.9 µs for
``v[1:] - v[:-1]``, ``np.clip`` 3.3 µs against 1.1 µs for ``np.minimum`` of
``np.maximum``, ``np.tile(a, 2)`` 3.2 µs against 0.7 µs for
``np.concatenate([a, a])``, ``np.argmin(v)`` 1.4 µs against 0.4 µs for
``v.argmin()``. At the benchmark's sizes a solve is bound by such fixed
costs: an ``hpp`` solve at n = 700, k = 5 made 549 calls into functions of
numpy's Python sources, and 168 once ``hpp``, ``geometry`` and the
``minmax-ls`` half of ``baseline`` called the routines directly.

So every helper that those modules stopped calling raises while
``hpp_solve`` and ``minmax_local_search`` run. Instances are generated
first: set-up is outside the test's scope, and so is the exact oracle.
"""

import inspect

import numpy
import pytest

from pondroute.baseline import minmax_local_search
from pondroute.hpp import hpp_solve
from pondroute.instances import generate

HELPERS = [
    "append", "argmin", "argsort", "clip", "cumsum", "diff", "flatnonzero", "full",
    "ndim", "nonzero", "ones", "partition", "repeat", "searchsorted", "sort", "stack",
    "tile", "tri",
]


@pytest.mark.parametrize("name", HELPERS)
def test_helper_is_written_in_python(name):
    function = getattr(numpy, name)
    assert inspect.isfunction(getattr(function, "_implementation", function))


def test_solve_paths_call_no_python_helper(monkeypatch):
    hpp_cases = [(generate(200, 1000), 5), (generate(700, 1000), 5), (generate(2000, 1000), 20)]
    local = generate(500, 1000)
    for name in HELPERS:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"numpy.{name} called on a solve path")

        monkeypatch.setattr(numpy, name, refuse)
    for inst, k in hpp_cases:
        assert hpp_solve(inst, k).k == k
    assert minmax_local_search(local, 5).k == 5
