"""The solver contract, from instance text to score.

For any instance file that ``load`` accepts, each solver either raises one
of its documented errors (``InvalidK``, ``RepairImpossible``, ``TooLarge``)
or returns a plan that ``score`` accepts, whose stored lengths are the
scored ones up to rounding, that a repeat solve writes byte for byte, and
that survives a solution file round trip. Any other file must make ``load``
raise a ``FormatError`` that names a line. Which of the two a solver gives
should not change under an exact quarter turn or mirror of the farm.
"""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pondroute.baseline import TooLarge
from pondroute.evaluation import ALGORITHMS, score, solve_with
from pondroute.hpp import RepairImpossible
from pondroute.instances import FormatError, load
from pondroute.solution import InvalidK, load_solution, save_solution

FAMILIES = ["uniform", "lattice", "duplicates", "columns", "rows", "tight"]
# Outline corners lie on the unit circle at most 150 degrees apart, so at
# unit scale every node of the box |x|, |y| <= BOX lies well inside.
BOX = 0.17
SPACINGS = {"pitch": 1 / 8, "fine": 1e-5, "zero": 0.0, "negative": -1 / 8,
            "nan": math.nan, "inf": math.inf, "tiny": 5e-324}
REFUSED = ["inf", "nan", "negative", "tiny", "zero"]  # tiny: 2 * extent / spacing overflows


def outline(rng: np.random.Generator, m: int) -> np.ndarray:
    """m corners on the unit circle, CCW, each within a quarter of its share
    of the turn of the regular m-gon's corner."""
    turn = 2 * np.pi * (np.arange(m) + 0.25 * rng.random(m)) / m + rng.random() * 2 * np.pi
    return np.stack([np.cos(turn), np.sin(turn)], axis=1)


def family_nodes(family: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """n nodes of the family in the box, as (n, 2) rows."""
    if family == "lattice":  # a random subset of a lattice
        q = int(rng.integers(1, 6))
        grid = np.stack(np.meshgrid(np.arange(-q, q + 1), np.arange(-q, q + 1)), axis=-1)
        grid = grid.reshape(-1, 2) * (BOX / q)
        return grid[rng.permutation(len(grid))[:n]]
    if family == "duplicates":  # one to three positions, repeated
        spots = rng.uniform(-BOX, BOX, size=(int(rng.integers(1, 4)), 2))
        return spots[rng.integers(len(spots), size=n)]
    if family in ("columns", "rows"):  # lines a few times 1e-10 wide, EPS-collinear
        across = rng.uniform(-BOX / 2, BOX / 2, size=int(rng.integers(1, 4)))
        across = across[rng.integers(len(across), size=n)]
        across += rng.integers(-2, 3, size=n) * 4e-10
        along = rng.uniform(-BOX, BOX, size=n)
        xy = np.stack([across, along], axis=1)
        return xy if family == "columns" else xy[:, ::-1]
    if family == "tight":  # clumps about 1e-7 across
        centres = rng.uniform(-BOX / 2, BOX / 2, size=(int(rng.integers(1, 4)), 2))
        return centres[rng.integers(len(centres), size=n)] + rng.normal(0.0, 1e-7, (n, 2))
    return rng.uniform(-BOX, BOX, size=(n, 2))


def instance_text(seed: int, family: str, n: int, m: int, j: int, spacing: str) -> str:
    """An instance file: an outline of m corners and n nodes of the family,
    0-3 of the nodes on outline corners, all scaled by exactly 2^j."""
    rng = np.random.default_rng(seed)
    corners = outline(rng, m)
    nodes = np.concatenate([
        family_nodes(family, rng, n), corners[rng.integers(m, size=int(rng.integers(0, 4)))]
    ])
    depot = [(0.0, 0.0), tuple(corners[0].tolist()), (1.5, 1.5)][int(rng.integers(3))]
    s = 2.0**j
    lines = ["farm-instance v1", "name: fuzz", "seed: 0", f"spacing: {SPACINGS[spacing] * s!r}",
             "lattice_origin: 0 0", f"depot: {depot[0] * s!r} {depot[1] * s!r}", f"polygon: {m}"]
    lines += [f"{x * s!r} {y * s!r}" for x, y in corners.tolist()]
    lines.append(f"nodes: {len(nodes)}")
    lines += [f"{x * s!r} {y * s!r}" for x, y in nodes.tolist()]
    return "\n".join(lines) + "\n"


def solution_bytes(sol, path: Path) -> bytes:
    save_solution(sol, path)
    return path.read_bytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(FAMILIES),
    n=st.integers(0, 30),
    m=st.integers(3, 12),
    j=st.integers(-40, 40),
    spacing=st.one_of(st.just("pitch"), st.just("fine"), st.sampled_from(REFUSED)),
    k=st.integers(1, 4),
)
def test_loaded_instances_get_a_plan_or_a_documented_error(seed, family, n, m, j, spacing, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        path.write_text(instance_text(seed, family, n, m, j, spacing), encoding="utf-8")
        try:
            inst = load(path)
        except FormatError as exc:
            assert re.search(r": line \d+: ", str(exc)), exc
            return
        assert spacing not in REFUSED
        for algorithm in ALGORITHMS:
            try:
                sol = solve_with(algorithm, inst, k=k, seed=0)
            except (InvalidK, RepairImpossible, TooLarge):
                continue
            assert sol.k == k, algorithm
            scored = score(inst, sol).route_lengths
            for route, length in zip(sol.routes, scored):
                assert abs(route.length - length) <= 1e-9 * length, (algorithm, route, length)
            first = solution_bytes(sol, Path(tmp) / "first.txt")
            assert solution_bytes(solve_with(algorithm, inst, k=k, seed=0),
                                  Path(tmp) / "again.txt") == first, algorithm
            assert load_solution(Path(tmp) / "first.txt") == sol, algorithm


def random_farm(seed: int, family: str, n: int, m: int) -> tuple[np.ndarray, ...]:
    """Outline corners, n nodes of the family and the depot, as (m, 2),
    (n, 2) and (1, 2) rows at unit scale."""
    rng = np.random.default_rng(seed)
    corners = outline(rng, m)
    depot = [(0.0, 0.0), tuple(corners[0].tolist()), (1.5, 1.5)][int(rng.integers(3))]
    return corners, family_nodes(family, rng, n), np.array([depot])


def outcome_classes(corners: np.ndarray, nodes: np.ndarray, depot: np.ndarray, k: int) -> list[str]:
    """Per solver, "plan" for a plan that ``score`` accepts, else the name
    of the documented error it raises, for the farm as ``load`` reads it."""
    lines = ["farm-instance v1", "name: turn", "seed: 0", "spacing: 0.125",
             "lattice_origin: 0 0", "depot: %r %r" % tuple(depot[0].tolist()),
             f"polygon: {len(corners)}", *("%r %r" % tuple(c) for c in corners.tolist()),
             f"nodes: {len(nodes)}", *("%r %r" % tuple(p) for p in nodes.tolist())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inst = load(path)
    classes = []
    for algorithm in ALGORITHMS:
        try:
            score(inst, solve_with(algorithm, inst, k=k, seed=0))
        except (InvalidK, RepairImpossible, TooLarge) as exc:
            classes.append(type(exc).__name__)
        else:
            classes.append("plan")
    return classes


def quarter_turn(xy: np.ndarray) -> np.ndarray:
    """(x, y) -> (-y, x) on (m, 2) rows; exact in floating point."""
    return xy[:, ::-1] * [-1.0, 1.0]


def mirror(xy: np.ndarray) -> np.ndarray:
    """(x, y) -> (-x, y) on (m, 2) rows; exact in floating point."""
    return xy * [-1.0, 1.0]


@pytest.mark.xfail(strict=True, reason="until item 11 of ROADMAP.md: the chain's EPS test "
                   "depends on the sweep's orientation")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    farm=st.builds(random_farm, st.integers(0, 2**32 - 1), st.sampled_from(FAMILIES),
                   st.integers(0, 10), st.integers(3, 8)),
    k=st.integers(1, 3),
)
@example(  # hpp plans the sliver; its quarter turn is collinear for hpp's repair
    farm=(np.array([[-3.0, -3.0], [3.0, -3.0], [3.0, 3.0], [-3.0, 3.0]]),
          np.array([[0.0, 0.0], [0.0, 2.0], [2.0**-57, 1.0]]), np.array([[0.0, -3.0]])),
    k=1,
)
def test_a_quarter_turn_or_mirror_keeps_each_outcome_class(farm, k):
    # Claims the outcome class only, not equal plans: k-means seeding and
    # the lane axis depend on orientation. The mirror's outline is read
    # backwards to stay CCW.
    corners, nodes, depot = farm
    expected = outcome_classes(corners, nodes, depot, k)
    turned = outcome_classes(quarter_turn(corners), quarter_turn(nodes), quarter_turn(depot), k)
    assert turned == expected
    assert outcome_classes(mirror(corners)[::-1], mirror(nodes), mirror(depot), k) == expected
