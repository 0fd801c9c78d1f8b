"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy fixtures are
shared: the 600-instance batch (100 instances per size in 50..700, seeds
42+i, k=5) is generated and solved once.
"""

import hashlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from pondroute.baseline import exact_minmax, minmax_local_search
from pondroute.evaluation import run_benchmark, score
from pondroute.geometry import Point, antipodal_pairs, contains, convex_hull
from pondroute.hpp import hpp_solve, kmeans, serpentine_route
from pondroute.instances import GeneratorConfig, generate, generate_dataset, save
from pondroute.solution import save_solution

from _oracles import (
    antipodal_oracle_arcs,
    hull_overlap_area,
    hull_vertex_oracle,
    min_fixed_endpoint_path,
    path_length,
)

SIZES = (50, 100, 200, 300, 500, 700)
PER_SIZE = 100
BASE_SEED = 42
K = 5

TABLE_TOTAL = {50: 7.62, 100: 9.94, 200: 12.66, 300: 15.37, 500: 19.02, 700: 21.72}
TABLE_MAX = {50: 2.01, 100: 2.53, 200: 3.14, 300: 3.79, 500: 4.58, 700: 5.28}

# Per size: SHA-256 over the save_solution bytes of each seed's hpp solution
# followed by its minmax-ls solution, in seed order. A different digest is a
# change to a solver's output, to be declared.
GOLDEN_BATCH_SHA256 = {
    50: "a7f8a641bce307514d3339e0945c98641b6b354283304f9b58c5b7decb23479f",
    100: "865ff3b9586c5c7265931d2f399148552b4d87ad7e299d5c105e00cb20571f05",
    200: "0de861cda217ea76fabd8d5c9ffd9fb85f48efe4626a1e1f311b2cfd201cd7ef",
    300: "4e62f3fed64760a17fe5c811d8b9482e4f2e9b8d6f17ac005f78fe1a25bdc85d",
    500: "5f80cf25f57ff5eef0a60ea35a3473f4b8f60d5d84aa692e1f29acab8211ee62",
    700: "3436d6fd82ac9365aa824c4ba78bb71f00cfaeb1228bd71cf7fcfae7da2820e2",
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@dataclass
class SizeStats:
    hpp_mean_total: float
    hpp_mean_max: float
    hpp_batch_time: float
    solutions_validated: int
    solution_sha256: str


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """Generate and solve the full 600-instance batch with both heuristics."""
    stats: dict[int, SizeStats] = {}
    sol_path = tmp_path_factory.mktemp("batch") / "sol.txt"
    size_300_instances = []
    t_all = time.perf_counter()
    for size in SIZES:
        totals = maxes = 0.0
        hpp_time = 0.0
        validated = 0
        digest = hashlib.sha256()
        for i in range(PER_SIZE):
            inst = generate(GeneratorConfig(node_count=size, seed=BASE_SEED + i))
            if size == 300:
                size_300_instances.append(inst)
            t0 = time.perf_counter()
            hpp_sol = hpp_solve(inst, k=K, seed=0)
            hpp_time += time.perf_counter() - t0
            hpp_metrics = score(inst, hpp_sol)  # raises unless a valid partition
            assert len(hpp_sol.routes) == K
            ls_sol = minmax_local_search(inst, k=K, seed=0)
            score(inst, ls_sol)
            assert len(ls_sol.routes) == K
            for sol in (hpp_sol, ls_sol):
                save_solution(sol, sol_path)
                digest.update(sol_path.read_bytes())
            totals += hpp_metrics.total_distance
            maxes += hpp_metrics.max_route_length
            validated += 2
        stats[size] = SizeStats(
            hpp_mean_total=totals / PER_SIZE,
            hpp_mean_max=maxes / PER_SIZE,
            hpp_batch_time=hpp_time,
            solutions_validated=validated,
            solution_sha256=digest.hexdigest(),
        )
    elapsed = time.perf_counter() - t_all
    print(f"[batch] 600 instances generated and solved twice in {elapsed:.1f}s")
    return stats, size_300_instances


def test_criterion_1_feasibility(batch):
    stats, _ = batch
    validated = sum(s.solutions_validated for s in stats.values())
    ok = validated == 2 * PER_SIZE * len(SIZES)
    report(1, ok, f"{validated}/1200 solutions are valid 5-route partitions")
    assert ok


def test_batch_solution_bytes(batch):
    stats, _ = batch
    assert {size: s.solution_sha256 for size, s in stats.items()} == GOLDEN_BATCH_SHA256


def test_criterion_2_geometry_oracles():
    rng = np.random.default_rng(99)
    antipodal_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        pts = [Point(float(x), float(y)) for x, y in rng.random((max(n, 3), 2))]
        hull = convex_hull(pts)
        ours = {(p.i, p.j) for p in antipodal_pairs(hull)}
        if ours != antipodal_oracle_arcs(hull):
            antipodal_mismatches += 1

    hull_mismatches = 0
    for _ in range(200):
        n = int(rng.integers(5, 40))
        pts = [Point(float(x), float(y)) for x, y in rng.random((n, 2))]
        hull = convex_hull(pts)
        vertex_set = {(v.x, v.y) for v in hull.vertices}
        if vertex_set != hull_vertex_oracle(pts):
            hull_mismatches += 1
        elif not all(contains(hull, p) for p in pts):
            hull_mismatches += 1

    ok = antipodal_mismatches == 0 and hull_mismatches == 0
    report(
        2,
        ok,
        f"antipodal mismatches {antipodal_mismatches}/200, "
        f"hull mismatches {hull_mismatches}/200",
    )
    assert ok


def test_criterion_3_exact_oracle_dominance():
    dominance_ok = True
    ls_within = 0
    hpp_within = 0
    worst_ls = worst_hpp = 0.0
    count = 50
    for i in range(count):
        n = 6 + (i % 5)
        inst = generate(GeneratorConfig(node_count=n, seed=i))
        exact = exact_minmax(inst, k=2)
        ls = minmax_local_search(inst, k=2, seed=0, max_iterations=200)
        hp = hpp_solve(inst, k=2, seed=0)
        if exact.max_length() > ls.max_length() + 1e-9:
            dominance_ok = False
        if exact.max_length() > hp.max_length() + 1e-9:
            dominance_ok = False
        r_ls = ls.max_length() / exact.max_length()
        r_hpp = hp.max_length() / exact.max_length()
        worst_ls, worst_hpp = max(worst_ls, r_ls), max(worst_hpp, r_hpp)
        ls_within += r_ls <= 1.30
        hpp_within += r_hpp <= 2.0
    ok = dominance_ok and ls_within >= 0.9 * count and hpp_within == count
    report(
        3,
        ok,
        f"oracle dominates: {dominance_ok}; minmax-ls within 1.30x on {ls_within}/50 "
        f"(worst {worst_ls:.3f}); hpp within 2.0x on {hpp_within}/50 (worst {worst_hpp:.3f})",
    )
    assert ok


def test_criterion_4_serpentine_optimality():
    checked = 0
    failures = []
    for w, h in itertools.product((1, 2, 3), repeat=2):
        if w * h < 2:
            continue
        pts = [Point(float(x), float(y)) for y in range(h) for x in range(w)]
        if w == 1 or h == 1:
            anchor_pairs = [(pts[0], pts[-1])]
        else:
            anchor_pairs = [
                (Point(0, 0), Point(w - 1, h - 1)),
                (Point(w - 1, 0), Point(0, h - 1)),
            ]
        for a, b in anchor_pairs:
            for start, end in ((a, b), (b, a)):
                got = path_length([pts[t] for t in serpentine_route(pts, start, end, 1.0)])
                want = min_fixed_endpoint_path(pts, pts.index(start), pts.index(end))
                checked += 1
                if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                    failures.append((w, h, (start.x, start.y), (end.x, end.y), got, want))
    ok = not failures
    report(4, ok, f"{checked} grid/anchor cases equal the exhaustive optimum; failures: {failures}")
    assert ok


def test_criterion_5_table_soft_reproduction(batch):
    stats, _ = batch
    rows = []
    ok = True
    for size in SIZES:
        s = stats[size]
        t_lo, t_hi = 0.8 * TABLE_TOTAL[size], 1.2 * TABLE_TOTAL[size]
        m_lo, m_hi = 0.75 * TABLE_MAX[size], 1.25 * TABLE_MAX[size]
        t_ok = t_lo <= s.hpp_mean_total <= t_hi
        m_ok = m_lo <= s.hpp_mean_max <= m_hi
        ok = ok and t_ok and m_ok
        rows.append(
            f"n={size}: total {s.hpp_mean_total:.2f} in [{t_lo:.2f},{t_hi:.2f}] "
            f"({'ok' if t_ok else 'MISS'}), max {s.hpp_mean_max:.2f} in "
            f"[{m_lo:.2f},{m_hi:.2f}] ({'ok' if m_ok else 'MISS'})"
        )
    report(5, ok, "; ".join(rows))
    assert ok


def test_criterion_6_runtime_scaling(batch):
    stats, _ = batch
    fit_sizes = [s for s in SIZES if s >= 100]
    times = [stats[s].hpp_batch_time for s in fit_sizes]
    exponent = float(
        np.polyfit(np.log(np.array(fit_sizes, dtype=float)), np.log(np.array(times)), 1)[0]
    )
    t700 = stats[700].hpp_batch_time
    ok = exponent < 1.7 and t700 < 10.0
    report(
        6,
        ok,
        f"hpp batch-time fit exponent {exponent:.2f} (< 1.7), "
        f"100x700-node batch {t700:.2f}s (< 10s)",
    )
    assert ok


def test_criterion_7_determinism(tmp_path):
    # instance files
    inst_ok = True
    for size, seed in ((50, 42), (100, 77), (12, 3)):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save(generate(GeneratorConfig(node_count=size, seed=seed)), a)
        save(generate(GeneratorConfig(node_count=size, seed=seed)), b)
        inst_ok = inst_ok and a.read_bytes() == b.read_bytes()

    # solution files (both solvers)
    sol_ok = True
    inst = generate(GeneratorConfig(node_count=60, seed=42))
    for solver in (
        lambda: hpp_solve(inst, k=K, seed=0),
        lambda: minmax_local_search(inst, k=K, seed=0, max_iterations=50),
    ):
        a, b = tmp_path / "sa.txt", tmp_path / "sb.txt"
        save_solution(solver(), a)
        save_solution(solver(), b)
        sol_ok = sol_ok and a.read_bytes() == b.read_bytes()

    # benchmark mean columns
    manifest = generate_dataset([8, 20], 2, base_seed=0, out_dir=tmp_path / "data")
    runs = [
        run_benchmark(manifest, ["hpp", "minmax-ls", "exact"], k=2, seed=0)
        for _ in range(2)
    ]
    mean_cols = [
        [(r.size, r.algorithm, r.mean_total, r.mean_max, r.mode) for r in run]
        for run in runs
    ]
    bench_ok = mean_cols[0] == mean_cols[1]

    ok = inst_ok and sol_ok and bench_ok
    report(
        7,
        ok,
        f"instance files identical: {inst_ok}; solution files identical: {sol_ok}; "
        f"bench mean columns identical: {bench_ok}",
    )
    assert ok


def test_criterion_8_pre_repair_hull_disjointness(batch):
    _, size_300_instances = batch
    assert len(size_300_instances) == PER_SIZE
    worst = 0.0
    for inst in size_300_instances:
        assign = kmeans(inst.nodes, K, seed=0)
        hulls = [convex_hull([inst.nodes[i] for i in assign.members(c)]) for c in range(K)]
        for a, b in itertools.combinations(hulls, 2):
            worst = max(worst, hull_overlap_area(a, b))
    ok = worst < 1e-12
    report(8, ok, f"max pairwise pre-repair hull intersection area {worst:.3e} (< 1e-12)")
    assert ok
