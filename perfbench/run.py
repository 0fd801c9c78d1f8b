"""Run one pondroute benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload hpp-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first (environment,
operation counts, failures, the SHA-256 of the solution files, one line per
metric with its unit); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every operation passed its checks, 1 when some failed, and 2 when the
benchmark cannot run at all (for example when ``src/pondroute`` is missing).

The library is imported from ``src/`` of the checkout this file sits in, and
the dataset is written to ``.bench_work/`` there and removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # numpy sizes its thread pools at import; the harness imports it below.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "pondroute" / "__init__.py").is_file():
        print(f"error: no pondroute sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=harness.DEFAULT_SEED,
        help=f"workload seed (default {harness.DEFAULT_SEED}; held-out seed {harness.HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = harness.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if not result.metrics:
        for error in result.errors[:20]:
            print(f"FAILED {error}", file=sys.stderr)
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    for line in report(result, environment(args.seed)):
        print(line)
    return 0 if result.correct else 1


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def report(result, env: dict) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    wl = result.workload
    threads = "/".join(str(v) for v in env["threads"].values())
    lines = [
        f"workload {wl.name}  seed {env['seed']}  python {env['python']}  "
        f"numpy {env['numpy']}  nproc {env['nproc']}  blas/omp/mkl threads {threads}",
        f"dataset: {wl.algorithm} k={wl.k}, n in {list(wl.sizes)}, {wl.count} instances per size",
        f"ops: {result.attempted} attempted, {result.failed} failed, {result.samples} timed solves",
    ]
    lines += [f"FAILED {e}" for e in result.errors[:20]]
    lines.append(f"solution_sha256 {result.digest}")
    lines.append(
        f"calibration {result.calibration_ms:.4f} ms"
        + "".join(f", raw {k} {m.value:.6f} {m.unit}" for k, m in result.raw.items())
    )
    if result.trace:
        lines.append("spans: " + " ".join(result.spans))
        if result.absent:
            lines.append("absent (reported as 0): " + " ".join(result.absent))
    metrics = result.metrics
    for name, m in metrics.items():
        lines.append(f"{name:34s} {m.value:14.6f} {m.unit}")
    if not result.trace:
        lines.append(f"{'error_rate':34s} {result.failed / result.attempted:14.6f} ratio")
    lines.append(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
            }
        )
    )
    return lines


if __name__ == "__main__":
    sys.exit(main())
