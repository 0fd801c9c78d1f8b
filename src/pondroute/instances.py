"""Synthetic farm instances: lattice node sets inside random convex outlines.

Instance file format (version 1), one text document per instance::

    farm-instance v1
    name: <text>
    seed: <uint64>
    spacing: <float>
    lattice_origin: <x> <y>
    depot: <x> <y>
    polygon: <vertex count>
    <x> <y>          (one vertex per line, CCW)
    nodes: <node count>
    <x> <y>          (one node per line, sorted by (y, x))

Floats are written with 17 significant digits (``_fmt``) so a load/save
round trip is bit-exact. Readers reject unknown versions. The depot line may
be edited by hand to override the generated depot. ``_LineReader`` reads
these two formats and the solution format of ``solution``.

Manifest file format (version 1), at least one record::

    farm-manifest v1
    <instance file name> <size> <seed>
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .geometry import ConvexPolygon, Point, _inside, convex_hull
from .rng import make_rng

FORMAT_VERSION = 1
INSTANCE_HEADER = "farm-instance v1"
MANIFEST_HEADER = "farm-manifest v1"
_BISECT_ITERATIONS = 64
_COUNT_SLACK = 2  # lattice counts are integer step functions of spacing
_POLYGON_SAMPLES = 12  # uniform points whose hull is the outline
_DELETION_FRACTION = 0.20  # share of the lattice deleted at random
T = TypeVar("T")


class GenerationFailure(RuntimeError):
    """Spacing bisection could not reach the target lattice count."""


class FormatError(ValueError):
    """Malformed instance, manifest or solution file."""


class VersionError(FormatError):
    """File declares an unsupported format version."""


@dataclass(frozen=True)
class FarmInstance:
    name: str
    seed: int
    polygon: ConvexPolygon
    spacing: float
    lattice_origin: Point
    depot: Point
    nodes: tuple[Point, ...]


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    size: int
    seed: int


def _fmt(x: float) -> str:
    """17 significant digits, so reading a written float back is bit-exact."""
    return format(x, ".17g")


def _left_sum(values: Iterable[float]) -> float:
    """The floats added one at a time from the left, as ``sum`` adds them
    before Python 3.12; 3.12's ``sum`` compensates rounding, which would make
    written totals depend on the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def _lattice_points(poly: ConvexPolygon, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the lattice points inside the polygon, in (y, x) order. The
    lattice has pitch ``spacing`` and its origin at the bounding box's minimum."""
    xmin, ymin, xmax, ymax = poly.bounding_box()
    na = int(math.floor((xmax - xmin) / spacing + 1e-12)) + 1
    nb = int(math.floor((ymax - ymin) / spacing + 1e-12)) + 1
    xs = xmin + spacing * np.arange(na)
    ys = ymin + spacing * np.arange(nb)
    gx, gy = np.meshgrid(xs, ys)  # row-major flattening yields (y, x) order
    gx, gy = gx.ravel(), gy.ravel()
    keep = _inside(poly, gx, gy)
    return gx[keep], gy[keep]


def _choose_spacing(poly: ConvexPolygon, target: int, minimum: int) -> float:
    """Bisect the grid pitch until the polygon holds ~``target`` lattice points.

    Each spacing is counted once; of the counts within ``_COUNT_SLACK`` of
    ``target`` and at least ``minimum``, the nearest wins, ties going to the
    larger spacing.
    """
    counts: dict[float, int] = {}  # once lo and hi are adjacent floats, mid repeats one

    def count(s: float) -> int:
        if s not in counts:
            counts[s] = len(_lattice_points(poly, s)[0])
        return counts[s]

    s0 = math.sqrt(max(poly.area(), 1e-12) / target)
    lo = hi = s0
    for _ in range(_BISECT_ITERATIONS):
        if count(lo) >= target:
            break
        lo *= 0.5
    else:
        raise GenerationFailure(f"could not bracket {target} lattice points from below")
    for _ in range(_BISECT_ITERATIONS):
        if count(hi) <= target:
            break
        hi *= 2.0
    else:
        raise GenerationFailure(f"could not bracket {target} lattice points from above")
    for _ in range(_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if count(mid) >= target:
            lo = mid
        else:
            hi = mid
    fits = [
        (abs(c - target), -s)
        for s, c in counts.items()
        if c >= minimum and abs(c - target) <= _COUNT_SLACK
    ]
    if not fits:
        raise GenerationFailure(
            f"bisection missed the target lattice count {target} (polygon too degenerate)"
        )
    return -min(fits)[1]


def place_depot(inst: FarmInstance) -> FarmInstance:
    """Put the depot at the boundary edge midpoint with minimal y (ties: minimal x)."""
    mids = [
        Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0) for a, b in inst.polygon.edges()
    ]
    depot = min(mids, key=lambda p: (p.y, p.x))
    return replace(inst, depot=depot)


def generate(node_count: int, seed: int) -> FarmInstance:
    """Generate a deterministic instance: lattice fill of a random convex region.

    The polygon is the hull of 12 uniform points in the unit square; the
    pitch is bisected so the lattice holds about ``node_count / 0.8``
    in-polygon points, then random points are deleted until exactly
    ``node_count`` remain. Raises ValueError for fewer than 3 nodes or a
    negative seed.
    """
    if node_count < 3:
        raise ValueError(f"node_count must be at least 3, got {node_count}")
    rng = make_rng(seed)
    samples = rng.random((_POLYGON_SAMPLES, 2))
    polygon = convex_hull([Point(float(x), float(y)) for x, y in samples])
    target = math.ceil(node_count / (1.0 - _DELETION_FRACTION))
    spacing = _choose_spacing(polygon, target, node_count)
    xs, ys = _lattice_points(polygon, spacing)

    keep = np.ones(len(xs), dtype=bool)
    keep[rng.permutation(len(xs))[: len(xs) - node_count]] = False
    nodes = tuple(Point(float(x), float(y)) for x, y in zip(xs[keep], ys[keep]))

    inst = FarmInstance(
        name=f"farm-n{node_count}-s{seed}",
        seed=seed,
        polygon=polygon,
        spacing=spacing,
        lattice_origin=Point(*polygon.bounding_box()[:2]),
        depot=Point(0.0, 0.0),
        nodes=nodes,
    )
    return place_depot(inst)


def save(inst: FarmInstance, path: Path | str) -> None:
    path = Path(path)
    lines = [
        INSTANCE_HEADER,
        f"name: {inst.name}",
        f"seed: {inst.seed}",
        f"spacing: {_fmt(inst.spacing)}",
        f"lattice_origin: {_fmt(inst.lattice_origin.x)} {_fmt(inst.lattice_origin.y)}",
        f"depot: {_fmt(inst.depot.x)} {_fmt(inst.depot.y)}",
        f"polygon: {len(inst.polygon)}",
    ]
    lines += [f"{_fmt(p.x)} {_fmt(p.y)}" for p in inst.polygon]
    lines.append(f"nodes: {len(inst.nodes)}")
    lines += [f"{_fmt(p.x)} {_fmt(p.y)}" for p in inst.nodes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _point(text: str) -> Point:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected '<x> <y>', got {text!r}")
    return Point(float(parts[0]), float(parts[1]))


class _LineReader:
    """Reader of the line-oriented file formats (instance, solution, manifest).

    The first line must be ``header``; the same kind of file at another
    version raises VersionError. Callers then read ``name: value`` fields and
    ``<x> <y>`` points in order, and ``end`` allows only blank lines after
    them. Every error is a FormatError naming the path and the line, or the
    byte offset of the first byte that is not UTF-8.
    """

    def __init__(self, path: Path, header: str) -> None:
        self.path = path
        try:
            self.lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: byte {exc.start}: not UTF-8 text") from exc
        self.pos = 0
        first = self.next("header")
        kind = header.rsplit(" v", 1)[0]
        if not first.startswith(f"{kind} v"):
            raise self.error(f"not a {kind} file, got {first!r}")
        if first != header:
            raise VersionError(f"{path}: line 1: unsupported format version {first!r}")

    def error(self, message: str) -> FormatError:
        """A FormatError at the line read last."""
        return FormatError(f"{self.path}: line {self.pos}: {message}")

    def next(self, what: str) -> str:
        self.pos += 1
        if self.pos > len(self.lines):
            raise self.error(f"unexpected end of file, expected {what}")
        return self.lines[self.pos - 1]

    def parse(self, convert: Callable[[Any], T], value: Any, what: str) -> T:
        """``convert(value)``, a ValueError becoming a FormatError at this line."""
        try:
            return convert(value)
        except ValueError as exc:
            raise self.error(f"{what}: {exc}") from exc

    def field(self, name: str, convert: Callable[[str], T] = str) -> T:
        line = self.next(f"field '{name}'")
        prefix = f"{name}: "
        if not line.startswith(prefix):
            raise self.error(f"expected field '{name}', got {line!r}")
        return self.parse(convert, line[len(prefix):], name)

    def count(self, name: str) -> int:
        n = self.field(name, int)
        if n < 0:
            raise self.error(f"{name} count must be non-negative")
        return n

    def point(self, what: str) -> Point:
        return self.parse(_point, self.next(what), what)

    def rest(self) -> Iterator[str]:
        """The remaining lines; ``error`` names each one while it is current."""
        while self.pos < len(self.lines):
            self.pos += 1
            yield self.lines[self.pos - 1]

    def end(self) -> None:
        for line in self.rest():
            if line.strip():
                raise self.error("trailing content")


def load(path: Path | str) -> FarmInstance:
    """Load and validate an instance file; see the module docstring for the format.

    Raises FormatError (VersionError for another version) naming the line.
    With E the largest extent (max - min) in x or y of the polygon, depot and
    nodes, and m their count, ``2 * m * E**2`` must be finite: that bounds
    every squared distance, cross product and sum of them the solvers form.
    ``2 * E / spacing`` must be finite too: that bounds every lane key, a
    difference of two offsets (each at most E) over the spacing.
    """
    r = _LineReader(Path(path), INSTANCE_HEADER)
    name = r.field("name")
    seed = r.field("seed", int)
    if seed < 0:
        raise r.error("seed must be non-negative")
    spacing = r.field("spacing", float)
    if not (math.isfinite(spacing) and spacing > 0):
        raise r.error("spacing must be positive and finite")
    origin = r.field("lattice_origin", _point)
    depot = r.field("depot", _point)
    verts = tuple(r.point(f"polygon vertex {i}") for i in range(r.count("polygon")))
    polygon = r.parse(ConvexPolygon, verts, "polygon")
    nodes = [r.point(f"node {i}") for i in range(r.count("nodes"))]
    pts = (*verts, depot, *nodes)
    xs, ys = np.array([p.x for p in pts]), np.array([p.y for p in pts])
    extent = max(float(xs.max()) - float(xs.min()), float(ys.max()) - float(ys.min()))
    if not math.isfinite(2 * len(pts) * extent * extent):
        raise r.error(f"{len(pts)} points span {_fmt(extent)}, so squared distances overflow")
    if not math.isfinite(2 * extent / spacing):
        raise r.error(f"spacing {_fmt(spacing)} is too small for an extent of {_fmt(extent)}")
    first = len(verts) + 1  # nodes follow the polygon vertices and the depot
    inside = _inside(polygon, xs[first:], ys[first:])
    if not inside.all():
        i = int(np.argmin(inside))  # the first node outside
        r.pos -= len(nodes) - 1 - i  # the error names node i's own line
        raise r.error(f"node {i} lies outside the polygon")
    r.end()
    return FarmInstance(
        name=name,
        seed=seed,
        polygon=polygon,
        spacing=spacing,
        lattice_origin=origin,
        depot=depot,
        nodes=tuple(nodes),
    )


def generate_dataset(
    sizes: list[int],
    count_per_size: int,
    base_seed: int,
    out_dir: Path | str,
) -> Path:
    """Write ``count_per_size`` instances per size plus a manifest; returns its path.

    Instance i of every size uses seed ``base_seed + i``. Every size and seed
    is checked before ``out_dir`` is created; sizes must be distinct.
    """
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes must be distinct, got {sizes}")
    if count_per_size < 1:
        raise ValueError("count_per_size must be at least 1")
    if min(sizes) < 3:
        raise ValueError(f"node_count must be at least 3, got {min(sizes)}")
    if base_seed < 0:
        raise ValueError(f"seed must be non-negative, got {base_seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = []
    for size in sizes:
        for seed in range(base_seed, base_seed + count_per_size):
            try:
                inst = generate(size, seed)
            except GenerationFailure as exc:
                raise GenerationFailure(f"size={size} seed={seed}: {exc}") from exc
            fname = f"{inst.name}.txt"
            save(inst, out_dir / fname)
            records.append(f"{fname} {size} {seed}")

    manifest = out_dir / "manifest.txt"
    manifest.write_text(MANIFEST_HEADER + "\n" + "\n".join(records) + "\n", encoding="utf-8")
    return manifest


def load_manifest(path: Path | str) -> list[ManifestEntry]:
    path = Path(path)
    r = _LineReader(path, MANIFEST_HEADER)
    entries = []
    for line in r.rest():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise r.error("expected '<file> <size> <seed>'")
        size, seed = (r.parse(int, t, "manifest entry") for t in parts[1:])
        if size < 0 or seed < 0:
            raise r.error("size and seed must be non-negative")
        entries.append(ManifestEntry(path=path.parent / parts[0], size=size, seed=seed))
    if not entries:
        raise r.error("the manifest lists no instances")
    return entries
