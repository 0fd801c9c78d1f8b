"""Synthetic farm instances: lattice node sets inside random convex outlines.

``generate`` bisects the lattice pitch until the outline holds the target
number of points; the edge table and the bounding box are built once per
outline. A full count is one ``geometry._inside`` broadcast of the
lattice's x row against its y column over every outline edge. Once the
bracket is so narrow that no lattice point moves by more than one pitch
across it, one ``_certificate`` of the bracket splits the lattice into the
points inside at every spacing left, those outside at every one, and a few
dozen uncertain points near an edge; each later count is one ``_inside``
call on the uncertain points. An instance takes 4-9 full counts and 42-50
certified ones (n = 3 to 2000), or a single count when the first pitch
already holds the target.

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

Floats are written with 17 significant digits (``_FLOAT``, ``_fmt``) so a
load/save round trip is bit-exact. A generated file's n nodes hold roughly
2 sqrt(n) distinct values per axis (one per lattice column or row in use),
so ``save`` formats each distinct node coordinate once, keyed by its bit
pattern, and ``_LineReader.points`` converts each distinct token of a block
once; that is what makes them fast, and a file whose coordinates are all
distinct costs more than one conversion per coordinate would. ``save``
refuses, before it opens the file, an instance that ``load`` would refuse
(``_refusal``). Readers reject unknown versions. The depot line may
be edited by hand to override the generated depot. ``_LineReader`` reads
these two formats and the solution format of ``solution``. It splits lines
with ``str.splitlines``, so the writers refuse a name or label holding any
of its line boundaries (``_one_line``) before they open the file.

A ``FarmInstance`` holds its nodes once, as ``xy``: a read-only, C-ordered
(2, n) float array, x row over y row, that ``generate`` and ``load`` fill
from their arrays and every solver and ``evaluation.score`` read; ``nodes``
builds ``Point``s from it on first use.

Manifest file format (version 1), at least one record::

    farm-manifest v1
    <instance file name> <size> <seed>
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from .geometry import ConvexPolygon, Point, _edges, _inside, convex_hull
from .rng import make_rng

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


@dataclass(frozen=True, eq=False)
class FarmInstance:
    """A farm; ``xy`` is a read-only copy, equal by value (``-0.0 == 0.0``); unhashable."""

    name: str
    seed: int
    polygon: ConvexPolygon
    spacing: float
    lattice_origin: Point
    depot: Point
    xy: np.ndarray

    def __post_init__(self) -> None:
        xy = np.array(self.xy, dtype=float, order="C")
        if xy.ndim != 2 or len(xy) != 2 or not np.isfinite(xy).all():
            raise ValueError(f"xy must be a (2, n) array of finite floats, got shape {xy.shape}")
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    @functools.cached_property
    def nodes(self) -> tuple[Point, ...]:
        """The nodes as ``Point``s, built on first use."""
        return tuple(map(Point, *self.xy.tolist()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.xy, other.xy) and all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.name != "xy"
        )


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    size: int
    seed: int


_FLOAT = "%.17g"  # 17 significant digits, so reading a written float back is bit-exact


def _fmt(x: float) -> str:
    """``x`` written as ``_FLOAT``."""
    return _FLOAT % x


def _one_line(field: str, text: str) -> str:
    """``text``, which a writer puts in ``field``; ValueError naming the
    field when it holds a line boundary of ``str.splitlines``, at which
    ``_LineReader`` would split it."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{field} must fit on one line, got {text!r}")
    return text


def _left_sum(values: Iterable[float]) -> float:
    """The floats added one at a time from the left, as ``sum`` adds them
    before Python 3.12; 3.12's ``sum`` compensates rounding, which would make
    written totals depend on the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def _lattice_shape(box: tuple[float, float, float, float], spacing: float) -> tuple[int, int]:
    """Columns na and rows nb of the lattice of pitch ``spacing`` over the
    bounding ``box``; neither grows as the spacing rises."""
    xmin, ymin, xmax, ymax = box
    na = int(math.floor((xmax - xmin) / spacing + 1e-12)) + 1
    nb = int(math.floor((ymax - ymin) / spacing + 1e-12)) + 1
    return na, nb


def _lattice_mask(
    edges: np.ndarray, box: tuple[float, float, float, float], spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x row, y column and (y, x) inside mask of the lattice of pitch
    ``spacing`` with its origin at the minimum of the bounding ``box``,
    against the polygon of ``edges`` (``geometry._edges``)."""
    na, nb = _lattice_shape(box, spacing)
    xs = box[0] + spacing * np.arange(na)
    ys = box[1] + spacing * np.arange(nb)
    return xs, ys, _inside(edges, xs, ys[:, None])


def _lattice_points(poly: ConvexPolygon, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the lattice points inside the polygon, in (y, x) order. The
    lattice has pitch ``spacing`` and its origin at the bounding box's minimum."""
    xs, ys, mask = _lattice_mask(_edges(poly), poly.bounding_box(), spacing)
    rows, cols = np.nonzero(mask)  # row-major, so in (y, x) order
    return xs[cols], ys[rows]


class _Certificate(NamedTuple):
    """What the lattice counts at every spacing of a bracket [lo, hi] share."""

    base: int  # points inside at every spacing of the bracket
    cols: np.ndarray  # column index i of each uncertain point
    rows: np.ndarray  # row index j of each uncertain point
    shape: tuple[int, int]  # (na, nb) at lo, where every uncertain point exists


def _certificate(
    edges: np.ndarray, box: tuple[float, float, float, float], lo: float, hi: float
) -> _Certificate:
    """The ``_Certificate`` of [lo, hi]: the points inside at every spacing
    of the bracket, and the uncertain ones, inside at some spacings only.

    Point (i, j) lies at ``(xmin + s * i, ymin + s * j)`` with i, j >= 0,
    and each IEEE operation is monotone in each operand, so over the bracket
    it stays in the box of corners ``x(lo) <= x(hi)`` and ``y(lo) <= y(hi)``.
    An edge's cross product ``dx * (y - ay) - dy * (x - ax)`` is monotone in
    x and in y, in directions set by the signs of dy and dx (a zero term,
    -0.0 too, is constant), so the corner where it is least is the same for
    every edge with the same (dx > 0, dy > 0). A point is certainly inside if
    ``_inside`` passes each such class of edges at its lowest corner and the
    point exists at ``hi`` (``_lattice_shape`` does not grow with the
    spacing); it is certainly outside if some class fails at its highest
    corner. This needs finite cross products, since ``_inside`` counts a NaN
    as inside; the generator's outlines lie in [0, 1)^2.
    """
    na, nb = _lattice_shape(box, lo)
    na_hi, nb_hi = _lattice_shape(box, hi)
    i, j = np.arange(na), np.arange(nb)[:, None]
    pitch = np.array([lo, hi])[:, None, None]
    x, y = box[0] + pitch * i, box[1] + pitch * j  # (2, 1, na) and (2, nb, 1)
    surely_in = (i < na_hi) & (j < nb_hi)
    surely_out = np.zeros((nb, na), dtype=bool)
    # dy > 0: the cross product falls as x rises, so it is least at x(hi);
    # dx > 0: it rises with y, so it is least at y(lo). Each class of edges
    # is tested at its lowest corner, then at its highest, in one call.
    classes: dict[tuple[bool, bool], list[int]] = {}
    for e, (dx, dy) in enumerate(zip(*edges[2:4].tolist())):
        classes.setdefault((dy > 0, dx > 0), []).append(e)
    for (x_hi_least, y_lo_least), group in classes.items():
        low, high = _inside(
            edges[:, group], x[::-1] if x_hi_least else x, y if y_lo_least else y[::-1]
        )
        surely_in &= low
        surely_out |= ~high
    rows, cols = np.nonzero(~(surely_in | surely_out))
    return _Certificate(int(np.count_nonzero(surely_in)), cols, rows, (na, nb))


def _lattice_count(
    edges: np.ndarray,
    box: tuple[float, float, float, float],
    spacing: float,
    certificate: _Certificate | None,
) -> int:
    """Number of lattice points inside at pitch ``spacing``: a count of the
    full ``_lattice_mask``, or, given the ``_certificate`` of a bracket that
    holds ``spacing``, its base plus one ``_inside`` call on the uncertain
    points that exist at this spacing. Both give the same number."""
    if certificate is None:
        return int(np.count_nonzero(_lattice_mask(edges, box, spacing)[2]))
    base, cols, rows, shape = certificate
    na, nb = _lattice_shape(box, spacing)
    if (na, nb) != shape:
        exist = (cols < na) & (rows < nb)
        cols, rows = cols[exist], rows[exist]
    xs = box[0] + spacing * cols
    ys = box[1] + spacing * rows
    return base + int(np.count_nonzero(_inside(edges, xs, ys)))


def _choose_spacing(poly: ConvexPolygon, target: int, minimum: int) -> float:
    """Bisect the grid pitch until the polygon holds ~``target`` lattice points.

    Each spacing is counted once; of the counts within ``_COUNT_SLACK`` of
    ``target`` and at least ``minimum``, the nearest wins, ties going to the
    larger spacing. The edge table and the bounding box are built once.
    Counts are of the full lattice (one ``_inside`` broadcast) until no
    lattice point can move by more than one pitch across the bracket,
    ``(hi - lo) * max(na(lo), nb(lo)) <= lo``. Then one ``_certificate`` of
    [lo, hi] is built (none when lo == hi: every mid is counted already),
    and every later count, at a mid of a narrower bracket, is its base plus
    the uncertain points that are inside (``_lattice_count``). That is the full count: a point's coordinates do
    not fall as the spacing rises and an edge's cross product is monotone in
    each, so over the bracket the cross product is extreme at corners of the
    point's box, and the certificate decides only the points whose extremes
    agree. The bisection thus visits the same spacings, sees the same counts
    and picks the same one. An instance takes 4-9 full counts and 42-50
    certified ones.
    """
    counts: dict[float, int] = {}  # once lo and hi are adjacent floats, mid repeats one
    edges, box = _edges(poly), poly.bounding_box()
    certificate: _Certificate | None = None

    def count(s: float) -> int:
        if s not in counts:
            counts[s] = _lattice_count(edges, box, s, certificate)
        return counts[s]

    s0 = math.sqrt(max(poly.area(), 1e-12) / target)
    lo = hi = s0
    for _ in range(_BISECT_ITERATIONS):
        if count(lo) >= target:
            break
        lo *= 0.5
    else:
        # No bound on these rounds is known: on a sliver outline, with W and
        # H near 2^-53, the lattice points ``xmin + s * i`` round onto one
        # another as s falls. A hull of ``rng.random`` points is that thin
        # with negligible probability, so no test reaches this through
        # ``generate``.
        raise GenerationFailure(f"could not bracket {target} lattice points from below")
    # This loop ends within 53 doublings, so it needs no bound on its
    # rounds. ``generate``'s outline is a hull of ``rng.random`` points, so
    # W, H <= 1 - 2^-53. The loop runs once count(lo) >= target, and a numpy
    # mask holds fewer than 2^63 cells, so target < 2^63 and s0 >=
    # sqrt(1e-12 / 2^63) > 3.2e-16 > 2^-52. After at most 53 exact doublings
    # hi >= 2, ``_lattice_shape`` gives 1 x 1, and a count is at most
    # 1 < 4 <= target (at least 3 nodes over 0.8).
    while count(hi) > target:
        hi *= 2.0
    for _ in range(_BISECT_ITERATIONS):
        if certificate is None and lo < hi and (hi - lo) * max(_lattice_shape(box, lo)) <= lo:
            certificate = _certificate(edges, box, lo, hi)
        mid = 0.5 * (lo + hi)  # in [lo, hi], so within the certificate's bracket
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


def _depot(poly: ConvexPolygon) -> Point:
    """The boundary edge midpoint with minimal y (ties: minimal x)."""
    mids = [Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0) for a, b in poly.edges()]
    return min(mids, key=lambda p: (p.y, p.x))


def generate(node_count: int, seed: int) -> FarmInstance:
    """Generate a deterministic instance: lattice fill of a random convex region.

    The polygon is the hull of 12 uniform points in the unit square; the
    pitch is bisected so the lattice holds about ``node_count / 0.8``
    in-polygon points, then random points are deleted until exactly
    ``node_count`` remain. The depot is the outline edge midpoint with the
    least y, ties going to the smaller x. Raises ValueError for fewer than 3
    nodes or a negative seed, and GenerationFailure if the bisection finds no
    pitch whose lattice count is near enough the target.
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

    return FarmInstance(
        name=f"farm-n{node_count}-s{seed}",
        seed=seed,
        polygon=polygon,
        spacing=spacing,
        lattice_origin=Point(*polygon.bounding_box()[:2]),
        depot=_depot(polygon),
        xy=(xs[keep], ys[keep]),
    )


def _refusal(inst: FarmInstance) -> tuple[int, str] | None:
    """Why ``load`` refuses the file ``save`` writes for ``inst``, or None:
    the line it names and the message.

    The seed must be non-negative and the spacing positive and finite. With
    E the largest extent (max - min) in x or y of the polygon, depot and
    nodes, and m their count, ``2 * m * E**2`` must be finite: that bounds
    every squared distance, cross product and sum of them the solvers form.
    ``2 * E / spacing`` must be finite too: that bounds every lane key, a
    difference of two offsets (each at most E) over the spacing. Every node
    must lie inside the polygon. The file's lines are fixed by the format:
    the seed is on line 3, the spacing on line 4, the node count on line
    8 + V after the V polygon vertices, and node i on line 9 + V + i.
    """
    if inst.seed < 0:
        return 3, "seed must be non-negative"
    if not (math.isfinite(inst.spacing) and inst.spacing > 0):
        return 4, "spacing must be positive and finite"
    count_line, n = 8 + len(inst.polygon), inst.xy.shape[1]
    corners = np.array([(p.x, p.y) for p in (*inst.polygon, inst.depot)]).T
    xs, ys = np.concatenate([corners, inst.xy], axis=1)
    extent = max(float(xs.max()) - float(xs.min()), float(ys.max()) - float(ys.min()))
    last_line = count_line + n  # the extent errors name the block's last line
    if not math.isfinite(2 * len(xs) * extent * extent):
        return last_line, f"{len(xs)} points span {_fmt(extent)}, so squared distances overflow"
    if not math.isfinite(2 * extent / inst.spacing):
        spacing = _fmt(inst.spacing)
        return last_line, f"spacing {spacing} is too small for an extent of {_fmt(extent)}"
    inside = _inside(_edges(inst.polygon), *inst.xy)
    if not inside.all():
        i = int(np.argmin(inside))  # the first node outside
        return count_line + 1 + i, f"node {i} lies outside the polygon"
    return None


def save(inst: FarmInstance, path: Path | str) -> None:
    """Write ``inst`` as an instance file; see the module docstring for the
    format. Raises ValueError, before it opens the file, for an instance that
    ``load`` would refuse to read back (``_refusal``)."""
    refusal = _refusal(inst)
    if refusal is not None:
        raise ValueError(refusal[1])
    path = Path(path)
    lines = [
        INSTANCE_HEADER,
        f"name: {_one_line('name', inst.name)}",
        f"seed: {inst.seed}",
        f"spacing: {_fmt(inst.spacing)}",
        f"lattice_origin: {_fmt(inst.lattice_origin.x)} {_fmt(inst.lattice_origin.y)}",
        f"depot: {_fmt(inst.depot.x)} {_fmt(inst.depot.y)}",
        f"polygon: {len(inst.polygon)}",
    ]
    lines += [f"{_fmt(p.x)} {_fmt(p.y)}" for p in inst.polygon]
    lines.append(f"nodes: {inst.xy.shape[1]}")
    # Each distinct coordinate is formatted once, all in one operation, keyed
    # by its bits so that -0.0 and 0.0 keep their own text; the node lines
    # are then gathered as x0 y0, x1 y1, ...
    bits, where = np.unique(inst.xy.T.ravel().view(np.int64), return_inverse=True)
    values = bits.view(float).tolist()
    text = np.array(((_FLOAT + " ") * len(values) % tuple(values)).split(), dtype=object)
    nodes = ("%s %s\n" * inst.xy.shape[1]) % tuple(text[where].tolist())
    path.write_text("\n".join(lines) + "\n" + nodes, encoding="utf-8")


def _point(text: str) -> Point:
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected '<x> <y>', got {text!r}")
    return Point(float(parts[0]), float(parts[1]))


def _point_block(lines: list[str]) -> np.ndarray | None:
    """The ``<x> <y>`` lines as an x row over a y row, or None unless each
    line holds two tokens that ``float`` reads as finite floats. Each
    distinct token is converted once and the block is gathered from that
    table, so a lattice's repeated coordinates cost one lookup each."""
    rows = [line.split() for line in lines]
    if set(map(len, rows)) - {2}:
        return None
    tokens = list(itertools.chain.from_iterable(rows))
    distinct = list(dict.fromkeys(tokens))
    try:
        table = dict(zip(distinct, map(float, distinct)))
    except ValueError:  # a token that is not a float
        return None
    if not all(map(math.isfinite, table.values())):
        return None
    return np.fromiter(map(table.__getitem__, tokens), float, len(tokens)).reshape(-1, 2).T


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

    def points(self, count: int, what: str) -> np.ndarray:
        """The next ``count`` lines, two finite floats each, as an x row over
        a y row. Each line is split, and each distinct token is converted
        with ``float`` once (``_point_block``); if a line does not hold two
        tokens or a token is not a finite float, the lines are parsed one at
        a time, so the first bad one raises as ``f"{what} {i}"``."""
        lines = self.lines[self.pos : self.pos + count]
        block = _point_block(lines) if len(lines) == count else None
        if block is not None:
            self.pos += count
            return block
        pts = [self.parse(_point, self.next(f"{what} {i}"), f"{what} {i}") for i in range(count)]
        return np.array([(p.x, p.y) for p in pts]).reshape(count, 2).T

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

    Raises FormatError (VersionError for another version) naming the line,
    for a malformed file or for one whose instance ``_refusal`` refuses: a
    negative seed, a spacing that is not positive and finite, an extent
    that could overflow, or a node outside the polygon.
    """
    r = _LineReader(Path(path), INSTANCE_HEADER)
    name = r.field("name")
    seed = r.field("seed", int)
    spacing = r.field("spacing", float)
    origin = r.field("lattice_origin", _point)
    depot = r.field("depot", _point)
    verts = r.points(r.count("polygon"), "polygon vertex")
    polygon = r.parse(ConvexPolygon, tuple(map(Point, *verts.tolist())), "polygon")
    nodes = r.points(r.count("nodes"), "node")
    inst = FarmInstance(name, seed, polygon, spacing, origin, depot, nodes)
    refusal = _refusal(inst)
    if refusal is not None:
        r.pos, message = refusal
        raise r.error(message)
    r.end()
    return inst


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
