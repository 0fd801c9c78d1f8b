import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pondroute.instances as instances
from pondroute.evaluation import ALGORITHMS, score, solve_with
from pondroute.geometry import ConvexPolygon, Point, _edges, contains, convex_hull
from pondroute.instances import (
    FarmInstance,
    FormatError,
    GenerationFailure,
    VersionError,
    _depot,
    _lattice_points,
    generate,
    generate_dataset,
    load,
    load_manifest,
    save,
)
from pondroute.rng import make_rng
from pondroute.solution import load_solution, save_solution

from _oracles import lattice_points_oracle, spacing_oracle, xy_rows

# SHA-256 of the ``save(generate(n, seed))`` bytes, taken from the meshgrid
# lattice code that preceded the one-broadcast counts; the n = 20000 entries,
# where certified counts replace the most full ones, from the full counts
# that preceded the bracket certificate.
GOLDEN_INSTANCES = {
    (3, 0): "b54bdf41db23e008f9da46cd0ab1d3d01d941d3cbd5f0bb148646b7391e289e9",
    (3, 1): "f2784436b64369d44e8f1e4f34d8777a65dcbac542abb26df13795e9696e11c8",
    (3, 7919): "85e5eec3cf8ba688555e6eb7cc23aa95f7ecc1a5624694be92eff9f4dfad173e",
    (10, 0): "74d4d5b568502a12b4c87c8625d0fab664bd1130a895b84dac9ddad48cf286f8",
    (10, 1): "2d10555ab5f9ff8d5ae6d9ed61d2cd695380faa09a769fe9f28cbd39d6fc877d",
    (10, 7919): "90ac54dcd9d5f28623cabcd93c209d3fe741b2cd60818a9e2e99b14ae16e67bd",
    (50, 0): "4411b72dab8baee31fe66211836b502d04e777d8a1ce11c57e0b31cef5699527",
    (50, 1): "24e9ebe97ec835f5c21be2ddadd3be5e0ae60d5d6a3d59a5fa526d6022433bff",
    (50, 7919): "49b24f47081446aff6f58b61f9837743d42a91be1c3fd2590828a38ad3506590",
    (150, 0): "4e83b8885661dc6b0d4b943c0982ab7c12ef0dd327fde1a7025d9de27cad0e62",
    (150, 1): "b7ef25c4c50a2d08b55cf36c70e9f9c6f3e0084f7d7e7dab6ef6d04e410965ba",
    (150, 7919): "ee45aa10dd80e5c4d069d3e78ab11cdba9bafb62bb25e175cef0ffe7df7db2c7",
    (500, 0): "73d7334770923f64c5c82b1db936c080c1a0c631add8fab895654daa6fb2e482",
    (500, 1): "075d0808b5241d0b5bfbe5fcc32ded24562673dbd267a92a028807278300ba5c",
    (500, 7919): "8cca533bf71ff173a99c867935b7d8dc2c307c54f446170da18c35e0484d6985",
    (2000, 0): "3668f35fba96c3a38d6465011c0110bfb1c20f23b5f69931f9e73fb71a22b711",
    (2000, 1): "a27ed1ddb2741b3d009f15780b35f316c22f705b82835c244bd99592738acaa1",
    (2000, 7919): "bb0579d7004c956d0d663f19ccb5e5b2722e84cd5892843c26e4c68b66d207e6",
    (20000, 0): "eed5f59b829c173abac96ae2af6a378fc8bb22dcd3aec9c27414e86c8b33a5f1",
    (20000, 7919): "c1e7989a7cb35121b6e2f81092f0a4f8c7b591f1c77307498e30d87d6a1d0a5e",
}


def make_instance(n: int, seed: int) -> FarmInstance:
    return generate(n, seed)


def write_square(path, scale: float, low: float = 0.0):
    """An instance file over the square [low, 1]^2 with two triangles of
    nodes, every coordinate and the spacing multiplied by ``scale``."""
    lo, hi = low * scale, scale
    nodes = [(0.1, 0.1), (0.3, 0.1), (0.2, 0.3), (0.7, 0.7), (0.9, 0.7), (0.8, 0.9)]
    lines = [
        "farm-instance v1", "name: square", "seed: 0", f"spacing: {0.2 * scale!r}",
        "lattice_origin: 0 0", f"depot: {0.5 * scale!r} {lo!r}", "polygon: 4",
        f"{lo!r} {lo!r}", f"{hi!r} {lo!r}", f"{hi!r} {hi!r}", f"{lo!r} {hi!r}",
        f"nodes: {len(nodes)}", *(f"{x * scale!r} {y * scale!r}" for x, y in nodes),
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGenerate:
    def test_exact_node_count_inside_polygon(self):
        inst = make_instance(100, 7)
        assert len(inst.nodes) == 100
        assert all(contains(inst.polygon, p) for p in inst.nodes)

    def test_nodes_on_lattice(self):
        inst = make_instance(100, 7)
        for p in inst.nodes:
            a = (p.x - inst.lattice_origin.x) / inst.spacing
            b = (p.y - inst.lattice_origin.y) / inst.spacing
            assert abs(a - round(a)) < 1e-9 and abs(b - round(b)) < 1e-9

    def test_canonical_node_order(self):
        inst = make_instance(150, 3)
        keys = [(p.y, p.x) for p in inst.nodes]
        assert keys == sorted(keys)

    def test_min_pairwise_distance_is_spacing(self):
        inst = make_instance(80, 5)
        pts = np.array([[p.x, p.y] for p in inst.nodes])
        d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert math.sqrt(d2.min()) >= inst.spacing - 1e-9

    def test_700_pre_deletion_count_bracket(self):
        # ceil(700 / 0.8) = 875; lattice counts are step functions, +-2 slack.
        inst = make_instance(700, 7)
        count = len(_lattice_points(inst.polygon, inst.spacing)[0])
        assert 873 <= count <= 877

    def test_density_property(self):
        for seed in range(5):
            inst = make_instance(200, seed)
            count = len(_lattice_points(inst.polygon, inst.spacing)[0])
            assert abs(count - math.ceil(200 / 0.8)) <= 2

    def test_deterministic_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save(make_instance(60, 12), a)
        save(make_instance(60, 12), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_tiny_node_count(self):
        with pytest.raises(ValueError, match=r"^node_count must be at least 3, got 2$"):
            generate(2, 0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            generate(10, -1)


class TestGoldenInstances:
    @pytest.mark.parametrize(("n", "seed"), sorted(GOLDEN_INSTANCES))
    def test_instance_bytes(self, tmp_path, n, seed):
        path = tmp_path / "inst.txt"
        save(generate(n, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_INSTANCES[n, seed]


def assert_oracle_lattice(poly: ConvexPolygon, spacing: float) -> int:
    """``_lattice_points`` equals the oracle bit for bit and in order; the
    number of points is returned."""
    got, want = _lattice_points(poly, spacing), lattice_points_oracle(poly, spacing)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), spacing
    return len(want[0])


class TestLatticePoints:
    @pytest.mark.parametrize("n", [3, 50, 500, 2000])
    def test_every_visited_spacing_matches_oracle(self, monkeypatch, n):
        # Each count the spacing bisection makes, full or certified, and the
        # final lattice equal the meshgrid oracle's.
        visited = []
        lattice_count, lattice_points = instances._lattice_count, instances._lattice_points

        def recording_count(edges, box, spacing, certificate):
            count = lattice_count(edges, box, spacing, certificate)
            visited.append((spacing, count, "full" if certificate is None else "certified"))
            return count

        def recording_points(poly, spacing):
            xs, ys = lattice_points(poly, spacing)
            visited.append((spacing, len(xs), "final"))
            return xs, ys

        monkeypatch.setattr(instances, "_lattice_count", recording_count)
        monkeypatch.setattr(instances, "_lattice_points", recording_points)
        polygons = []
        for seed in range(1000, 1010):
            start = len(visited)
            poly = generate(n, seed).polygon
            polygons.append((poly, start, len(visited)))
        monkeypatch.undo()
        for poly, start, stop in polygons:
            assert stop - start > 1
            for spacing, count, _ in visited[start:stop]:
                assert assert_oracle_lattice(poly, spacing) == count
        if n == 2000:
            assert {kind for _, _, kind in visited} == {"full", "certified", "final"}

    @pytest.mark.parametrize("j", [-20, 0, 20])
    @pytest.mark.parametrize("spacing", [0.25, 0.1, 1 / 3])
    @pytest.mark.parametrize(
        ("corners", "on_quarter_lattice"),
        [([(0, 0), (1, 0), (1, 1), (0, 1)], 25), ([(0, 0), (1, 0), (0, 1)], 15)],
        ids=["square", "right-triangle"],
    )
    def test_points_on_edges_match_oracle(self, corners, on_quarter_lattice, spacing, j):
        # Lattice points lie exactly on the square's sides and on the
        # triangle's hypotenuse x + y = 1, at every scale.
        scale = 2.0**j
        poly = ConvexPolygon(tuple(Point(x * scale, y * scale) for x, y in corners))
        count = assert_oracle_lattice(poly, spacing * scale)
        if spacing == 0.25:
            assert count == on_quarter_lattice


def square(scale: float) -> ConvexPolygon:
    return ConvexPolygon((Point(0, 0), Point(scale, 0), Point(scale, scale), Point(0, scale)))


@st.composite
def outlines(draw) -> tuple[ConvexPolygon, int]:
    """An outline and a target lattice count. The outline is a generator
    outline (the hull of 12 ``make_rng`` samples), the same samples squeezed
    into a band 1e-3 wide, or an axis-parallel square or right triangle at
    scale 2^j, whose edges have a zero dx or dy. The target is at most 25000,
    less where the bounding box is much larger than the outline, so that no
    count is large."""
    kind = draw(st.sampled_from(["generator", "thin", "square", "right-triangle"]))
    if kind == "square":
        poly = square(2.0 ** draw(st.integers(-20, 20)))
    elif kind == "right-triangle":
        scale = 2.0 ** draw(st.integers(-20, 20))
        poly = ConvexPolygon((Point(0, 0), Point(scale, 0), Point(0, scale)))
    else:
        xs, ys = make_rng(draw(st.integers(0, 2**32))).random((12, 2)).T.tolist()
        if kind == "thin":
            base, slope = draw(st.floats(0.0, 0.85)), draw(st.floats(-0.1, 0.1))
            ys = [base + 0.1 + slope * (x - 0.5) + 1e-3 * y for x, y in zip(xs, ys)]
            if draw(st.booleans()):
                xs, ys = ys, xs
        poly = convex_hull(list(map(Point, xs, ys)))
    xmin, ymin, xmax, ymax = poly.bounding_box()
    fill = poly.area() / ((xmax - xmin) * (ymax - ymin))
    return poly, draw(st.integers(4, max(4, min(25000, int(25000 * fill)))))


class TestSpacingBisection:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=outlines(), slack=st.integers(0, 3))
    def test_visits_and_picks_as_full_counts(self, case, slack):
        # Certified counts give the bisection the full counts, so it visits
        # the same spacings in the same order and picks the same one.
        poly, target = case
        want, want_counts = spacing_oracle(poly, target, target - slack)
        visited = []
        lattice_count = instances._lattice_count

        def recording(edges, box, spacing, certificate):
            count = lattice_count(edges, box, spacing, certificate)
            visited.append((spacing, count))
            return count

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instances, "_lattice_count", recording)
            if want is None:
                with pytest.raises(GenerationFailure, match="bisection missed"):
                    instances._choose_spacing(poly, target, target - slack)
            else:
                assert instances._choose_spacing(poly, target, target - slack) == want
        assert visited == list(want_counts.items())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        case=outlines(),
        width=st.one_of(st.floats(0.0, 0.5), st.floats(1e-13, 1e-8)),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    # lo is 0.1 and 10 * lo rounds to 1.0: column 10 lies on the square's
    # right side at lo, and less than EPS beyond it at hi, where it does not
    # exist.
    @example(case=(square(1.0), 100), width=1e-10, fractions=[])
    def test_certified_count_is_full_count(self, case, width, fractions):
        # For any bracket, wide or narrow, every spacing in it counts the
        # same through the bracket's certificate as on the full lattice.
        poly, target = case
        lo = math.sqrt(poly.area() / target)
        hi = lo * (1.0 + width)
        edges, box = _edges(poly), poly.bounding_box()
        certificate = instances._certificate(edges, box, lo, hi)
        for f in [0.0, 1.0, *fractions]:
            s = min(hi, max(lo, lo + f * (hi - lo)))
            full = instances._lattice_count(edges, box, s, None)
            assert instances._lattice_count(edges, box, s, certificate) == full


class TestPlaceDepot:
    def test_unit_square(self):
        poly = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        assert _depot(poly) == Point(0.5, 0.0)

    def test_triangle_base_midpoint(self):
        poly = ConvexPolygon((Point(0, 0), Point(4, 0), Point(1, 3)))
        assert _depot(poly) == Point(2.0, 0.0)

    def test_rotated_square_tie_breaks_on_x(self):
        # Edge midpoints: (0.5,0.5), (1.5,0.5), (1.5,1.5), (0.5,1.5);
        # both bottom edges tie at y=0.5 and the smaller x wins.
        poly = ConvexPolygon((Point(1, 0), Point(2, 1), Point(1, 2), Point(0, 1)))
        assert _depot(poly) == Point(0.5, 0.5)

    def test_generated_depot_on_boundary(self):
        for seed in range(5):
            inst = make_instance(50, seed)
            edges = inst.polygon.edges()
            on_edge = any(
                abs(
                    (b.x - a.x) * (inst.depot.y - a.y)
                    - (b.y - a.y) * (inst.depot.x - a.x)
                )
                < 1e-9
                and min(a.x, b.x) - 1e-9 <= inst.depot.x <= max(a.x, b.x) + 1e-9
                for a, b in edges
            )
            assert on_edge


class TestSaveLoad:
    def test_round_trip_50_random_instances(self, tmp_path):
        for seed in range(50):
            inst = make_instance(20 + seed % 7, 100 + seed)
            path = tmp_path / f"i{seed}.txt"
            save(inst, path)
            assert load(path) == inst

    def test_truncated_file(self, tmp_path):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(FormatError):
            load(path)

    def test_node_outside_polygon_names_index(self, tmp_path):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        lines = path.read_text().splitlines()
        lines[-1] = "99 99"  # last node, far outside
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="node 19"):
            load(path)

    @staticmethod
    def _save_square(tmp_path, nodes: list[Point]):
        # A 2 x 2 square: its edges are 2 long, so the tolerance EPS * 2 shows
        # whether the cross product is normalized by the edge length.
        poly = ConvexPolygon((Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)))
        inst = FarmInstance(
            name="sq", seed=0, polygon=poly, spacing=1.0,
            lattice_origin=Point(0, 0), depot=Point(1, 0), xy=xy_rows(nodes),
        )
        path = tmp_path / "sq.txt"
        save(inst, path)
        return poly, path

    def test_first_of_two_outside_nodes_named_with_its_line(self, tmp_path):
        nodes = [Point(1, 1), Point(5, 5), Point(1.5, 1.5), Point(6, 6)]
        poly, path = self._save_square(tmp_path, nodes)
        line = path.read_text().splitlines().index("5 5") + 1
        assert [contains(poly, p) for p in nodes] == [True, False, True, False]
        with pytest.raises(FormatError, match=rf"sq.txt: line {line}: node 1 lies outside"):
            load(path)

    @pytest.mark.parametrize(("offset", "inside"), [(0.9e-9, True), (1.1e-9, False)])
    def test_boundary_tolerance_scales_with_edge_length(self, tmp_path, offset, inside):
        node = Point(2 + offset, 1.0)  # right of the edge (2, 0)-(2, 2)
        poly, path = self._save_square(tmp_path, [Point(1, 1), node])
        assert contains(poly, node) is inside
        if inside:
            assert load(path).nodes[1] == node
        else:
            with pytest.raises(FormatError, match="node 1 lies outside"):
                load(path)

    def test_unknown_version(self, tmp_path):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        lines = path.read_text().splitlines()
        lines[0] = "farm-instance v2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionError):
            load(path)

    def test_not_an_instance_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(FormatError):
            load(path)

    @pytest.mark.parametrize("value", ["0.1 x", "nan 0.5"])
    def test_malformed_lattice_origin(self, tmp_path, value):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        lines = path.read_text().splitlines()
        assert lines[4].startswith("lattice_origin: ")
        lines[4] = f"lattice_origin: {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 5: lattice_origin"):
            load(path)

    def test_negative_seed_names_line(self, tmp_path):
        path = tmp_path / "i.txt"
        save(make_instance(20, 1), path)
        lines = path.read_text().splitlines()
        assert lines[2].startswith("seed: ")
        lines[2] = "seed: -1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"i.txt: line 3: seed must be non-negative"):
            load(path)

    def test_misnamed_field_names_line(self, tmp_path):
        path = tmp_path / "i.txt"
        save(make_instance(20, 1), path)
        lines = path.read_text().splitlines()
        lines[2] = "sead: 1"
        path.write_text("\n".join(lines) + "\n")
        message = r"i.txt: line 3: expected field 'seed', got 'sead: 1'$"
        with pytest.raises(FormatError, match=message):
            load(path)

    def test_negative_node_count(self, tmp_path):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        lines = path.read_text().splitlines()
        cut = lines.index("nodes: 20")
        path.write_text("\n".join(lines[:cut] + ["nodes: -1"]) + "\n")
        with pytest.raises(FormatError, match=f"line {cut + 1}: nodes count"):
            load(path)

    @pytest.mark.parametrize("kind", ["instance", "manifest", "solution"])
    def test_non_utf8_file_names_path_and_byte(self, tmp_path, kind):
        inst = make_instance(20, 1)
        if kind == "instance":
            path, reader = tmp_path / "i.txt", load
            save(inst, path)
        elif kind == "manifest":
            path, reader = generate_dataset([10], 1, base_seed=1, out_dir=tmp_path), load_manifest
        else:
            path, reader = tmp_path / "s.txt", load_solution
            save_solution(solve_with("hpp", inst, 2, 0), path)
        data = path.read_bytes()
        at = data.index(b"\n") + 1
        path.write_bytes(data[:at] + b"name: caf\xe9\n" + data[at:])  # Latin-1, not UTF-8
        with pytest.raises(FormatError, match=rf"{path.name}: byte {at + 9}: not UTF-8"):
            reader(path)

    def test_depot_override_survives(self, tmp_path):
        inst = make_instance(20, 1)
        path = tmp_path / "i.txt"
        save(inst, path)
        lines = path.read_text().splitlines()
        assert lines[5].startswith("depot: ")
        lines[5] = "depot: 0.25 0.25"
        path.write_text("\n".join(lines) + "\n")
        assert load(path).depot == Point(0.25, 0.25)


class TestBlockParse:
    """A vertex or node block is parsed at once, and an error in it is
    reported as the line-by-line reader reports it: the same text and line.
    ``write_square``'s file has its polygon on lines 7-11 and its six nodes
    on lines 12-18; node 2 is line 15."""

    @pytest.mark.parametrize(
        ("line", "error"),
        [
            ("0.2 0.3 0.4", "line 15: node 2: expected '<x> <y>', got '0.2 0.3 0.4'"),
            ("nan 0.3", "line 15: node 2: non-finite coordinate (nan, 0.3)"),
            ("0.2 inf", "line 15: node 2: non-finite coordinate (0.2, inf)"),
            ("1e400 0.3", "line 15: node 2: non-finite coordinate (inf, 0.3)"),
            ("1_0 0.3", "line 15: node 2 lies outside the polygon"),  # float("1_0") == 10
            ("\u0669 0.3", "line 15: node 2 lies outside the polygon"),  # Arabic-Indic 9
            ("\uff10.2 0.3", None),  # a full-width 0: the node loads as (0.2, 0.3)
            ("", "line 15: node 2: expected '<x> <y>', got ''"),
            (None, "line 16: unexpected end of file, expected node 3"),  # the file ends
        ],
        ids=[
            "three-tokens", "nan", "inf", "overflow", "underscore", "unicode-digits",
            "unicode-loads", "empty", "cut-short",
        ],
    )
    def test_corrupt_node_line(self, tmp_path, line, error):
        path = write_square(tmp_path / "sq.txt", 1.0)
        lines = path.read_text().splitlines()
        assert lines[14] == "0.2 0.3"
        lines = lines[:15] if line is None else lines[:14] + [line] + lines[15:]
        path.write_text("\n".join(lines) + "\n")
        if error is None:
            assert load(path).nodes[2] == Point(0.2, 0.3)
        else:
            with pytest.raises(FormatError, match=re.escape(f"sq.txt: {error}")):
                load(path)

    @pytest.mark.parametrize(
        ("block", "error"),
        [
            (["nodes: 2", "0.39", "0.41"], "line 13: node 0: expected '<x> <y>', got '0.39'"),
            (
                ["polygon: 4", "0", "0", "1", "0"],
                "line 8: polygon vertex 0: expected '<x> <y>', got '0'",
            ),
        ],
        ids=["nodes", "polygon"],
    )
    def test_one_token_per_line_is_not_paired_across_lines(self, tmp_path, block, error):
        # An even number of single tokens reshapes to pairs; the block must
        # still be read as one point per line.
        path = write_square(tmp_path / "sq.txt", 1.0)
        lines = path.read_text().splitlines()
        lines = lines[:11] + block if block[0] == "nodes: 2" else lines[:6] + block + lines[11:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"sq.txt: {error}")):
            load(path)

    def test_huge_count_over_a_short_block_fails_at_its_end(self, tmp_path):
        # The count comes from the file: a reader that sized anything by it
        # before reading the lines would run out of memory here.
        path = write_square(tmp_path / "sq.txt", 1.0)
        path.write_text(path.read_text().replace("nodes: 6", f"nodes: {10**12}"))
        with pytest.raises(
            FormatError, match=re.escape("sq.txt: line 19: unexpected end of file, expected node 6")
        ):
            load(path)


class TestCoordinateExtent:
    """``load`` accepts an instance only if 2 m E^2 is finite, for the largest
    x or y extent E of its m polygon, depot and node points."""

    def test_large_square_loads_and_every_solver_scores(self, tmp_path):
        inst = load(write_square(tmp_path / "sq.txt", 1e150))
        for algorithm in ALGORITHMS:
            sol = solve_with(algorithm, inst, k=2, seed=0)
            assert math.isfinite(score(inst, sol).total_distance)

    @pytest.mark.parametrize(("scale", "low"), [(1e155, 0.0), (9e307, -1.0)])
    def test_overflowing_extent_is_format_error(self, tmp_path, scale, low):
        path = write_square(tmp_path / "sq.txt", scale, low)
        with pytest.raises(FormatError, match=r"sq.txt: line 18: 11 points span .* overflow"):
            load(path)


class TestSpacing:
    """``load`` accepts a spacing only if 2 E / spacing is finite, for the
    same extent E, so that every ``hpp`` lane key is finite."""

    @staticmethod
    def write_with_spacing(path, spacing: str):
        save(make_instance(200, 1), path)
        lines = path.read_text().splitlines()
        lines[3] = f"spacing: {spacing}"
        path.write_text("\n".join(lines) + "\n")
        return path, len(lines)

    def test_tiny_spacing_loads_and_routes(self, tmp_path):
        path, _ = self.write_with_spacing(tmp_path / "farm.txt", "1e-300")
        inst = load(path)
        score(inst, solve_with("hpp", inst, k=5, seed=0))

    @pytest.mark.parametrize("spacing", ["0", "-0.5", "nan", "inf"])
    def test_non_positive_or_non_finite_spacing_names_line(self, tmp_path, spacing):
        path, _ = self.write_with_spacing(tmp_path / "farm.txt", spacing)
        with pytest.raises(FormatError, match=r"farm.txt: line 4: spacing must be positive and finite"):
            load(path)

    def test_subnormal_spacing_is_format_error(self, tmp_path):
        path, last = self.write_with_spacing(tmp_path / "farm.txt", "1e-315")
        with pytest.raises(FormatError, match=rf"farm.txt: line {last}: spacing .* is too small"):
            load(path)


class TestGenerateDataset:
    def test_writes_instances_and_manifest(self, tmp_path):
        manifest = generate_dataset([10], 1, base_seed=1, out_dir=tmp_path)
        entries = load_manifest(manifest)
        assert len(entries) == 1
        inst = load(entries[0].path)
        assert len(inst.nodes) == 10 and entries[0].size == 10

    def test_multiple_sizes_and_counts(self, tmp_path):
        manifest = generate_dataset([12, 20], 3, base_seed=5, out_dir=tmp_path)
        entries = load_manifest(manifest)
        assert len(entries) == 6
        assert sorted({e.size for e in entries}) == [12, 20]
        assert [e.seed for e in entries if e.size == 12] == [5, 6, 7]
        assert len(list(tmp_path.glob("*.txt"))) == 7  # 6 instances + manifest

    @pytest.mark.parametrize(
        "sizes, base_seed",
        [([50], -1), ([10, 2], 0), ([10, 10], 0)],
        ids=["negative-seed", "tiny-size", "repeated-size"],
    )
    def test_bad_input_leaves_no_directory(self, tmp_path, sizes, base_seed):
        out = tmp_path / "data"
        with pytest.raises(ValueError):
            generate_dataset(sizes, 1, base_seed, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes, count, message",
        [([], 1, "sizes must be non-empty"), ([10], 0, "count_per_size must be at least 1")],
        ids=["no-sizes", "zero-count"],
    )
    def test_empty_dataset_rejected(self, tmp_path, sizes, count, message):
        out = tmp_path / "data"
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_dataset(sizes, count, 0, out)
        assert not out.exists()

    def test_manifest_order_stable(self, tmp_path):
        m1 = generate_dataset([10, 15], 2, 0, tmp_path / "a")
        m2 = generate_dataset([10, 15], 2, 0, tmp_path / "b")
        assert m1.read_text() == m2.read_text()

    def test_generation_failure_names_size_and_seed(self, tmp_path, monkeypatch):
        cause = GenerationFailure("x")

        def fail(node_count, seed):
            raise cause

        monkeypatch.setattr(instances, "generate", fail)
        with pytest.raises(GenerationFailure, match=r"^size=10 seed=3: x$") as err:
            generate_dataset([10], 1, base_seed=3, out_dir=tmp_path)
        assert err.value.__cause__ is cause

    def test_malformed_manifest_names_line(self, tmp_path):
        manifest = generate_dataset([10], 2, base_seed=1, out_dir=tmp_path)
        manifest.write_text(manifest.read_text() + "\nbroken.txt ten 3\n")
        with pytest.raises(FormatError, match=r"manifest.txt: line 5: "):
            load_manifest(manifest)

    @pytest.mark.parametrize("record", ["foo.txt -5 3", "foo.txt 5 -3"], ids=["size", "seed"])
    def test_negative_manifest_entry_names_line(self, tmp_path, record):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"farm-manifest v1\n{record}\n")
        with pytest.raises(FormatError, match=r"manifest.txt: line 2: .*non-negative"):
            load_manifest(manifest)

    @pytest.mark.parametrize("record", ["foo.txt 5", "foo.txt 5 3 x"], ids=["two", "four"])
    def test_manifest_record_needs_three_fields(self, tmp_path, record):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"farm-manifest v1\n{record}\n")
        message = r"manifest.txt: line 2: expected '<file> <size> <seed>'$"
        with pytest.raises(FormatError, match=message):
            load_manifest(manifest)

    def test_manifest_without_entries(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("farm-manifest v1\n\n")
        with pytest.raises(FormatError, match=r"manifest.txt: line 2: .*no instances"):
            load_manifest(manifest)
