import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import convex_hexagons, frac_lines, mixed_concave
from cocirc import serialize
from cocirc.constructions import (
    counterexample_instance,
    fractional_vertex_instance,
    hexagon_instance,
    sample_honeycomb,
)
from cocirc.duality import HEX_ORDER, _honeycomb_of_tiles, _local_grid, grid_to_honeycomb, honeycomb_to_grid
from cocirc.errors import NotACocirculation, NotConcave
from cocirc.extremality import vertex_degrees_of_freedom
from cocirc.grid import (
    ConvexGrid,
    cocirculation_from_quadratic,
    faces_of,
    fill_convex_polygon,
    is_concave,
    random_concave,
    scaled_values,
    three_side_grid,
    tiling_of,
    triangle_edges,
    validate_grid,
)
from cocirc.honeycomb import boundary_partition, canonicalize, claw
from cocirc.spans import HLine, dval, t_of

F = Fraction


def test_claw_gives_single_triangle():
    g, h = honeycomb_to_grid(claw((F(0), F(0))))
    assert sorted(g.triangles) == [(True, 0, 0)]
    assert set(h.values()) == {F(0)}


def test_anticlaw_gives_single_down_triangle():
    g, h = honeycomb_to_grid(claw((F(0), F(0)), sign="-"))
    assert len(g.triangles) == 1 and not next(iter(g.triangles))[0]


def test_sample_honeycomb_gives_three_part_hexagon():
    hc = sample_honeycomb()
    g, h = honeycomb_to_grid(hc)
    validate_grid(g)
    # local grids of sizes 2, 6 and 14 glue into this hexagon
    assert len(g.triangles) == 22
    assert [(s.cls, s.sign, len(s)) for s in g.sides] == [
        (1, "+", 3),
        (3, "-", 1),
        (2, "+", 3),
        (1, "-", 1),
        (3, "+", 3),
        (2, "-", 1),
    ]
    assert grid_to_honeycomb(g, h) == hc


def test_affine_gives_single_vertex():
    g = three_side_grid(3)
    h = cocirculation_from_quadratic(g, F(0), F(0), F(1, 2), F(2, 7))
    hc = grid_to_honeycomb(g, h)
    assert len(hc.vertices) == 1
    assert sorted((e.cls, e.ray_sign, e.weight) for e in hc.edges) == [
        (1, "+", 3),
        (2, "+", 3),
        (3, "+", 3),
    ]


def test_dualize_rejects_nonconcave():
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(30), F(1))
    with pytest.raises(NotConcave):
        grid_to_honeycomb(g, h)


def test_hexagon_instance_k2_has_half_integer_edge():
    hc = grid_to_honeycomb(*hexagon_instance(2))
    assert any(line.c.denominator == 2 for line, _ in frac_lines(hc))


def test_round_trips_and_conservation(small_corpus):
    for g, h in small_corpus:
        hc = grid_to_honeycomb(g, h)
        g2, h2 = honeycomb_to_grid(hc)
        da, db = g.anchor_offset()
        assert g.translate(da, db) == g2
        assert h2 == {(a + da, b + db, d): v for (a, b, d), v in h.items()}
        assert grid_to_honeycomb(g2, h2) == hc
        assert is_concave(g2, h2)
        # boundary flows match side lengths
        part, _ = boundary_partition(hc)
        for side in g.sides:
            total = sum(e.weight for e in part[(side.cls, side.sign)])
            assert total == len(side)


def test_translation_invariance(small_corpus):
    g, h = small_corpus[0]
    moved = g.translate(5, -3)
    hm = {(a + 5, b - 3, d): v for (a, b, d), v in h.items()}
    assert grid_to_honeycomb(moved, hm) == grid_to_honeycomb(g, h)


def _grid_side_corpus():
    """The fractional-vertex instances k=1..4 with their pins, the hexagon
    instances k=1..5, the counterexample and ``random_concave(g, n, 7)``
    on ``three_side_grid(n)`` for n=3..6; these pin their integer edges."""
    out = [(f"fractional{k}", *fractional_vertex_instance(k)) for k in range(1, 5)]
    out += [(f"hexagon{k}", *hexagon_instance(k), None) for k in range(1, 6)]
    out.append(("counterexample", *counterexample_instance(), None))
    for n in range(3, 7):
        g = three_side_grid(n)
        out.append((f"n{n}", g, random_concave(g, n, 7), None))
    return out


def test_grid_side_outputs_are_pinned():
    # A change that only makes duality or the vertex test faster must leave
    # the dual honeycomb, the grid and values glued back from it, and the
    # degrees of freedom under three pin sets as they are.
    digest = hashlib.sha256()
    for name, g, h, fixed in _grid_side_corpus():
        if fixed is None:
            fixed = [e for e in sorted(g.edges) if h[e].denominator == 1]
        hc = grid_to_honeycomb(g, h)
        g2, h2 = honeycomb_to_grid(hc)
        dof = [vertex_degrees_of_freedom(g, h, pins) for pins in (fixed, g.boundary_edges, ())]
        doc = {
            "name": name,
            "honeycomb": serialize.honeycomb_to_json(hc),
            "grid": serialize.grid_to_json(g2),
            "cocirculation": serialize.cocirc_to_json(h2),
            "dof": dof,
        }
        digest.update(serialize.dumps(doc).encode())
    assert digest.hexdigest() == "f02ac086b75564046981ab35c1c65a14e739bfe75c5094748f96f696133d9ce9"


def canonical_dual(g, h):
    """The dual honeycomb as the general ``canonicalize`` gives it, from one
    weight-1 line per unit side: a segment between the points of the two
    tiles at each side inside the grid, a ray from the tile at each side
    on the boundary."""
    tiles = tiling_of(g, h)
    scale, s = scaled_values(h)
    tile_of = {t: i for i, ts in enumerate(tiles) for t in ts}
    pts = []
    for ts in tiles:
        vals = {}
        for t in ts:
            for cls, e in enumerate(triangle_edges(t), 1):
                assert vals.setdefault(cls, s[e]) == s[e], "tile is not flat"
        pts.append((vals[1], vals[2]))
    lines = []
    for e in sorted(g.edges):
        cls = e[2]
        i, j = (tile_of.get(t) for t in faces_of(e))
        if i is None or j is None:
            p = pts[j if i is None else i]
            t = t_of(cls, p)
            side = next(sd for sd in g.sides if e in sd.edges)
            span = (t, None) if side.sign == "+" else (None, t)
            lines.append((HLine(cls, dval(p, cls), *span), 1))
        elif i != j:
            lo, hi = sorted((t_of(cls, pts[i]), t_of(cls, pts[j])))
            lines.append((HLine(cls, dval(pts[i], cls), lo, hi), 1))
    return canonicalize(lines, scale)


def assert_same_build(g, h):
    """``grid_to_honeycomb`` equals ``canonical_dual`` in every field and
    in the order of its supports, vertices, slots and lines."""
    hc, want = grid_to_honeycomb(g, h), canonical_dual(g, h)
    assert hc == want
    assert list(hc.supports) == list(want.supports)
    assert list(hc.incidence) == list(want.incidence)
    for v, slots in want.incidence.items():
        assert list(hc.incidence[v].items()) == list(slots.items())
    assert list(hc.on_line.items()) == list(want.on_line.items())


@given(convex_hexagons(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_build_matches_canonicalize_on_hexagons(tris, seed):
    g = ConvexGrid(tris)
    assert_same_build(g, mixed_concave(g, seed))


@given(st.integers(1, 6), st.integers(0, 10_000), st.sampled_from([1, 2, 6, 7, 12]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_build_matches_canonicalize_on_three_side_grids(n, seed, denom, mixed):
    g = three_side_grid(n)
    assert_same_build(g, mixed_concave(g, seed) if mixed else random_concave(g, seed, denom))


def test_build_matches_canonicalize_on_paper_instances():
    for name, g, h, _ in _grid_side_corpus():
        assert_same_build(g, h)


def test_circuit_sum_message_names_input_values():
    # The build scales once; a bad circuit sum is still reported in the
    # input's own values, not in units of the scale.
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(1, 3), F(1, 3))
    h[(0, 0, 1)] += F(1, 3)
    with pytest.raises(NotACocirculation, match=r"^circuit sum 1/3 on face"):
        grid_to_honeycomb(g, h)


CLAW_RAYS = {(0, 1, "+"): 1, (0, 2, "+"): 1, (0, 3, "+"): 1}


def test_build_of_one_tile_is_the_claw():
    assert _honeycomb_of_tiles([(0, 0)], {}, CLAW_RAYS, 1) == claw((F(0), F(0)))
    assert _honeycomb_of_tiles([(2, 4)], {}, CLAW_RAYS, 4) == claw((F(1, 2), F(1)))


# One hand-built case per guard of the build.  Each input is no tiling's
# dual, and the build must refuse it, also under -O.  Two tiles at one
# point need no guard: tiling_of groups the faces by their point.
@pytest.mark.parametrize(
    "pts, shared, rays, message",
    [
        # tile 1 on the edge from tile 0 to tile 2 along d1 = 0
        ([(0, 0), (0, 1), (0, 2)], {(0, 2, 1): 1}, {}, r"^a tile point lies inside an edge on d1 = 0$"),
        # slot (1, +) of tile 0 holds both the edge to tile 1 and a ray
        ([(0, 0), (0, 1)], {(0, 1, 1): 1}, CLAW_RAYS, r"^a tile point lies inside an edge on d1 = 0$"),
        # edges over [0, 2] and [1, 3] overlap on d1 = 0
        ([(0, 0), (0, 1), (0, 2), (0, 3)], {(0, 2, 1): 1, (1, 3, 1): 1}, {},
         r"^a tile point lies inside an edge on d1 = 0$"),
        # a class-1 and a class-2 edge cross at the origin, no tile point
        ([(0, -1), (0, 1), (1, 0), (-1, 0)], {(0, 1, 1): 1, (2, 3, 2): 1}, {},
         r"^edges cross at \(0, 0\), away from every tile point$"),
        # two rays only
        ([(0, 0)], {}, {(0, 1, "+"): 1, (0, 2, "+"): 1}, r"^tile point \(0, 0\) has 2 edges$"),
        # weights 1, 1, 2: unequal tension
        ([(0, 0)], {}, {**CLAW_RAYS, (0, 3, "+"): 2}, r"^unequal tension \[1, 1, 2\] at \(0, 0\)$"),
    ],
    ids=[
        "point-inside-edge", "slot-filled-twice", "overlap", "crossing", "two-slots", "tension",
    ],
)
def test_build_guards_raise(pts, shared, rays, message):
    with pytest.raises(AssertionError, match=message):
        _honeycomb_of_tiles(pts, shared, rays, 1)


def test_local_grid_fills_its_hexagon():
    # Every sextuple of runs up to 3 that closes up: the rows read off the
    # runs give the faces of the general polygon fill of the corners.
    closing = 0
    for ws in itertools.product(range(4), repeat=6):
        corner, corners = (0, 0), []
        for (_, (da, db)), n in zip(HEX_ORDER, ws):
            corners.append(corner)
            corner = (corner[0] + n * da, corner[1] + n * db)
        if corner != (0, 0):
            continue
        closing += 1
        triangles, spans = _local_grid(ws)
        assert triangles == fill_convex_polygon(corners), ws
        assert [spans[slot][0] for slot, _ in HEX_ORDER] == corners
    assert closing == 136
