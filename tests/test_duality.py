import hashlib
from fractions import Fraction

import pytest

from cocirc import serialize
from cocirc.constructions import (
    counterexample_instance,
    fractional_vertex_instance,
    hexagon_instance,
    sample_honeycomb,
)
from cocirc.duality import grid_to_honeycomb, honeycomb_to_grid
from cocirc.errors import NotConcave
from cocirc.extremality import vertex_degrees_of_freedom
from cocirc.grid import (
    cocirculation_from_quadratic,
    is_concave,
    random_concave,
    three_side_grid,
    validate_grid,
)
from cocirc.honeycomb import boundary_partition, claw

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
    assert any(line.c.denominator == 2 for line, _ in hc.as_system())


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
