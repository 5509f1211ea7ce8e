from fractions import Fraction

import pytest

from cocirc.constructions import hexagon_instance, sample_honeycomb
from cocirc.duality import grid_to_honeycomb, honeycomb_to_grid
from cocirc.errors import NotConcave
from cocirc.grid import (
    cocirculation_from_quadratic,
    is_concave,
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
