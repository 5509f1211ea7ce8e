import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import canonicalize_rational, claw_parts, frac_lines
from cocirc.constructions import (
    claw_sum,
    counterexample_instance,
    dual_grid_honeycomb,
    fix_boundary,
    fractional_vertex_instance,
    hexagon_boundary_values,
    hexagon_instance,
    hexagon_tiling,
    sample_honeycomb,
)
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import NonIntegerTruncationPoint
from cocirc.extremality import is_vertex
from cocirc.grid import integer_edge_sets, is_concave, tiling_of, validate_grid
from cocirc.honeycomb import (
    boundary_partition,
    claw,
    divergency,
    dval,
    is_prehoneycomb,
)
from cocirc.serialize import cocirc_to_json, dumps

F = Fraction


def brute_dual_grid(n):
    """Independent enumeration oracle for the truncated dual grid."""
    verts = set()
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            c = -a - b
            if max(abs(a), abs(b), abs(c)) <= n - 1 and max(a - b, b - c, c - a) <= n:
                verts.add((a, b, c))
    finite = set()
    for v in verts:
        for u in verts:
            if sum(abs(x - y) for x, y in zip(u, v)) == 2 and u < v:
                finite.add((u, v))
    rays = []
    for v in sorted(verts):
        for i in (1, 2, 3):
            d = v[i - 1] - v[i % 3]
            if d in (n, n - 1):
                w = 2 if (d == n or v[i - 1] == 0 or v[i % 3] == 0) else 1
                rays.append((v, i, w))
    return verts, finite, rays


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dual_grid_matches_enumeration_oracle(n):
    hc = dual_grid_honeycomb(n)
    verts, finite, rays = brute_dual_grid(n)
    assert len(hc.vertices) == len(verts)
    got_finite = [e for e in hc.edges if e.is_finite]
    got_rays = [e for e in hc.edges if e.is_ray]
    assert len(got_finite) == len(finite)
    assert len(got_rays) == len(rays)
    assert sorted(e.weight for e in got_rays) == sorted(w for *_, w in rays)
    assert all(e.weight == 1 for e in got_finite)


def test_dual_grid_n1_is_heavy_claw():
    hc = dual_grid_honeycomb(1)
    assert len(hc.vertices) == 1
    assert sorted((e.cls, e.ray_sign, e.weight) for e in hc.edges) == [
        (1, "+", 2),
        (2, "+", 2),
        (3, "+", 2),
    ]


def test_dual_grid_n3_heavy_ray_pattern():
    # weight-2 rays sit exactly on the outer layer or where a defining
    # coordinate is zero; two sample vertices pin the picture
    hc = dual_grid_honeycomb(3)
    at = {}
    for e in hc.edges:
        if e.is_ray:
            at.setdefault(e.ends()[0], []).append(e.weight)
    corner = (F(2), F(0))  # coordinates (2, 0, -2)
    ridge = (F(2), F(-1))  # coordinates (2, -1, -1)
    assert sorted(at[corner]) == [2, 2]
    assert at[ridge] == [2]
    inner = (F(0), F(1))  # (0, 1, -1): single light ray
    assert at[inner] == [1]


def test_dual_grid_boundary_density():
    for n in (2, 3, 4):
        hc = dual_grid_honeycomb(n)
        part, _ = boundary_partition(hc)
        for cls in (1, 2, 3):
            coords = {e.c for e in part[(cls, "+")]}
            assert not part[(cls, "-")]
            assert set(range(-n + 1, n)) <= {int(c) for c in coords if c.denominator == 1}


def test_hexagon_tiling_census():
    for k in (1, 2, 3, 4):
        tiles = hexagon_tiling(k)
        assert len(tiles) == 6 * k - 1
        sizes = sorted(len(t) for t in tiles)
        # 4k-2 sawtooth triangles, two one-triangle strips, one rhombus,
        # and odd-sized trapezoid strips in matching upper/lower pairs
        assert sizes.count(1) == 4 * k
        assert sizes.count(2) == 1
        assert sizes[-1] == max(2 * k - 1, 2)
        expected_strips = sorted([2 * (k - i) - 1 for i in range(k)] * 2)
        assert sorted(len(t) for t in tiles if len(t) > 2) == [s for s in expected_strips if s > 2]


def test_hexagon_instance_against_stripe_formulas():
    # the derived closed forms for every edge class serve as the oracle
    # for the linear-solver construction
    for k in (2, 3, 4):
        g, h = hexagon_instance(k)
        for i in range(1, k + 1):
            assert h[(0, -i, 1)] == F(k - i, k)  # west horizontals, lower
            assert h[(i, i, 1)] == F(k - i, k)  # west horizontals, upper
        assert h[(0, 0, 1)] == 2  # rhombus diagonal
        for j in range(1, k):
            assert h[(1, -j, 3)] == F(j, k) - j - 1
            assert h[(j + 1, j, 2)] == F(j, k) - j - 1
        for a in range(1, k + 1):
            assert h[(a, 0, 1)] == F(-1, k)  # middle row of the rhombus


def test_hexagon_k3_pinned_values():
    g, h = hexagon_instance(3)
    assert h[(1, -1, 2)] == F(1, 3)
    assert h[(1, -2, 2)] == F(4, 3)
    assert h[(1, -3, 2)] == F(7, 3)
    assert h[(0, -1, 1)] == F(2, 3)
    assert h[(0, -2, 1)] == F(1, 3)
    assert h[(2, 1, 3)] == F(1, 3)
    tiles = tiling_of(g, h)
    sizes = sorted(len(t) for t in tiles)
    assert sizes == [1] * 12 + [2, 3, 3, 5, 5]


def test_hexagon_boundary_matches_pins():
    for k in (1, 2, 3):
        g, h = hexagon_instance(k)
        for e, v in hexagon_boundary_values(k).items():
            assert e in g.boundary_edges and h[e] == v


@given(claw_parts())
@settings(max_examples=60, deadline=None)
def test_claw_sum_is_the_two_step_sum(parts):
    # One canonicalize of all rays at the lcm of the centres' denominators
    # gives what canonicalizing each claw, then their sum in Fractions, did.
    two_step = canonicalize_rational([line for part in parts for line in frac_lines(claw(*part))])
    one_step = claw_sum(parts)
    assert one_step == two_step and one_step.incidence == two_step.incidence


def test_fix_boundary_noop_without_minus_rays():
    hc = claw((F(0), F(0)))
    assert fix_boundary(hc) == hc


def test_fix_boundary_truncates_minus_rays():
    anti = claw((F(0), F(0)), sign="-")
    fixed = fix_boundary(anti)
    assert all(e.ray_sign == "+" for e in fixed.edges if e.is_ray)
    assert is_prehoneycomb(frac_lines(fixed))
    finite = [e for e in fixed.edges if e.is_finite]
    assert len(finite) == 3 and all(e.length() == 1 for e in finite)
    divs = sorted(divergency(fixed, v) for v in fixed.vertices)
    assert divs == [-1, 1, 1, 1]  # old sink plus three fresh sources


def test_fix_boundary_requires_integral_coordinate():
    hc = claw((F(1, 2), F(-1, 2)), sign="-")
    with pytest.raises(NonIntegerTruncationPoint):
        fix_boundary(hc)


def test_fix_boundary_on_hexagon_honeycomb():
    # plus-form integral boundary within [-2k, 2k]; the degenerate k=1
    # hexagon overshoots by one on a single ray
    for k in (1, 2, 3):
        hc = grid_to_honeycomb(*hexagon_instance(k))
        fixed = fix_boundary(hc)
        assert any(e.is_ray for e, _ in frac_lines(fixed))
        for e, _ in frac_lines(fixed):
            if not e.is_ray:
                continue
            assert e.ray_sign == "+"
            assert e.c.denominator == 1
            assert abs(e.c) <= (2 * k if k >= 2 else 2 * k + 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_fractional_vertex_properties(k):
    g, h, fixed = fractional_vertex_instance(k)
    validate_grid(g)
    assert len(g.sides) == 3
    assert all(h[e].denominator == 1 for e in g.boundary_edges)
    assert any(v.denominator == k for v in h.values())
    # measured linear growth: size = 8k + 4 here, comfortably O(k)
    assert g.size == 8 * k + 4


def test_fractional_vertex_is_vertex_small():
    for k in (2, 3):
        g, h, fixed = fractional_vertex_instance(k)
        assert is_vertex(g, h, fixed)


def test_counterexample_transcription_checksum():
    g, h = counterexample_instance()
    blob = dumps(cocirc_to_json(h)).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "4b6093b5e140662a096c7d4d78e70ad69a7c54edc8ae935e124ed1145c022be9"
    )


def test_counterexample_structure():
    g, h = counterexample_instance()
    validate_grid(g)
    assert is_concave(g, h)
    o_set, i_set = integer_edge_sets(g, h)
    assert len(o_set) == 6 and len(i_set) == 10
    hc = grid_to_honeycomb(g, h)
    assert all(e.weight == 1 for e in hc.edges)
    expected = {
        (F(1), F(1, 2)),
        (F(2), F(-1, 2)),
        (F(0), F(1)),
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(0)),
        (F(1), F(-1, 2)),
        (F(1), F(-1)),
        (F(0), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(0), F(-1, 2)),
        (F(-1), F(1, 2)),
    }
    assert set(map(hc.point, hc.vertices)) == expected
    labelled = [(F(2), F(-1, 2)), (F(1, 2), F(0)), (F(-1), F(1, 2))]
    for v in labelled:
        ints = [cls for cls in (1, 2, 3) if dval(v, cls).denominator == 1]
        assert len(ints) == 1


def test_sample_honeycomb_weights():
    hc = sample_honeycomb()
    assert sorted(e.weight for e in hc.edges) == [1, 1, 1, 1, 1, 1, 2, 3, 3, 3]
