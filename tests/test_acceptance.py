"""Acceptance gate: every release criterion at its stated tolerance.

All comparisons are exact (tolerance zero); each test prints one summary
line so a run reads as a checklist.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import claw_parts, convex_hexagons, hexagon_grid, mixed_concave
from cocirc.constructions import (
    claw_sum,
    counterexample_instance,
    fractional_vertex_instance,
    hexagon_instance,
    random_honeycomb,
    sample_honeycomb,
)
from cocirc.deform import build_deformed_system, decompose, orient_cycle_rightward, stop_epsilon
from cocirc.duality import grid_to_honeycomb, honeycomb_to_grid
from cocirc.extremality import is_vertex, vertex_degrees_of_freedom
from cocirc.grid import ConvexGrid, integer_edge_sets, is_concave, random_concave, three_side_grid, tiling_of
from cocirc.honeycomb import canonicalize, divergency, is_prehoneycomb, nonintegral_sets
from cocirc.integralize import integralize, iteration_bound_check, potential
from cocirc.paths import find_legal_path

F = Fraction


def rounding_corpus():
    """100 seeded instances: 3-side sizes 2..6 and hexagons up to size 4."""
    shapes = [
        three_side_grid(2),
        three_side_grid(3),
        three_side_grid(4),
        three_side_grid(5),
        three_side_grid(6),
        hexagon_grid(1, 1, 1),
        hexagon_grid(2, 1, 2),
        hexagon_grid(2, 3, 1),
        hexagon_grid(4, 2, 3),
        hexagon_grid(3, 4, 4),
    ]
    return [(shapes[i % 10], mixed_concave(shapes[i % 10], 9000 + i)) for i in range(100)]


@pytest.fixture(scope="module")
def rounding_runs():
    runs = []
    for g, h in rounding_corpus():
        out, trace = integralize(g, h)
        runs.append((g, h, out, trace))
    return runs


def test_criterion_1_integralization_contract(rounding_runs):
    for g, h, out, _ in rounding_runs:
        assert set(out) == g.edges
        assert all(v.denominator == 1 for v in out.values())
        assert is_concave(g, out)
        o_set, i_set = integer_edge_sets(g, h)
        assert all(out[e] == h[e] for e in o_set | i_set)
    print(f"\nPASS criterion 1: {len(rounding_runs)} instances rounded exactly "
          "(integer, concave, integral boundary and faces preserved)")


def test_criterion_2_potential_audit(rounding_runs):
    steps = 0
    for g, h, _, trace in rounding_runs:
        pot0 = potential(grid_to_honeycomb(g, h))
        assert iteration_bound_check(g, trace, pot0)
        for s in trace:
            assert s.after.value < s.before.value
            assert s.after.nonintegral_boundary <= s.before.nonintegral_boundary
            assert s.after.nonintegral_excess <= s.before.nonintegral_excess
            assert s.after.integral_incident >= s.before.integral_incident
        bound = pot0.nonintegral_boundary + pot0.nonintegral_excess + len(g.edges)
        assert len(trace) <= bound
        steps += len(trace)
    print(f"\nPASS criterion 2: potential audit on {steps} recorded steps "
          "(strict drop, monotone parts, linear bound)")


def test_criterion_3_duality_round_trips(rounding_runs):
    for g, h, _, _ in rounding_runs:
        hc = grid_to_honeycomb(g, h)
        g2, h2 = honeycomb_to_grid(hc)
        da, db = g.anchor_offset()
        assert g.translate(da, db) == g2
        assert h2 == {(a + da, b + db, d): v for (a, b, d), v in h.items()}
        assert grid_to_honeycomb(g2, h2) == hc
    fixture = sample_honeycomb()
    assert (len(fixture.vertices), len(fixture.edges), len(fixture.boundary)) == (3, 10, 7)
    g3, h3 = honeycomb_to_grid(fixture)
    assert grid_to_honeycomb(g3, h3) == fixture
    print(f"\nPASS criterion 3: duality round trips exact on "
          f"{len(rounding_runs)} instances plus the 3-vertex/10-edge/7-ray fixture")


def test_criterion_4_fractional_vertices():
    for k in (2, 3, 4, 5):
        g, h, fixed = fractional_vertex_instance(k)
        assert any(v.denominator == k for v in h.values())
        assert all(h[e].denominator == 1 for e in g.boundary_edges)
        assert is_vertex(g, h, fixed)
    print("\nPASS criterion 4: k in {2,3,4,5} instances have a denominator-k "
          "value, integer boundary, and are rigid on two pinned sides")


@pytest.mark.parametrize("k", [8, 12, 16])
def test_fractional_vertices_at_scale(k):
    # The paper's second claim well beyond the k <= 5 corpus: a vertex of
    # the polytope with denominator exactly k, which still rounds.
    g, h, fixed = fractional_vertex_instance(k)
    assert vertex_degrees_of_freedom(g, h, fixed) == 0
    assert max(v.denominator for v in h.values()) == k
    assert all(h[e].denominator == 1 for e in g.boundary_edges)
    out, trace = integralize(g, h)
    assert all(v.denominator == 1 for v in out.values())
    assert is_concave(g, out)
    o_set, i_set = integer_edge_sets(g, h)
    assert all(out[e] == h[e] for e in o_set | i_set)
    assert iteration_bound_check(g, trace, potential(grid_to_honeycomb(g, h)))


def test_criterion_5_hexagon_pinned_values():
    g, h = hexagon_instance(3)
    # horizontal edges inside the big rhombus {1 <= a <= 4, -4 <= b-a <= -1}
    checked = 0
    for a in range(1, 4):
        for b in range(a - 4, a):
            e = (a, b, 1)
            if e in h and -4 <= b - (a + 1) <= -1:
                assert h[e] == F(-1, 3)
                checked += 1
    assert checked == 9  # three rows of three horizontal edges
    for i in range(3):
        assert h[(1, -i - 1, 2)] == i + F(1, 3)
        assert h[(i + 2, i + 1, 3)] == i + F(1, 3)
    tiles = tiling_of(g, h)
    sizes = sorted(len(t) for t in tiles)
    assert len(tiles) == 17
    assert sizes == [1] * 12 + [2, 3, 3, 5, 5]
    print("\nPASS criterion 5: hexagon k=3 stripe values (-1/3 rhombus rows, "
          "i+1/3 interior chains) and the 17-tile census hold exactly")


def test_criterion_6_rigid_half_integer_instance():
    g, h = counterexample_instance()
    fixed = [e for e in sorted(g.edges) if h[e].denominator == 1]
    assert is_vertex(g, h, fixed)
    out, trace = integralize(g, h)
    o_set, i_set = integer_edge_sets(g, h)
    assert all(out[e] == h[e] for e in o_set | i_set)
    moved = [e for e in fixed if out[e] != h[e]]
    assert moved
    print(f"\nPASS criterion 6: instance is rigid on its integer values; "
          f"rounding necessarily moved {len(moved)} integral edge(s)")


def _verify_multiplicity_and_bends(h, p):
    """Test-local restatement of the path guarantees."""
    assert all(e.c % h.scale != 0 for e in p.edges)
    if p.is_cycle:
        assert p.verts[0] == p.verts[-1] is not None
    else:
        assert p.edges[0].is_ray and p.edges[-1].is_ray
    uses = {}
    for i, e in enumerate(p.edges):
        uses.setdefault(e, []).append(p.verts[i])
    for e, froms in uses.items():
        assert len(froms) <= 2
        if len(froms) == 2:
            assert e.weight > 1
            assert froms[0] != froms[1]
    bends_at = {}
    k = len(p.edges)
    pairs = [(p.edges[i - 1], p.edges[i], p.verts[i]) for i in range(1, k)]
    if p.is_cycle:
        pairs.append((p.edges[-1], p.edges[0], p.verts[0]))
    for e1, e2, v in pairs:
        opposite = e1.cls == e2.cls and e1.sign_at(v) != e2.sign_at(v)
        if not opposite:
            bends_at[v] = bends_at.get(v, 0) + 1
    for v, n in bends_at.items():
        assert n <= min(2, abs(divergency(h, v)))


def test_criterion_7_legal_path_suite():
    shapes = [
        three_side_grid(2),
        three_side_grid(3),
        three_side_grid(4),
        hexagon_grid(1, 1, 1),
        hexagon_grid(2, 1, 2),
        hexagon_grid(1, 2, 2),
    ]
    produced = 0
    i = 0
    while produced < 1000:
        g = shapes[i % len(shapes)]
        h = mixed_concave(g, 40_000 + i)
        i += 1
        hc = grid_to_honeycomb(g, h)
        if not nonintegral_sets(hc)[0]:
            continue
        p = find_legal_path(hc)
        _verify_multiplicity_and_bends(hc, p)
        produced += 1
    print(f"\nPASS criterion 7: {produced} legal paths satisfy the "
          "multiplicity, double-use and bend-budget guarantees verbatim")


def test_criterion_8_deformed_systems_stay_valid():
    rng = random.Random(2024)
    checked = 0
    for idx in range(20):
        g, h = rounding_corpus()[idx * 5 % 100]
        hc = grid_to_honeycomb(g, h)
        while not potential(hc).settled:
            p = find_legal_path(hc)
            pl = orient_cycle_rightward(p) if p.is_cycle else decompose(p)
            ev = stop_epsilon(hc, pl)
            for _ in range(10):
                eps = ev.eps * F(rng.randint(1, 127), 128)
                assert is_prehoneycomb(build_deformed_system(hc, pl, eps).lines)
                checked += 1
            ds = build_deformed_system(hc, pl, ev.eps)
            hc = canonicalize(ds.lines, ds.scale)
    print(f"\nPASS criterion 8: {checked} intermediate deformed systems "
          "verified as pre-honeycombs at random exact parameters")


def _round_beyond_quadratics(hc) -> int:
    """Dualize ``hc``, round it, audit the run and round-trip both ends;
    the number of rounding steps."""
    g, h = honeycomb_to_grid(hc)
    assert grid_to_honeycomb(g, h) == hc
    out, trace = integralize(g, h)
    assert all(v.denominator == 1 for v in out.values()) and is_concave(g, out)
    o_set, i_set = integer_edge_sets(g, h)
    assert all(out[e] == h[e] for e in o_set | i_set)
    assert iteration_bound_check(g, trace, potential(hc))
    assert honeycomb_to_grid(grid_to_honeycomb(g, out)) == (g, out)
    return len(trace)


def test_criterion_9_random_honeycombs_round():
    # Sums of claws and anticlaws put vertices anywhere and rays of
    # either sign, which no quadratic cocirculation reaches.
    steps = sum(_round_beyond_quadratics(random_honeycomb(seed)) for seed in range(120))
    assert steps > 0
    print(f"\nPASS criterion 9: 120 random claw sums dualized, rounded in {steps} "
          "audited steps and round-tripped")


@given(claw_parts())
@settings(max_examples=40, deadline=None)
def test_claw_sums_round(parts):
    _round_beyond_quadratics(claw_sum(parts))


@given(convex_hexagons(), st.sampled_from((2, 3, 5, 7, 12)), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_convex_hexagons_round(triangles, denom, seed):
    # Any convex lattice hexagon, not only the 3-side triangles and the
    # centrally symmetric hexagons of the corpora.
    g = ConvexGrid(triangles)
    _round_beyond_quadratics(grid_to_honeycomb(g, random_concave(g, seed, denom)))
