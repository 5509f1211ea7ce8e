import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    convex_hexagons,
    hexagon_grid,
    mixed_concave,
    oracle_edge_faces,
    oracle_fill_convex_polygon,
    oracle_rhombi,
    oracle_rhombus_pairs,
    oracle_tiling,
    reference_cocirculation_from_quadratic,
)
from cocirc.errors import NotACocirculation, NotConcave, NotConnected, NotConvex
from cocirc import grid
from cocirc.constructions import counterexample_instance, hexagon_instance
from cocirc.duality import grid_to_honeycomb
from cocirc.grid import (
    ConvexGrid,
    cocirculation_from_quadratic,
    edge_head,
    edge_tail,
    faces_of,
    fill_convex_polygon,
    integer_edge_sets,
    is_concave,
    neighbours,
    random_concave,
    rhombi_of,
    three_side_grid,
    tiling_of,
    triangle_edges,
    validate_grid,
)
from cocirc.integralize import integralize

F = Fraction


def test_single_up_triangle_is_valid():
    g = ConvexGrid.of([(True, 0, 0)])
    validate_grid(g)
    assert g.size == 1
    assert len(g.edges) == 3 and g.boundary_edges == g.edges


def test_three_side_grid_size_two_is_valid():
    g = three_side_grid(2)
    validate_grid(g)
    assert len(g.triangles) == 4
    assert [(s.cls, s.sign, len(s)) for s in g.sides] == [
        (1, "+", 2),
        (2, "+", 2),
        (3, "+", 2),
    ]


def test_vertex_touching_triangles_rejected():
    # up(0,0) and up(1,1) share only the point (1,1): the face graph is
    # disconnected and the 8-point boundary walk pinches there.
    g = ConvexGrid.of([(True, 0, 0), (True, 1, 1)])
    pts = {}
    for t in g.triangles:
        for e in triangle_edges(t):
            for p in (edge_tail(e), edge_head(e)):
                pts[p] = pts.get(p, 0) + 1
    assert pts[(1, 1)] == 4 and len(pts) == 5  # oracle: pinch at the joint
    # Disconnection is reported ahead of the pinch it causes.
    with pytest.raises(NotConnected, match=r"^1 faces unreachable$"):
        validate_grid(g)


def test_disconnected_grid_rejected():
    with pytest.raises(NotConnected, match=r"^1 faces unreachable$"):
        validate_grid(ConvexGrid.of([(True, 0, 0), (True, 3, 1)]))


def test_hole_rejected():
    g = three_side_grid(4)
    holed = ConvexGrid(g.triangles - {(False, 2, 1)})
    with pytest.raises(NotConvex, match=r"^boundary pinches at \(2, 0\)$"):
        validate_grid(holed)


def test_pinched_connected_grid_rejected():
    # Ten faces joined by sides, whose boundary meets itself at (2, 2).
    tris = [(False, 1, 1), (False, 2, 1), (False, 3, 2), (False, 3, 3), (True, 1, 0),
            (True, 1, 1), (True, 2, 1), (True, 2, 2), (True, 3, 2), (True, 3, 3)]
    with pytest.raises(NotConvex, match=r"^boundary pinches at \(2, 2\)$"):
        validate_grid(ConvexGrid.of(tris))


def test_reflex_region_rejected():
    # size-2 triangle with a flap glued to its right side: reflex at (2,1)
    tris = set(three_side_grid(2).triangles) | {(False, 2, 1)}
    with pytest.raises(NotConvex, match=r"^reflex turn at \(2, 1\)$"):
        validate_grid(ConvexGrid.of(tris))


def _face_components(tris) -> int:
    """The number of side-connected components of ``tris``, by flood fill
    over ``oracle_edge_faces``."""
    faces_of_edge = oracle_edge_faces(tris)
    seen, count = set(), 0
    for t0 in tris:
        if t0 in seen:
            continue
        count += 1
        stack = [t0]
        seen.add(t0)
        while stack:
            t = stack.pop()
            for e in triangle_edges(t):
                for u in faces_of_edge[e]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
    return count


@given(st.sets(st.sampled_from(sorted(three_side_grid(4).triangles)), min_size=1))
@settings(max_examples=200, deadline=None)
def test_disconnected_is_reported_first(tris):
    # The face walk now runs only after a boundary check has failed; a
    # disconnected grid must still raise NotConnected, a connected one never.
    comps = _face_components(tris)
    try:
        validate_grid(ConvexGrid.of(tris))
    except NotConnected:
        assert comps > 1
    except NotConvex:
        assert comps == 1
    else:
        assert comps == 1


def test_empty_grid_rejected():
    with pytest.raises(NotConvex):
        validate_grid(ConvexGrid.of([]))


def test_zero_cocirculation_is_concave():
    g = hexagon_grid(2, 1, 2)
    h = {e: F(0) for e in g.edges}
    assert is_concave(g, h)


def test_single_edge_bump_breaks_circuit_sums():
    # the circuit sums are checked before concavity: a bump that also
    # breaks a rhombus still reports NotACocirculation, not NotConcave
    g = three_side_grid(3)
    h = random_concave(g, seed=11)
    e = next(iter(g.edges - g.boundary_edges))
    h[e] += 1 + 4 * max(abs(v) for v in h.values())
    assert any(h[dom] < h[other] for _, _, _, dom, other in g.rhombi)
    for check in (is_concave, tiling_of):
        with pytest.raises(NotACocirculation):
            check(g, h)


def test_messages_name_values_not_scaled_ints():
    # The checks sum ints at the lcm of the denominators; their messages
    # still name the circuit sum and the missing edge of the input.
    g = three_side_grid(4)
    h = random_concave(g, seed=3, denom_bound=7)
    bumped = dict(h)
    bumped[(0, 0, 1)] += F(1, 3)  # a boundary edge of (True, 0, 0) only
    dropped = dict(h)
    del dropped[(0, 0, 1)]
    for check in (is_concave, tiling_of, grid_to_honeycomb, integralize):
        with pytest.raises(NotACocirculation) as err:
            check(g, bumped)
        assert str(err.value) == "circuit sum 1/3 on face (True, 0, 0)"
        with pytest.raises(NotACocirculation) as err:
            check(g, dropped)
        assert str(err.value) == "missing value on edge (0, 0, 1)"


def test_potential_bump_breaks_concavity():
    # raising the potential at one interior point keeps circuit sums zero
    # but violates a rhombus inequality around that point
    g = three_side_grid(3)
    h = random_concave(g, seed=11)
    interior = (2, 1)
    bump = 1 + max(abs(v) for v in h.values()) * 4
    for e in g.edges:
        if edge_head(e) == interior:
            h[e] += bump
        elif edge_tail(e) == interior:
            h[e] -= bump
    assert is_concave(g, h) is False


def test_quadratic_needs_balanced_axes():
    # -10x^2 - y^2 is concave in the plane but too narrow for the fixed
    # triangulation; the balanced -x^2 - y^2 passes
    g = three_side_grid(3)
    assert not is_concave(g, cocirculation_from_quadratic(g, F(10, 4), F(1, 12)))
    assert is_concave(g, cocirculation_from_quadratic(g, F(1, 4), F(1, 4)))


def test_rhombus_equalities_come_in_pairs():
    g = hexagon_grid(2, 2, 2)
    for seed in range(25):
        h = random_concave(g, seed)
        for diag, t1, t2, _, _ in g.rhombi:
            p1, p2 = oracle_rhombus_pairs(diag, t1, t2)
            tight1 = h[p1[0]] == h[p1[1]]
            tight2 = h[p2[0]] == h[p2[1]]
            assert tight1 == tight2
            # the two inequalities are equivalent, not just the equalities
            assert (h[p1[0]] - h[p1[1]]) == (h[p2[0]] - h[p2[1]])


def _lattice_rules_match_oracle(g):
    """``faces_of``, ``neighbours``, ``rhombi_of`` and ``boundary_edges``
    agree with the face table listed face by face."""
    tris = g.triangles
    faces = oracle_edge_faces(tris)
    assert g.edges == frozenset(faces)
    for e, ts in faces.items():
        assert tuple(t for t in faces_of(e) if t in tris) == ts
    for t in tris:
        across = [tuple(u for u in faces[e] if u != t) for e in triangle_edges(t)]
        assert [(u,) if u in tris else () for u in neighbours(t)] == across
    assert sorted(rhombi_of(tris)) == oracle_rhombi(tris)
    assert g.boundary_edges == frozenset(e for e, ts in faces.items() if len(ts) == 1)


def test_rhombus_table_matches_oracle():
    grids = [three_side_grid(n) for n in range(1, 7)]
    grids += [hexagon_grid(2, 2, 2), counterexample_instance()[0]]
    for g in grids:
        faces = oracle_edge_faces(g.triangles)
        rhombi = sorted(rhombi_of(g.triangles))
        assert sorted(g.rhombi) == rhombi
        interior = sorted(e for e, ts in faces.items() if len(ts) == 2)
        assert [r[0] for r in rhombi] == interior
        for diag, t1, t2, dom, other in rhombi:
            assert faces[diag] == (t1, t2) == faces_of(diag)
            assert (dom, other) == oracle_rhombus_pairs(diag, t1, t2)[0]
        _lattice_rules_match_oracle(g)


@given(convex_hexagons())
@settings(max_examples=150, deadline=None)
def test_lattice_rules_on_convex_hexagons(triangles):
    g = ConvexGrid(triangles)
    validate_grid(g)
    _lattice_rules_match_oracle(g)


def test_tiling_strict_quadratic_all_singletons():
    g = three_side_grid(3)
    h = cocirculation_from_quadratic(g, F(1), F(1))
    tiles = tiling_of(g, h)
    assert len(tiles) == len(g.triangles)
    assert all(len(t) == 1 for t in tiles)


def test_tiling_affine_single_tile():
    g = hexagon_grid(2, 1, 2)
    h = cocirculation_from_quadratic(g, F(0), F(0), F(3, 2), F(-1, 3))
    tiles = tiling_of(g, h)
    assert len(tiles) == 1


def test_tiling_requires_concavity():
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(10), F(1))
    with pytest.raises(NotConcave):
        tiling_of(g, h)


def test_tiling_is_maximal():
    # merging two adjacent tiles always crosses a strict rhombus
    g = hexagon_grid(2, 2, 1)
    h = random_concave(g, seed=4)
    tiles = tiling_of(g, h)
    tile_of = {t: i for i, ts in enumerate(tiles) for t in ts}
    strict_between = set()
    for diag, t1, t2, _, _ in g.rhombi:
        i, j = tile_of[t1], tile_of[t2]
        if i != j:
            dom, other = oracle_rhombus_pairs(diag, t1, t2)[0]
            if h[dom] > h[other]:
                strict_between.add((min(i, j), max(i, j)))
    adjacent = set()
    for diag, t1, t2, _, _ in g.rhombi:
        i, j = tile_of[t1], tile_of[t2]
        if i != j:
            adjacent.add((min(i, j), max(i, j)))
    assert adjacent == strict_between


def _assert_tiling_matches_oracle(g, h):
    """``tiling_of`` is the union-find tiling, its tiles' faces share one
    dual point each, and distinct tiles have distinct points."""
    tiles = tiling_of(g, h)
    assert tiles == oracle_tiling(g, h)
    points = []
    for ts in tiles:
        face_points = {(h[e1], h[e2]) for e1, e2, _ in map(triangle_edges, ts)}
        assert len(face_points) == 1
        points += face_points
    assert len(set(points)) == len(tiles)


@given(convex_hexagons(), st.integers(0, 10_000), st.booleans())
@settings(max_examples=150, deadline=None)
def test_tiling_matches_union_find_oracle(triangles, seed, mixed):
    g = ConvexGrid(triangles)
    _assert_tiling_matches_oracle(g, mixed_concave(g, seed) if mixed else random_concave(g, seed))


def test_tiling_matches_union_find_oracle_on_three_side_grids():
    for n in range(2, 9):
        g = three_side_grid(n)
        for seed in range(6):
            _assert_tiling_matches_oracle(g, mixed_concave(g, seed))
            _assert_tiling_matches_oracle(g, random_concave(g, seed, 7))


@pytest.mark.parametrize(
    "tris, error",
    [
        ([(True, 0, 0), (True, 3, 1)], NotConnected),
        (three_side_grid(4).triangles - {(False, 2, 1)}, NotConvex),
        (three_side_grid(2).triangles | {(False, 2, 1)}, NotConvex),
    ],
    ids=["disconnected", "hole", "reflex"],
)
def test_tiling_validates_the_grid_first(tris, error):
    # On the zero cocirculation every face has the dual point (0, 0), so
    # grouping alone would join faces that no rhombus joins.
    g = ConvexGrid.of(tris)
    with pytest.raises(error) as expected:
        validate_grid(g)
    with pytest.raises(error) as raised:
        tiling_of(g, {e: F(0) for e in g.edges})
    assert str(raised.value) == str(expected.value)


def _oracle_is_concave(g, h) -> bool:
    return all(h[dom] >= h[other] for _, _, _, dom, other in oracle_rhombi(g.triangles))


@given(convex_hexagons(), st.integers(0, 10_000), st.data())
@settings(max_examples=150, deadline=None)
def test_in_place_is_concave_matches_oracle(triangles, seed, data):
    # is_concave reads the face table in place, the oracle lists it face by
    # face (boundary_edges is checked so in _lattice_rules_match_oracle).
    # A bump of the potential at one point keeps the circuit sums and may
    # break concavity.
    g = ConvexGrid(triangles)
    h = mixed_concave(g, seed)
    assert is_concave(g, h) and _oracle_is_concave(g, h)
    p = data.draw(st.sampled_from(sorted(g.vertices)))
    bump = data.draw(st.sampled_from([F(-1), F(1, 3), F(1), F(7, 2)]))
    for e in g.edges:
        if edge_head(e) == p:
            h[e] += bump
        elif edge_tail(e) == p:
            h[e] -= bump
    assert is_concave(g, h) == _oracle_is_concave(g, h)


def test_single_point_bumps_are_seen_in_place():
    # A bump of one point over a flat function breaks just the rhombi
    # round that point; at a corner or a side, not every kind of rhombus
    # read from an up face is among them.
    g = hexagon_grid(2, 2, 2)
    flat = cocirculation_from_quadratic(g, F(0), F(0), F(1), F(-2))
    broken = 0
    for p in sorted(g.vertices):
        for bump in (F(1), F(-1)):
            h = dict(flat)
            for e in g.edges:
                if edge_head(e) == p:
                    h[e] += bump
                elif edge_tail(e) == p:
                    h[e] -= bump
            assert is_concave(g, h) == _oracle_is_concave(g, h), (p, bump)
            broken += not is_concave(g, h)
    assert broken == 2 * len(g.vertices)


def test_integer_edge_sets_integer_cocirculation():
    g = three_side_grid(3)
    h = cocirculation_from_quadratic(g, F(1), F(1), F(2))
    o, i = integer_edge_sets(g, h)
    assert o == g.boundary_edges and i == g.edges


def test_integer_edge_sets_all_fractional():
    # one third per class: no value is an integer, so both sets are empty
    g = three_side_grid(2)
    per_class = {1: F(1, 3), 2: F(1, 3), 3: F(-2, 3)}
    h = {e: per_class[e[2]] for e in g.edges}
    assert is_concave(g, h)
    o, i = integer_edge_sets(g, h)
    assert o == frozenset() and i == frozenset()


def test_random_concave_contract():
    g = three_side_grid(4)
    h1 = random_concave(g, seed=9, denom_bound=10)
    h2 = random_concave(g, seed=9, denom_bound=10)
    assert h1 == h2
    assert random_concave(g, seed=10) != h1
    for bound in (1, 7, 10, 12, 30):
        h = random_concave(g, seed=9, denom_bound=bound)
        assert all(bound % v.denominator == 0 for v in h.values()), bound


def _quadratic_oracle_grids():
    """3-side grids n = 1..12, the hexagon grids k = 1..4, the
    counterexample grid and 20 random lattice triangles."""
    grids = [three_side_grid(n) for n in range(1, 13)]
    grids += [hexagon_instance(k)[0] for k in range(1, 5)]
    grids.append(counterexample_instance()[0])
    rng = random.Random(0)
    while len(grids) < 37:
        p, q, r = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]
        if (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) > 0:
            triangles = fill_convex_polygon([p, q, r])
            if triangles:
                grids.append(ConvexGrid(triangles))
    return grids


def test_cocirculation_from_quadratic_matches_reference():
    # The int kernel against the Fraction formula: equal values, Fraction
    # values, and the keys in the same order, on every grid shape and on
    # parameters of both signs with denominators 1 to 30.
    rng = random.Random(1)

    def q():
        d = rng.randint(1, 30)
        return Fraction(rng.randint(-3 * d, 3 * d), d)

    for g in _quadratic_oracle_grids():
        cases = [(q(), q())] + [(q(), q(), q(), q()) for _ in range(6)]
        for args in cases:
            h, ref = cocirculation_from_quadratic(g, *args), reference_cocirculation_from_quadratic(g, *args)
            assert h == ref and list(h) == list(ref), args
            assert all(type(x) is Fraction for x in h.values())


def test_random_concave_matches_reference(monkeypatch):
    grids = {n: three_side_grid(n) for n in range(1, 7)}
    samples = {}
    for bound in (1, 7, 12, 30):
        for seed in range(200):
            samples[bound, seed] = random_concave(grids[seed % 6 + 1], seed, bound)
    monkeypatch.setattr(grid, "cocirculation_from_quadratic", reference_cocirculation_from_quadratic)
    for (bound, seed), h in samples.items():
        ref = random_concave(grids[seed % 6 + 1], seed, bound)
        assert h == ref and list(h) == list(ref), (bound, seed)


def test_random_concave_is_concave_many_seeds():
    grids = {n: three_side_grid(n) for n in range(1, 7)}
    for seed in range(10_000):
        g = grids[seed % 6 + 1]
        h = random_concave(g, seed)
        assert is_concave(g, h)


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_random_concave_property(seed, size):
    g = three_side_grid(size)
    assert is_concave(g, random_concave(g, seed))


def _closed_hexagons(top: int):
    """Corner lists of every hexagon walk with side lengths 0..top that
    closes up, in the anticlockwise step order of a vertex's local grid."""
    steps = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    for w in itertools.product(range(top + 1), repeat=6):
        corner, corners = (0, 0), []
        for n, (da, db) in zip(w, steps):
            corners.append(corner)
            corner = (corner[0] + n * da, corner[1] + n * db)
        if corner == (0, 0):
            yield corners


def test_fill_convex_polygon_matches_brute_force():
    hexagons = list(_closed_hexagons(4))
    assert len(hexagons) == 325
    for corners in hexagons:
        assert fill_convex_polygon(corners) == oracle_fill_convex_polygon(corners), corners
    for n in range(1, 13):
        corners = [(0, 0), (n, 0), (n, n)]
        assert three_side_grid(n).triangles == oracle_fill_convex_polygon(corners)
        assert len(three_side_grid(n).triangles) == n * n
    # sides in any lattice direction: every anticlockwise triangle on a 4x4 patch
    points = [(a, b) for a in range(4) for b in range(4)]
    for p, q, r in itertools.combinations(points, 3):
        if (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) > 0:
            assert fill_convex_polygon([p, q, r]) == oracle_fill_convex_polygon([p, q, r])
