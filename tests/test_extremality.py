import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cocirc.constructions import (
    counterexample_instance,
    dual_grid_honeycomb,
    fractional_vertex_instance,
    hexagon_instance,
    random_honeycomb,
)
from cocirc.duality import honeycomb_to_grid
from cocirc.errors import FNotSubsetOfEdges, NotConcave
from cocirc.extremality import (
    condition_c_extreme,
    eliminate,
    is_vertex,
    maximal_lines,
    solve_flat_extension,
    vertex_degrees_of_freedom,
)
from cocirc.grid import (
    cocirculation_from_quadratic,
    random_concave,
    three_side_grid,
    tiling_of,
)
from cocirc.honeycomb import boundary_partition, claw

F = Fraction


def test_full_pin_is_always_vertex():
    g = three_side_grid(3)
    h = random_concave(g, seed=2)
    assert is_vertex(g, h, g.edges)


def test_f_must_be_subset():
    g = three_side_grid(2)
    h = random_concave(g, seed=2)
    with pytest.raises(FNotSubsetOfEdges):
        is_vertex(g, h, [(9, 9, 1)])


def test_nonconcave_rejected():
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(30), F(1))
    with pytest.raises(NotConcave):
        is_vertex(g, h, [])


def test_monotone_in_fixed_set():
    g = three_side_grid(3)
    rng = random.Random(5)
    for seed in range(6):
        h = random_concave(g, seed=seed)
        edges = sorted(g.edges)
        small = rng.sample(edges, 8)
        big = small + rng.sample([e for e in edges if e not in small], 6)
        assert vertex_degrees_of_freedom(g, h, big) <= vertex_degrees_of_freedom(
            g, h, small
        )
        if is_vertex(g, h, small):
            assert is_vertex(g, h, big)


def test_counterexample_rigid_under_integer_values():
    g, h = counterexample_instance()
    fixed = [e for e in sorted(g.edges) if h[e].denominator == 1]
    assert is_vertex(g, h, fixed)
    assert vertex_degrees_of_freedom(g, h, fixed) == 0


def test_fractional_vertex_instances():
    for k in (2, 3):
        g, h, fixed = fractional_vertex_instance(k)
        assert is_vertex(g, h, fixed)
        assert not is_vertex(g, h, [])


def test_solution_satisfies_all_constraints():
    # substituting the unique solution back: solve on the instance's own
    # tiling with full boundary pins reproduces it exactly
    g, h = hexagon_instance(2)
    tiles = tiling_of(g, h)
    pins = {e: h[e] for e in g.boundary_edges}
    assert solve_flat_extension(g, tiles, pins) == h


def test_condition_c_claw_single_ray():
    c = claw((F(0), F(0)))
    assert not condition_c_extreme(c, [c.edges[0]])
    assert len(maximal_lines(c)) == 3


def test_maximal_lines_split_at_a_coverage_gap():
    # random_honeycomb(6) has one support with two edges and a gap between them
    h = random_honeycomb(6)
    gapped = [es for es in h.supports.values() if any(a.hi != b.lo for a, b in zip(es, es[1:]))]
    assert len(gapped) == 1 and len(gapped[0]) == 2
    first, second = gapped[0]
    runs = maximal_lines(h)
    assert (first,) in runs and (second,) in runs
    assert len(runs) == len(h.supports) + 1
    # condition_c sees two lines there: with its class-1 line unmarked, the
    # vertex where the second edge starts needs that edge's run marked, and
    # marking the first edge does not do
    v = second.ends()[0]
    marked = [e for e in h.edges if e != second and (e.cls, e.c) != (1, v[0])]
    assert not condition_c_extreme(h, marked)
    assert condition_c_extreme(h, marked + [second])


def test_condition_c_dual_grid():
    hp = dual_grid_honeycomb(3)
    part, _ = boundary_partition(hp)
    b1 = list(part[(1, "+")])
    b2 = list(part[(2, "+")])
    b3 = list(part[(3, "+")])
    assert condition_c_extreme(hp, b1 + b2)
    assert condition_c_extreme(hp, b2 + b3)
    # the sufficient test needs whole classes: one lone second-class edge
    # leaves most vertices with a single marked line through them
    assert not condition_c_extreme(hp, b1 + b2[:1])


def test_condition_c_implies_grid_vertex():
    for n in (2, 3):
        hp = dual_grid_honeycomb(n)
        part, _ = boundary_partition(hp)
        marked = list(part[(1, "+")]) + list(part[(2, "+")])
        assert condition_c_extreme(hp, marked)
        g, h = honeycomb_to_grid(hp)
        fixed = set(g.side(1, "+").edges) | set(g.side(2, "+").edges)
        assert is_vertex(g, h, fixed)


def test_reduced_pin_set_still_rigid_on_grid_side():
    # one full side plus a single edge of another side still pins the
    # dual-grid instance, even though the two-lines test cannot see it
    g, h = honeycomb_to_grid(dual_grid_honeycomb(3))
    side1 = list(g.side(1, "+").edges)
    side2 = sorted(g.side(2, "+").edges)
    for e in side2:
        assert is_vertex(g, h, side1 + [e])

def test_eliminate_skips_explicit_zero_coefficients():
    assert eliminate([({0: 0, 1: 1}, 1)], 2) == (1, None)
    rows = [({0: 0, 1: 2}, 1), ({0: 3}, 0)]
    assert eliminate(rows, 2) == (2, [F(0), F(1, 2)])
    assert rows == [({0: 0, 1: 2}, 1), ({0: 3}, 0)]  # the caller's rows are left as they are
    with pytest.raises(ValueError):
        eliminate([({0: 0}, 1)], 1)


def reference_eliminate(rows, nvars):
    """Gaussian elimination in Fractions, each pivot row normalised to a
    leading 1; rows must hold no zero coefficient."""
    pivots = {}
    for coeffs, rhs in rows:
        coeffs = dict(coeffs)
        while coeffs:
            var = min(coeffs)
            if var not in pivots:
                inv = 1 / coeffs[var]
                coeffs = {k: v * inv for k, v in coeffs.items()}
                pivots[var] = (coeffs, rhs * inv)
                break
            pc, pr = pivots[var]
            factor = coeffs.pop(var)
            for k, v in pc.items():
                if k != var:
                    coeffs[k] = coeffs.get(k, Fraction(0)) + (-factor) * v
                    if coeffs[k] == 0:
                        del coeffs[k]
            rhs = rhs - factor * pr
        else:
            if rhs != 0:
                raise ValueError("inconsistent linear system")
    rank = len(pivots)
    if rank < nvars:
        return rank, None
    sol = [None] * nvars
    for var in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[var]
        acc = rhs
        for k, v in coeffs.items():
            if k != var:
                acc -= v * sol[k]
        sol[var] = acc
    return rank, sol


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
nonzero = rationals.filter(bool)


@st.composite
def linear_systems(draw):
    """Small sparse systems with nonzero rational coefficients.  Most are
    consistent by construction (right-hand sides from a drawn point); some
    right-hand sides are drawn freely."""
    nvars = draw(st.integers(1, 5))
    point = [draw(rationals) for _ in range(nvars)]
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        keys = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=3))
        coeffs = {k: draw(nonzero) for k in keys}
        rhs = sum(v * point[k] for k, v in coeffs.items())
        if draw(st.integers(0, 4)) == 0:
            rhs = draw(rationals)
        rows.append((coeffs, rhs))
    return rows, nvars


def int_eliminate(rows, nvars):
    """``eliminate`` of rational rows, each times the lcm of its denominators."""
    scaled = []
    for coeffs, rhs in rows:
        m = lcm(F(rhs).denominator, *(v.denominator for v in coeffs.values()))
        scaled.append(({k: int(v * m) for k, v in coeffs.items()}, int(rhs * m)))
    return eliminate(scaled, nvars)


def _solve(fn, rows, nvars):
    try:
        return fn(rows, nvars)
    except ValueError as ex:
        return f"ValueError: {ex}"


@settings(max_examples=300, deadline=None)
@given(linear_systems(), st.data())
def test_eliminate_matches_fraction_reference(system, data):
    rows, nvars = system
    expected = _solve(reference_eliminate, rows, nvars)
    assert _solve(int_eliminate, rows, nvars) == expected
    if rows:
        # scaling a row by a nonzero rational changes neither rank nor solution
        i = data.draw(st.integers(0, len(rows) - 1))
        k = data.draw(nonzero)
        scaled = list(rows)
        coeffs, rhs = rows[i]
        scaled[i] = ({j: v * k for j, v in coeffs.items()}, rhs * k)
        assert _solve(int_eliminate, scaled, nvars) == expected
    # nor does the order of the rows: the vertex tests pass the pins first
    assert _solve(int_eliminate, data.draw(st.permutations(rows)), nvars) == expected
