import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import (
    canonicalize_rational,
    frac_lines,
    oracle_candidate_points,
    oracle_incidence,
    oracle_ray_weights,
    reference_canonicalize,
    reference_is_prehoneycomb,
)
from cocirc import honeycomb
from cocirc.constructions import (
    counterexample_instance,
    dual_grid_honeycomb,
    fractional_vertex_instance,
    hexagon_instance,
    random_honeycomb,
    sample_honeycomb,
)
from cocirc.deform import build_deformed_system, decompose, orient_cycle_rightward, stop_epsilon
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import NotPreHoneycomb
from cocirc.grid import random_concave, three_side_grid
from cocirc.honeycomb import (
    _patch_of,
    boundary_partition,
    canonicalize,
    claw,
    divergency,
    excess,
    honeycomb_sum,
    is_prehoneycomb,
    nonintegral_sets,
)
from cocirc.integralize import potential
from cocirc.paths import find_legal_path
from cocirc.spans import HEdge, HLine, _is_vertex, dval, point_on, six_weights, t_of

F = Fraction
ORIGIN = (F(0), F(0))


def plus_ray(cls, at, w=1):
    return (HLine(cls, dval(at, cls), t_of(cls, at), None), w)


def minus_ray(cls, at, w=1):
    return (HLine(cls, dval(at, cls), None, t_of(cls, at)), w)


def weights_at(system, p):
    """The six ray weights at p as canonicalize computes them: from the
    coverages of the system added to the empty honeycomb."""
    return six_weights(_patch_of(system, 1).covs, p)


def test_ray_weights_empty_system():
    assert all(v == 0 for v in weights_at([], ORIGIN).values())
    assert weights_at([], ORIGIN) == oracle_ray_weights([], ORIGIN)


def test_ray_weights_weight_two_ray_at_end():
    system = [plus_ray(1, ORIGIN, 2)]
    w6 = weights_at(system, ORIGIN)
    assert w6[(1, "+")] == 2
    assert sum(w6.values()) == 2
    assert w6 == oracle_ray_weights(system, ORIGIN)


def test_ray_weights_interior_point():
    system = [plus_ray(cls, ORIGIN) for cls in (1, 2, 3)]
    inside = point_on(1, F(0), F(5, 7))  # interior of the class-1 ray
    w6 = weights_at(system, inside)
    assert w6[(1, "+")] == 1 and w6[(1, "-")] == 1
    assert all(v == 0 for k, v in w6.items() if k[0] != 1)
    assert w6 == oracle_ray_weights(system, inside)


def test_prehoneycomb_claw_and_single_line():
    system = [plus_ray(cls, ORIGIN) for cls in (1, 2, 3)]
    assert is_prehoneycomb(system)
    assert divergency(canonicalize_rational(system), ORIGIN) == 1
    assert not is_prehoneycomb([(HLine(1, F(0), F(0), F(2)), 1)])
    # negative everywhere on a line that has no end to show it
    assert not is_prehoneycomb([(HLine(1, F(0), None, None), -1)])


def test_sample_honeycomb_shape():
    hc = sample_honeycomb()
    assert is_prehoneycomb(frac_lines(hc))
    assert len(hc.vertices) == 3
    assert len(hc.edges) == 10
    assert len(hc.boundary) == 7
    part, flow = boundary_partition(hc)
    assert flow == 2


def test_canonicalize_claw():
    hc = claw(ORIGIN)
    assert len(hc.vertices) == 1 and len(hc.edges) == 3
    anti = claw(ORIGIN, sign="-")
    assert divergency(anti, ORIGIN) == -1
    assert excess(anti, ORIGIN) == 1


def test_degree_six_vertex_divergency_zero():
    both = frac_lines(claw(ORIGIN)) + frac_lines(claw(ORIGIN, sign="-"))
    hc = canonicalize_rational(both)
    assert len(hc.vertices) == 1 and len(hc.edges) == 6
    assert divergency(hc, ORIGIN) == 0


def test_canonicalize_merges_overlapping_segments():
    # weight 2 on [0,3], weight -1 on [1,2]: coverage 2,1,2; each coverage
    # step is balanced by a pair of rays so tension holds
    a, b, c, d = (point_on(1, F(0), F(t)) for t in (0, 1, 2, 3))
    system = [
        (HLine(1, F(0), F(0), F(3)), 2),
        (HLine(1, F(0), F(1), F(2)), -1),
        plus_ray(2, a, 2),
        plus_ray(3, a, 2),
        minus_ray(2, b, 1),
        minus_ray(3, b, 1),
        plus_ray(2, c, 1),
        plus_ray(3, c, 1),
        minus_ray(2, d, 2),
        minus_ray(3, d, 2),
    ]
    hc = canonicalize_rational(system)
    spans = sorted((e.lo, e.hi, e.weight) for e in hc.edges if e.cls == 1)
    assert spans == [(F(0), F(1), 2), (F(1), F(2), 1), (F(2), F(3), 2)]
    # oracle: the canonical form preserves all six ray weights everywhere
    probes = [point_on(1, F(0), F(t, 2)) for t in range(-1, 8)]
    for p in probes + [a, b, c, d]:
        assert oracle_ray_weights(system, p) == oracle_ray_weights(frac_lines(hc), p)


def test_canonicalize_rejects_bad_systems():
    with pytest.raises(NotPreHoneycomb):
        canonicalize_rational([(HLine(1, F(0), F(0), F(2)), 1)])
    with pytest.raises(NotPreHoneycomb):
        canonicalize_rational([(HLine(1, F(0), None, None), 1)])  # full covered line
    with pytest.raises(NotPreHoneycomb):
        canonicalize_rational([plus_ray(1, ORIGIN, -1), plus_ray(2, ORIGIN, -1), plus_ray(3, ORIGIN, -1)])


def test_candidates_of_a_honeycomb_are_its_vertices(small_corpus, monkeypatch):
    # every covered crossing of a canonical honeycomb is a vertex, so an
    # output-sensitive search tests no other point
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    instances.append(counterexample_instance())
    tested = []

    def is_vertex(w6, p, scale):
        tested.append(p)
        return _is_vertex(w6, p, scale)

    monkeypatch.setattr(honeycomb, "_is_vertex", is_vertex)
    for g, h in instances:
        hc = grid_to_honeycomb(g, h)
        tested.clear()
        assert canonicalize([(e, e.weight) for e in hc.edges], hc.scale) == hc  # in the honeycomb's ints
        assert tested == list(hc.vertices)


def _claw_sums(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        system = []
        for _ in range(rng.randint(2, 4)):
            center = tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(2))
            system += frac_lines(claw(center, rng.randint(1, 2), rng.choice("+-")))
        yield system


def _deformed_systems(hc):
    path = find_legal_path(hc)
    pl = orient_cycle_rightward(path) if path.is_cycle else decompose(path)
    ev = stop_epsilon(hc, pl)
    return [frac_lines(build_deformed_system(hc, pl, eps)) for eps in (ev.eps / 2, ev.eps)]


def _outcome(system, canon=canonicalize, prehoneycomb=is_prehoneycomb):
    try:
        result = canonicalize_rational(system, canon)
    except Exception as exc:
        result = type(exc)
    return result, prehoneycomb(system)


def _sweep_systems(small_corpus):
    """Rational systems: duals, their deformations, claw sums, and
    systems that break each rule."""
    systems = []
    for g, h in small_corpus:
        hc = grid_to_honeycomb(g, h)
        systems.append(frac_lines(hc))
        if not potential(hc).settled:
            systems += _deformed_systems(hc)
    systems += _claw_sums(seed=4, count=40)
    segment = (HLine(2, F(0), F(0), F(1)), 1)
    systems += [
        [(HLine(1, F(0), F(0), F(2)), 1)],
        [(HLine(1, F(0), None, None), 1)],
        [plus_ray(1, ORIGIN, -1), plus_ray(2, ORIGIN, -1), plus_ray(3, ORIGIN, -1)],
        frac_lines(claw(ORIGIN)) + [(HLine(1, F(1), None, None), -1)],
        # the negative line crosses the only other support where it cancels
        [segment, (segment[0], -1), (HLine(1, F(5), None, None), -1)],
    ]
    return systems


def test_sweep_matches_all_pairs_oracle(small_corpus):
    # the engine's candidates against every crossing of two supports, in
    # the reference route
    systems = _sweep_systems(small_corpus)
    swept = [_outcome(s) for s in systems]
    assert any(ok for _, ok in swept) and not all(ok for _, ok in swept)

    def canon(system, scale):
        return reference_canonicalize(system, scale, oracle_candidate_points)

    def prehoneycomb(system):
        return reference_is_prehoneycomb(system, oracle_candidate_points)

    assert [_outcome(s, canon, prehoneycomb) for s in systems] == swept


def _form_or_error(canon, system, scale):
    try:
        return canon(system, scale)
    except NotPreHoneycomb as exc:
        return type(exc), str(exc)


def test_canonicalize_matches_reference(small_corpus):
    # the patch of the empty honeycomb against the full route it replaced:
    # the same form, or the same violation
    honeycombs = [grid_to_honeycomb(g, random_concave(g, n, 7)) for n in range(3, 17) for g in [three_side_grid(n)]]
    honeycombs += [grid_to_honeycomb(*fractional_vertex_instance(k)[:2]) for k in (2, 3, 5)]
    honeycombs += [random_honeycomb(seed) for seed in range(40)]
    cases = []
    for hc in honeycombs:
        cases.append(([(e, e.weight) for e in hc.edges], hc.scale))
        cases.append(([(e.scaled(3), e.weight) for e in hc.edges], 3 * hc.scale))  # comes back at hc.scale
    for system in _sweep_systems(small_corpus):
        scale = lcm(*(x.denominator for line, _ in system for x in line[1:] if x is not None))
        ints = [(HLine(line.cls, *(None if x is None else int(x * scale) for x in line[1:])), w) for line, w in system]
        cases.append((ints, scale))
    failures = 0
    for system, scale in cases:
        got = _form_or_error(canonicalize, system, scale)
        want = _form_or_error(reference_canonicalize, system, scale)
        if isinstance(want, tuple):
            failures += 1
            assert got == want
            continue
        assert got.scale == want.scale and got.supports == want.supports and got.incidence == want.incidence
        assert {k: set(vs) for k, vs in got.on_line.items()} == {k: set(vs) for k, vs in want.on_line.items()}
        assert is_prehoneycomb(system)
    assert failures >= 5


def test_prehoneycomb_without_vertices():
    # a system without a vertex passes the vertex phase, and canonicalize
    # rejects it
    full = HLine(1, F(0), None, None)
    for system in ([], [(full, 1)], [(full, 1), (HLine(1, F(2), None, None), 3)]):
        assert is_prehoneycomb(system)
        with pytest.raises(NotPreHoneycomb) as exc:
            canonicalize_rational(system)
        assert str(exc.value) == "covered set has no vertex"


def test_canonicalize_idempotent_and_weight_preserving(small_corpus):
    rng = random.Random(1)
    for g, h in small_corpus[:6]:
        hc = grid_to_honeycomb(g, h)
        again = canonicalize_rational(frac_lines(hc))
        assert again == hc
        # random rational probes plus all endpoints
        pts = [v for e in hc.edges for v in e.ends()]
        for _ in range(20):
            e = rng.choice(hc.edges)
            t0 = e.lo if e.lo is not None else e.hi - 3
            t1 = e.hi if e.hi is not None else e.lo + 3
            lam = F(rng.randint(0, 16), 16)
            pts.append(point_on(e.cls, e.c, t0 + lam * (t1 - t0)))
        original = frac_lines(hc)
        covs, covs_again = _patch_of(original, 1).covs, _patch_of(frac_lines(again), 1).covs
        for p in pts:
            w6 = oracle_ray_weights(original, p)
            assert six_weights(covs, p) == w6 == six_weights(covs_again, p)


def test_every_honeycomb_has_boundary(small_corpus):
    for g, h in small_corpus[:8]:
        hc = grid_to_honeycomb(g, h)
        assert hc.boundary
        assert not any(e.lo is None and e.hi is None for e in hc.edges)


def test_boundary_partition_claw_and_dualgrid():
    part, flow = boundary_partition(claw(ORIGIN))
    assert flow == 1
    assert all(len(part[(cls, "+")]) == 1 for cls in (1, 2, 3))
    part1, flow1 = boundary_partition(dual_grid_honeycomb(1))
    assert flow1 == 2
    for cls in (1, 2, 3):
        assert sum(e.weight for e in part1[(cls, "+")]) == 2
        assert not part1[(cls, "-")]


def test_nonintegral_sets_integral_honeycomb():
    vs, es = nonintegral_sets(claw(ORIGIN))
    assert vs == frozenset() and es == frozenset()


def test_nonintegral_sets_shifted_claw():
    center = (F(1, 2), F(-1, 2))
    hc = claw(center)
    vs, es = nonintegral_sets(hc)
    assert {hc.point(v) for v in vs} == {center}
    fractional = [cls for cls in (1, 2, 3) if dval(center, cls).denominator != 1]
    assert len(fractional) == 2
    assert len(es) == 2  # the two rays with fractional constant coordinate


def test_nonintegral_sets_hexagon_instance():
    hc = grid_to_honeycomb(*hexagon_instance(2))
    _, es = nonintegral_sets(hc)
    assert any(abs(F(e.c, hc.scale)) == F(1, 2) for e in es)


def test_sum_far_apart_and_coincident_claws():
    # two same-sign claws always have exactly one pair of crossing rays,
    # which the canonical form splits at a degree-4 tension-free vertex
    far = (F(10), F(10))
    s = honeycomb_sum(claw(ORIGIN), claw(far))
    crossing = (F(0), F(10))
    assert set(s.vertices) == {ORIGIN, far, crossing}
    assert len(s.edges) == 8
    assert divergency(s, crossing) == 0
    doubled = honeycomb_sum(claw(ORIGIN), claw(ORIGIN))
    assert len(doubled.vertices) == 1
    assert sorted(e.weight for e in doubled.edges) == [2, 2, 2]


def test_sum_commutative_associative():
    a = claw(ORIGIN)
    b = claw((F(2), F(-1)))
    c = dual_grid_honeycomb(1)
    assert honeycomb_sum(a, b) == honeycomb_sum(b, a)
    assert honeycomb_sum(honeycomb_sum(a, b), c) == honeycomb_sum(a, honeycomb_sum(b, c))


def _instance_honeycombs(small_corpus):
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    instances.append(counterexample_instance())
    return [grid_to_honeycomb(g, h) for g, h in instances]


def test_incidence_matches_edge_ends(small_corpus):
    # canonicalize fills the incidence while it cuts the edges; the oracle
    # derives it afterwards from each edge's ends
    honeycombs = _instance_honeycombs(small_corpus)
    honeycombs += [canonicalize_rational(s) for s in _claw_sums(seed=7, count=20)]
    for hc in honeycombs:
        oracle = oracle_incidence(hc)
        assert hc.incidence == oracle
        # same vertex order and the same slot order at each vertex
        assert [(v, list(slots)) for v, slots in hc.incidence.items()] == [
            (v, list(slots)) for v, slots in oracle.items()
        ]
        assert list(hc.vertices) == sorted(hc.vertices)
        assert list(hc.edges) == sorted(hc.edges, key=HEdge.sort_key)


def _times(x, k):
    return None if x is None else x * k


def test_canonicalize_commutes_with_scaling(small_corpus):
    systems = [frac_lines(hc) for hc in _instance_honeycombs(small_corpus)[::4]]
    systems += list(_claw_sums(seed=8, count=6))
    for system in systems:
        hc = canonicalize_rational(system)
        for k in (2, 3, 7):
            # the same coordinates at a finer scale come back at the least one
            finer = [(e.scaled(k), e.weight) for e in hc.edges]
            assert canonicalize(finer, hc.scale * k) == hc
        for k in (F(2), F(3), F(7), F(1, 2), F(1, 3), F(1, 7)):
            scaled = [
                (HLine(ln.cls, ln.c * k, _times(ln.lo, k), _times(ln.hi, k)), w) for ln, w in system
            ]
            big = canonicalize_rational(scaled)
            assert tuple(map(big.point, big.vertices)) == tuple(
                (x * k, y * k) for x, y in map(hc.point, hc.vertices)
            )
            assert frac_lines(big) == [(line.scaled(k), w) for line, w in frac_lines(hc)]


def test_output_coordinates_are_fractions():
    # a honeycomb stores ints in units of 1/scale, the least common
    # denominator; its point accessor gives Fractions, also for an int input
    ints = [(HLine(cls, 0, 0, None), 1) for cls in (1, 2, 3)]
    fractional = [plus_ray(cls, (F(1, 2), F(-1, 3))) for cls in (1, 2, 3)]
    for system, scale in ((ints, 1), (fractional, 6)):
        hc = canonicalize_rational(system)
        assert hc.scale == scale
        stored = [x for v in hc.vertices for x in v]
        stored += [x for e in hc.edges for x in (e.c, e.lo, e.hi) if x is not None]
        stored += [x for v in hc.incidence for x in v]
        assert stored and all(type(x) is int for x in stored)
        coords = [x for v in hc.vertices for x in hc.point(v)]
        assert coords and all(type(x) is Fraction for x in coords)
    assert canonicalize_rational(ints).vertices == (ORIGIN,)
    assert canonicalize_rational(fractional).point(canonicalize_rational(fractional).vertices[0]) == (F(1, 2), F(-1, 3))


# Every NotPreHoneycomb that canonicalize raises on these systems names
# points and lines in the coordinates of its input.  The cut-loop kinds
# ("fully infinite covered line", "negative coverage", "coverage step
# without a vertex") need a system that passes the vertex check, and none
# does: a covered crossing is a vertex, and a coverage step at a line end
# breaks tension there.
MESSAGES = [
    ([(HLine(1, F(1, 2), None, None), -1)], "negative ray weight along (1, Fraction(1, 2))"),
    (
        [plus_ray(cls, (F(1, 2), F(-1, 3)), -1) for cls in (1, 2, 3)],
        "negative ray weight at (Fraction(1, 2), Fraction(-1, 3))",
    ),
    (
        [(HLine(2, F(1, 3), F(1, 2), None), 1)],
        "unequal tension {1: 0, 2: 1, 3: 0} at (Fraction(-5, 6), Fraction(1, 3))",
    ),
    (
        [(HLine(1, F(1, 2), None, None), 1), (HLine(1, F(-2, 3), None, None), 2)],
        "covered set has no vertex",
    ),
    # two violating ends: the least point is named
    (
        [(HLine(1, F(1, 2), F(1, 3), F(5, 2)), 1)],
        "unequal tension {1: 1, 2: 0, 3: 0} at (Fraction(1, 2), Fraction(1, 3))",
    ),
]


@pytest.mark.parametrize("system, message", MESSAGES)
def test_error_messages_use_input_coordinates(system, message):
    with pytest.raises(NotPreHoneycomb) as exc:
        canonicalize_rational(system)
    assert str(exc.value) == message


def test_edges_are_immutable_values():
    line, edge = HLine(1, 2, None, 3), HEdge(1, 2, None, 3, 1)
    # equal and hashed by value
    assert edge == HEdge(1, 2, None, 3, 1) and hash(edge) == hash(HEdge(1, 2, None, 3, 1))
    assert line == HLine(1, 2, None, 3) and hash(line) == hash(HLine(1, 2, None, 3))
    assert edge != HEdge(1, 2, None, 3, 2) and line != HLine(1, 2, 0, 3)
    # a line never equals an edge of the same span
    assert line != edge and edge != line and len({line, edge}) == 2
    assert repr(line) == "HLine(cls=1, c=2, lo=None, hi=3)"
    assert repr(edge) == "HEdge(cls=1, c=2, lo=None, hi=3, weight=1)"
    for x in (line, edge):
        with pytest.raises(AttributeError):
            x.lo = 0
        with pytest.raises(AttributeError):
            x.note = "no instance dict"
    # the shared methods
    assert edge.sort_key() == (*line.sort_key(), 1) == (1, 2, (0, 0), (0, 3), 1)
    assert edge.scaled(2) == line.scaled(2) == HLine(1, 4, None, 6)
    assert edge.is_ray and edge.ray_sign == "-" and edge.ends() == line.ends() == (point_on(1, 2, 3),)
