from fractions import Fraction

import pytest

from conftest import at_scale, canonicalize_rational, corpus, frac_lines, frac_span
from cocirc.constructions import hexagon_instance, sample_honeycomb
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import NoNonintegralEdge
from cocirc.honeycomb import claw, divergency, nonintegral_sets
from cocirc.paths import (
    LegalPath,
    check_legal_path,
    dominating_edges,
    find_legal_path,
    is_legal_pair,
)
from cocirc.spans import HLine, dval, point_on, t_of

F = Fraction


def nonintegral_line_honeycomb(c=F(1, 2)):
    """One nonintegral class-1 line crossed by two integral full lines."""
    a = point_on(1, c, F(0))
    b = point_on(1, c, F(-3, 2))
    lines = [
        (HLine(1, c, F(0), None), 1),
        (HLine(1, c, F(-3, 2), F(0)), 1),
        (HLine(1, c, None, F(-3, 2)), 1),
        (HLine(2, dval(a, 2), t_of(2, a), None), 1),
        (HLine(2, dval(a, 2), None, t_of(2, a)), 1),
        (HLine(3, dval(b, 3), t_of(3, b), None), 1),
        (HLine(3, dval(b, 3), None, t_of(3, b)), 1),
    ]
    return canonicalize_rational(lines)


def benzene_cycle(base=(F(1, 3), F(1, 3)), scale=F(1)):
    """Hexagonal face with alternating claw/anticlaw corners; returns the
    honeycomb and its face cycle as a legal path."""
    steps = [(0, 0), (0, 1), (-1, 2), (-2, 2), (-2, 1), (-1, 0)]
    verts = [
        (base[0] + scale * da, base[1] + scale * db) for da, db in steps
    ]
    ray_slots = [(3, "+"), (2, "-"), (1, "+"), (3, "-"), (2, "+"), (1, "-")]
    edge_cls = [1, 3, 2, 1, 3, 2]
    lines = []
    for i in range(6):
        u, w = verts[i], verts[(i + 1) % 6]
        cls = edge_cls[i]
        assert dval(u, cls) == dval(w, cls)
        ts = sorted((t_of(cls, u), t_of(cls, w)))
        lines.append((HLine(cls, dval(u, cls), ts[0], ts[1]), 1))
    for (cls, sign), v in zip(ray_slots, verts):
        t = t_of(cls, v)
        span = (t, None) if sign == "+" else (None, t)
        lines.append((HLine(cls, dval(v, cls), span[0], span[1]), 1))
    hc = canonicalize_rational(lines)
    cyc_edges = []
    for i in range(6):
        u, w = verts[i], verts[(i + 1) % 6]
        cls = edge_cls[i]
        ts = sorted((t_of(cls, u), t_of(cls, w)))
        (e,) = [x for x in hc.edges if frac_span(hc, x) == (cls, dval(u, cls), ts[0], ts[1])]
        cyc_edges.append(e)
    cyc_verts = [at_scale(hc, v) for v in verts]
    path = LegalPath(tuple(cyc_verts + [cyc_verts[0]]), tuple(cyc_edges), True)
    return hc, path


def spent_budget_honeycomb():
    """Six claw and anticlaw corners, ``v`` and ``u`` joined by an edge of
    weight 2, and a loop from ``u`` back onto that edge from beyond ``u``.
    Returns the honeycomb and ``v`` and ``u`` in its ints."""
    third = F(1, 3)
    v, u, p1, p2, p3, p4 = [(third * a, third * b) for a, b in ((2, 1), (0, 1), (-6, 7), (-8, 7), (-8, 3), (-6, 1))]

    def seg(cls, a, b):
        return (HLine(cls, dval(a, cls), *sorted((t_of(cls, a), t_of(cls, b)))), 1)

    def ray(cls, a, sign):
        t = t_of(cls, a)
        return (HLine(cls, dval(a, cls), *((t, None) if sign == "+" else (None, t))), 1)

    lines = [
        ray(1, v, "+"), ray(3, v, "+"), seg(2, p4, v),  # claw at v, its class-2 ray cut at p4
        ray(1, u, "-"), ray(2, u, "-"), seg(3, u, p1),  # anticlaw at u
        ray(1, p1, "+"), seg(2, p1, p2),  # claw at p1
        seg(1, p2, p3), ray(3, p2, "-"),  # anticlaw at p2
        ray(2, p3, "+"), seg(3, p3, p4),  # claw at p3
        ray(1, p4, "-"),  # anticlaw at p4
    ]
    hc = canonicalize_rational(lines)
    return hc, at_scale(hc, v), at_scale(hc, u)


def test_dominating_edge_goes_straight_once_its_bend_budget_is_spent():
    # The path enters v on its one nonintegral class-1 ray and bends onto
    # the weight-2 edge to u, spending v's budget of |divergency| = 1.
    # It bends at u and at the four loop corners, comes back to u from
    # beyond it on the same line, passes straight, and reaches v again on
    # that dominating edge: all of v's bends use it, so the path goes on
    # straight through its opposite slot, out along the ray.
    hc, v, u = spent_budget_honeycomb()
    assert (hc.scale, divergency(hc, v), divergency(hc, u)) == (3, 1, -1)
    p = find_legal_path(hc)
    check_legal_path(hc, p)
    vu = p.edges[1]
    assert (vu.cls, vu.weight, set(vu.ends())) == (2, 2, {v, u})
    assert p.verts[:3] == (None, v, u) and p.verts[-3:] == (u, v, None)
    assert not p.is_cycle and len(p.edges) == 9 and p.edges[7] == vu
    assert [i for i in p.bend_positions if p.verts[i] == v] == [1]  # the last visit goes straight
    assert p.edges[8] == hc.incidence[v][(2, "-")] and p.edges[8].is_ray


def test_dominating_edges_balanced_vertex():
    both = canonicalize_rational(frac_lines(claw((F(0), F(0)))) + frac_lines(claw((F(0), F(0)), sign="-")))
    assert dominating_edges(both, (F(0), F(0))) == frozenset()


def test_dominating_edges_claw():
    hc = claw((F(0), F(0)))
    assert dominating_edges(hc, (F(0), F(0))) == frozenset(hc.edges)


def test_dominating_edges_sample_vertex():
    hc = sample_honeycomb()
    v = (F(-1), F(0))
    dom = dominating_edges(hc, v)
    assert {(e.cls, e.sign_at(v)) for e in dom} == {(1, "+"), (2, "+"), (3, "+")}
    assert sorted(e.weight for e in dom) == [2, 3, 3]


def test_is_legal_pair():
    hc = claw((F(1, 2), F(-1, 2)))  # two rays nonintegral, one integral
    center = at_scale(hc, (F(1, 2), F(-1, 2)))
    es = {(e.cls): e for e in hc.edges}
    assert is_legal_pair(hc, center, es[1], es[2])  # both dominating, nonintegral
    assert not is_legal_pair(hc, center, es[1], es[3])  # d^c(class 3) = 0 integral
    assert not is_legal_pair(hc, center, es[1], es[1])
    line = nonintegral_line_honeycomb()
    a = at_scale(line, point_on(1, F(1, 2), F(0)))
    opp = {e.sign_at(a): e for e in line.edges if e.cls == 1 and a in e.ends()}
    assert is_legal_pair(line, a, opp["+"], opp["-"])
    # opposite but integral edges never form a legal pair
    cross = {e.sign_at(a): e for e in line.edges if e.cls == 2 and a in e.ends()}
    assert frac_span(line, cross["+"])[1].denominator == 1
    assert not is_legal_pair(line, a, cross["+"], cross["-"])


def test_find_legal_path_integral_raises():
    with pytest.raises(NoNonintegralEdge):
        find_legal_path(claw((F(0), F(0))))


def test_find_legal_path_single_line_no_bends():
    hc = nonintegral_line_honeycomb()
    p = find_legal_path(hc)
    assert not p.is_cycle
    assert len(p.edges) == 3
    assert p.bend_positions == ()
    assert p.verts[0] is None and p.verts[-1] is None


def test_benzene_cycle_is_legal():
    hc, path = benzene_cycle()
    check_legal_path(hc, path)
    assert len(path.bend_positions) == 6
    # claw/anticlaw corners alternate
    divs = [divergency(hc, v) for v in path.verts[:-1]]
    assert divs == [1, -1, 1, -1, 1, -1]


def test_hexagon_instance_path_invariants():
    hc = grid_to_honeycomb(*hexagon_instance(2))
    p = find_legal_path(hc)  # check_legal_path runs inside
    assert all(frac_span(hc, e)[1].denominator != 1 for e in p.edges)


def test_paths_on_corpus_satisfy_invariants():
    open_seen = cycle_seen = 0
    for g, h in corpus(40, seed0=300):
        hc = grid_to_honeycomb(g, h)
        vs, _ = nonintegral_sets(hc)
        if not vs:
            continue
        p = find_legal_path(hc)
        if p.is_cycle:
            cycle_seen += 1
        else:
            open_seen += 1
    assert open_seen > 0


def test_cycle_has_two_consecutive_equal_turns():
    from cocirc.deform import decompose

    _, path = benzene_cycle()
    pl = decompose(path)
    turns = [b.turn for b in pl.bends]
    assert any(turns[i] == turns[(i + 1) % len(turns)] for i in range(len(turns)))


def test_path_bend_triples_match_decomposition():
    from cocirc.deform import decompose

    hc, path = benzene_cycle()
    pl = decompose(path)
    assert [b.turn for b in pl.bends] == ["left"] * 6
    for b in pl.bends:
        e_in = pl.lines[b.index].edges[-1]
        e_out = pl.lines[(b.index + 1) % len(pl.lines)].edges[0]
        assert b.vertex in e_in.ends() and b.vertex in e_out.ends()
        assert is_legal_pair(hc, b.vertex, e_in, e_out)
    line = nonintegral_line_honeycomb()
    assert decompose(find_legal_path(line)).bends == ()
