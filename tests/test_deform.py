import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    at_scale,
    canonicalize_rational,
    frac_lines,
    frac_span,
    fuzz_corpus,
    oracle_meet_time,
    oracle_turn,
    reference_candidates,
    reference_stop_epsilon,
)
from test_paths import benzene_cycle, nonintegral_line_honeycomb
from cocirc.constructions import counterexample_instance, fractional_vertex_instance, hexagon_instance
from cocirc.deform import (
    STOP_BOUNDARY_INTEGRAL,
    STOP_INTEGRAL_VERTEX,
    STOP_OPPOSITE_MERGE,
    STOP_LINE_VANISHED,
    STOP_VALIDITY_BOUND,
    Bend,
    _candidates,
    _meet_time,
    build_deformed_system,
    canonicalize_patch,
    decompose,
    deform,
    orient_cycle_rightward,
    shifted_point,
    stop_epsilon,
)
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import EpsilonOutOfRange
from cocirc.grid import random_concave, three_side_grid
from cocirc.honeycomb import canonicalize, claw, is_prehoneycomb
from cocirc.integralize import potential
from cocirc.paths import LegalPath, check_legal_path, find_legal_path
from cocirc.spans import HEdge, HLine, dval, point_on, t_of

F = Fraction


def shifted_claw_path(center):
    hc = claw(center)
    p = find_legal_path(hc)
    assert not p.is_cycle and len(p.edges) == 2
    return hc, p


def zigzag_collision_fixture(T=F(3), S=F(3), m=F(1)):
    """Open path with left turns at both ends whose negative stubs travel
    toward each other inside one covering edge; they collide at m/2,
    before either end line reaches an integer coordinate."""
    A = (F(9, 10), F(1, 6))
    moves = {90: (0, -1), 30: (-1, 0), 150: (1, -1), 210: (1, 0), 270: (0, 1), 330: (-1, 1)}

    def walk(p, ang, dist):
        da, db = moves[ang]
        return (p[0] + da * dist, p[1] + db * dist)

    x1 = walk(A, 150, T)
    x2 = walk(x1, 90, S)
    x3 = walk(x2, 30, m)
    x4 = walk(x3, 330, T)
    B = walk(x4, 270, S)
    assert B == walk(A, 30, m)

    def seg(cls, u, w):
        ts = sorted((t_of(cls, u), t_of(cls, w)))
        return HLine(cls, dval(u, cls), ts[0], ts[1])

    def ray(cls, sign, v):
        t = t_of(cls, v)
        return HLine(cls, dval(v, cls), *((t, None) if sign == "+" else (None, t)))

    path_lines = [
        ray(1, "+", A),
        seg(3, A, x1),
        seg(1, x1, x2),
        seg(2, x2, x3),
        seg(3, x3, x4),
        seg(1, x4, B),
        ray(3, "-", B),
    ]
    extras = [
        seg(2, A, B),  # covering edge for both negative stubs
        ray(2, "-", x1),
        ray(3, "+", x2),
        ray(1, "-", x3),
        ray(2, "+", x4),
    ]
    hc = canonicalize_rational([(l, 1) for l in path_lines + extras])
    by_line = {frac_span(hc, e): e for e in hc.edges}
    edges = tuple(by_line[(l.cls, l.c, l.lo, l.hi)] for l in path_lines)
    verts = tuple(at_scale(hc, v) for v in (A, x1, x2, x3, x4, B))
    path = LegalPath((None, *verts, None), edges, False)
    check_legal_path(hc, path)
    return hc, path, A, B


def test_shifted_point_four_cases():
    u = (F(0), F(0))
    e = F(1, 3)
    # incoming class p, outgoing class q, both sign '+': d_p drops, d_q grows
    p13 = shifted_point(u, e, 1, 3, "+")
    assert dval(p13, 1) == -e and dval(p13, 3) == e and dval(p13, 2) == 0
    p12 = shifted_point(u, e, 1, 2, "+")
    assert dval(p12, 1) == -e and dval(p12, 2) == e
    m12 = shifted_point(u, e, 1, 2, "-")
    assert dval(m12, 1) == e and dval(m12, 2) == -e
    m13 = shifted_point(u, e, 1, 3, "-")
    assert dval(m13, 1) == e and dval(m13, 3) == -e
    assert shifted_point(u, F(0), 2, 3, "+") == u


def test_decompose_single_full_line():
    hc = nonintegral_line_honeycomb()
    p = find_legal_path(hc)
    pl = decompose(p)
    assert len(pl.lines) == 1 and not pl.bends
    line = pl.lines[0]
    assert line.start is None and line.end is None


def test_decompose_benzene_cycle():
    hc, path = benzene_cycle()
    pl = decompose(path)
    assert len(pl.lines) == 6
    assert all(l.is_finite and l.length() == hc.scale for l in pl.lines)  # length 1
    assert len(pl.bends) == 6
    assert len({b.turn for b in pl.bends}) == 1  # all the same direction


def test_build_at_zero_is_identity():
    hc, p = shifted_claw_path((F(1, 3), F(1, 3)))
    pl = decompose(p)
    ds = build_deformed_system(hc, pl, F(0))
    assert canonicalize(ds.lines, ds.scale) == hc


def test_build_epsilon_out_of_range():
    hc, path = benzene_cycle()
    pl = orient_cycle_rightward(path)
    assert pl.vanish_bound() == hc.scale  # 1
    with pytest.raises(EpsilonOutOfRange):
        build_deformed_system(hc, pl, F(3, 2))
    with pytest.raises(EpsilonOutOfRange):
        build_deformed_system(hc, pl, F(-1, 2))


def test_right_turn_bend_bookkeeping():
    # one right bend: background loses the two path rays, gains the two
    # moved rays and a +1 stub along the third line
    hc, p = shifted_claw_path((F(1, 3), F(1, 3)))
    pl = decompose(p)
    assert [b.turn for b in pl.bends] == ["right"]
    sys_eps = build_deformed_system(hc, pl, F(1, 6))
    weights = sorted(w for _, w in sys_eps.lines)
    assert weights == [1, 1, 1, 1]  # third ray, stub, two moved rays
    stub = [l for l, w in sys_eps.lines if l.is_finite]
    assert len(stub) == 1 and stub[0].cls == 3
    assert is_prehoneycomb(sys_eps.lines)


def test_deform_translates_claw():
    hc, p = shifted_claw_path((F(1, 3), F(1, 3)))
    h2, ev = deform(hc, p)
    assert ev.eps == F(1, 3)
    assert ev.kinds == (STOP_BOUNDARY_INTEGRAL,)
    assert h2 == claw((F(0), F(2, 3)))


def test_deform_left_is_mirror():
    hc, p = shifted_claw_path((F(1, 3), F(1, 3)))
    h2, ev = deform(hc, p, direction="left")
    assert ev.eps == F(1, 3)
    assert h2 == claw((F(2, 3), F(0)))


def test_deform_left_is_right_of_reversed_path(small_corpus):
    # At every step of the rounding loop, moving the path to its left is
    # moving the reversed path to its right: the same honeycomb and stop.
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    instances.append(counterexample_instance())
    instances += fuzz_corpus()
    steps = cycles = rotations = 0
    for g, h in instances:
        hc = grid_to_honeycomb(g, h)
        while not potential(hc).settled:
            path = find_legal_path(hc)
            assert deform(hc, path, "left") == deform(hc, path.reversed())
            # The class rule for turns agrees with the plane angles.
            for pl in (decompose(path), decompose(path.reversed())):
                for b in pl.bends:
                    assert b.turn == oracle_turn(pl, b)
            steps += 1
            cycles += path.is_cycle
            moved = deform(hc, path)
            if path.is_cycle:
                # A cycle's deformation does not depend on where it starts.
                for k in range(1, len(path.edges)):
                    if k not in path.bend_positions:
                        assert deform(hc, path.rotated(k)) == moved
                        rotations += 1
            hc, _ = moved
    assert steps > 200 and cycles > 0 and rotations > 0


def test_stop_epsilon_e1_increasing_direction():
    # traversal chosen so the right shift pushes d^c = 1/3 upward to 1
    hc = nonintegral_line_honeycomb(F(1, 3))
    by_sign = {e.ray_sign: e for e in hc.edges if e.cls == 1 and e.is_ray}
    finite = next(e for e in hc.edges if e.cls == 1 and e.is_finite)
    a = at_scale(hc, point_on(1, F(1, 3), F(0)))
    b = at_scale(hc, point_on(1, F(1, 3), F(-3, 2)))
    upward = LegalPath((None, b, a, None), (by_sign["-"], finite, by_sign["+"]), False)
    check_legal_path(hc, upward)
    ev = stop_epsilon(hc, decompose(upward))
    assert ev.eps == F(2, 3) and ev.kinds == (STOP_BOUNDARY_INTEGRAL,)
    downward = upward.reversed()
    ev2 = stop_epsilon(hc, decompose(downward))
    assert ev2.eps == F(1, 3)


def test_benzene_collapse_to_center():
    for scale, base in ((F(1), (F(1, 3), F(1, 3))), (F(5, 2), (F(1, 4), F(1, 4)))):
        hc, path = benzene_cycle(base=base, scale=scale)
        h2, ev = deform(hc, path)
        assert ev.eps == scale
        assert STOP_LINE_VANISHED in ev.kinds and STOP_OPPOSITE_MERGE in ev.kinds
        center = (base[0] - scale, base[1] + scale)
        assert len(h2.vertices) == 1 and h2.point(h2.vertices[0]) == center
        assert len(h2.edges) == 6 and all(e.is_ray and e.weight == 1 for e in h2.edges)


def test_length_rule():
    # right turns at both ends shrink a piece by eps; mixed turns keep or
    # grow it
    hc, path, A, B = zigzag_collision_fixture()
    pl = decompose(path)
    from cocirc.deform import _moved_line_span

    eps = F(1, 4)
    for i, line in enumerate(pl.lines):
        if not line.is_finite:
            continue
        ba, bb = pl.bend_before(i), pl.bend_after(i)
        _, _, lo, hi = _moved_line_span(pl, i, eps)
        new_len = hi - lo
        if ba.turn == "right" and bb.turn == "right":
            assert new_len == line.length() - eps
        else:
            assert new_len >= line.length()


def test_zigzag_validity_bound_collision():
    hc, path, A, B = zigzag_collision_fixture()
    pl = decompose(path)
    turns = [b.turn for b in pl.bends]
    assert turns == ["left", "right", "right", "right", "right", "left"]
    # left bends patch with weight -1 stubs, right bends with +1
    stubs = [w for l, w in build_deformed_system(hc, pl, F(1, 8)).lines if w < 0]
    assert stubs == [-1, -1]
    assert pl.vanish_bound() == hc.scale  # 1
    ev = stop_epsilon(hc, pl)
    assert ev.eps == F(1, 2)
    assert STOP_OPPOSITE_MERGE in ev.kinds and STOP_VALIDITY_BOUND in ev.kinds
    h2, ev2 = deform(hc, path)
    assert ev2.eps == F(1, 2)
    # the two negative stubs merged in the middle of the covering edge
    mid = (A[0] - F(1, 2), A[1])
    assert at_scale(h2, mid) in h2.vertices


def test_random_epsilon_prehoneycomb():
    rng = random.Random(7)
    for fixture in (zigzag_collision_fixture(), benzene_cycle(scale=F(2))):
        hc, path = fixture[0], fixture[1]
        pl = orient_cycle_rightward(path) if path.is_cycle else decompose(path)
        ev = stop_epsilon(hc, pl)
        for _ in range(10):
            eps = ev.eps * F(rng.randint(1, 63), 64)
            assert is_prehoneycomb(build_deformed_system(hc, pl, eps).lines)


def test_meet_time_in_half_units():
    # twice the meeting time, against the Fraction solution, for every pair
    # of rates in {-1, 0, 1} and offsets in -3..3
    rates = list(itertools.product((-1, 0, 1), repeat=2))
    offsets = list(itertools.product(range(-3, 4), repeat=2))
    for mu, mv in itertools.product(rates, repeat=2):
        for v in offsets:
            t = oracle_meet_time((0, 0), mu, v, mv)
            assert _meet_time((0, 0), mu, v, mv) == (None if t is None else 2 * t)
    assert _meet_time((0, 0), (1, -1), (1, -1), (-1, 1)) == 1  # half a unit


def test_stop_epsilon_deterministic():
    hc, path, *_ = zigzag_collision_fixture()
    pl = decompose(path)
    assert stop_epsilon(hc, pl) == stop_epsilon(hc, pl)


def racket_fixture():
    """Weight-2 handle walked down and back around a hexagon loop: the
    background copy of the handle drops to zero, never below."""
    from test_paths import benzene_cycle

    base = (F(1, 3), F(1, 3))
    hc0, cyc = benzene_cycle(base=base)
    lines = []
    for e, _ in frac_lines(hc0):
        if e.is_finite:
            lines.append((e, 2))  # hexagon sides
        elif e.ends()[0] == base:
            continue  # the corner ray is replaced by the handle
        else:
            lines.append((e, 2))  # corner rays
    w = (base[0] + 2, base[1] - 2)  # two steps out along the third line
    t0, t1 = sorted((t_of(3, base), t_of(3, w)))
    lines.append((HLine(3, dval(base, 3), t0, t1), 2))  # handle
    lines.append((HLine(3, dval(w, 3), t_of(3, w), None), 1))  # exit ray
    lines.append((HLine(1, dval(w, 1), None, t_of(1, w)), 1))
    lines.append((HLine(2, dval(w, 2), None, t_of(2, w)), 1))
    hc = canonicalize_rational(lines)

    def edge_at(cls, c, lo, hi):
        (e,) = [x for x in hc.edges if frac_span(hc, x) == (cls, c, lo, hi)]
        return e

    handle = edge_at(3, dval(base, 3), t0, t1)
    enter = edge_at(1, dval(w, 1), None, t_of(1, w))
    exit_ray = edge_at(3, dval(w, 3), t_of(3, w), None)
    ring = []
    verts_cycle = [at_scale(hc, hc0.point(v)) for v in cyc.verts[:-1]]
    for i in range(6):
        ring.append(edge_at(*frac_span(hc0, cyc.edges[i])))
    base_v, w_v = at_scale(hc, base), at_scale(hc, w)
    verts = (None, w_v, base_v, *verts_cycle[1:], base_v, w_v, None)
    edges = (enter, handle, *ring, handle, exit_ray)
    path = LegalPath(verts, edges, False)
    check_legal_path(hc, path)
    return hc, path, handle


def test_double_use_weight_bookkeeping():
    hc, path, handle = racket_fixture()
    assert [path.edges.count(handle)] == [2] and handle.weight == 2
    pl = decompose(path)
    assert len(pl.lines) == 9 and len(pl.bends) == 8
    eps = F(1, 5)
    sys_eps = build_deformed_system(hc, pl, eps)
    # the handle is fully consumed; every hexagon side keeps one copy
    span = frac_span(hc, handle)
    assert all((l.cls, l.c, l.lo, l.hi) != span for l, _ in frac_lines(sys_eps))
    assert is_prehoneycomb(sys_eps.lines)
    h2, ev = deform(hc, path)
    assert ev.eps > 0


def _tag_rows(candidates, time, point):
    """Sorted (time, kind, ...) rows of tagged candidates, in Fractions."""

    def name(x):
        return ("bend", x.index) if isinstance(x, Bend) else ("point", point(x))

    rows = []
    for k, tags in candidates.items():
        for tag in tags:
            rest = [name(x) if isinstance(x, (Bend, tuple)) else x for x in tag[1:]]
            rows.append((time(k), tag[0], *rest))
    return sorted(rows)


def test_capped_sweep_matches_uncapped_reference(small_corpus):
    # every rightward step of the rounding loop on each instance
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    instances.append(counterexample_instance())
    kinds = set()
    meets = 0
    for g, h in instances:
        hc = grid_to_honeycomb(g, h)
        while not potential(hc).settled:
            path = find_legal_path(hc)
            pl = orient_cycle_rightward(path) if path.is_cycle else decompose(path)
            ev = stop_epsilon(hc, pl)
            assert ev == reference_stop_epsilon(hc, pl)
            kinds.update(ev.kinds)
            # the same candidates, meets and sweeps included, up to the cap
            ref = reference_candidates(hc, pl)
            cap = min((t for t, tags in ref.items() if any(x[0] in ("eps0", "e1") for x in tags)), default=None)
            expected = _tag_rows(ref, lambda t: t, lambda p: p)
            got = _tag_rows(_candidates(hc, pl), lambda k: F(k, 2 * hc.scale), hc.point)
            assert [r for r in got if cap is None or r[0] <= cap] == [
                r for r in expected if cap is None or r[0] <= cap
            ]
            meets += sum(1 for r in got if r[1] == "meet")
            ds = build_deformed_system(hc, pl, ev.eps)
            hc = canonicalize(ds.lines, ds.scale)
            assert canonicalize_rational(frac_lines(ds)) == hc  # at the lcm of its denominators
    assert STOP_INTEGRAL_VERTEX in kinds and meets > 0


def test_patch_canonicalize_matches_full_at_every_step(small_corpus):
    # Each deformation of the rounding loop, canonicalized from the
    # honeycomb and its delta, equals the full canonicalize of the whole
    # deformed system, index maps included; the stop itself, which reads
    # the mid-interval weights locally, equals the reference's.
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    instances.append(counterexample_instance())
    instances += [fractional_vertex_instance(k)[:2] for k in range(1, 6)]
    instances += fuzz_corpus()
    # Its tenth step stops at eps = 45/14, half a unit of scale 7, so the
    # deformed system is at scale 14 (the one finer step here); the tenth
    # and eleventh canonical forms coarsen it 14 -> 2 -> 1.
    g4 = three_side_grid(4)
    instances.append((g4, random_concave(g4, 26, 7)))
    steps = finer = coarser = 0
    for g, h in instances:
        hc = grid_to_honeycomb(g, h)
        while not potential(hc).settled:
            path = find_legal_path(hc)
            pl = orient_cycle_rightward(path) if path.is_cycle else decompose(path)
            ev = stop_epsilon(hc, pl)
            assert ev == reference_stop_epsilon(hc, pl)
            ds = build_deformed_system(hc, pl, ev.eps)
            full = canonicalize(ds.lines, ds.scale)
            local = canonicalize_patch(ds)
            assert (local.vertices, local.edges, local.scale) == (full.vertices, full.edges, full.scale)
            assert local.supports == full.supports and local == full
            assert all(local.supports.values()) and all(full.supports.values())  # no empty support
            assert full.edges == tuple(sorted(full.edges, key=HEdge.sort_key))
            assert local.incidence == full.incidence
            assert local.on_line == full.on_line  # lists compare in order
            finer += ds.scale > hc.scale
            coarser += local.scale < ds.scale
            steps += 1
            hc = local
    assert steps > 200 and finer > 0 and coarser > 0
