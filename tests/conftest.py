"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import copy
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import assume, settings, strategies as st

from cocirc import serialize
from cocirc.constructions import (
    counterexample_instance,
    fractional_vertex_instance,
    hexagon_instance,
    random_honeycomb,
    sample_honeycomb,
)
from cocirc.deform import (
    STOP_BOUNDARY_INTEGRAL,
    STOP_INTEGRAL_VERTEX,
    STOP_LINE_VANISHED,
    STOP_OPPOSITE_MERGE,
    STOP_VALIDITY_BOUND,
    Bend,
    StopEvent,
    _moved_line_span,
    build_deformed_system,
)
from cocirc.duality import grid_to_honeycomb, honeycomb_to_grid
from cocirc.errors import NotPreHoneycomb
from cocirc.grid import (
    ConvexGrid,
    cocirculation_from_quadratic,
    edge_head,
    edge_tail,
    fill_convex_polygon,
    three_side_grid,
    triangle_edges,
    triangle_vertices,
)
from cocirc.honeycomb import Honeycomb, Patch, canonicalize, divergency, vertices_by_line
from cocirc.paths import TURN_LEFT, TURN_RIGHT
from cocirc.spans import (
    HEdge,
    HLine,
    Pt,
    _check_full_lines,
    _Coverage,
    _crossings,
    _cut,
    _is_vertex,
    _live,
    _sorted_keys,
    dval,
    nxt,
    point_from_two,
    six_weights,
    t_of,
)

# A fixed example order and no deadline, so a failure in CI repeats
# anywhere: select with --hypothesis-profile=ci.
settings.register_profile("ci", derandomize=True, deadline=None)


def hexagon_grid(a: int, b: int, c: int) -> ConvexGrid:
    """Hexagon with opposite sides equal: lengths (a, b, c, a, b, c)."""
    corners = [
        (0, 0),
        (a, 0),
        (a + b, b),
        (a + b, b + c),
        (b, b + c),
        (0, c),
    ]
    return ConvexGrid(fill_convex_polygon(corners))


def mixed_concave(g: ConvexGrid, seed: int):
    """Concave samples richer than pure strict quadratics: degenerate
    directions, integer parts and coarse denominators all occur."""
    rng = random.Random(seed)
    d = rng.choice([1, 2, 3, 4, 6])
    beta = Fraction(rng.randint(1, 3 * d), d)
    style = rng.randrange(4)
    if style == 0:
        alpha = Fraction(rng.randint(1, 3 * d), d)
        while alpha > 3 * beta:
            alpha = Fraction(rng.randint(1, 3 * d), d)
    elif style == 1:
        alpha = 3 * beta  # ties every class-1 rhombus: horizontal strips
    elif style == 2:
        alpha = Fraction(0)  # flat along one class
    else:
        alpha = beta
    lam = Fraction(rng.randint(-3 * d, 3 * d), d)
    mu = Fraction(rng.randint(-3 * d, 3 * d), d)
    h = cocirculation_from_quadratic(g, alpha, beta, lam, mu)
    if style == 3:
        # add an integer concave part so integral vertices appear early
        h2 = cocirculation_from_quadratic(g, Fraction(d), Fraction(d), Fraction(rng.randint(-3, 3)))
        h = {e: h[e] + h2[e] for e in h}
    return h


def corpus(n: int, seed0: int = 0):
    """Deterministic list of (grid, cocirculation) pairs of varied shape."""
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
    out = []
    for i in range(n):
        g = shapes[i % len(shapes)]
        out.append((g, mixed_concave(g, seed0 + i)))
    return out


def oracle_rhombus_pairs(diag, t1, t2):
    """Both parallel edge pairs of a rhombus as (dominant, other), in class
    order.  The dominant edge is the one entering an obtuse rhombus vertex,
    i.e. an endpoint of the shared diagonal."""
    obtuse = {edge_tail(diag), edge_head(diag)}
    pairs = []
    for cls in (1, 2, 3):
        if cls == diag[2]:
            continue
        e1, e2 = triangle_edges(t1)[cls - 1], triangle_edges(t2)[cls - 1]
        in1, in2 = edge_head(e1) in obtuse, edge_head(e2) in obtuse
        assert in1 != in2, (diag, e1, e2)
        pairs.append((e1, e2) if in1 else (e2, e1))
    return pairs


def oracle_edge_faces(triangles):
    """Each edge's faces in sorted order, listed face by face: the per-grid
    table that the lattice rules of ``cocirc.grid`` replaced."""
    faces = {}
    for t in sorted(triangles):
        for e in triangle_edges(t):
            faces.setdefault(e, []).append(t)
    return {e: tuple(ts) for e, ts in faces.items()}


def oracle_rhombi(triangles):
    """The rhombus table built on ``oracle_edge_faces``: each interior edge
    in sorted order, its two faces, and ``(dom, other)`` in the least class
    that is not the edge's."""
    out = []
    for diag, ts in sorted(oracle_edge_faces(triangles).items()):
        if len(ts) != 2:
            continue
        t1, t2 = ts
        cls = 2 if diag[2] == 1 else 1
        e1, e2 = triangle_edges(t1)[cls - 1], triangle_edges(t2)[cls - 1]
        if edge_head(e1) in (edge_tail(diag), edge_head(diag)):
            out.append((diag, t1, t2, e1, e2))
        else:
            out.append((diag, t1, t2, e2, e1))
    return out


def oracle_tiling(g, h):
    """The union-find tiling that grouping by dual point replaced: faces
    joined across each tight rhombus of ``oracle_rhombi``, the tiles
    sorted by their least face.  ``h`` is concave on ``g``."""
    parent = {t: t for t in g.triangles}

    def root(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for _, t1, t2, dom, other in oracle_rhombi(g.triangles):
        assert h[dom] >= h[other]
        if h[dom] == h[other]:
            parent[root(t1)] = root(t2)
    tiles = {}
    for t in g.triangles:
        tiles.setdefault(root(t), set()).add(t)
    return tuple(sorted((frozenset(ts) for ts in tiles.values()), key=min))


# Anticlockwise boundary steps of a lattice hexagon, one per side.
HEXAGON_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


@st.composite
def convex_hexagons(draw):
    """The triangles of a convex lattice hexagon with side lengths 0..5, at
    least three of them nonzero, filled by ``fill_convex_polygon``.  The
    walk along ``HEXAGON_STEPS`` closes when ``w1 - w4 = w5 - w2 = w3 - w6``."""
    w1, w2, w3 = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    d = draw(st.integers(max(w1 - 5, w3 - 5, -w2), min(w1, w3, 5 - w2)))
    sides = (w1, w2, w3, w1 - d, w2 + d, w3 - d)
    assume(sum(n > 0 for n in sides) >= 3)
    corner, corners = (0, 0), []
    for n, (da, db) in zip(sides, HEXAGON_STEPS):
        corners.append(corner)
        corner = (corner[0] + n * da, corner[1] + n * db)
    assert corner == (0, 0)
    return fill_convex_polygon(corners)


def oracle_ray_weights(lines, v: Pt):
    """First-principles ray weights: parameterise each line and test the
    two half-line intersections for positive length."""
    out = {(cls, s): 0 for cls in (1, 2, 3) for s in ("+", "-")}
    for line, w in lines:
        if dval(v, line.cls) != line.c:
            continue
        t = t_of(line.cls, v)
        lo = t if line.lo is None else max(line.lo, t)
        hi = line.hi
        if (hi is None or lo < hi) and (line.lo is None or line.lo <= t) and (
            line.hi is None or t <= line.hi
        ):
            out[(line.cls, "+")] += w
        lo2 = line.lo
        hi2 = t if line.hi is None else min(line.hi, t)
        if (lo2 is None or lo2 < hi2) and (line.lo is None or line.lo <= t) and (
            line.hi is None or t <= line.hi
        ):
            out[(line.cls, "-")] += w
    return out


def oracle_fill_convex_polygon(corners):
    """Every triangle of the bounding box whose three corners pass the
    half-plane test of every polygon edge."""
    pts = [corners[i] for i in range(len(corners)) if corners[i] != corners[i - 1]]
    if len(pts) < 3:
        return frozenset()

    def inside(p):
        return all(
            (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) >= 0
            for o, q in zip(pts, pts[1:] + pts[:1])
        )

    amin, amax = min(a for a, _ in pts) - 1, max(a for a, _ in pts) + 1
    bmin, bmax = min(b for _, b in pts) - 1, max(b for _, b in pts) + 1
    out = set()
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            for t in ((True, a, b), (False, a, b)):
                if all(inside(v) for v in triangle_vertices(t)):
                    out.add(t)
    return frozenset(out)


def oracle_candidate_points(system, covs) -> set[Pt]:
    """All line ends plus the crossing of every two supports of different
    classes, covered there or not: O(L^2) points."""
    pts: set[Pt] = set()
    for line, w in system:
        if w != 0:
            pts.update(line.ends())
    keys = sorted(covs)
    for i, (cls1, c1) in enumerate(keys):
        for cls2, c2 in keys[i + 1 :]:
            if cls1 != cls2:
                pts.add(point_from_two(cls1, c1, cls2, c2))
    return pts


def oracle_incidence(hc):
    """The edge in each ray slot of each vertex, derived from the edge ends."""
    inc = {v: {} for v in hc.vertices}
    for e in hc.edges:
        for v in e.ends():
            if v in inc:
                slot = (e.cls, e.sign_at(v))
                assert slot not in inc[v], "two edges share a ray slot"
                inc[v][slot] = e
    return inc


# The plane-angle turn rule that ``decompose`` replaced by the class rule,
# kept as the oracle: the plane direction of each (class, sign) ray, in
# degrees, and the turn between two headings.
RAY_ANGLE = {
    (1, "+"): 270,
    (2, "+"): 30,
    (3, "+"): 150,
    (1, "-"): 90,
    (2, "-"): 210,
    (3, "-"): 330,
}


def turn_of(angle_in: int, angle_out: int) -> str:
    delta = (angle_out - angle_in) % 360
    assert delta in (60, 300), f"not a 60-degree bend: {angle_in}->{angle_out}"
    return TURN_LEFT if delta == 60 else TURN_RIGHT


def oracle_turn(pl, b) -> str:
    """The turn of the bend ``b`` of the path lines ``pl``, from the plane
    headings of the two edges that meet at it: the walk arrives against
    the ray of the incoming edge and leaves along that of the outgoing."""
    e_in = pl.lines[b.index].edges[-1]
    e_out = pl.lines[(b.index + 1) % len(pl.lines)].edges[0]
    a_in = (RAY_ANGLE[(e_in.cls, e_in.sign_at(b.vertex))] + 180) % 360
    return turn_of(a_in, RAY_ANGLE[(e_out.cls, e_out.sign_at(b.vertex))])


def at_scale(hc, p: Pt) -> Pt:
    """A rational point in the int coordinates of ``hc``."""
    x, y = (Fraction(c) * hc.scale for c in p)
    assert x.denominator == y.denominator == 1, (p, hc.scale)
    return (int(x), int(y))


def frac_span(hc, e):
    """``(cls, c, lo, hi)`` of an edge of ``hc`` in Fractions."""
    line = e.scaled(Fraction(1, hc.scale))
    return (line.cls, line.c, line.lo, line.hi)


def frac_lines(h):
    """The system of a honeycomb (its edges) or of a patch, in Fractions."""
    lines = h.lines if isinstance(h, Patch) else [(e, e.weight) for e in h.edges]
    unit = Fraction(1, h.scale)
    return [(line.scaled(unit), w) for line, w in lines]


def canonicalize_rational(system, canon=canonicalize):
    """``canon`` (``canonicalize`` or ``reference_canonicalize``) of a
    system given in rationals, brought to ints in units of ``1/L``, ``L``
    the lcm of its denominators."""
    scale = lcm(*(x.denominator for line, _ in system for x in (line.c, line.lo, line.hi) if x is not None))

    def up(x):
        return None if x is None else x.numerator * (scale // x.denominator)

    return canon([(HLine(ln.cls, up(ln.c), up(ln.lo), up(ln.hi)), w) for ln, w in system], scale)


# The full route that built every canonical form before the patch of the
# empty honeycomb did, kept as the reference of ``canonicalize``: the
# coverage of every support, every candidate point, then a cut of every
# support.  ``candidates`` may be swapped for ``oracle_candidate_points``.


def reference_supports(system) -> dict[tuple[int, int], _Coverage]:
    per: dict[tuple[int, int], list] = {}
    for line, w in system:
        if _live(line.lo, line.hi, w):
            per.setdefault((line.cls, line.c), []).append((line.lo, line.hi, w))
    return {key: _Coverage(iv) for key, iv in per.items()}


def reference_candidate_points(system, covs) -> set[Pt]:
    """All line ends, plus each crossing of two supports covered there."""
    pts: set[Pt] = set()
    for line, w in system:
        if w != 0:
            pts.update(line.ends())
    keys = _sorted_keys(covs)
    for key, cov in covs.items():
        cls2 = nxt(key[0])
        pts.update(_crossings(key, cov.spans(), cls2, keys[cls2], covs))
    return pts


def reference_vertices(system, covs, scale: int, candidates=reference_candidate_points) -> list[Pt]:
    """Candidate points with at least three nonzero ray weights, sorted.

    Raises NotPreHoneycomb on a line without ends whose coverage is
    negative, and at the least candidate that ``_is_vertex`` rejects.
    """
    _check_full_lines(covs.items(), scale)
    return [p for p in sorted(candidates(system, covs)) if _is_vertex(six_weights(covs, p), p, scale)]


def reference_is_prehoneycomb(system, candidates=reference_candidate_points) -> bool:
    try:
        reference_vertices(system, reference_supports(system), 1, candidates)
    except NotPreHoneycomb:
        return False
    return True


def reference_canonicalize(system, scale: int, candidates=reference_candidate_points) -> Honeycomb:
    covs = reference_supports(system)
    verts = reference_vertices(system, covs, scale, candidates)
    if not verts:
        raise NotPreHoneycomb("covered set has no vertex")
    g = gcd(scale, *(x for v in verts for x in v))
    slots: dict[Pt, dict[tuple[int, str], HEdge]] = {v: {} for v in verts}
    on_line = vertices_by_line(verts)
    supports: dict[tuple[int, int], tuple[HEdge, ...]] = {}
    # In sorted order, so that the least violation raises first.
    for (cls, c), cov in sorted(covs.items()):
        at = sorted((t_of(cls, v), v) for v in on_line.get((cls, c), ()))
        if edges := _cut(cls, c, cov, at, g, scale, slots):
            supports[(cls, c // g)] = edges
    if g > 1:
        slots = {(v[0] // g, v[1] // g): vs for v, vs in slots.items()}
        on_line = vertices_by_line(slots)
    hc = Honeycomb(supports, scale // g, slots, on_line)
    for v, vs in slots.items():
        assert len(vs) >= 3
        divergency(hc, v)
    return hc


def oracle_meet_time(u, mu, v, mv):
    """Positive solution of u + t*mu == v + t*mv, if any, in Fractions."""
    t = None
    for k in range(2):
        dm = mu[k] - mv[k]
        dp = v[k] - u[k]
        if dm == 0:
            if dp != 0:
                return None
        else:
            cand = Fraction(dp, 1) / dm
            if t is None:
                t = cand
            elif t != cand:
                return None
    return t if t is not None and t > 0 else None


def _is_integral(p: Pt) -> bool:
    return p[0].denominator == 1 and p[1].denominator == 1


def reference_candidates(h, pl):
    """The tagged candidate stops of ``deform.stop_epsilon`` before its
    sweep and its meets were capped, in Fractions of the plane: every path
    line meets every integral vertex ahead of it, and every meet is kept.
    Tags name points in Fractions."""
    unit = Fraction(1, h.scale)

    def pt(p):
        return (p[0] * unit, p[1] * unit)

    verts = [pt(v) for v in h.vertices]
    movers = [(b, pt(b.vertex), b.motion()) for b in pl.bends]
    integral_verts = [v for v in verts if _is_integral(v)]
    on_line = vertices_by_line(verts)
    vanish = pl.vanish_bound()
    vanish = None if vanish is None else vanish * unit
    is_open = not pl.is_cycle

    candidates = {}

    def add(eps, tag):
        if eps > 0 and (vanish is None or eps <= vanish):
            candidates.setdefault(eps, []).append(tag)

    if vanish is not None:
        add(vanish, ("eps0",))
    if is_open:
        for i in (0, len(pl.lines) - 1):
            line = pl.lines[i]
            c = line.c * unit
            assert c.denominator != 1
            if line.trav == 1:
                add(Fraction(c.__ceil__()) - c, ("e1", i))
            else:
                add(c - Fraction(c.__floor__()), ("e1", i))
    for a in range(len(movers)):
        ba, ua, ma = movers[a]
        for bb, ub, mb in movers[a + 1 :]:
            t = oracle_meet_time(ua, ma, ub, mb)
            if t is not None:
                add(t, ("meet", ba, bb))
        # A bend moves along its third-class line, so it can meet only the
        # stationary vertices on that line.
        for v in on_line.get((ba.third_cls, dval(ua, ba.third_cls)), ()):
            t = oracle_meet_time(ua, ma, v, (0, 0))
            if t is not None:
                add(t, ("meet", ba, v))
    for i, line in enumerate(pl.lines):
        for v in integral_verts:
            t = (dval(v, line.cls) - line.c * unit) * line.trav
            if t > 0:
                add(t, ("sweep", i, v))
    return candidates


def reference_stop_epsilon(h, pl):
    """``deform.stop_epsilon`` over ``reference_candidates``, in Fractions."""
    unit = Fraction(1, h.scale)
    candidates = reference_candidates(h, pl)

    def shifted(b, eps):
        m = b.motion()
        return (b.vertex[0] * unit + m[0] * eps, b.vertex[1] * unit + m[1] * eps)

    prev = Fraction(0)
    for eps_c in sorted(candidates):
        tags = candidates[eps_c]
        kinds = set()
        mid_h = None

        def mid_honeycomb():
            nonlocal mid_h
            if mid_h is None:
                ds = build_deformed_system(h, pl, (prev + eps_c) / 2)
                hm = canonicalize(ds.lines, ds.scale)
                mid_h = hm, {hm.point(v): v for v in hm.vertices}
            return mid_h

        for tag in tags:
            if tag[0] == "eps0":
                kinds.add(STOP_LINE_VANISHED)
            elif tag[0] == "e1":
                kinds.add(STOP_BOUNDARY_INTEGRAL)
            elif tag[0] == "sweep":
                # the moved line at scale h.scale * q, q the denominator of eps_c
                q = eps_c.denominator
                moved = HLine(*_moved_line_span(pl, tag[1], eps_c.numerator * h.scale, q))
                if moved.contains_t(t_of(moved.cls, tag[2]) * h.scale * q):
                    kinds.add(STOP_INTEGRAL_VERTEX)
            else:
                _, pa, pb = tag  # pa is a Bend; pb a Bend or a stationary vertex
                mid = (prev + eps_c) / 2
                qa = shifted(pa, mid)
                qb = shifted(pb, mid) if isinstance(pb, Bend) else pb
                if not isinstance(pb, Bend) and _is_integral(pb):
                    kinds.add(STOP_INTEGRAL_VERTEX)
                hm, at = mid_honeycomb()
                if qa in at and qb in at:
                    if divergency(hm, at[qa]) * divergency(hm, at[qb]) < 0:
                        kinds.add(STOP_OPPOSITE_MERGE)
                        # Validity-bound flavours: a negative stub running off
                        # its covering edge, or two negative stubs colliding.
                        b_ok = pb.turn == TURN_LEFT if isinstance(pb, Bend) else True
                        if pa.turn == TURN_LEFT and b_ok:
                            kinds.add(STOP_VALIDITY_BOUND)
        if kinds:
            return StopEvent(eps_c, tuple(sorted(kinds)))
        prev = eps_c
    raise AssertionError("no stopping event found")


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(24, seed0=100)


def fuzz_corpus(count: int = 40):
    """The duals of ``random_honeycomb(seed)`` for the first ``count`` seeds."""
    return [honeycomb_to_grid(random_honeycomb(seed)) for seed in range(count)]


@st.composite
def claw_parts(draw):
    """``claw_sum`` parts over the space of ``random_honeycomb``: two to
    four, centres in [-4, 4] of denominator 1 to 3, weights 1 to 2."""
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 3))
        center = (Fraction(draw(st.integers(-4 * d, 4 * d)), d), Fraction(draw(st.integers(-4 * d, 4 * d)), d))
        parts.append((center, draw(st.integers(1, 2)), draw(st.sampled_from("+-"))))
    return parts


@lru_cache(maxsize=None)
def _document_bases() -> tuple[tuple[dict, dict, dict], ...]:
    """``(grid, cocirculation, honeycomb)`` documents of the paper's small
    instances and of ``random_honeycomb`` for seeds 0..7."""
    pairs = [fractional_vertex_instance(1)[:2], hexagon_instance(2), counterexample_instance()]
    pairs.append(honeycomb_to_grid(sample_honeycomb()))
    pairs += [honeycomb_to_grid(random_honeycomb(seed)) for seed in range(8)]
    return tuple(
        (serialize.grid_to_json(g), serialize.cocirc_to_json(h), serialize.honeycomb_to_json(grid_to_honeycomb(g, h)))
        for g, h in pairs
    )


# Values put in place of a field: bad and good, of every JSON type.  Drawn
# as copies: a later mutation may write into a drawn list or object.
ODD_VALUES = (0, 1, 2, 3, 4, -1, 2.0, 2.5, True, False, None, "1", "+", "-", "ray", "finite", [], {})
odd_values = st.sampled_from(ODD_VALUES).map(copy.deepcopy)


def _odd_rational(draw, text: str):
    """A rewrite of the ``"p/q"`` string ``text``: as often as not the same
    value spelled otherwise, else a nearby value or no rational at all.
    Anything but a short ``"p/q"`` becomes one of ``ODD_VALUES``."""
    if not re.fullmatch(r"-?[0-9]{1,9}/0*[1-9][0-9]{0,9}", str(text)):
        return draw(odd_values)
    p, q = (int(x) for x in text.split("/"))
    m = draw(st.integers(2, 5))
    sign = "-" if p < 0 else ""
    same = [
        f"{p * m}/{q * m}",  # unreduced
        f"-0/{m}" if p == 0 else f"{sign}0{abs(p)}/00{q}",  # minus zero, or leading zeros
        sign + "0" * (4300 - len(str(abs(p)))) + str(abs(p)) + "/" + str(q),  # 4,300 digits
    ]
    if p % q == 0:
        same.append(p // q)  # a JSON integer
    other = [
        f"{p}/0",
        f"{p * 2 + 1}/{q * 2}",  # shifted by 1/(2q)
        p,
        "1" * 5000,
        f"{p}/" + "1" * 5000,
        f"{p}.0/{q}",
        f" {text}",
        None,
    ]
    return draw(st.sampled_from(same if draw(st.booleans()) else other))


@st.composite
def mutated_honeycomb_documents(draw):
    """A honeycomb document of ``_document_bases`` with zero to three
    mutations: a coordinate respelled (``_odd_rational``), a field set to
    an odd value, a key or an end dropped, or a row dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(_document_bases()))[2])
    rows = doc["edges"]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        what = draw(st.sampled_from(
            ("coordinate", "coordinate", "coordinate", "end", "field", "drop key", "drop end", "drop row")
        ))
        if what == "coordinate" and row.get("ends"):
            end = draw(st.sampled_from(row["ends"]))
            key = draw(st.sampled_from(("d1", "d2")))
            if isinstance(end, dict):
                end[key] = _odd_rational(draw, end.get(key))
        elif what == "end" and row.get("ends"):
            row["ends"][draw(st.integers(0, len(row["ends"]) - 1))] = draw(odd_values)
        elif what == "field":
            row[draw(st.sampled_from(("class", "weight", "kind", "sign")))] = draw(odd_values)
        elif what == "drop key":
            row.pop(draw(st.sampled_from(("class", "weight", "kind", "sign", "ends"))), None)
        elif what == "drop end" and row.get("ends"):
            row["ends"].pop(draw(st.integers(0, len(row["ends"]) - 1)))
        elif what == "drop row":
            rows.pop(i)
    return doc


@st.composite
def mutated_grid_documents(draw):
    """A grid and a cocirculation document of ``_document_bases``, with a
    triangle row or an edge row dropped, set odd or respelled."""
    grid, cocirc, _ = draw(st.sampled_from(_document_bases()))
    grid, cocirc = copy.deepcopy(grid), copy.deepcopy(cocirc)
    for _ in range(draw(st.integers(0, 3))):
        rows = draw(st.sampled_from((grid["triangles"], cocirc["edges"])))
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        what = draw(st.sampled_from(("drop", "field", "value")))
        if what == "drop":
            rows.pop(i)
        elif what == "field":
            rows[i][draw(st.sampled_from(("up", "a", "b", "dir")))] = draw(odd_values)
        elif "value" in rows[i]:
            rows[i]["value"] = _odd_rational(draw, rows[i]["value"])
    return grid, cocirc
