"""Bidirectional conversion between concave cocirculations and honeycombs.

A honeycomb vertex v expands to a local grid whose boundary runs are the
six ray weights of v, walked anticlockwise in the order
(1,+), (3,-), (2,+), (1,-), (3,+), (2,-); local grids glue along the sides
dual to finite edges.  Conversely each flatspace of a concave
cocirculation contributes the vertex whose dual coordinates are its three
per-class values, each pair of flatspaces sharing n unit sides an edge of
weight n, and each flatspace on a boundary side a ray.

``grid_to_honeycomb`` reads the canonical form straight off the tiling,
without ``canonicalize``: the dual of the flatspace tiling of a concave
function is an embedded honeycomb.  ``tiling_of`` groups the faces by
their dual point, so distinct tiles have distinct points by
construction; that dual edges meet only at tile points, and that every
vertex has three edges or more and equal tension (``divergency``, on the
honeycomb it built), is checked by ``_honeycomb_of_tiles``, also under
``-O``.  ``honeycomb_to_grid`` fills each distinct local hexagon from its
six runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

from . import grid as gr
from .errors import NotACocirculation
from .grid import ConvexGrid, Cocirculation, Point, Triangle
from .honeycomb import Honeycomb, divergency, vertices_by_line
from .spans import OPPOSITE, HEdge, Pt, _sorted_keys, nxt, point_from_two, point_on, show_point

# Anticlockwise hexagon walk: ray slot -> lattice step of that boundary run.
HEX_ORDER: list[tuple[tuple[int, str], Point]] = [
    (gr.STEP_SIDE[step], step) for step in ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
]


def _local_grid(ws: tuple[int, ...]):
    """Triangles and per-side corner spans of one vertex's local grid: the
    hexagonal grid whose boundary runs have the six ray weights ``ws``,
    given in ``HEX_ORDER``.

    The walk starts at ``(0, 0)``, so row ``b`` of lattice points runs from
    ``a = max(0, b - w5)`` (up the last run, then the fifth) to ``a = w0 +
    min(b, w1)`` (along the first two).  From row to row both ends rise
    by zero or one, so up(a, b), above row ``b``, and down(a, b), below
    it, are inside for exactly the ``a`` of the row but its last."""
    corner = (0, 0)
    spans = {}
    for (slot, (da, db)), n in zip(HEX_ORDER, ws):
        end = (corner[0] + n * da, corner[1] + n * db)
        spans[slot] = (corner, end)
        corner = end
    assert corner == (0, 0), "ray weights do not close up"
    w0, w1, w2, _, _, w5 = ws
    height = w1 + w2
    out = set()
    for b in range(height + 1):
        run = range(max(0, b - w5), w0 + min(b, w1))
        if b < height:
            out.update((True, a, b) for a in run)
        if b:
            out.update((False, a, b) for a in run)
    return frozenset(out), spans


def honeycomb_to_grid(h: Honeycomb) -> tuple[ConvexGrid, Cocirculation]:
    """Glue the local grids of all vertices; anchor at the least vertex."""
    # Each vertex's six ray weights in HEX_ORDER; an empty slot weighs 0.
    w6s = {v: tuple(s[k].weight if k in s else 0 for k, _ in HEX_ORDER) for v, s in h.incidence.items()}
    fills = {w6: _local_grid(w6) for w6 in set(w6s.values())}  # one per distinct hexagon
    local = {v: fills[w6] for v, w6 in w6s.items()}
    offsets: dict[Pt, Point] = {h.vertices[0]: (0, 0)}
    queue = [h.vertices[0]]
    while queue:
        v = queue.pop()
        ov = offsets[v]
        for (cls, sign), e in h.incidence[v].items():
            # The edge leaves v up its line in t on a '+' slot, down on '-'.
            t = e.hi if sign == "+" else e.lo
            if t is None:
                continue
            u = point_on(cls, e.c, t)
            start_v, end_v = local[v][1][(cls, sign)]
            start_u, _ = local[u][1][(cls, OPPOSITE[sign])]
            off = (ov[0] + end_v[0] - start_u[0], ov[1] + end_v[1] - start_u[1])
            if u in offsets:
                assert offsets[u] == off, "inconsistent gluing"
            else:
                offsets[u] = off
                queue.append(u)
    assert len(offsets) == len(h.vertices), "honeycomb not edge-connected"

    # Anchor the least grid point at the origin.  A translation keeps the
    # lexicographic order, so that point is the least over the vertices of
    # the least point of each local grid, moved by its offset.  A local
    # grid fills a convex hexagon, so its least point is a corner: the
    # least start of its six spans.
    least = {w6: min(start for start, _ in fill[1].values()) for w6, fill in fills.items()}
    a0, b0 = min((oa + least[w6s[v]][0], ob + least[w6s[v]][1]) for v, (oa, ob) in offsets.items())
    # Each distinct local grid's edges, in the order its faces meet them;
    # a class-d edge of vertex v's grid carries d_d(v).
    fill_edges = {
        w6: dict.fromkeys(e for t in fill[0] for e in gr.triangle_edges(t)) for w6, fill in fills.items()
    }
    tris: set[Triangle] = set()
    # Glued on the honeycomb's own ints, in units of 1/h.scale.
    scaled: dict[gr.Edge, int] = {}
    for v in h.vertices:
        oa, ob = offsets[v][0] - a0, offsets[v][1] - b0
        for up, a, b in local[v][0]:
            t = (up, a + oa, b + ob)
            assert t not in tris, "overlapping local grids"
            tris.add(t)
        vals = (v[0], v[1], -v[0] - v[1])
        for a, b, d in fill_edges[w6s[v]]:
            e, val = (a + oa, b + ob, d), vals[d - 1]
            assert scaled.get(e, val) == val, "gluing value mismatch"
            scaled[e] = val
    g = ConvexGrid(frozenset(tris))
    del tris  # the grid holds the faces now
    gr.validate_grid(g)
    # An explicit raise, not an assert: rounding relies on this check of
    # its output, also under -O.  Concavity is the same at any scale.
    if not gr.is_concave(g, scaled):
        raise AssertionError("glued values are not a concave cocirculation")
    frac = {x: Fraction(x, h.scale) for x in set(scaled.values())}
    for e, x in scaled.items():  # in place: one table of all edges, not two
        scaled[e] = frac[x]
    return g, scaled


def _honeycomb_of_tiles(
    pts: list[Pt],
    shared: dict[tuple[int, int, int], int],
    rays: dict[tuple[int, int, str], int],
    scale: int,
) -> Honeycomb:
    """The honeycomb with a vertex at each tile point ``pts[i]`` (ints in
    units of ``1/scale``), an edge of weight n for each ``shared[(i, j,
    cls)] = n`` and a ray of weight n for each ``rays[(i, cls, sign)] = n``,
    exactly as ``canonicalize`` gives it from these lines.

    The tiles of ``tiling_of`` have distinct points by construction.
    Raises AssertionError, also under -O, when a tile point lies strictly
    inside an edge, two edges cross away from a tile point, or a vertex
    has fewer than three slots or unequal tension, which ``divergency``
    checks on the built honeycomb.
    Then no slot is filled twice and no support overlaps itself, as either
    would put an end of one edge strictly inside another (``shared`` and
    ``rays`` hold one edge per key).  And ``canonicalize`` finds the same:
    its candidate points, the line ends and the covered crossings, are all
    tile points; each has its slot weights as ray weights, three or more
    of them nonzero; and a line's covered stretches between its vertices
    are these edges.
    """
    g = gcd(scale, *(x for p in pts for x in p))
    if g > 1:
        pts = [(a // g, b // g) for a, b in pts]
    unit = scale // g
    verts = sorted(pts)
    on_line = vertices_by_line(verts)

    # Each support's edges as (lo, hi, weight), None for an open end.  On
    # a class-cls line, d_cls is ds[cls - 1] and t = d_nxt(cls) is ds[cls % 3].
    ds = [(a, b, -a - b) for a, b in pts]
    lines: dict[tuple[int, int], list] = {}
    for (i, j, cls), n in shared.items():
        p, q = ds[i], ds[j]
        c = p[cls - 1]
        assert c == q[cls - 1], "shared side off the tiles' line"
        tp, tq = p[cls % 3], q[cls % 3]
        lines.setdefault((cls, c), []).append((tp, tq, n) if tp < tq else (tq, tp, n))
    for (i, cls, sign), n in rays.items():
        p = ds[i]
        t = p[cls % 3]
        lines.setdefault((cls, p[cls - 1]), []).append((t, None, n) if sign == "+" else (None, t, n))

    slots: dict[Pt, dict[tuple[int, str], HEdge]] = {v: {} for v in verts}
    supports: dict[tuple[int, int], tuple[HEdge, ...]] = {}
    # Per support, its tile points' t and the edge over each gap: gap k
    # runs from the (k-1)-th to the k-th, gaps 0 and -1 open.
    cuts: dict[tuple[int, int], tuple[list, list]] = {}
    for key in sorted(lines):
        cls, c = key
        # on_line lists sorted vertices: t = d2 rises on class 1, t = d1 on
        # class 3, and t = d3 falls on class 2.
        vs = on_line[key]
        if cls == 1:
            ts = [v[1] for v in vs]
        elif cls == 3:
            ts = [v[0] for v in vs]
        else:
            vs = vs[::-1]
            ts = [-a - b for a, b in vs]
        m = len(ts)
        pos = {t: k for k, t in enumerate(ts)}
        gaps: list = [None] * (m + 1)
        for lo, hi, n in lines[key]:
            k = 0 if lo is None else pos[lo] + 1
            if (m if hi is None else pos[hi]) != k:
                raise AssertionError(f"a tile point lies inside an edge on d{cls} = {Fraction(c, unit)}")
            gaps[k] = HEdge(cls, c, lo, hi, n)
        plus, minus = (cls, "+"), (cls, "-")
        edges = []
        for k, e in enumerate(gaps):
            if e is not None:
                edges.append(e)
                if k:
                    slots[vs[k - 1]][plus] = e
                if k < m:
                    slots[vs[k]][minus] = e
        supports[key] = tuple(edges)
        cuts[key] = (ts, gaps)
    _check_crossings(cuts, unit)

    hc = Honeycomb(supports, unit, slots, on_line)
    for v, vslots in slots.items():
        if len(vslots) < 3:
            raise AssertionError(f"tile point {show_point(v, unit)} has {len(vslots)} edges")
        divergency(hc, v)
    return hc


def _check_crossings(cuts, unit: int) -> None:
    """Raise AssertionError where two edges of different classes cross
    away from a tile point.

    ``cuts[(cls, c)]`` holds the sorted ``t`` of the tile points on that
    support and the edge over each gap between them.  With no tile point
    inside an edge, such a crossing lies strictly inside an edge of each
    support.  A class-``cls`` edge on ``d_cls = c1`` meets the
    class-``nxt(cls)`` support ``d = c2`` at ``t = c2`` on itself and at
    ``t = -c1 - c2`` on the other, so the loop visits every crossing of
    each unordered pair of classes ``(cls, nxt(cls))``.
    """
    cs = _sorted_keys(cuts)
    for (cls1, c1), (_, gaps) in cuts.items():
        cls2 = nxt(cls1)
        others = cs[cls2]
        for e in gaps:
            if e is None:
                continue
            lo = 0 if e.lo is None else bisect_right(others, e.lo)
            hi = len(others) if e.hi is None else bisect_left(others, e.hi)
            for c2 in others[lo:hi]:
                ts2, gaps2 = cuts[(cls2, c2)]
                if gaps2[bisect_left(ts2, -c1 - c2)] is not None:
                    p = point_from_two(cls1, c1, cls2, c2)
                    raise AssertionError(f"edges cross at {show_point(p, unit)}, away from every tile point")


def grid_to_honeycomb(g: ConvexGrid, h: Cocirculation) -> Honeycomb:
    """One vertex per flatspace, an edge of weight n per pair of tiles
    sharing n unit sides, a ray per tile and boundary side, read straight
    off the tiling in canonical form."""
    scale, scaled = gr.scaled_values(h)
    try:
        tiles = gr.tiling_of(g, scaled)  # raises NotACocirculation, then NotConcave
    except NotACocirculation:
        gr.tiling_of(g, h)  # the same failure, with a message naming values of h
        raise
    tile_of = {t: i for i, ts in enumerate(tiles) for t in ts}
    # tiling_of groups the faces by their dual point, so any face gives
    # the tile's point.
    pts: list[Pt] = []
    for ts in tiles:
        e1, e2, _ = gr.triangle_edges(next(iter(ts)))
        pts.append((scaled[e1], scaled[e2]))

    shared: dict[tuple[int, int, int], int] = {}
    for diag, t1, t2, _, _ in g.rhombi:
        i, j = tile_of[t1], tile_of[t2]
        if i != j:
            key = (i, j, diag[2]) if i < j else (j, i, diag[2])
            shared[key] = shared.get(key, 0) + 1
    rays: dict[tuple[int, int, str], int] = {}
    for side in g.sides:
        for e in side.edges:
            down, up = gr.faces_of(e)
            key = (tile_of[down] if down in tile_of else tile_of[up], side.cls, side.sign)
            rays[key] = rays.get(key, 0) + 1
    return _honeycomb_of_tiles(pts, shared, rays, scale)
