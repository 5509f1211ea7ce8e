"""Bidirectional conversion between concave cocirculations and honeycombs.

A honeycomb vertex v expands to a local grid whose boundary runs are the
six ray weights of v, walked anticlockwise in the order
(1,+), (3,-), (2,+), (1,-), (3,+), (2,-); local grids glue along the sides
dual to finite edges.  Conversely each flatspace of a concave
cocirculation contributes the vertex whose dual coordinates are its three
per-class values.
"""

from __future__ import annotations

from fractions import Fraction

from . import grid as gr
from .grid import ConvexGrid, Cocirculation, Point, Triangle
from .honeycomb import (
    HLine,
    Honeycomb,
    Pt,
    canonicalize,
    dval,
    frac_point,
    t_of,
)

# Anticlockwise hexagon walk: ray slot -> lattice step of that boundary run.
HEX_ORDER: list[tuple[tuple[int, str], Point]] = [
    (gr.STEP_SIDE[step], step) for step in ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
]


def _local_grid(ws: tuple[int, ...]):
    """Triangles and per-side corner spans of one vertex's local grid: the
    hexagonal grid whose boundary runs have the six ray weights ``ws``,
    given in ``HEX_ORDER``."""
    corner = (0, 0)
    corners = [corner]
    spans = {}
    for (slot, (da, db)), n in zip(HEX_ORDER, ws):
        end = (corner[0] + n * da, corner[1] + n * db)
        spans[slot] = (corner, end)
        corner = end
        corners.append(corner)
    assert corner == (0, 0), "ray weights do not close up"
    return gr.fill_convex_polygon(corners[:-1]), spans


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
        for e in h.incidence[v].values():
            u = e.other_end(v)
            if u is None:
                continue
            sv, su = e.sign_at(v), e.sign_at(u)
            start_v, end_v = local[v][1][(e.cls, sv)]
            start_u, _ = local[u][1][(e.cls, su)]
            off = (ov[0] + end_v[0] - start_u[0], ov[1] + end_v[1] - start_u[1])
            if u in offsets:
                assert offsets[u] == off, "inconsistent gluing"
            else:
                offsets[u] = off
                queue.append(u)
    assert len(offsets) == len(h.vertices), "honeycomb not edge-connected"

    # Anchor the least grid point at the origin.  A translation keeps the
    # lexicographic order, so that point is the least over the vertices of
    # the least point of each local grid, moved by its offset.
    least = {w6: min(p for t in fill[0] for p in gr.triangle_vertices(t)) for w6, fill in fills.items()}
    a0, b0 = min((oa + least[w6s[v]][0], ob + least[w6s[v]][1]) for v, (oa, ob) in offsets.items())
    tris: set[Triangle] = set()
    # Glued on the honeycomb's own ints, in units of 1/h.scale.
    scaled: dict[gr.Edge, int] = {}
    for v in h.vertices:
        oa, ob = offsets[v][0] - a0, offsets[v][1] - b0
        vals = (v[0], v[1], -v[0] - v[1])
        for up, a, b in local[v][0]:
            t = (up, a + oa, b + ob)
            assert t not in tris, "overlapping local grids"
            tris.add(t)
            for e, val in zip(gr.triangle_edges(t), vals):
                assert scaled.get(e, val) == val, "gluing value mismatch"
                scaled[e] = val
    g = ConvexGrid(frozenset(tris))
    gr.validate_grid(g)
    # An explicit raise, not an assert: rounding relies on this check of
    # its output, also under -O.  Concavity is the same at any scale.
    if not gr.is_concave(g, scaled):
        raise AssertionError("glued values are not a concave cocirculation")
    frac = {x: Fraction(x, h.scale) for x in set(scaled.values())}
    return g, {e: frac[x] for e, x in scaled.items()}


def tile_points(
    g: ConvexGrid, h: Cocirculation, tiles: gr.Tiling
) -> tuple[dict[Triangle, int], list[Pt]]:
    """Map each face to its tile index and each tile to its dual point,
    whose coordinates are values of ``h``."""
    tile_of = {t: i for i, ts in enumerate(tiles) for t in ts}
    pts: list[Pt] = []
    for ts in tiles:
        vals = {}
        for t in ts:
            for cls, e in enumerate(gr.triangle_edges(t), 1):
                v = h[e]
                stored = vals.setdefault(cls, v)
                assert stored == v, "tile is not flat"
        pts.append((vals[1], vals[2]))
    return tile_of, pts


def grid_to_honeycomb(g: ConvexGrid, h: Cocirculation) -> Honeycomb:
    """One vertex per flatspace, finite edges across shared tile sides,
    rays for tile sides on the grid boundary."""
    tiles = gr.tiling_of(g, h)  # raises NotACocirculation, then NotConcave
    # Tile points in units of 1/scale, so the lines go to canonicalize as ints.
    scale, scaled = gr.scaled_values(h)
    tile_of, pts = tile_points(g, scaled, tiles)

    shared: dict[tuple[int, int], tuple[int, int]] = {}
    for diag, t1, t2, _, _ in g.rhombi:
        i, j = tile_of[t1], tile_of[t2]
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        cls, n = shared.get(key, (diag[2], 0))
        assert cls == diag[2], "tile pair shares sides of two classes"
        shared[key] = (cls, n + 1)

    lines: list[tuple[HLine, int]] = []
    for (i, j), (cls, n) in sorted(shared.items()):
        pi, pj = pts[i], pts[j]
        c = dval(pi, cls)
        assert c == dval(pj, cls)
        ti, tj = sorted((t_of(cls, pi), t_of(cls, pj)))
        lines.append((HLine(cls, c, ti, tj), n))

    rays: dict[tuple[int, int, str], int] = {}
    for side in g.sides:
        for e in side.edges:
            (face,) = (t for t in gr.faces_of(e) if t in g.triangles)
            key = (tile_of[face], side.cls, side.sign)
            rays[key] = rays.get(key, 0) + 1
    for (i, cls, sign), n in sorted(rays.items()):
        p = pts[i]
        t = t_of(cls, p)
        span = (t, None) if sign == "+" else (None, t)
        lines.append((HLine(cls, dval(p, cls), *span), n))

    hc = canonicalize(lines, scale)
    assert set(map(hc.point, hc.incidence)) == {frac_point(p, scale) for p in pts}, (
        "tiles and vertices disagree"
    )
    return hc
