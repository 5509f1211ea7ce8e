"""Explicit instance generators: the truncated dual-grid honeycomb, the
hexagon vertex instance, the boundary fixup, their sum (which exhibits a
denominator-k polytope vertex), and the rigid half-integer fixture."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .duality import grid_to_honeycomb, honeycomb_to_grid
from .errors import NonIntegerTruncationPoint
from .extremality import solve_flat_extension
from .grid import (
    Cocirculation,
    ConvexGrid,
    Edge,
    Tiling,
    fill_convex_polygon,
    is_concave,
    tiling_of,
    validate_grid,
)
from .honeycomb import Honeycomb, canonicalize, claw_lines, honeycomb_sum
from .spans import HLine, dval, nxt, point_on, prv, t_of


def dual_grid_honeycomb(n: int) -> Honeycomb:
    """Truncation of the unit triangular line arrangement.

    Vertices are the integer dual points with every coordinate strictly
    between -n and n and the three cyclic differences at most n; lattice
    neighbours are joined by unit edges, and a vertex with
    ``d_i - d_{i+1}`` equal to n or n-1 sends out the ray of class i-1,
    with weight 2 on the outer layer (difference n) and on rays whose two
    defining coordinates include a zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    verts = []
    for a in range(-(n - 1), n):
        for b in range(-(n - 1), n):
            c = -a - b
            if abs(c) > n - 1:
                continue
            if a - b <= n and b - c <= n and c - a <= n:
                verts.append((a, b))
    vset = set(verts)
    lines: list[tuple[HLine, int]] = []
    unit_moves = {(0, 1): 1, (1, 0): 2, (1, -1): 3}  # (da, db) -> class
    for v in sorted(vset):
        for (da, db), cls in unit_moves.items():
            u = (v[0] + da, v[1] + db)
            if u in vset:
                ts = sorted((t_of(cls, v), t_of(cls, u)))
                lines.append((HLine(cls, dval(v, cls), ts[0], ts[1]), 1))
        for i in (1, 2, 3):
            diff = dval(v, i) - dval(v, nxt(i))
            if diff in (n, n - 1):
                heavy = diff == n or dval(v, i) == 0 or dval(v, nxt(i)) == 0
                cls = prv(i)
                lines.append(
                    (HLine(cls, dval(v, cls), t_of(cls, v), None), 2 if heavy else 1)
                )
    hc = canonicalize(lines, 1)
    assert set(hc.vertices) == vset
    return hc


def hexagon_tiling(k: int) -> Tiling:
    """The rigid tiling of the side-(1,k) hexagon.

    Lattice layout: the west corner is the origin; the SW chain runs down
    ``(0,-i)``, the NW chain up ``(i,i)``; one step east sit the interior
    chains ``(1,-i)`` and ``(i+1,i)``; the east half is the big rhombus
    with corners (1,0), (1,-k), (k+1,0), (k+1,k), sliced into horizontal
    strips.  The west column holds a little rhombus at the origin and a
    sawtooth of single-triangle tiles.
    """
    tiles: list[frozenset] = []
    for i in range(k):  # lower strips, top row b = -i
        strip = {(False, a, -i) for a in range(1, k - i + 1)}
        strip |= {(True, a, -i - 1) for a in range(1, k - i)}
        tiles.append(frozenset(strip))
    for i in range(k):  # upper strips, bottom row b = i
        strip = {(True, a, i) for a in range(i + 1, k + 1)}
        strip |= {(False, a, i + 1) for a in range(i + 2, k + 1)}
        tiles.append(frozenset(strip))
    tiles.append(frozenset({(True, 0, 0), (False, 0, 0)}))
    for i in range(1, k + 1):
        tiles.append(frozenset({(True, 0, -i)}))
        tiles.append(frozenset({(False, i, i)}))
    for j in range(1, k):
        tiles.append(frozenset({(False, 0, -j)}))
        tiles.append(frozenset({(True, j, j)}))
    return tuple(sorted(tiles, key=min))


def hexagon_boundary_values(k: int) -> dict[Edge, Fraction]:
    pins: dict[Edge, Fraction] = {}
    for i in range(1, k + 1):
        val = Fraction(-1 if i == 1 else i - 1)
        pins[(0, -i, 2)] = val  # SW chain, step i
        pins[(i, i, 3)] = val  # NW chain, step i
        pins[(k + 2 - i, 1 - i, 3)] = Fraction(1 - i)  # SE chain
        pins[(k + 1, i - 1, 2)] = Fraction(1 - i)  # NE chain
    pins[(0, -k, 1)] = Fraction(0)  # S side
    pins[(k, k, 1)] = Fraction(0)  # N side
    return pins


def _in_hexagon_rhombus(k: int, p: tuple[int, int]) -> bool:
    a, b = p
    return 1 <= a <= k + 1 and -(k + 1) <= b - a <= -1


def hexagon_instance(k: int) -> tuple[ConvexGrid, Cocirculation]:
    """The hexagonal grid with the unique flat-per-tile extension of its
    integer boundary data; its interior values have denominator k."""
    if k < 1:
        raise ValueError("k must be positive")
    tiles = hexagon_tiling(k)
    g = ConvexGrid.of(t for ts in tiles for t in ts)
    validate_grid(g)
    h = solve_flat_extension(g, tiles, hexagon_boundary_values(k))
    assert h[(1, 0, 3)] == h[(1, 0, 2)] == -1
    for a, b, d in g.edges:
        if d == 1 and _in_hexagon_rhombus(k, (a, b)) and _in_hexagon_rhombus(k, (a + 1, b)):
            assert h[(a, b, 1)] == Fraction(-1, k)
    for i in range(k):
        assert h[(1, -i - 1, 2)] == i + Fraction(1, k)
        assert h[(i + 2, i + 1, 3)] == i + Fraction(1, k)
    # strict for k >= 2; at k = 1 the rhombus diagonal attains 2 = 2k
    assert max(abs(v) for v in h.values()) <= 2 * k
    assert k == 1 or max(abs(v) for v in h.values()) < 2 * k
    assert is_concave(g, h)
    assert tiling_of(g, h) == tiles
    return g, h


def fix_boundary(h: Honeycomb) -> Honeycomb:
    """Replace every minus-form ray by a truncated finite edge plus two
    plus-form rays from the nearest integer point on it."""
    s = h.scale
    rays = {e: e.weight for e in h.boundary if e.ray_sign == "-"}
    lines: list[tuple[HLine, int]] = []
    for e in rays:
        if e.c % s != 0:
            raise NonIntegerTruncationPoint(f"ray coordinate {Fraction(e.c, s)} is fractional")
        # the integer point below a fractional end, one unit below an integral one
        t_u = e.hi - (e.hi % s or s)
        u = point_on(e.cls, e.c, t_u)
        lines.append((HLine(e.cls, e.c, t_u, e.hi), e.weight))
        for cls2 in (prv(e.cls), nxt(e.cls)):
            lines.append((HLine(cls2, dval(u, cls2), t_of(cls2, u), None), e.weight))
    return canonicalize(lines, s, h, rays)


def fractional_vertex_instance(
    k: int,
) -> tuple[ConvexGrid, Cocirculation, frozenset[Edge]]:
    """A 3-side grid with integer boundary values and a denominator-k
    interior value that is rigid once two sides are pinned."""
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k + 1
    outer = dual_grid_honeycomb(n)
    gt, ht = hexagon_instance(k)
    inner = fix_boundary(grid_to_honeycomb(gt, ht))
    total = honeycomb_sum(outer, inner)
    g, h = honeycomb_to_grid(total)
    assert len(g.sides) == 3 and all(s.sign == "+" for s in g.sides)
    assert all(h[e].denominator == 1 for e in g.boundary_edges)
    assert any(v.denominator == k for v in h.values())
    fixed = frozenset(g.side(1, "+").edges) | frozenset(g.side(2, "+").edges)
    return g, h, fixed


# Half-integer instance on a (2,2,1,2,2,1) hexagon, transcribed edge by
# edge; it is concave, rigid given its integer values, yet not integral.
_RIGID_HALF_INTEGER = {
    (0, 0, 1): "1",
    (1, 0, 1): "0",
    (0, 0, 2): "-1/2",
    (1, 1, 3): "-3/2",
    (1, 0, 2): "1/2",
    (2, 1, 3): "-1",
    (2, 0, 2): "1",
    (3, 1, 3): "-1",
    (0, 1, 1): "2",
    (1, 1, 1): "1/2",
    (2, 1, 1): "0",
    (1, 2, 3): "-3/2",
    (1, 1, 2): "-1/2",
    (2, 2, 3): "-1/2",
    (2, 1, 2): "0",
    (3, 2, 3): "-1/2",
    (3, 1, 2): "1/2",
    (4, 2, 3): "1/2",
    (1, 2, 1): "1",
    (2, 2, 1): "1/2",
    (3, 2, 1): "-1",
    (2, 3, 3): "0",
    (2, 2, 2): "-1",
    (3, 3, 3): "0",
    (3, 2, 2): "-1/2",
    (4, 3, 3): "1/2",
    (4, 2, 2): "1/2",
    (2, 3, 1): "1",
    (3, 3, 1): "0",
}


def counterexample_instance() -> tuple[ConvexGrid, Cocirculation]:
    """Concave cocirculation pinned uniquely by its integer values; no
    integer concave cocirculation preserves all of them."""
    g = ConvexGrid(fill_convex_polygon([(0, 0), (2, 0), (4, 2), (4, 3), (2, 3), (0, 1)]))
    h = {e: Fraction(v) for e, v in _RIGID_HALF_INTEGER.items()}
    assert set(h) == g.edges
    assert is_concave(g, h)
    return g, h


def claw_sum(parts) -> Honeycomb:
    """The sum of the claws ``claw(center, weight, sign)`` for the given
    ``(center, weight, sign)``; a ``-`` claw is an anticlaw.  Its rays are
    canonicalized at once at the lcm of the centres' denominators."""
    scale = lcm(*(x.denominator for center, _, _ in parts for x in center))
    return canonicalize([line for part in parts for line in claw_lines(*part, scale)], scale)


def random_honeycomb(seed: int) -> Honeycomb:
    """The sum of two to four claws and anticlaws, with centres whose
    coordinates in [-4, 4] have denominator 1 to 3 and weights 1 to 2;
    deterministic in ``seed``.  Unlike the duals of quadratics, its
    vertices sit anywhere and its rays have either sign."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 4)):
        d = rng.randint(1, 3)
        center = (Fraction(rng.randint(-4 * d, 4 * d), d), Fraction(rng.randint(-4 * d, 4 * d), d))
        parts.append((center, rng.randint(1, 2), rng.choice("+-")))
    return claw_sum(parts)


def sample_honeycomb() -> Honeycomb:
    """Small regression honeycomb: three vertices, ten edges of which
    seven are semiinfinite, with mixed weights."""
    u, z, v = (0, 0), (0, -1), (-1, 0)
    lines = [
        (HLine(1, 0, -1, 0), 1),  # u-z
        (HLine(3, 1, -1, 0), 3),  # v-z
        (HLine(2, 0, 0, 1), 1),  # u-v
        (HLine(1, dval(u, 1), t_of(1, u), None), 1),
        (HLine(2, dval(u, 2), None, t_of(2, u)), 1),
        (HLine(1, dval(z, 1), None, t_of(1, z)), 1),
        (HLine(3, dval(z, 3), t_of(3, z), None), 3),
        (HLine(1, dval(v, 1), t_of(1, v), None), 2),
        (HLine(2, dval(v, 2), t_of(2, v), None), 3),
        (HLine(3, dval(v, 3), None, t_of(3, v)), 1),
    ]
    return canonicalize(lines, 1)
