"""Convex triangular grids and exact-rational cocirculations.

Values come in and go out as Fractions.  The checks below bring a
cocirculation to ints once, at ``L``, the lcm of its denominators
(``scaled_values``), and sum and compare those ints; their messages divide
back by ``L``, so they name values of the input.  The sampler,
``cocirculation_from_quadratic``, evaluates its potential on ints too, at
the lcm of its parameters' denominators, and makes Fractions only for the
values it returns.

Lattice conventions: a grid point ``(a, b)`` is the plane point
``a*xi1 + b*xi2`` for the fixed generators ``xi1 = (1, 0)``,
``xi2 = (-1, sqrt(3))/2``, ``xi3 = (-1, -sqrt(3))/2`` (``xi1+xi2+xi3 = 0``).
In lattice coordinates a unit step along ``xi1`` is ``(+1, 0)``, along
``xi2`` is ``(0, +1)`` and along ``xi3`` is ``(-1, -1)``.  Cross products of
lattice vectors have the same sign as in the plane, so all orientation
tests below are exact integer arithmetic.

An edge is ``(a, b, d)``: tail ``(a, b)``, direction class ``d`` in
``{1, 2, 3}``.  A little triangle is ``(up, a, b)`` where the base point is
the tail of the triangle's direction-1 edge:

* ``up(a, b)`` has vertices ``(a,b), (a+1,b), (a+1,b+1)``;
* ``down(a, b)`` has vertices ``(a,b), (a+1,b), (a,b-1)``.

Every face relation is a fixed lattice offset; a grid only says which
faces it holds.  ``triangle_edges`` and ``neighbours`` are the first table,
``faces_of`` reads it backwards (down face first), and ``rhombi_of`` finds
each rhombus from its up face by the second:

=========  ===============================  =====================================
face       edges, in class order            faces across them, in class order
=========  ===============================  =====================================
up(a,b)    (a,b,1) (a+1,b,2) (a+1,b+1,3)    down(a,b) down(a+1,b+1) down(a,b+1)
down(a,b)  (a,b,1) (a,b-1,2) (a+1,b,3)      up(a,b) up(a-1,b-1) up(a,b-1)
=========  ===============================  =====================================

=============  ===========  ===========  ===========
up(a,b) and    diag         dom          other
=============  ===========  ===========  ===========
down(a,b)      (a,b,1)      (a,b-1,2)    (a+1,b,2)
down(a+1,b+1)  (a+1,b,2)    (a,b,1)      (a+1,b+1,1)
down(a,b+1)    (a+1,b+1,3)  (a,b+1,1)    (a,b,1)
=============  ===========  ===========  ===========

The hot readers use the tables in place rather than through these
helpers: ``ConvexGrid.boundary_edges`` tests the face across each edge,
and ``is_concave`` compares each rhombus from its up face, both without
building the rhombus, neighbour or ``zip`` tuples.  ``tiling_of`` groups
the faces by their dual point, read in the face loop that checks the
circuit sums, and compares ``g.rhombi``, kept for its other readers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import AbstractSet, Iterable, Iterator, Mapping

from .errors import NotACocirculation, NotConcave, NotConnected, NotConvex

Point = tuple[int, int]
Edge = tuple[int, int, int]
Triangle = tuple[bool, int, int]
Cocirculation = dict[Edge, Fraction]
Tiling = tuple[frozenset[Triangle], ...]
Rhombus = tuple[Edge, Triangle, Triangle, Edge, Edge]

# Lattice coordinates of the three generators.
DIRS: dict[int, Point] = {1: (1, 0), 2: (0, 1), 3: (-1, -1)}
# Boundary step -> (class, sign) of the side it runs along.
STEP_SIDE: dict[Point, tuple[int, str]] = {v: (d, "+") for d, v in DIRS.items()}
STEP_SIDE.update({(-a, -b): (d, "-") for d, (a, b) in DIRS.items()})


def edge_tail(e: Edge) -> Point:
    return (e[0], e[1])


def edge_head(e: Edge) -> Point:
    da, db = DIRS[e[2]]
    return (e[0] + da, e[1] + db)


def triangle_vertices(t: Triangle) -> tuple[Point, Point, Point]:
    up, a, b = t
    if up:
        return ((a, b), (a + 1, b), (a + 1, b + 1))
    return ((a, b), (a + 1, b), (a, b - 1))


def triangle_edges(t: Triangle) -> tuple[Edge, Edge, Edge]:
    """The directed 3-circuit of a face, one edge per direction class."""
    up, a, b = t
    if up:
        return ((a, b, 1), (a + 1, b, 2), (a + 1, b + 1, 3))
    return ((a, b, 1), (a, b - 1, 2), (a + 1, b, 3))


def neighbours(t: Triangle) -> tuple[Triangle, Triangle, Triangle]:
    """The lattice faces across the edges of ``t``, in class order."""
    up, a, b = t
    if up:
        return ((False, a, b), (False, a + 1, b + 1), (False, a, b + 1))
    return ((True, a, b), (True, a - 1, b - 1), (True, a, b - 1))


def faces_of(e: Edge) -> tuple[Triangle, Triangle]:
    """The two lattice faces of ``e``, down face first."""
    a, b, d = e
    if d == 1:
        return ((False, a, b), (True, a, b))
    if d == 2:
        return ((False, a, b + 1), (True, a - 1, b))
    return ((False, a - 1, b), (True, a - 1, b - 1))


def rhombi_of(triangles: AbstractSet[Triangle]) -> Iterator[Rhombus]:
    """Each rhombus ``(diag, down, up, dom, other)`` of two faces in
    ``triangles``.  ``dom``, ``other`` is its parallel pair in the least class
    that is not ``diag``'s, and ``dom`` enters an end of ``diag``, so
    concavity asks ``h[dom] >= h[other]``; on a cocirculation the other
    parallel pair has the same difference."""
    for t in triangles:
        if t[0]:
            _, a, b = t
            (e1, e2, e3), (d1, d2, d3) = triangle_edges(t), neighbours(t)
            if d1 in triangles:
                yield e1, d1, t, (a, b - 1, 2), e2
            if d2 in triangles:
                yield e2, d2, t, e1, (a + 1, b + 1, 1)
            if d3 in triangles:
                yield e3, d3, t, (a, b + 1, 1), e1


def _cross(u: Point, v: Point) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True)
class Side:
    """Maximal straight boundary run, walked anticlockwise.

    ``sign`` is '+' when the walk follows +xi_cls; the outward normal then
    points in the (cls, sign) ray direction.
    """

    cls: int
    sign: str
    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ConvexGrid:
    triangles: frozenset[Triangle]

    @staticmethod
    def of(triangles: Iterable[Triangle]) -> "ConvexGrid":
        return ConvexGrid(frozenset(triangles))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(e for t in self.triangles for e in triangle_edges(t))

    @cached_property
    def rhombi(self) -> tuple[Rhombus, ...]:
        """``rhombi_of`` the grid, kept for the callers that read it more
        than once."""
        return tuple(rhombi_of(self.triangles))

    @cached_property
    def boundary_edges(self) -> frozenset[Edge]:
        """The edges with one face in the grid, read off the face table."""
        ts = self.triangles
        out = []
        for t in ts:
            up, a, b = t
            if up:
                if (False, a, b) not in ts:
                    out.append((a, b, 1))
                if (False, a + 1, b + 1) not in ts:
                    out.append((a + 1, b, 2))
                if (False, a, b + 1) not in ts:
                    out.append((a + 1, b + 1, 3))
            else:
                if (True, a, b) not in ts:
                    out.append((a, b, 1))
                if (True, a - 1, b - 1) not in ts:
                    out.append((a, b - 1, 2))
                if (True, a, b - 1) not in ts:
                    out.append((a + 1, b, 3))
        return frozenset(out)

    @cached_property
    def vertices(self) -> frozenset[Point]:
        return frozenset(v for t in self.triangles for v in triangle_vertices(t))

    @cached_property
    def boundary_walk(self) -> tuple[Point, ...]:
        """Boundary corners+lattice points in anticlockwise order.

        Raises NotConvex when the boundary is not a single simple cycle
        (hole or pinch point).  A pinch is tested once, by degree: every
        point then has two neighbours, distinct because two lattice points
        share at most one edge, so the walk leaves each point one way.
        """
        nbr: dict[Point, list[Point]] = {}
        for e in self.boundary_edges:
            p, q = edge_tail(e), edge_head(e)
            nbr.setdefault(p, []).append(q)
            nbr.setdefault(q, []).append(p)
        for p, qs in nbr.items():
            if len(qs) != 2:
                raise NotConvex(f"boundary pinches at {p}")
        start = min(nbr)
        walk = [start, sorted(nbr[start])[0]]
        while True:
            a, b = walk[-2], walk[-1]
            q, r = nbr[b]
            nxt = r if q == a else q
            if nxt == start:
                break
            walk.append(nxt)
        if len(walk) != len(nbr):
            raise NotConvex("boundary is not a single cycle")
        area2 = sum(_cross(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk)))
        if area2 < 0:
            walk = [walk[0]] + walk[:0:-1]
        return tuple(walk)

    @cached_property
    def sides(self) -> tuple[Side, ...]:
        """Maximal straight boundary runs in anticlockwise order."""
        walk = self.boundary_walk
        n = len(walk)
        steps = [_sub(walk[(i + 1) % n], walk[i]) for i in range(n)]
        # Rotate so a corner sits at position 0.
        k = next(i for i in range(n) if steps[i - 1] != steps[i])
        walk = walk[k:] + walk[:k]
        steps = steps[k:] + steps[:k]
        sides: list[Side] = []
        run: list[Edge] = []
        for i in range(n):
            step = steps[i]
            # Each step joins the two ends of a boundary edge, so it is a
            # unit lattice step and in STEP_SIDE.
            cls, sign = STEP_SIDE[step]
            # A '-' step walks its edge backwards, from head to tail.
            tail = walk[i] if sign == "+" else walk[(i + 1) % n]
            run.append((tail[0], tail[1], cls))
            if steps[(i + 1) % n] != step:
                sides.append(Side(cls, sign, tuple(run)))
                run = []
        return tuple(sides)

    @cached_property
    def size(self) -> int:
        return max(len(s) for s in self.sides)

    def side(self, cls: int, sign: str) -> Side:
        for s in self.sides:
            if s.cls == cls and s.sign == sign:
                return s
        raise KeyError((cls, sign))

    def translate(self, da: int, db: int) -> "ConvexGrid":
        return ConvexGrid.of((up, a + da, b + db) for up, a, b in self.triangles)

    def anchor_offset(self) -> Point:
        """Translation taking the lexicographically least vertex to (0, 0)."""
        a0, b0 = min(self.vertices)
        return (-a0, -b0)


def validate_grid(g: ConvexGrid) -> None:
    """Check the convex-grid invariants, raising on the first violation.

    The face encoding makes dangling edges impossible; the remaining
    failure modes are disconnection, holes/pinches and reflex boundary
    turns.  A disconnected grid raises ``NotConnected``, anything else
    ``NotConvex``.  The face walk runs only once the boundary has failed:
    each component's boundary edges give every point an even degree, so
    two components cannot share one simple boundary cycle.
    """
    tris = g.triangles
    if not tris:
        raise NotConvex("empty triangle set")
    try:
        _check_boundary(g.boundary_walk)  # raises NotConvex on holes/pinches
    except NotConvex:
        queue = [min(tris)]
        seen = set(queue)
        while queue:
            for t2 in neighbours(queue.pop()):
                if t2 in tris and t2 not in seen:
                    seen.add(t2)
                    queue.append(t2)
        if len(seen) != len(tris):
            raise NotConnected(f"{len(tris) - len(seen)} faces unreachable") from None
        raise


def _check_boundary(walk: tuple[Point, ...]) -> None:
    """Raise NotConvex on the first reflex turn of ``walk``.

    ``boundary_walk`` returns a simple cycle of three or more distinct
    points, so no step is followed by its reverse and a straight turn is
    never a reversal.  A convex region's triangle count equals the
    polygon's lattice area, so any missing interior face has already
    surfaced as a hole in the walk."""
    n = len(walk)
    for i in range(n):
        u = _sub(walk[(i + 1) % n], walk[i])
        v = _sub(walk[(i + 2) % n], walk[(i + 1) % n])
        if _cross(u, v) < 0:
            raise NotConvex(f"reflex turn at {walk[(i + 1) % n]}")


def fill_convex_polygon(corners: list[Point]) -> frozenset[Triangle]:
    """All little triangles inside a convex anticlockwise lattice polygon.

    A triangle is inside when its three corners are.  Side ``p -> p + (dx,
    dy)`` keeps the points with ``dy*(a - p_a) <= dx*(b - p_b)``, so the
    lattice points inside on row ``b`` are an integer interval of ``a``.
    """
    pts = [corners[i] for i in range(len(corners)) if corners[i] != corners[i - 1]]
    if len(pts) < 3:
        return frozenset()
    rows: dict[int, tuple[int, int]] = {}
    for b in range(min(b for _, b in pts), max(b for _, b in pts) + 1):
        lo, hi = min(a for a, _ in pts), max(a for a, _ in pts)
        for (pa, pb), q in zip(pts, pts[1:] + pts[:1]):
            dx, dy = q[0] - pa, q[1] - pb
            r = dx * (b - pb)
            if dy > 0:
                hi = min(hi, pa + r // dy)
            elif dy < 0:
                lo = max(lo, pa - (-r // dy))
            elif r < 0:
                hi = lo - 1
        rows[b] = (lo, hi)
    out = set()
    for b, (lo, hi) in rows.items():
        if b + 1 in rows:  # up(a, b) has corners (a, b), (a+1, b), (a+1, b+1)
            lo2, hi2 = rows[b + 1]
            out.update((True, a, b) for a in range(max(lo, lo2 - 1), min(hi, hi2)))
        if b - 1 in rows:  # down(a, b) has corners (a, b), (a+1, b), (a, b-1)
            lo2, hi2 = rows[b - 1]
            out.update((False, a, b) for a in range(max(lo, lo2), min(hi, hi2 + 1)))
    return frozenset(out)


def three_side_grid(n: int) -> ConvexGrid:
    """The 3-side grid of size n spanning the big up-triangle."""
    if n < 1:
        raise ValueError("size must be positive")
    return ConvexGrid(fill_convex_polygon([(0, 0), (n, 0), (n, n)]))


def scaled_values(h: Mapping[Edge, Fraction]) -> tuple[int, Mapping[Edge, int]]:
    """``(L, s)`` with ``L`` the lcm of the denominators of ``h`` and
    ``s[e] = h[e] * L``, an int for every edge of ``h``; ``h`` itself when
    its values are ints already."""
    if all(type(x) is int for x in h.values()):
        return 1, h
    scale = lcm(*{x.denominator for x in h.values()})
    return scale, {e: x.numerator * (scale // x.denominator) for e, x in h.items()}


def _checked(
    g: ConvexGrid, h: Mapping[Edge, Fraction], points: dict[Point, list[Triangle]] | None = None
) -> Mapping[Edge, int]:
    """The scaled values of ``h`` once every face of ``g`` sums to zero.

    With ``points`` given, each face also goes into the list under its
    dual point: the scaled values on its class-1 and class-2 edges."""
    scale, s = scaled_values(h)
    for t in g.triangles:
        e1, e2, e3 = triangle_edges(t)
        try:
            x, y = s[e1], s[e2]
            total = x + y + s[e3]
        except KeyError as missing:
            raise NotACocirculation(f"missing value on edge {missing}") from None
        if total != 0:
            raise NotACocirculation(f"circuit sum {Fraction(total, scale)} on face {t}")
        if points is not None:
            points.setdefault((x, y), []).append(t)
    return s


def is_concave(g: ConvexGrid, h: Mapping[Edge, Fraction]) -> bool:
    """Whether every little rhombus satisfies the concavity inequality.

    Mostly called on a fresh grid, so each rhombus is read off the face
    table in place from its up face, with the ``dom`` and ``other`` of
    ``rhombi_of``, rather than kept as ``g.rhombi``."""
    s = _checked(g, h)
    ts = g.triangles
    for up, a, b in ts:
        if up and (
            (False, a, b) in ts and s[(a, b - 1, 2)] < s[(a + 1, b, 2)]
            or (False, a + 1, b + 1) in ts and s[(a, b, 1)] < s[(a + 1, b + 1, 1)]
            or (False, a, b + 1) in ts and s[(a, b + 1, 1)] < s[(a, b, 1)]
        ):
            return False
    return True


def find(parent, x):
    """The root of ``x`` in the union-find forest ``parent`` (a dict or a
    list mapping each item to its parent), halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def tiling_of(g: ConvexGrid, h: Mapping[Edge, Fraction]) -> Tiling:
    """Flatspace decomposition: the faces grouped by their dual point.

    A flatspace is a maximal set of faces joined across tight rhombi
    (``h[dom] == h[other]``), and a face's dual point is its pair of
    values on its class-1 and class-2 edges, the third being minus their
    sum.  On a concave ``h`` over a convex region the faces with one dual
    point form exactly one flatspace:

    * a tight rhombus joins two adjacent faces that agree class by class
      (both circuit sums round the common side are zero, and the parallel
      pairs are equal), so the faces of a flatspace share one dual point;
    * the piecewise-linear potential of ``h`` is concave, so the affine
      piece of each face lies on or above it everywhere.  Two faces with
      one dual point have pieces of one slope, each on or above the
      other, so one piece; and the faces where the potential meets that
      piece fill a convex set, where the concave potential minus the
      piece is at least zero.  Any two of them are joined by a chain of
      faces in that set, each two adjacent ones across a tight rhombus.

    The second step needs a convex region: two components of a grid, or
    the arms of a bent one, can take the same affine piece apart.  So the
    grid is validated first, as ``validate_grid`` does it (cheap once its
    boundary walk is cached).  Then raises ``NotACocirculation`` on a
    missing value or a nonzero circuit sum, else ``NotConcave`` on a
    rhombus with ``h[dom] < h[other]``."""
    validate_grid(g)
    points: dict[Point, list[Triangle]] = {}
    s = _checked(g, h, points)
    for _, _, _, dom, other in g.rhombi:
        if s[dom] < s[other]:
            raise NotConcave("tiling requested for a non-concave cocirculation")
    return tuple(sorted((frozenset(ts) for ts in points.values()), key=min))


def integer_edge_sets(
    g: ConvexGrid, h: Mapping[Edge, Fraction]
) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Boundary edges with integer value; edges of all-integer faces.

    ``h`` is a cocirculation on ``g``: the caller has checked it."""
    ints = {e for e, x in h.items() if x.denominator == 1}
    o = frozenset(e for e in g.boundary_edges if e in ints)
    i = []
    for t in g.triangles:
        es = triangle_edges(t)
        if es[0] in ints and es[1] in ints and es[2] in ints:
            i += es
    return o, frozenset(i)


def cocirculation_from_quadratic(
    g: ConvexGrid,
    alpha: Fraction,
    beta: Fraction,
    lam: Fraction = Fraction(0),
    mu: Fraction = Fraction(0),
) -> Cocirculation:
    """Differences of ``-alpha*(2a-b)^2 - 3*beta*b^2 + lam*a + mu*b``.

    In plane coordinates this is the concave quadratic
    ``-4*alpha*x^2 - 4*beta*y^2`` plus a linear part.  Its lattice
    differences satisfy the rhombus condition iff ``alpha <= 3*beta``
    (the grid's fixed triangulation is only compatible with quadratics
    that are not too narrow along the xi1 axis).

    The potential is evaluated once per lattice point of ``g``, on ints at
    ``d``, the lcm of the four parameters' denominators; each edge value
    is ``Fraction(head - tail, d)``, one Fraction per distinct difference.
    The keys come in the order of ``g.edges``.
    """
    params = (alpha, beta, lam, mu)
    d = lcm(*(x.denominator for x in params))
    A, B, L, M = (x.numerator * (d // x.denominator) for x in params)
    pot = {}
    for a, b in g.vertices:
        u = 2 * a - b
        pot[a, b] = L * a + M * b - A * u * u - 3 * B * b * b
    diffs = {e: pot[edge_head(e)] - pot[edge_tail(e)] for e in g.edges}
    values = {x: Fraction(x, d) for x in set(diffs.values())}
    return {e: values[x] for e, x in diffs.items()}


def random_concave(g: ConvexGrid, seed: int, denom_bound: int = 12) -> Cocirculation:
    """Sample a concave cocirculation; deterministic in ``seed``.

    Value denominators divide ``denom_bound``.
    """
    rng = random.Random(seed)
    d = max(1, denom_bound)
    na = rng.randint(1, 3 * d)
    nb = rng.randint((na + 2) // 3, 3 * d)
    alpha, beta = Fraction(na, d), Fraction(nb, d)
    lam = Fraction(rng.randint(-3 * d, 3 * d), d)
    mu = Fraction(rng.randint(-3 * d, 3 * d), d)
    h = cocirculation_from_quadratic(g, alpha, beta, lam, mu)
    assert is_concave(g, h)
    return h
