"""Weighted Xi-line systems and honeycombs in exact dual coordinates.

A point is stored as ``(d1, d2)`` with ``d3 = -d1-d2`` implied; ``d_i`` is
minus the inner product with the generator ``xi_i``.  A class-``i`` line is
perpendicular to ``xi_i`` and keeps ``d_i`` constant; position along it is
parameterised by ``t = d_{i+1}``, which increases in the ``+`` ray
direction (``xi_i`` rotated clockwise by 90 degrees).  One ``t``-unit is
the scaled edge length used throughout, so all lengths and event times
stay rational.

A ``Honeycomb`` stores each coordinate as an int ``x`` standing for
``x / scale``, with ``scale`` the least common denominator of its vertex
coordinates, so a coordinate is integral when ``x % scale == 0``, and
``canonicalize`` takes a system on ints at a given scale.  Rationals are
made only at the package's edges: ``claw`` brings its centre to ints at
the lcm of its denominators, and messages and ``Honeycomb.point`` divide
by the scale.

A line span is an ``HLine`` ``(cls, c, lo, hi)``, and an edge an
``HEdge``, the same with a weight: slotted tuples that share the methods
of ``_Span``, so they compare and hash by value, carry no instance dict,
and a span never equals an edge, being one field shorter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .errors import NotPreHoneycomb

Pt = tuple[int, int]

SIGNS = ("+", "-")
OPPOSITE = {"+": "-", "-": "+"}


def nxt(cls: int) -> int:
    return cls % 3 + 1


def prv(cls: int) -> int:
    return (cls + 1) % 3 + 1


def dval(p: Pt, cls: int) -> int:
    if cls == 1:
        return p[0]
    if cls == 2:
        return p[1]
    return -p[0] - p[1]


def point_from_two(cls1: int, c1: int, cls2: int, c2: int) -> Pt:
    if cls1 > cls2:
        cls1, c1, cls2, c2 = cls2, c2, cls1, c1
    if cls1 == 2:
        return (-c1 - c2, c1)
    return (c1, c2) if cls2 == 2 else (c1, -c1 - c2)


def point_on(cls: int, c: int, t: int) -> Pt:
    """The point on the class-``cls`` line ``d_cls = c`` with ``d_nxt = t``."""
    if cls == 1:
        return (c, t)
    if cls == 2:
        return (-c - t, c)
    return (t, -c - t)


def t_of(cls: int, p: Pt) -> int:
    """``d_nxt(cls)`` of ``p``."""
    if cls == 1:
        return p[1]
    if cls == 2:
        return -p[0] - p[1]
    return p[0]


def is_integral_point(p: Pt, scale: int) -> bool:
    return p[0] % scale == 0 and p[1] % scale == 0


def frac_point(p: Pt, scale: int) -> tuple[Fraction, Fraction]:
    """The point with int coordinates ``p`` in units of ``1/scale``, in Fractions."""
    return (Fraction(p[0], scale), Fraction(p[1], scale))


class _Span:
    """The methods an ``HLine`` and an ``HEdge`` share: a class-``cls`` line
    ``d_cls = c`` with span ``[lo, hi]`` in the ``t`` parameter.

    ``lo=None`` / ``hi=None`` mean infinite in that direction; a ray with
    ``hi=None`` is the ``+`` ray of its finite end.
    """

    __slots__ = ()

    @property
    def is_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_ray(self) -> bool:
        return (self.lo is None) != (self.hi is None)

    @property
    def ray_sign(self) -> str:
        assert self.is_ray
        return "+" if self.hi is None else "-"

    def ends(self) -> tuple[Pt, ...]:
        out = []
        if self.lo is not None:
            out.append(point_on(self.cls, self.c, self.lo))
        if self.hi is not None:
            out.append(point_on(self.cls, self.c, self.hi))
        return tuple(out)

    def length(self) -> int:
        assert self.is_finite
        return self.hi - self.lo

    def contains_t(self, t: int) -> bool:
        return (self.lo is None or self.lo <= t) and (self.hi is None or t <= self.hi)

    def sort_key(self):
        """``(cls, c, lo, hi)`` with open ends outermost, then an edge's weight."""
        lo = (0, 0) if self.lo is None else (1, self.lo)
        hi = (1, 0) if self.hi is None else (0, self.hi)
        return (self.cls, self.c, lo, hi, *self[4:])

    def scaled(self, k) -> HLine:
        """The line under this span with every coordinate multiplied by ``k``."""
        lo = None if self.lo is None else self.lo * k
        hi = None if self.hi is None else self.hi * k
        return HLine(self.cls, self.c * k, lo, hi)

    def sign_at(self, v: Pt) -> str:
        """The sign s with this span inside ``Xi_cls^s(v)``, for an end v."""
        t = t_of(self.cls, v)
        if self.lo == t:
            return "+"
        assert self.hi == t, (self, v)
        return "-"

    def other_end(self, v: Pt) -> Optional[Pt]:
        ends = self.ends()
        if len(ends) == 2:
            return ends[1] if ends[0] == v else ends[0]
        return None


class HLine(_Span, namedtuple("HLine", "cls c lo hi")):
    """A line span: an immutable tuple, equal and hashed by value."""

    __slots__ = ()


class HEdge(_Span, namedtuple("HEdge", "cls c lo hi weight")):
    """A honeycomb edge: a span carrying a positive weight.  It is one
    field longer than an ``HLine``, so never equal to one."""

    __slots__ = ()


XiSystem = list[tuple[HLine, int]]


class _Coverage:
    """Piecewise-constant total weight along one supporting line."""

    def __init__(self, intervals: list[tuple[Optional[int], Optional[int], int]]):
        self.base = sum(w for lo, _, w in intervals if lo is None)
        deltas: dict[int, int] = {}
        for lo, hi, w in intervals:
            if lo is not None:
                deltas[lo] = deltas.get(lo, 0) + w
            if hi is not None:
                deltas[hi] = deltas.get(hi, 0) - w
        self.ts = sorted(deltas)
        self.vals = []
        running = self.base
        for t in self.ts:
            running += deltas[t]
            self.vals.append(running)

    def plus(self, t: int) -> int:
        """Coverage just right of t."""
        i = bisect_right(self.ts, t) - 1
        return self.base if i < 0 else self.vals[i]

    def minus(self, t: int) -> int:
        """Coverage just left of t."""
        i = bisect_left(self.ts, t) - 1
        return self.base if i < 0 else self.vals[i]

    def constant_on(self, a: Optional[int], b: Optional[int]) -> bool:
        """No coverage change at breakpoints strictly inside (a, b)."""
        i = 0 if a is None else bisect_right(self.ts, a)
        j = len(self.ts) if b is None else bisect_left(self.ts, b)
        if i >= j:
            return True
        before = self.base if i == 0 else self.vals[i - 1]
        return all(self.vals[k] == before for k in range(i, j))

    def covers(self, t: int) -> bool:
        """Nonzero coverage on at least one side of t."""
        i = bisect_right(self.ts, t) - 1
        if (self.base if i < 0 else self.vals[i]) != 0:
            return True
        i = bisect_left(self.ts, t) - 1
        return (self.base if i < 0 else self.vals[i]) != 0

    def spans(self) -> list[tuple[Optional[int], Optional[int]]]:
        """Maximal closed spans of the t at which ``covers`` holds."""
        out: list[tuple[Optional[int], Optional[int]]] = []
        bounds = [None, *self.ts, None]
        for lo, hi, w in zip(bounds, bounds[1:], [self.base, *self.vals]):
            if w == 0:
                continue
            if out and lo is not None and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out


def _live(lo: Optional[int], hi: Optional[int], w: int) -> bool:
    """Whether a line of weight ``w`` over ``[lo, hi]`` covers anything."""
    return w != 0 and (lo is None or hi is None or lo < hi)


def _supports(system: XiSystem) -> dict[tuple[int, int], _Coverage]:
    per: dict[tuple[int, int], list] = {}
    for line, w in system:
        if _live(line.lo, line.hi, w):
            per.setdefault((line.cls, line.c), []).append((line.lo, line.hi, w))
    return {key: _Coverage(iv) for key, iv in per.items()}


def _sorted_keys(keys) -> dict[int, list]:
    """The ``c`` of the given ``(cls, c)`` lines, sorted, per class."""
    out: dict[int, list] = {1: [], 2: [], 3: []}
    for cls, c in keys:
        out[cls].append(c)
    return {cls: sorted(cs) for cls, cs in out.items()}


def _crossings(key, spans, classes, keys, covs) -> list[Pt]:
    """The points in ``spans`` of the support ``key`` where a covered
    support of one of the ``classes`` crosses it.

    On ``key = (cls1, c1)`` the crossing with ``d_cls2 = c2`` sits at
    ``t = c2`` when ``cls2 = nxt(cls1)`` and at ``t = -c1 - c2`` when
    ``cls2 = prv(cls1)``, so the crossings inside one covered span are a
    range of the sorted ``keys[cls2]``.
    """
    cls1, c1 = key
    out = []
    for cls2 in classes:
        cs = keys[cls2]
        rising = cls2 == nxt(cls1)
        for lo, hi in spans:
            if not rising:
                lo, hi = (None if hi is None else -c1 - hi), (None if lo is None else -c1 - lo)
            i = 0 if lo is None else bisect_left(cs, lo)
            j = len(cs) if hi is None else bisect_right(cs, hi)
            for c2 in cs[i:j]:
                cov2 = covs.get((cls2, c2))
                # the crossing's t on the class-cls2 support
                if cov2 is not None and cov2.covers(-c1 - c2 if rising else c1):
                    out.append(point_from_two(cls1, c1, cls2, c2))
    return out


def _candidate_points(system: XiSystem, covs) -> set[Pt]:
    """All line ends, plus each crossing of two supports covered there."""
    pts: set[Pt] = set()
    for line, w in system:
        if w != 0:
            pts.update(line.ends())
    keys = _sorted_keys(covs)
    for key, cov in covs.items():
        pts.update(_crossings(key, cov.spans(), (nxt(key[0]),), keys, covs))
    return pts


def six_weights(covs, p: Pt) -> dict[tuple[int, str], int]:
    """The six ray weights w_i^s at a point, from precomputed coverages."""
    out = {}
    d3 = -p[0] - p[1]
    # (cls, d_cls, t_of(cls, p)) for the three lines through p
    for cls, c, t in ((1, p[0], p[1]), (2, p[1], d3), (3, d3, p[0])):
        cov = covs.get((cls, c))
        if cov is None:
            out[(cls, "+")] = out[(cls, "-")] = 0
        else:
            out[(cls, "+")] = cov.plus(t)
            out[(cls, "-")] = cov.minus(t)
    return out


def _check_full_lines(covs, scale: int) -> None:
    """Raise NotPreHoneycomb on a line without ends whose coverage is negative."""
    for (cls, c), cov in covs:
        if not cov.ts and cov.base < 0:
            raise NotPreHoneycomb(f"negative ray weight along {(cls, Fraction(c, scale))}")


def _is_vertex(w6: dict[tuple[int, str], int], p: Pt, scale: int) -> bool:
    """Whether ``p``, with ray weights ``w6``, is a vertex: three of them
    or more are nonzero.

    Raises NotPreHoneycomb on a negative ray weight or unequal tension.
    Messages divide coordinates by ``scale``, so they name points of the
    unscaled system.
    """
    ws = list(w6.values())
    if min(ws) < 0:
        raise NotPreHoneycomb(f"negative ray weight at {frac_point(p, scale)}")
    divs = {cls: w6[(cls, "+")] - w6[(cls, "-")] for cls in (1, 2, 3)}
    if not divs[1] == divs[2] == divs[3]:
        raise NotPreHoneycomb(f"unequal tension {divs} at {frac_point(p, scale)}")
    return ws.count(0) <= 3


def _vertices(system: XiSystem, covs, scale: int) -> list[Pt]:
    """Candidate points with at least three nonzero ray weights, sorted.

    Raises NotPreHoneycomb on a line without ends whose coverage is
    negative, and at the least candidate that ``_is_vertex`` rejects.
    """
    _check_full_lines(covs.items(), scale)
    return [p for p in sorted(_candidate_points(system, covs)) if _is_vertex(six_weights(covs, p), p, scale)]


def _cut(cls: int, c, cov: _Coverage, at: list, g: int, scale: int, slots) -> tuple[HEdge, ...]:
    """The edges of the support ``d_cls = c`` cut at the vertices ``at``.

    ``at`` holds pairs ``(t, key)`` in increasing ``t``.  Each edge, with
    its coordinates divided by ``g``, also goes into the ray slots
    ``slots[key]`` of its ends.  Raises NotPreHoneycomb where the coverage
    is negative or steps away from a vertex, or covers a line without
    vertices.
    """
    if not at:
        if cov.base != 0 or any(v != 0 for v in cov.vals):
            raise NotPreHoneycomb(f"fully infinite covered line {(cls, Fraction(c, scale))}")
        return ()
    edges = []
    cuts = [(None, None), *at, (None, None)]
    for (a, va), (b, vb) in zip(cuts, cuts[1:]):
        w = cov.minus(b) if a is None else cov.plus(a)
        if w == 0:
            continue
        if w < 0:
            raise NotPreHoneycomb(f"negative coverage on {(cls, Fraction(c, scale))}")
        if not cov.constant_on(a, b):
            raise NotPreHoneycomb(f"coverage step without a vertex on {(cls, Fraction(c, scale))}")
        e = HEdge(cls, c // g, None if a is None else a // g, None if b is None else b // g, w)
        edges.append(e)
        if va is not None:
            slots[va][(cls, "+")] = e
        if vb is not None:
            slots[vb][(cls, "-")] = e
    return tuple(edges)


def is_prehoneycomb(system: XiSystem) -> bool:
    """Nonnegative ray weights and equal divergency everywhere.

    Checking the finite candidate set (all line ends plus the crossings of
    two supports that are both covered there) suffices.  At any other point
    at most one class has a nonzero weight, and since the point is no end,
    that class has w_i^+ = w_i^-: the point is no vertex and its
    divergencies are all zero.  Its one weight is negative only on a
    negative stretch of coverage; such a stretch ends at a line end, where
    the candidate check sees it, unless it is a whole line without ends,
    which ``_vertices`` checks directly.  No scaling is needed: the test
    is the same on any scale.
    """
    try:
        _vertices(system, _supports(system), 1)
    except NotPreHoneycomb:
        return False
    return True


@dataclass(frozen=True)
class Honeycomb:
    """Edges with int coordinates in units of ``1/scale``, kept per support
    ``(cls, d_cls)`` in increasing ``t``; no support is kept without one."""

    supports: dict[tuple[int, int], tuple[HEdge, ...]]
    scale: int
    # The edge in each ray slot (cls, sign) of each vertex, and the
    # vertices on each line (cls, d_cls).  canonicalize fills both while it
    # cuts the edges; they follow from the fields above, so they take no
    # part in comparison.
    incidence: dict[Pt, dict[tuple[int, str], HEdge]] = field(compare=False, repr=False)
    on_line: dict[tuple[int, int], list[Pt]] = field(compare=False, repr=False)

    @cached_property
    def edges(self) -> tuple[HEdge, ...]:
        """All edges, in ``HEdge.sort_key`` order."""
        return tuple(e for key in sorted(self.supports) for e in self.supports[key])

    @cached_property
    def vertices(self) -> tuple[Pt, ...]:
        """The vertices, sorted: exactly the edge ends, as each has three edges."""
        return tuple(sorted(self.incidence))

    @cached_property
    def boundary(self) -> tuple[HEdge, ...]:
        return tuple(e for e in self.edges if e.is_ray)

    @cached_property
    def nonintegral(self) -> tuple[frozenset[Pt], frozenset[HEdge]]:
        return nonintegral_sets(self)

    def point(self, v: Pt) -> tuple[Fraction, Fraction]:
        """A vertex in Fractions."""
        return frac_point(v, self.scale)


def divergency(h: Honeycomb, v: Pt) -> int:
    """w_i^+ - w_i^- at ``v``, the same for every class i; an empty slot
    weighs 0."""
    divs = [0, 0, 0]
    for (cls, s), e in h.incidence[v].items():
        divs[cls - 1] += e.weight if s == "+" else -e.weight
    assert divs[0] == divs[1] == divs[2], f"tension violated at {v}"
    return divs[0]


def excess(h: Honeycomb, v: Pt) -> int:
    return abs(divergency(h, v))


def vertices_by_line(verts) -> dict[tuple[int, int], list[Pt]]:
    """The given vertices grouped by the line ``d_cls = c`` of each class."""
    on_line: dict[tuple[int, int], list[Pt]] = {}
    for v in verts:
        for cls in (1, 2, 3):
            on_line.setdefault((cls, dval(v, cls)), []).append(v)
    return on_line


def canonicalize(system: XiSystem, scale: int) -> Honeycomb:
    """The unique honeycomb with the same ray weights everywhere.

    Vertices are the points with at least three nonzero ray weights; edges
    are the maximal covered stretches between them.  Raises
    NotPreHoneycomb when the system violates nonnegativity or tension, and
    when the covered set has a fully infinite line or no vertex at all.

    The coordinates of ``system`` are ints in units of ``1/scale``.  The
    result has the least scale that holds its vertices, and so all of its
    edges.
    """
    covs = _supports(system)
    verts = _vertices(system, covs, scale)
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


def boundary_partition(h: Honeycomb) -> tuple[dict[tuple[int, str], tuple[HEdge, ...]], int]:
    """Semiinfinite edges grouped by (class, sign) plus the common net flow."""
    part: dict[tuple[int, str], list[HEdge]] = {(cls, s): [] for cls in (1, 2, 3) for s in SIGNS}
    for e in h.boundary:
        part[(e.cls, e.ray_sign)].append(e)
    flows = {
        cls: sum(e.weight for e in part[(cls, "+")]) - sum(e.weight for e in part[(cls, "-")])
        for cls in (1, 2, 3)
    }
    assert len(set(flows.values())) == 1, f"boundary flow mismatch {flows}"
    return {k: tuple(v) for k, v in part.items()}, flows[1]


def nonintegral_sets(h: Honeycomb) -> tuple[frozenset[Pt], frozenset[HEdge]]:
    """Vertices with a fractional coordinate (so with two, as the three
    sum to zero); edges with fractional d^c."""
    s = h.scale
    vs = frozenset(v for v in h.incidence if v[0] % s or v[1] % s)
    return vs, frozenset(e for (_, c), es in h.supports.items() if c % s for e in es)


def honeycomb_sum(a: Honeycomb, b: Honeycomb) -> Honeycomb:
    """Canonical form of the union system; always a pre-honeycomb."""
    scale = lcm(a.scale, b.scale)
    return canonicalize([(e.scaled(scale // h.scale), e.weight) for h in (a, b) for e in h.edges], scale)


def claw_lines(center: tuple[Fraction, Fraction], weight: int, sign: str, scale: int) -> XiSystem:
    """The three rays of ``claw(center, weight, sign)`` in ints in units of
    ``1/scale``, a multiple of the denominators of ``center``."""
    p = tuple(x.numerator * (scale // x.denominator) for x in center)
    ends = (lambda t: (t, None)) if sign == "+" else (lambda t: (None, t))
    return [(HLine(cls, dval(p, cls), *ends(t_of(cls, p))), weight) for cls in (1, 2, 3)]


def claw(center: tuple[Fraction, Fraction], weight: int = 1, sign: str = "+") -> Honeycomb:
    """Three equal rays of one sign from a single point."""
    scale = lcm(center[0].denominator, center[1].denominator)
    return canonicalize(claw_lines(center, weight, sign, scale), scale)
