"""Points, line spans and coverages in exact dual coordinates.

A point is stored as ``(d1, d2)`` with ``d3 = -d1-d2`` implied; ``d_i`` is
minus the inner product with the generator ``xi_i``.  A class-``i`` line is
perpendicular to ``xi_i`` and keeps ``d_i`` constant; position along it is
parameterised by ``t = d_{i+1}``, which increases in the ``+`` ray
direction (``xi_i`` rotated clockwise by 90 degrees).  One ``t``-unit is
the scaled edge length used throughout, so all lengths and event times
stay rational.  Coordinates are ints in units of ``1/scale``, and
messages divide them by the scale.

A line span is an ``HLine`` ``(cls, c, lo, hi)``, and an edge an
``HEdge``, the same with a weight: slotted tuples that share the methods
of ``_Span``, so they compare and hash by value, carry no instance dict,
and a span never equals an edge, being one field shorter.

A ``_Coverage`` is the total weight along one supporting line; the
vertex test and the cut of a line into edges read it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
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


def show_point(p: Pt, scale: int) -> str:
    """The point with int coordinates ``p`` in units of ``1/scale``, written
    as rationals: ``(1/2, 0)``."""
    return f"({Fraction(p[0], scale)}, {Fraction(p[1], scale)})"


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

    __slots__ = ("base", "ts", "vals")

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


def _sorted_keys(keys) -> dict[int, list]:
    """The ``c`` of the given ``(cls, c)`` lines, sorted, per class."""
    out: dict[int, list] = {1: [], 2: [], 3: []}
    for cls, c in keys:
        out[cls].append(c)
    return {cls: sorted(cs) for cls, cs in out.items()}


def _crossings(key, spans, cls2: int, cs: list, covs) -> list[Pt]:
    """The points in ``spans`` of the support ``key`` where a covered
    class-``cls2`` support, its ``c`` in the sorted ``cs``, crosses it.

    On ``key = (cls1, c1)`` the crossing with ``d_cls2 = c2`` sits at
    ``t = c2`` when ``cls2 = nxt(cls1)`` and at ``t = -c1 - c2`` when
    ``cls2 = prv(cls1)``, so the crossings inside one covered span are a
    range of ``cs``.
    """
    cls1, c1 = key
    out = []
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
