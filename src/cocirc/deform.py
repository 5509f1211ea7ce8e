"""Sideways deformation of a legal path by an exact parameter.

A unit-weight copy of each maximal straight piece of the path splits off
and translates sideways; bend points slide along the third line at their
vertex, patched by weight +1/-1 stubs depending on the turn direction.
A bend turns right exactly when the outgoing line's class is the next
after the incoming one's, ``cls_out == nxt(cls_in)``.
Every moving coordinate is affine in the parameter, so all stopping
events (end line reaching an integer coordinate, opposite-sign vertices
merging, a moving line capturing an integral vertex, a piece shrinking to
a point, the validity bound) happen at rational times found by solving
linear equations.  The engine finds them in one pass and judges each
where it is found, against the least stop so far, reading a meet off the
path alone.  The deformed system there is the honeycomb, at the stop's
scale, patched by the path edges taken off and the lines added, and
``canonicalize`` of that base and delta redoes only what the patch
touches: every other vertex keeps its incidence and every other support
its edges.

Coordinates are the honeycomb's ints in units of ``1/scale``.  Every rate
is -1, 0 or +1, so every candidate time is a multiple of ``1/(2*scale)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import EpsilonOutOfRange
from .honeycomb import Honeycomb, Patch, _patch_of, canonicalize, divergency
from .paths import LegalPath, TURN_LEFT, TURN_RIGHT
from .spans import HEdge, HLine, Pt, _sorted_keys, dval, is_integral_point, nxt, t_of

STOP_BOUNDARY_INTEGRAL = "boundary_integral"
STOP_OPPOSITE_MERGE = "opposite_sign_merge"
STOP_INTEGRAL_VERTEX = "integral_vertex_hit"
STOP_LINE_VANISHED = "line_vanished"
STOP_VALIDITY_BOUND = "validity_bound"


@dataclass(frozen=True)
class PathLine:
    """Maximal straight run of a legal path, oriented by traversal."""

    cls: int
    c: int
    trav: int  # +1 when t increases along the traversal
    start: Optional[Pt]
    end: Optional[Pt]
    edges: tuple[HEdge, ...]

    @property
    def is_finite(self) -> bool:
        return self.start is not None and self.end is not None

    def length(self) -> int:
        assert self.is_finite
        return abs(t_of(self.cls, self.end) - t_of(self.cls, self.start))


def shifted_point(u: Pt, eps, cls_in: int, cls_out: int, sign: str) -> Pt:
    """Shift rule at a bend: the incoming line's coordinate moves by
    -eps and the outgoing one by +eps when both lines have sign '+' at the
    vertex, and oppositely for sign '-'."""
    s = 1 if sign == "+" else -1
    rates = {cls_in: -s, cls_out: s, 6 - cls_in - cls_out: 0}
    return (u[0] + rates[1] * eps, u[1] + rates[2] * eps)


@dataclass(frozen=True)
class Bend:
    """Junction after line ``index``; ``sign`` is the dominating sign."""

    index: int
    vertex: Pt
    turn: str
    sign: str
    cls_in: int
    cls_out: int

    @property
    def third_cls(self) -> int:
        return 6 - self.cls_in - self.cls_out

    @property
    def div(self) -> int:
        """The dominating sign as +1 or -1: the moving copy's divergency."""
        return 1 if self.sign == "+" else -1

    def shifted(self, eps: int, f: int = 1) -> Pt:
        """The moved copy of the vertex, with the vertex's coordinates
        multiplied by ``f`` first: ``eps`` is in units of ``1/(f*scale)``."""
        u = (f * self.vertex[0], f * self.vertex[1])
        return shifted_point(u, eps, self.cls_in, self.cls_out, self.sign)

    def motion(self) -> Pt:
        """Dual-coordinate velocity of the shifted copy of the vertex."""
        return shifted_point((0, 0), 1, self.cls_in, self.cls_out, self.sign)


@dataclass(frozen=True)
class PathLines:
    lines: tuple[PathLine, ...]
    bends: tuple[Bend, ...]
    is_cycle: bool

    def bend_before(self, i: int) -> Optional[Bend]:
        if i > 0:
            return self.bends[i - 1]
        return self.bends[-1] if self.is_cycle else None

    def bend_after(self, i: int) -> Optional[Bend]:
        if i < len(self.lines) - 1:
            return self.bends[i]
        return self.bends[-1] if self.is_cycle else None

    def vanish_bound(self) -> Optional[int]:
        """Minimum length of a piece with right turns at both ends."""
        best = None
        for i, line in enumerate(self.lines):
            ba, bb = self.bend_before(i), self.bend_after(i)
            if ba and bb and ba.turn == TURN_RIGHT and bb.turn == TURN_RIGHT:
                ell = line.length()
                best = ell if best is None or ell < best else best
        return best


def decompose(p: LegalPath) -> PathLines:
    """Split a legal path at its bends into maximal straight lines.

    A bend turns right exactly when ``cls_out == nxt(cls_in)``, whatever
    its dominating sign: the ``+`` ray of class c points at 270 + 120(c-1)
    degrees, so the heading turns by 120 times the class step, plus 180.
    """
    if p.is_cycle:
        positions = p.bend_positions
        assert positions, "a legal cycle must bend"
        if positions[0] != 0:
            p = p.rotated(positions[0])
        interior = [i for i in p.bend_positions if i != 0]
    else:
        interior = list(p.bend_positions)
    k = len(p.edges)
    starts = [0] + interior
    stops = interior + [k]

    lines = []
    for lo, hi in zip(starts, stops):
        run = p.edges[lo:hi]
        cls, c = run[0].cls, run[0].c
        assert all(e.cls == cls and e.c == c for e in run), "run is not straight"
        # Consecutive edges of a run are opposite at their shared vertex,
        # so the run travels one way: read it off its ends.
        a, b = p.verts[lo], p.verts[hi]
        if a is None:
            trav = -1 if run[0].ray_sign == "+" else 1
        elif b is None:
            trav = 1 if run[-1].ray_sign == "+" else -1
        else:
            trav = 1 if t_of(cls, b) > t_of(cls, a) else -1
        lines.append(PathLine(cls, c, trav, a, b, tuple(run)))

    bends = []
    junctions = interior + ([0] if p.is_cycle else [])
    for idx, pos in enumerate(junctions):
        li, lo_ = lines[idx], lines[(idx + 1) % len(lines)]
        sign_in = "+" if li.trav == -1 else "-"
        sign_out = "+" if lo_.trav == 1 else "-"
        assert sign_in == sign_out, "bend lines disagree on the dominating sign"
        assert li.cls != lo_.cls, "not a 60-degree bend"
        turn = TURN_RIGHT if lo_.cls == nxt(li.cls) else TURN_LEFT
        bends.append(Bend(idx, p.verts[pos], turn, sign_in, li.cls, lo_.cls))
    return PathLines(tuple(lines), tuple(bends), p.is_cycle)


@dataclass(frozen=True)
class StopEvent:
    eps: Fraction
    kinds: tuple[str, ...]


def _moved_line_span(
    pl: PathLines, i: int, eps: int, f: int = 1
) -> tuple[int, int, Optional[int], Optional[int]]:
    """(cls, c, lo, hi) of the moved copy of line i at parameter eps, with
    the path's coordinates multiplied by ``f`` first (see ``Bend.shifted``)."""
    line = pl.lines[i]
    c2 = f * line.c + line.trav * eps
    ba, bb = pl.bend_before(i), pl.bend_after(i)
    t_a = t_of(line.cls, ba.shifted(eps, f)) if ba else None
    t_b = t_of(line.cls, bb.shifted(eps, f)) if bb else None
    # The traversal runs from t_a to t_b; an open end keeps its infinite
    # direction.  No eps up to the vanish bound reverses the two ends.
    lo, hi = (t_a, t_b) if line.trav == 1 else (t_b, t_a)
    return line.cls, c2, lo, hi


def build_deformed_system(h: Honeycomb, pl: PathLines, eps) -> Patch:
    """Background with path copies removed, moved copies, and bend stubs,
    at the least multiple of ``h.scale`` that holds the rational ``eps``:
    ``h``, brought up to that scale, patched by the path's edges and the
    lines added."""
    eps = Fraction(eps)
    f = eps.denominator // gcd(eps.denominator, h.scale)
    scale = h.scale * f
    units = eps.numerator * (scale // eps.denominator)
    bound = pl.vanish_bound()
    if units < 0 or (bound is not None and units > f * bound):
        shown = None if bound is None else Fraction(bound, h.scale)
        raise EpsilonOutOfRange(f"eps={eps} outside [0, {shown}]")
    used = Counter(e for line in pl.lines for e in line.edges)
    for e, n in used.items():
        assert n <= e.weight, "path overuses an edge"
    lines: list[tuple[HLine, int]] = []
    for i in range(len(pl.lines)):
        cls, c2, lo, hi = _moved_line_span(pl, i, units, f)
        if lo is not None and lo == hi:
            continue  # vanished piece
        lines.append((HLine(cls, c2, lo, hi), 1))
    if units > 0:
        for b in pl.bends:
            cls = b.third_cls
            c = f * dval(b.vertex, cls)
            ta, tb = f * t_of(cls, b.vertex), t_of(cls, b.shifted(units, f))
            lo, hi = min(ta, tb), max(ta, tb)
            lines.append((HLine(cls, c, lo, hi), 1 if b.turn == TURN_RIGHT else -1))
    return _patch_of(lines, scale, h, used)


def _meet_time(u: Pt, mu: Pt, v: Pt, mv: Pt) -> Optional[int]:
    """Twice the positive solution of u + t*mu == v + t*mv, if any (an
    int: every rate is -1, 0 or +1)."""
    t2 = None
    for k in range(2):
        dm = mu[k] - mv[k]
        dp = v[k] - u[k]
        if dm == 0:
            if dp != 0:
                return None
        else:
            cand = 2 * dp // dm
            if t2 is None:
                t2 = cand
            elif t2 != cand:
                return None
    return t2 if t2 is not None and t2 > 0 else None


def _meet_divergency(h: Honeycomb, pl: PathLines, p) -> int:
    """The divergency just before a meet at the moving copy of the bend
    ``p`` or at the stationary vertex ``p``.  Only the bend's moved lines
    and stub end at its copy then (base and path edges end at base
    vertices, and copies meet only at candidate times), so it is the
    bend's ``div``.  A stationary vertex loses the ``div`` of each bend
    the path makes there; a straight pass cancels."""
    return p.div if isinstance(p, Bend) else divergency(h, p) - sum(b.div for b in pl.bends if b.vertex == p)


def stop_epsilon(h: Honeycomb, pl: PathLines) -> StopEvent:
    """First parameter at which the rightward motion must stop.

    Times run in units of ``1/(2*h.scale)``.  A piece vanishing and an
    end line reaching an integer coordinate always stop, and the least
    stop found so far caps the search: each meet and each sweep is judged
    where it is found, if it is no later than the cap, and the least time
    comes back with all of its kinds.  A meet stops the motion when its
    two points have divergencies of opposite signs just before it (a
    point of nonzero divergency is a vertex), read off the path by
    ``_meet_divergency``: no deformed system is built.
    """
    s, on_line = h.scale, h.on_line
    cap: Optional[int] = None
    kinds: set[str] = set()

    def found(k: int, kind: str) -> None:
        nonlocal cap, kinds
        if cap is None or k < cap:
            cap, kinds = k, {kind}
        elif k == cap:
            kinds.add(kind)

    vanish = pl.vanish_bound()
    if vanish is not None:
        found(2 * vanish, STOP_LINE_VANISHED)
    if not pl.is_cycle:
        for line in (pl.lines[0], pl.lines[-1]):
            frac = line.c % s
            assert frac != 0
            found(2 * (s - frac if line.trav == 1 else frac), STOP_BOUNDARY_INTEGRAL)
    movers = [(b, b.vertex, b.motion()) for b in pl.bends]
    for a, (pa, ua, ma) in enumerate(movers):
        # A bend moves along its third-class line, so it can meet only the
        # stationary vertices on that line.  A bend's copy ends the moved
        # copies of its lines, so their sweeps report an integral vertex.
        fixed = [(v, v, (0, 0)) for v in on_line.get((pa.third_cls, dval(ua, pa.third_cls)), ())]
        for pb, ub, mb in movers[a + 1 :] + fixed:
            k = _meet_time(ua, ma, ub, mb)
            if k is None or (cap is not None and k > cap) or pa.div * _meet_divergency(h, pl, pb) >= 0:
                continue
            found(k, STOP_OPPOSITE_MERGE)
            # Validity-bound flavours: a negative stub running off its
            # covering edge, or two negative stubs colliding.
            if pa.turn == TURN_LEFT and (not isinstance(pb, Bend) or pb.turn == TURN_LEFT):
                found(k, STOP_VALIDITY_BOUND)
    # A moving line sweeps the integral vertices on the parallel lines
    # ahead of it, up to the cap: d within cap/2 of c.
    levels = _sorted_keys(key for key in on_line if key[1] % s == 0)
    for i, line in enumerate(pl.lines):
        ds, reach = levels[line.cls], None if cap is None else cap // 2
        if line.trav == 1:
            first = bisect_right(ds, line.c)
            stop = len(ds) if reach is None else bisect_right(ds, line.c + reach)
        else:
            first = 0 if reach is None else bisect_left(ds, line.c - reach)
            stop = bisect_left(ds, line.c)
        for d in ds[first:stop]:
            k = 2 * (d - line.c) * line.trav
            moved = HLine(*_moved_line_span(pl, i, k, 2))
            vs = on_line[(line.cls, d)]
            if any(is_integral_point(v, s) and moved.contains_t(2 * t_of(line.cls, v)) for v in vs):
                found(k, STOP_INTEGRAL_VERTEX)
    if cap is None:
        raise AssertionError("no stopping event found")
    return StopEvent(Fraction(cap, 2 * s), tuple(sorted(kinds)))


def orient_cycle_rightward(p: LegalPath) -> PathLines:
    """The lines of the traversal of the cycle ``p`` that has two
    consecutive right turns."""

    def double_right(pl: PathLines) -> bool:
        turns = [b.turn for b in pl.bends]
        return (TURN_RIGHT, TURN_RIGHT) in zip(turns, turns[1:] + turns[:1])

    pl = decompose(p)
    if not double_right(pl):
        pl = decompose(p.reversed())
        assert double_right(pl), "neither orientation has two adjacent right turns"
    return pl


def deform(h: Honeycomb, p: LegalPath, direction: str = TURN_RIGHT) -> tuple[Honeycomb, StopEvent]:
    """Apply the stopping-parameter deformation and canonicalize; a left
    deformation is the right deformation of the reversed path."""
    if direction == TURN_LEFT:
        p = p.reversed()
    pl = orient_cycle_rightward(p) if p.is_cycle else decompose(p)
    ev = stop_epsilon(h, pl)
    ds = build_deformed_system(h, pl, ev.eps)
    return canonicalize(ds.added, ds.scale, ds.base, ds.removed), ev
