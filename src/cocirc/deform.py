"""Sideways deformation of a legal path by an exact parameter.

A unit-weight copy of each maximal straight piece of the path splits off
and translates sideways; bend points slide along the third line at their
vertex, patched by weight +1/-1 stubs depending on the turn direction.
Every moving coordinate is affine in the parameter, so all stopping
events (end line reaching an integer coordinate, opposite-sign vertices
merging, a moving line capturing an integral vertex, a piece shrinking to
a point, the validity bound) happen at rational times found by solving
linear equations.  The engine enumerates all candidate times, takes the
first that triggers a stop, and the caller canonicalizes the system
there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EpsilonOutOfRange
from .honeycomb import (
    HEdge,
    HLine,
    Honeycomb,
    Pt,
    XiSystem,
    canonicalize,
    divergency,
    dval,
    is_integral_point,
    t_of,
    vertices_by_line,
)
from .paths import LegalPath, TURN_LEFT, TURN_RIGHT, edge_travels, travel_angle, turn_of

STOP_BOUNDARY_INTEGRAL = "boundary_integral"
STOP_OPPOSITE_MERGE = "opposite_sign_merge"
STOP_INTEGRAL_VERTEX = "integral_vertex_hit"
STOP_LINE_VANISHED = "line_vanished"
STOP_VALIDITY_BOUND = "validity_bound"


@dataclass(frozen=True)
class PathLine:
    """Maximal straight run of a legal path, oriented by traversal."""

    cls: int
    c: Fraction
    trav: int  # +1 when t increases along the traversal
    start: Optional[Pt]
    end: Optional[Pt]
    edges: tuple[HEdge, ...]

    @property
    def is_finite(self) -> bool:
        return self.start is not None and self.end is not None

    def length(self) -> Fraction:
        assert self.is_finite
        return abs(t_of(self.cls, self.end) - t_of(self.cls, self.start))


def shifted_point(
    u: Pt, eps: Fraction, cls_in: int, cls_out: int, sign: str, direction: str = TURN_RIGHT
) -> Pt:
    """Shift rule at a bend: the incoming line's coordinate moves by
    -eps and the outgoing one by +eps when both lines have sign '+' at the
    vertex, and oppositely for sign '-'; a left move flips both."""
    s = 1 if sign == "+" else -1
    if direction == TURN_LEFT:
        s = -s
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

    def shifted(self, eps: Fraction) -> Pt:
        return shifted_point(self.vertex, eps, self.cls_in, self.cls_out, self.sign)

    def motion(self) -> Pt:
        """Dual-coordinate velocity of the shifted copy of the vertex."""
        origin = (Fraction(0), Fraction(0))
        return shifted_point(origin, Fraction(1), self.cls_in, self.cls_out, self.sign)


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

    def vanish_bound(self) -> Optional[Fraction]:
        """Minimum length of a piece with right turns at both ends."""
        best = None
        for i, line in enumerate(self.lines):
            ba, bb = self.bend_before(i), self.bend_after(i)
            if ba and bb and ba.turn == TURN_RIGHT and bb.turn == TURN_RIGHT:
                ell = line.length()
                best = ell if best is None or ell < best else best
        return best


def decompose(h: Honeycomb, p: LegalPath) -> PathLines:
    """Split a legal path at its bends into maximal straight lines."""
    if p.is_cycle:
        positions = p.bend_positions
        assert positions, "a legal cycle must bend"
        if positions[0] != 0:
            p = p.rotated(positions[0])
        interior = [i for i in p.bend_positions if i != 0]
    else:
        interior = list(p.bend_positions)
    travs = edge_travels(p)
    k = len(p.edges)
    starts = [0] + interior
    stops = interior + [k]

    lines = []
    for lo, hi in zip(starts, stops):
        run = p.edges[lo:hi]
        cls, c = run[0].cls, run[0].c
        assert all(e.cls == cls and e.c == c for e in run), "run is not straight"
        assert len({travs[i] for i in range(lo, hi)}) == 1
        lines.append(
            PathLine(cls, c, travs[lo], p.verts[lo], p.verts[hi], tuple(run))
        )

    bends = []
    junctions = interior + ([0] if p.is_cycle else [])
    for idx, pos in enumerate(junctions):
        li, lo_ = lines[idx], lines[(idx + 1) % len(lines)]
        v = p.verts[pos]
        a_in = travel_angle(li.cls, li.trav)
        a_out = travel_angle(lo_.cls, lo_.trav)
        sign_in = "+" if li.trav == -1 else "-"
        sign_out = "+" if lo_.trav == 1 else "-"
        assert sign_in == sign_out, "bend lines disagree on the dominating sign"
        bends.append(Bend(idx, v, turn_of(a_in, a_out), sign_in, li.cls, lo_.cls))
    return PathLines(tuple(lines), tuple(bends), p.is_cycle)


@dataclass(frozen=True)
class StopEvent:
    eps: Fraction
    kinds: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.kinds[0]


@dataclass(frozen=True)
class DeformedSystem:
    lines: tuple[tuple[HLine, int], ...]
    eps: Fraction

    def as_system(self) -> XiSystem:
        return list(self.lines)


def _moved_line_span(
    pl: PathLines, i: int, eps: Fraction
) -> tuple[int, Fraction, Optional[Fraction], Optional[Fraction]]:
    """(cls, c, lo, hi) of the moved copy of line i at parameter eps."""
    line = pl.lines[i]
    c2 = line.c + line.trav * eps
    ba, bb = pl.bend_before(i), pl.bend_after(i)
    t_a = t_of(line.cls, ba.shifted(eps)) if ba else None
    t_b = t_of(line.cls, bb.shifted(eps)) if bb else None
    if t_a is not None and t_b is not None:
        lo, hi = min(t_a, t_b), max(t_a, t_b)
    elif t_a is None and t_b is None:
        lo = hi = None
    else:
        known = t_a if t_a is not None else t_b
        # The missing end keeps the original infinite direction: traversal
        # enters from -infinity when trav=+1 at the start, etc.
        if t_a is None:
            lo, hi = (None, known) if line.trav == 1 else (known, None)
        else:
            lo, hi = (known, None) if line.trav == 1 else (None, known)
    return line.cls, c2, lo, hi


def build_deformed_system(
    h: Honeycomb, pl: PathLines, eps: Fraction
) -> DeformedSystem:
    """Background with path copies removed, moved copies, and bend stubs."""
    bound = pl.vanish_bound()
    if eps < 0 or (bound is not None and eps > bound):
        raise EpsilonOutOfRange(f"eps={eps} outside [0, {bound}]")
    used: dict[HEdge, int] = {}
    for line in pl.lines:
        for e in line.edges:
            used[e] = used.get(e, 0) + 1
    lines: list[tuple[HLine, int]] = []
    for e in h.edges:
        w = e.weight - used.get(e, 0)
        assert w >= 0, "path overuses an edge"
        if w > 0:
            lines.append((e, w))
    for i in range(len(pl.lines)):
        cls, c2, lo, hi = _moved_line_span(pl, i, eps)
        if lo is not None and lo == hi:
            continue  # vanished piece
        lines.append((HLine(cls, c2, lo, hi), 1))
    if eps > 0:
        for b in pl.bends:
            cls = b.third_cls
            c = dval(b.vertex, cls)
            ta, tb = t_of(cls, b.vertex), t_of(cls, b.shifted(eps))
            lo, hi = min(ta, tb), max(ta, tb)
            lines.append((HLine(cls, c, lo, hi), 1 if b.turn == TURN_RIGHT else -1))
    return DeformedSystem(tuple(lines), eps)


def _meet_time(u: Pt, mu, v: Pt, mv) -> Optional[Fraction]:
    """Positive solution of u + t*mu == v + t*mv, if any."""
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


def stop_epsilon(h: Honeycomb, pl: PathLines) -> StopEvent:
    """First parameter at which the rightward motion must stop."""
    movers = [(b, b.vertex, b.motion()) for b in pl.bends]
    on_line = vertices_by_line(h.vertices)
    vanish = pl.vanish_bound()
    is_open = not pl.is_cycle

    candidates: dict[Fraction, list[tuple]] = {}

    def add(eps: Fraction, tag: tuple) -> None:
        if eps > 0 and (vanish is None or eps <= vanish):
            candidates.setdefault(eps, []).append(tag)

    if vanish is not None:
        add(vanish, ("eps0",))
    if is_open:
        for i in (0, len(pl.lines) - 1):
            line = pl.lines[i]
            assert line.c.denominator != 1
            if line.trav == 1:
                add(Fraction(line.c.__ceil__()) - line.c, ("e1", i))
            else:
                add(line.c - Fraction(line.c.__floor__()), ("e1", i))
    # eps0 and e1 always stop, so no candidate after the first of them is
    # ever examined.
    cap = min(candidates, default=None)
    for a in range(len(movers)):
        ba, ua, ma = movers[a]
        for bb, ub, mb in movers[a + 1 :]:
            t = _meet_time(ua, ma, ub, mb)
            if t is not None:
                add(t, ("meet", ba, bb))
        # A bend moves along its third-class line, so it can meet only the
        # stationary vertices on that line.
        for v in on_line.get((ba.third_cls, dval(ua, ba.third_cls)), ()):
            t = _meet_time(ua, ma, v, (0, 0))
            if t is not None:
                add(t, ("meet", ba, v))
    # A moving line sweeps the integral vertices on the parallel lines
    # ahead of it, up to the cap (ties with the cap included).
    levels = {
        cls: sorted(d for k, d in on_line if k == cls and d.denominator == 1) for cls in (1, 2, 3)
    }
    for i, line in enumerate(pl.lines):
        ds = levels[line.cls]
        if line.trav == 1:
            first = bisect_right(ds, line.c)
            stop = len(ds) if cap is None else bisect_right(ds, line.c + cap)
        else:
            first = 0 if cap is None else bisect_left(ds, line.c - cap)
            stop = bisect_left(ds, line.c)
        for d in ds[first:stop]:
            t = (d - line.c) * line.trav
            for v in on_line[(line.cls, d)]:
                if is_integral_point(v):
                    add(t, ("sweep", i, v))

    prev = Fraction(0)
    for eps_c in sorted(candidates):
        tags = candidates[eps_c]
        kinds: set[str] = set()
        mid_h: Optional[Honeycomb] = None

        def mid_honeycomb() -> Honeycomb:
            nonlocal mid_h
            if mid_h is None:
                mid_h = canonicalize(build_deformed_system(h, pl, (prev + eps_c) / 2).as_system())
            return mid_h

        for tag in tags:
            if tag[0] == "eps0":
                kinds.add(STOP_LINE_VANISHED)
            elif tag[0] == "e1":
                kinds.add(STOP_BOUNDARY_INTEGRAL)
            elif tag[0] == "sweep":
                moved = HLine(*_moved_line_span(pl, tag[1], eps_c))
                if moved.contains_t(t_of(moved.cls, tag[2])):
                    kinds.add(STOP_INTEGRAL_VERTEX)
            else:
                _, pa, pb = tag  # pa is a Bend; pb a Bend or a stationary vertex
                mid = (prev + eps_c) / 2
                qa = pa.shifted(mid)
                qb = pb.shifted(mid) if isinstance(pb, Bend) else pb
                if not isinstance(pb, Bend) and is_integral_point(pb):
                    kinds.add(STOP_INTEGRAL_VERTEX)
                hm = mid_honeycomb()
                if qa in hm.vertex_set and qb in hm.vertex_set:
                    if divergency(hm, qa) * divergency(hm, qb) < 0:
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


# Mirror image across the xi1 axis: classes 2 and 3 swap, turns flip.
_MIRROR_CLS = {1: 1, 2: 3, 3: 2}


def mirror_point(p: Pt) -> Pt:
    return (p[0], -p[0] - p[1])


def mirror_line(cls: int, c: Fraction, lo, hi) -> tuple[int, Fraction, object, object]:
    new_lo = None if hi is None else -c - hi
    new_hi = None if lo is None else -c - lo
    return _MIRROR_CLS[cls], c, new_lo, new_hi


def mirror_honeycomb(h: Honeycomb) -> Honeycomb:
    return canonicalize(
        [(HLine(*mirror_line(e.cls, e.c, e.lo, e.hi)), e.weight) for e in h.edges]
    )


def mirror_path(p: LegalPath) -> LegalPath:
    verts = tuple(None if v is None else mirror_point(v) for v in p.verts)
    edges = tuple(
        HEdge(*mirror_line(e.cls, e.c, e.lo, e.hi), e.weight) for e in p.edges
    )
    return LegalPath(verts, edges, p.is_cycle)


def orient_cycle_rightward(h: Honeycomb, p: LegalPath) -> LegalPath:
    """Choose the traversal with two consecutive right turns."""

    def has_double_right(path: LegalPath) -> bool:
        turns = [b.turn for b in decompose(h, path).bends]
        return any(
            turns[i] == TURN_RIGHT and turns[(i + 1) % len(turns)] == TURN_RIGHT
            for i in range(len(turns))
        )

    if has_double_right(p):
        return p
    q = p.reversed()
    assert has_double_right(q), "neither orientation has two adjacent right turns"
    return q


def deform(h: Honeycomb, p: LegalPath, direction: str = TURN_RIGHT) -> tuple[Honeycomb, StopEvent]:
    """Apply the stopping-parameter deformation and canonicalize."""
    if direction == TURN_LEFT:
        hbar, ev = deform(mirror_honeycomb(h), mirror_path(p), TURN_RIGHT)
        return mirror_honeycomb(hbar), ev
    if p.is_cycle:
        p = orient_cycle_rightward(h, p)
    pl = decompose(h, p)
    ev = stop_epsilon(h, pl)
    hbar = canonicalize(build_deformed_system(h, pl, ev.eps).as_system())
    return hbar, ev
