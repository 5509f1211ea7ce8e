"""The canonical form of a honeycomb changed in a few places.

A deformation changes a honeycomb only along its path: the path's edges
lose weight, and moved copies and bend stubs are added.  A ``Patch`` is
such a system given as the honeycomb plus that delta, and
``canonicalize_patch`` computes its canonical form while redoing only
what the delta changes; every other vertex keeps its incidence and every
other support its edges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby
from math import gcd
from operator import attrgetter
from typing import Optional

from .errors import NotPreHoneycomb
from .honeycomb import (
    HEdge,
    HLine,
    Honeycomb,
    Pt,
    XiSystem,
    _check_full_lines,
    _Coverage,
    _crossings,
    _cut,
    _is_vertex,
    _live,
    _sorted_keys,
    canonicalize,
    dval,
    nxt,
    prv,
    six_weights,
    t_of,
    vertices_by_line,
)

Key = tuple[int, int]  # a line (cls, d_cls)


def _times(x: Optional[int], f: int, g: int = 1) -> Optional[int]:
    return None if x is None else x * f // g


@dataclass(frozen=True)
class Patch:
    """The edges of ``base`` with every coordinate multiplied by ``f``,
    each less the weight ``removed`` takes off it, plus the ``added``
    lines: a system in ints in units of ``1/scale``, ``scale = base.scale
    * f``.  A support is dirty when a removed edge or an added line lies on
    it."""

    base: Honeycomb
    f: int
    removed: dict[HEdge, int]
    added: tuple[tuple[HLine, int], ...]

    @property
    def scale(self) -> int:
        return self.base.scale * self.f

    @cached_property
    def lines(self) -> tuple[tuple[HLine, int], ...]:
        """The whole system: the base edges left, then the added lines."""
        out = []
        for e in self.base.edges:
            w = e.weight - self.removed.get(e, 0)
            if w > 0:
                out.append((e if self.f == 1 else e.scaled(self.f), w))
        return (*out, *self.added)

    def as_system(self) -> XiSystem:
        """The lines as a system in Fractions."""
        unit = Fraction(1, self.scale)
        return [(line.scaled(unit), w) for line, w in self.lines]

    @cached_property
    def covs(self) -> _Coverages:
        return _Coverages(self)

    def divergency_at(self, p: Pt) -> Optional[int]:
        """The divergency of the canonical form at ``p``, or None where it
        has no vertex: both follow from the six weights at ``p``."""
        w6 = six_weights(self.covs, p)
        try:
            vertex = _is_vertex(w6, p, self.scale)
        except NotPreHoneycomb:
            canonicalize(self.lines, self.scale)  # raises, naming the least violation
            raise
        return w6[(1, "+")] - w6[(1, "-")] if vertex else None


class _Coverages(dict):
    """The coverage of each support of a patch, built on first use from
    its lines; ``None`` for a line without any."""

    # ``six_weights`` and ``_crossings`` read coverages through ``get``;
    # here a lookup that misses builds the coverage (``__missing__``).
    get = dict.__getitem__

    def __init__(self, p: Patch):
        super().__init__()
        # The patch's parts, not the patch: a reference back to it would
        # make a cycle that keeps each step's honeycomb alive until the
        # cyclic collector runs.
        self.base, self.f = base, f = p.base, p.f
        # support -> (lo, hi, w) of its lines: the base edges, then the
        # removed weight (negative) and the added lines
        self.lines: dict[Key, list] = {}
        for (cls, c), run in groupby(base.edges, attrgetter("cls", "c")):  # edges come sorted
            self.lines[(cls, c * f)] = [
                (e.lo, e.hi, e.weight) if f == 1 else (_times(e.lo, f), _times(e.hi, f), e.weight) for e in run
            ]
        self.added: dict[Key, list] = {}  # support -> (lo, hi, w) of its added lines
        self.dirty: set[Key] = set()
        for e, n in p.removed.items():
            key = (e.cls, e.c * f)
            self.dirty.add(key)
            self.lines[key].append((_times(e.lo, f), _times(e.hi, f), -n))
        for line, w in p.added:
            if _live(line.lo, line.hi, w):
                key = (line.cls, line.c)
                self.dirty.add(key)
                self.added.setdefault(key, []).append((line.lo, line.hi, w))
                self.lines.setdefault(key, []).append((line.lo, line.hi, w))

    def base_on(self, key: Key) -> list[Pt]:
        """The base vertices on the line ``key``, in base coordinates."""
        cls, c = key
        return self.base.on_line.get((cls, c // self.f), []) if c % self.f == 0 else []

    def __missing__(self, key: Key) -> Optional[_Coverage]:
        iv = self.lines.get(key)
        cov = self[key] = None if iv is None else _Coverage(iv)
        return cov


def _inside(t, lines) -> bool:
    """Whether ``t`` lies in the closed span of one of the ``(lo, hi, w)``."""
    return any((lo is None or lo <= t) and (hi is None or t <= hi) for lo, hi, _ in lines)


def _clip(spans: list, lines: list) -> list:
    """The nonempty intersections of the closed ``spans`` with the closed
    spans of the ``(lo, hi, w)``; None is an infinite end."""
    out = []
    for lo, hi in spans:
        for wlo, whi, _ in lines:
            a = wlo if lo is None else lo if wlo is None else max(lo, wlo)
            b = whi if hi is None else hi if whi is None else min(hi, whi)
            if a is None or b is None or a <= b:
                out.append((a, b))
    return out


def canonicalize_patch(p: Patch) -> Honeycomb:
    """``canonicalize(p.lines, p.scale)``, redone only where ``p`` changes
    coverage.

    A point keeps its six weights, so its vertex status, unless a removed
    edge or an added line covers it.  The candidates are therefore the
    base vertices there (the ends of the removed edges, and those on the
    added lines), the ends of the added lines, and the crossings of the
    added lines with covered supports of both other classes.  No base
    support crosses the inside of a removed edge: a covered crossing of
    the base is a base vertex.  Only the touched supports, dirty or
    through a vertex that appeared or vanished, are cut again.  On any
    violation the full ``canonicalize`` runs, so its message is raised.
    """
    try:
        return _canonicalize_patch(p)
    except NotPreHoneycomb:
        return canonicalize(p.lines, p.scale)


def _canonicalize_patch(p: Patch) -> Honeycomb:
    h, f, scale, covs = p.base, p.f, p.scale, p.covs

    # Vertex status: the base vertices where it may change (``gone``, in
    # base coordinates) and the vertices there now (``fresh``, at ``scale``).
    gone = {v for e in p.removed for v in e.ends()}
    for key, lines in covs.added.items():
        for v in covs.base_on(key):
            if _inside(f * t_of(key[0], v), lines):
                gone.add(v)
    gone_up = gone if f == 1 else {(v[0] * f, v[1] * f) for v in gone}
    pts = {q for line, _ in p.added for q in line.ends()} | gone_up
    _check_full_lines([(key, cov) for key in covs.dirty if (cov := covs.get(key))], scale)
    keys = _sorted_keys(covs.lines)
    for key, lines in covs.added.items():
        cov = covs.get(key)
        if cov is not None:
            pts.update(_crossings(key, _clip(cov.spans(), lines), (nxt(key[0]), prv(key[0])), keys, covs))
    fresh = [q for q in pts if _is_vertex(six_weights(covs, q), q, scale)]
    if not fresh and len(gone) == len(h.vertices):
        raise NotPreHoneycomb("covered set has no vertex")

    # The least scale: coordinates divide by g.  ``same`` when the base's
    # coordinates carry over unchanged.
    g = gcd(scale, *chain.from_iterable(fresh))
    if g > 1:
        g = gcd(g, f * gcd(h.scale, *chain.from_iterable(v for v in h.vertices if v not in gone)))
    same = f == g

    # Cut again the dirty supports and the lines through a vertex that
    # appeared or vanished.
    touched = set(covs.dirty)
    for q in gone_up.symmetric_difference(fresh):
        touched.update((cls, dval(q, cls)) for cls in (1, 2, 3))
    fresh_on = vertices_by_line(fresh)
    along: dict[Key, list[Pt]] = {}  # touched line -> its vertices, final, in point order
    for key in touched:
        vs = [v for v in covs.base_on(key) if v not in gone]
        if f > 1:
            vs = [(v[0] * f, v[1] * f) for v in vs]
        vs += fresh_on.get(key, ())
        if vs:
            vs.sort()
            along[key] = vs if g == 1 else [(q[0] // g, q[1] // g) for q in vs]
    cut_slots: dict[Pt, dict[tuple[int, str], HEdge]] = {v: {} for vs in along.values() for v in vs}
    cut_edges: dict[Key, list[HEdge]] = {}
    for key in touched:
        cov = covs.get(key)
        if cov is not None:
            cls, vs = key[0], along.get(key, [])
            at = [(g * t_of(cls, v), v) for v in (vs[::-1] if cls == 2 else vs)]  # t order
            _cut(cls, key[1], cov, at, g, scale, cut_slots, cut_edges.setdefault(key, []))

    # The base edges of the other supports, in order, between the cut ones.
    # A scale change rescales them all; those of touched supports, which
    # may not divide, are dropped with the rest of their support.
    carried = h.edges
    moved: dict[HEdge, HEdge] = {}  # base edge -> its edge in the result, on a scale change
    if not same:
        carried = [HEdge(e.cls, e.c * f // g, _times(e.lo, f, g), _times(e.hi, f, g), e.weight) for e in h.edges]
        moved = dict(zip(h.edges, carried))
    ekeys = [(e.cls, e.c * f) for e in h.edges]
    edges: list[HEdge] = []
    i = 0
    for key in sorted(touched):
        j = bisect_left(ekeys, key, i)
        edges += carried[i:j]
        edges += cut_edges.get(key, ())
        i = bisect_right(ekeys, key, j)
    edges += carried[i:]

    # Incidence: the vertices off touched lines keep theirs; the others
    # take their slots on touched lines from the cut.
    incidence = h.incidence
    if same:
        slots = dict(incidence)
        for v in gone:
            del slots[v]
    else:
        slots = {}
        for v, vs in incidence.items():
            w = (v[0] * f // g, v[1] * f // g)
            if v not in gone and w not in cut_slots:
                slots[w] = {slot: moved[e] for slot, e in vs.items()}
    touched_lines = touched if g == 1 else {(cls, c // g) for cls, c in touched if c % g == 0}
    for v, cut in cut_slots.items():
        q = (v[0] * g, v[1] * g)
        old = incidence.get((q[0] // f, q[1] // f), {}) if q[0] % f == 0 and q[1] % f == 0 else {}
        mine = {s: e if same else moved[e] for s, e in old.items() if (s[0], dval(v, s[0])) not in touched_lines}
        mine.update(cut)
        slots[v] = mine
    assert all(len(slots[v]) >= 3 for v in cut_slots)
    vertices = tuple(sorted(slots))

    if same:
        on_line = dict(h.on_line)
        for key in touched:
            if key[1] % g == 0:
                line = key if g == 1 else (key[0], key[1] // g)
                if key in along:
                    on_line[line] = along[key]
                else:
                    on_line.pop(line, None)
    else:
        on_line = vertices_by_line(vertices)
    return Honeycomb(vertices, tuple(edges), scale // g, slots, on_line)
