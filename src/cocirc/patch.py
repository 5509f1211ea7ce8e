"""The canonical form of a honeycomb changed in a few places.

A deformation changes a honeycomb only along its path: the path's edges
lose weight, and moved copies and bend stubs are added.  A ``Patch`` is
such a system given as the honeycomb plus that delta, and
``canonicalize_patch`` computes its canonical form while redoing only
what the delta changes; every other vertex keeps its incidence and every
other support its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Optional

from .errors import NotPreHoneycomb
from .honeycomb import (
    HEdge,
    HLine,
    Honeycomb,
    Pt,
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


def _times(x: Optional[int], f: int) -> Optional[int]:
    return None if x is None else x * f


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
        for e in chain.from_iterable(self.base.supports.values()):
            w = e.weight - self.removed.get(e, 0)
            if w > 0:
                out.append((e if self.f == 1 else e.scaled(self.f), w))
        return (*out, *self.added)

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
    the base edges on it and its delta; ``None`` for a line without any."""

    # ``six_weights`` and ``_crossings`` read coverages through ``get``;
    # here a lookup that misses builds the coverage (``__missing__``).
    get = dict.__getitem__

    def __init__(self, p: Patch):
        super().__init__()
        # No reference back to the patch: it would make a cycle that keeps
        # each step's honeycomb alive until the cyclic collector runs.
        f = self.f = p.f
        self.supports = p.base.supports
        # dirty support -> (lo, hi, w) of its removed weight (negative) and
        # added lines; ``added`` holds the added lines alone
        self.delta: dict[Key, list] = {}
        self.added: dict[Key, list] = {}
        for e, n in p.removed.items():
            self.delta.setdefault((e.cls, e.c * f), []).append((_times(e.lo, f), _times(e.hi, f), -n))
        for line, w in p.added:
            if _live(line.lo, line.hi, w):
                key = (line.cls, line.c)
                self.added.setdefault(key, []).append((line.lo, line.hi, w))
                self.delta.setdefault(key, []).append((line.lo, line.hi, w))

    def __missing__(self, key: Key) -> Optional[_Coverage]:
        (cls, c), f = key, self.f
        es = self.supports.get((cls, c // f), ()) if c % f == 0 else ()  # the base edges on it
        iv = [(_times(e.lo, f), _times(e.hi, f), e.weight) for e in es]
        iv += self.delta.get(key, ())
        cov = self[key] = _Coverage(iv) if iv else None
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
    through a vertex that appeared or vanished, are cut again.  A step
    that changes the scale, finer (``p.f > 1``) or coarser, is
    canonicalized in full, and so is any violation, so the full path
    raises its message.
    """
    try:
        h = _canonicalize_patch(p) if p.f == 1 else None
    except NotPreHoneycomb:
        h = None
    return canonicalize(p.lines, p.scale) if h is None else h


def _canonicalize_patch(p: Patch) -> Optional[Honeycomb]:
    """The canonical form of ``p`` at the base's scale, or None where the
    least scale is coarser.  ``p.f`` is 1."""
    h, scale, covs = p.base, p.scale, p.covs

    # Vertex status: the base vertices where it may change (``gone``) and
    # the vertices there now (``fresh``).
    gone = {v for e in p.removed for v in e.ends()}
    for key, lines in covs.added.items():
        for v in h.on_line.get(key, ()):
            if _inside(t_of(key[0], v), lines):
                gone.add(v)
    pts = {q for line, _ in p.added for q in line.ends()} | gone
    _check_full_lines([(key, cov) for key in covs.delta if (cov := covs.get(key))], scale)
    keys = _sorted_keys(h.supports.keys() | covs.delta.keys())
    for key, lines in covs.added.items():
        cov = covs.get(key)
        if cov is not None:
            pts.update(_crossings(key, _clip(cov.spans(), lines), (nxt(key[0]), prv(key[0])), keys, covs))
    fresh = [q for q in pts if _is_vertex(six_weights(covs, q), q, scale)]
    if not fresh and len(gone) == len(h.incidence):
        raise NotPreHoneycomb("covered set has no vertex")
    # A coarser least scale is left to the full canonicalize.
    g = gcd(scale, *chain.from_iterable(fresh))
    if g > 1 and gcd(g, *chain.from_iterable(v for v in h.incidence if v not in gone)) > 1:
        return None

    # Cut again the dirty supports and the lines through a vertex that
    # appeared or vanished; the other supports keep their edges.
    touched = set(covs.delta)
    for q in gone.symmetric_difference(fresh):
        touched.update((cls, dval(q, cls)) for cls in (1, 2, 3))
    fresh_on = vertices_by_line(fresh)
    along: dict[Key, list[Pt]] = {}  # touched line -> its vertices, final, in point order
    for key in touched:
        vs = [v for v in h.on_line.get(key, ()) if v not in gone]
        vs += fresh_on.get(key, ())
        if vs:
            vs.sort()
            along[key] = vs
    cut_slots: dict[Pt, dict[tuple[int, str], HEdge]] = {v: {} for vs in along.values() for v in vs}
    supports = dict(h.supports)
    for key in touched:
        supports.pop(key, None)
        if (cov := covs.get(key)) is not None:
            cls, vs = key[0], along.get(key, [])
            at = [(t_of(cls, v), v) for v in (vs[::-1] if cls == 2 else vs)]  # t order
            if edges := _cut(cls, key[1], cov, at, 1, scale, cut_slots):
                supports[key] = edges

    # Incidence: the vertices off touched lines keep theirs; the others
    # take their slots on touched lines from the cut.
    slots = dict(h.incidence)
    for v in gone:
        del slots[v]
    for v, cut in cut_slots.items():
        mine = {s: e for s, e in h.incidence.get(v, {}).items() if (s[0], dval(v, s[0])) not in touched}
        mine.update(cut)
        slots[v] = mine
    assert all(len(slots[v]) >= 3 for v in cut_slots)

    on_line = dict(h.on_line)
    for key in touched:
        if key in along:
            on_line[key] = along[key]
        else:
            on_line.pop(key, None)
    return Honeycomb(supports, scale, slots, on_line)
