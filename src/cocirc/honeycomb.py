"""Weighted Xi-line systems and their honeycombs.

A ``Honeycomb`` stores each coordinate as an int ``x`` standing for
``x / scale``, with ``scale`` the least common denominator of its vertex
coordinates, so a coordinate is integral when ``x % scale == 0``, and
``canonicalize`` takes a system on ints at a given scale.  Rationals are
made only at the package's edges: ``claw`` brings its centre to ints at
the lcm of its denominators, and messages and ``Honeycomb.point`` divide
by the scale.  Points, spans, edges and coverages are those of
``cocirc.spans``.

One engine builds every canonical form.  A ``Patch`` is a honeycomb plus
a delta, the edges taken off and the lines added, and
``_canonical_form`` tests again only the points that the delta covers
and cuts again only the lines it changes.  ``canonicalize`` is the patch
that adds a whole system to the empty honeycomb, and ``is_prehoneycomb``
runs the engine's vertex phase alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Optional

from .errors import NotPreHoneycomb
from .spans import (
    SIGNS,
    HEdge,
    HLine,
    Pt,
    XiSystem,
    _check_full_lines,
    _Coverage,
    _crossings,
    _cut,
    _is_vertex,
    _live,
    _sorted_keys,
    dval,
    frac_point,
    nxt,
    prv,
    six_weights,
    t_of,
)


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


Key = tuple[int, int]  # a line (cls, d_cls)


def _lines_through(v: Pt) -> tuple[Key, Key, Key]:
    """The lines ``(cls, d_cls)`` of the three classes through ``v``."""
    return (1, v[0]), (2, v[1]), (3, -v[0] - v[1])


def vertices_by_line(verts) -> dict[tuple[int, int], list[Pt]]:
    """The given vertices grouped by the line ``d_cls = c`` of each class."""
    on_line: dict[tuple[int, int], list[Pt]] = {}
    for v in verts:
        for key in _lines_through(v):
            on_line.setdefault(key, []).append(v)
    return on_line


def _times(x: Optional[int], f: int) -> Optional[int]:
    return None if x is None else x * f


@dataclass(frozen=True)
class Patch:
    """The edges of ``base`` with every coordinate multiplied by ``f``,
    each less the weight ``removed`` takes off it, plus the ``added``
    lines: a system in ints in units of ``1/scale``, ``scale = base.scale
    * f``.  A support is dirty when a removed edge or an added line lies on
    it.  Any system is the patch that adds it to the empty honeycomb
    (``_patch_of``)."""

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
    """The coverage of each support of a patch, from the base edges on it
    and its delta, built on first use; ``None`` for a line without any."""

    # ``six_weights`` and ``_crossings`` read coverages through ``get``;
    # here a lookup that misses builds the coverage (``__missing__``).
    get = dict.__getitem__

    def __init__(self, p: Patch):
        super().__init__()
        # No reference back to the patch: it would make a cycle that keeps
        # each step's honeycomb alive until the cyclic collector runs.
        f = self.f = p.f
        self.supports = p.base.supports
        # dirty support -> its added lines ``(line, w)``, and the
        # ``(lo, hi, -n)`` of the weight removed from it
        self.added: dict[Key, list] = {}
        for line, w in p.added:
            if _live(line.lo, line.hi, w):
                self.added.setdefault((line.cls, line.c), []).append((line, w))
        self.removed: dict[Key, list] = {}
        for e, n in p.removed.items():
            self.removed.setdefault((e.cls, e.c * f), []).append((_times(e.lo, f), _times(e.hi, f), -n))

    def __missing__(self, key: Key) -> Optional[_Coverage]:
        (cls, c), f = key, self.f
        iv = [(line.lo, line.hi, w) for line, w in self.added.get(key, ())]
        iv += self.removed.get(key, ())
        if c % f == 0 and (es := self.supports.get((cls, c // f))):  # the base edges on it
            iv += [(_times(e.lo, f), _times(e.hi, f), e.weight) for e in es]
        cov = self[key] = _Coverage(iv) if iv else None
        return cov


def _inside(t, lines) -> bool:
    """Whether ``t`` lies in the closed span of one of the ``(line, w)``."""
    return any(line.contains_t(t) for line, _ in lines)


def _clip(spans: list, lines: list) -> list:
    """The nonempty intersections of the closed ``spans`` with the closed
    spans of the ``(line, w)``; None is an infinite end."""
    out = []
    for lo, hi in spans:
        for (_, _, wlo, whi), _ in lines:
            a = wlo if lo is None else lo if wlo is None else max(lo, wlo)
            b = whi if hi is None else hi if whi is None else min(hi, whi)
            if a is None or b is None or a <= b:
                out.append((a, b))
    return out


def _patch_of(system: XiSystem, scale: int) -> Patch:
    """``system``, in units of ``1/scale``, added to the empty honeycomb."""
    return Patch(Honeycomb({}, scale, {}, {}), 1, {}, tuple(system))


def _vertex_phase(p: Patch) -> tuple[set[Pt], list[Pt]]:
    """The base vertices whose status ``p`` may change (``gone``), and the
    vertices of its canonical form there (``fresh``), sorted.  ``p.f`` is 1.

    A point keeps its six weights, so its vertex status, unless a removed
    edge or an added line covers it.  The candidates are therefore the
    base vertices there (the ends of the removed edges, and those on the
    added lines), the ends of the added lines, and the crossings of the
    added lines with covered supports.  No base support crosses the inside
    of a removed edge: a covered crossing of the base is a base vertex.
    Each added line is searched for crossings with the supports of the
    next class, and with the base supports of the class before.  That
    finds every crossing: a support without base edges is covered only
    within its added lines, and there it searches the class after it.
    Against the empty base each crossing is so found once.

    Raises NotPreHoneycomb on an added line's support without ends whose
    coverage is negative (a support with base edges has ends), and at the
    least candidate that ``_is_vertex`` rejects.
    """
    h, scale, covs = p.base, p.scale, p.covs
    gone = {v for e in p.removed for v in e.ends()}
    for key, lines in covs.added.items():
        for v in h.on_line.get(key, ()):
            if _inside(t_of(key[0], v), lines):
                gone.add(v)
    pts = {q for line, w in p.added if w != 0 for q in line.ends()} | gone
    _check_full_lines([(key, covs.get(key)) for key in covs.added], scale)
    keys = _sorted_keys(h.supports.keys() | covs.added.keys())
    base_keys = _sorted_keys(h.supports)
    for key, lines in covs.added.items():
        spans = covs.get(key).spans()
        if key in h.supports:
            spans = _clip(spans, lines)
        for cls2, cs in ((nxt(key[0]), keys), (prv(key[0]), base_keys)):
            if cs[cls2]:
                pts.update(_crossings(key, spans, cls2, cs[cls2], covs))
    return gone, [q for q in sorted(pts) if _is_vertex(six_weights(covs, q), q, scale)]


def _canonical_form(p: Patch) -> Optional[Honeycomb]:
    """The canonical form of ``p``, or None where its least scale is
    coarser than that of a base with vertices.  ``p.f`` is 1.

    Only the touched supports, dirty or through a vertex that appeared or
    vanished, are cut again, in sorted order, so that the least violation
    raises first; the other supports keep their edges, and the vertices
    off touched lines their incidence.  From the empty base the result
    comes at its least scale.
    """
    h, scale, covs = p.base, p.scale, p.covs
    gone, fresh = _vertex_phase(p)
    if not fresh and len(gone) == len(h.incidence):
        raise NotPreHoneycomb("covered set has no vertex")
    # The least scale of the vertices.  A base with vertices keeps its
    # own: where the vertices left allow a coarser one, None.
    g = gcd(scale, *chain.from_iterable(fresh))
    if g > 1 and h.incidence:
        if gcd(g, *chain.from_iterable(v for v in h.incidence if v not in gone)) > 1:
            return None
        g = 1
    touched = {*covs.added, *covs.removed}
    for q in gone.symmetric_difference(fresh):
        touched.update(_lines_through(q))
    # The vertices on touched lines, fresh or kept, are cut, in point
    # order; each candidate lies on a dirty line, so every fresh one is.
    # A kept one starts from its slots off touched lines.
    kept = (v for key in touched.intersection(h.on_line) for v in h.on_line[key] if v not in gone)
    cut = sorted({*fresh, *kept})
    slots = dict(h.incidence)
    for v in gone:
        del slots[v]
    for v in cut:
        mine = h.incidence.get(v)
        slots[v] = {} if mine is None else {s: e for s, e in mine.items() if (s[0], dval(v, s[0])) not in touched}
    on_line = dict(h.on_line)
    for key in touched:
        on_line.pop(key, None)
    on_line.update((key, vs) for key, vs in vertices_by_line(cut).items() if key in touched)
    supports = dict(h.supports)
    for key in touched:
        supports.pop(key, None)
    for key in sorted(touched):
        if (cov := covs.get(key)) is not None:
            cls, vs = key[0], on_line.get(key, [])
            at = [(t_of(cls, v), v) for v in (vs[::-1] if cls == 2 else vs)]  # t order
            if edges := _cut(cls, key[1], cov, at, g, scale, slots):
                supports[(cls, key[1] // g)] = edges
    if g > 1:  # from the empty base, so every vertex was cut
        slots = {(v[0] // g, v[1] // g): vs for v, vs in slots.items()}
        on_line = {(cls, c // g): [(x // g, y // g) for x, y in vs] for (cls, c), vs in on_line.items()}
        cut = list(slots)
    hc = Honeycomb(supports, scale // g, slots, on_line)
    if __debug__:  # divergency checks tension by an assert
        for v in cut:
            assert len(slots[v]) >= 3
            divergency(hc, v)
    return hc


def canonicalize(system: XiSystem, scale: int) -> Honeycomb:
    """The unique honeycomb with the same ray weights everywhere: the
    canonical form of ``system`` added to the empty honeycomb.

    Vertices are the points with at least three nonzero ray weights; edges
    are the maximal covered stretches between them.  Raises
    NotPreHoneycomb when the system violates nonnegativity or tension, and
    when the covered set has a fully infinite line or no vertex at all.

    The coordinates of ``system`` are ints in units of ``1/scale``.  The
    result has the least scale that holds its vertices, and so all of its
    edges.
    """
    return _canonical_form(_patch_of(system, scale))


def is_prehoneycomb(system: XiSystem) -> bool:
    """Nonnegative ray weights and equal divergency everywhere: the vertex
    phase of ``canonicalize`` passes.  A system without a vertex, such as
    ``[]`` or a full positive line, is a pre-honeycomb that
    ``canonicalize`` rejects.

    Checking the finite candidate set (all line ends plus the crossings of
    two supports that are both covered there) suffices.  At any other point
    at most one class has a nonzero weight, and since the point is no end,
    that class has w_i^+ = w_i^-: the point is no vertex and its
    divergencies are all zero.  Its one weight is negative only on a
    negative stretch of coverage; such a stretch ends at a line end, where
    the candidate check sees it, unless it is a whole line without ends,
    which ``_check_full_lines`` sees.  No scaling is needed: the test is
    the same on any scale, so the system may be in ints or in Fractions.
    """
    try:
        _vertex_phase(_patch_of(system, 1))
    except NotPreHoneycomb:
        return False
    return True


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
