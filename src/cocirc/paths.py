"""Legal paths and cycles in a honeycomb.

A legal pair at a vertex is two distinct nonintegral edges that are either
opposite (same class, both signs) or both dominating there.  The search
grows a path one edge at a time, preferring a nonintegral semiinfinite
start, and closes a cycle as soon as the chosen continuation was already
traversed out of the current vertex.  The output always satisfies the
multiplicity and bend budgets checked by :func:`check_legal_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import NoNonintegralEdge
from .honeycomb import Honeycomb, divergency
from .spans import OPPOSITE, HEdge, Pt

TURN_RIGHT = "right"
TURN_LEFT = "left"


def dominating_edges(h: Honeycomb, v: Pt) -> frozenset[HEdge]:
    """Edges e_i^s(v) with w_i^s > w_i^{-s}; there are none or three.  An
    empty slot weighs 0."""
    slots = h.incidence[v]
    out = frozenset(
        e for (cls, s), e in slots.items()
        if (o := slots.get((cls, OPPOSITE[s]))) is None or e.weight > o.weight
    )
    assert len(out) in (0, 3), (v, sorted(slots.items()))
    return out


def is_legal_pair(
    h: Honeycomb, v: Pt, e1: HEdge, e2: HEdge, doms: Optional[dict[Pt, frozenset[HEdge]]] = None
) -> bool:
    """Whether ``e1``, ``e2`` is a legal pair at ``v``.  ``doms``, when
    given, keeps ``dominating_edges`` by vertex: read when there, filled
    in when worked out."""
    if e1 == e2 or not (e1.c % h.scale and e2.c % h.scale):
        return False
    if LegalPath._opposite(e1, e2, v):
        return True
    if doms is None:
        dom = dominating_edges(h, v)
    elif (dom := doms.get(v)) is None:
        dom = doms[v] = dominating_edges(h, v)
    return e1 in dom and e2 in dom


@dataclass(frozen=True)
class LegalPath:
    """Alternating vertex/edge sequence; verts[i] is None for an open end."""

    verts: tuple[Optional[Pt], ...]
    edges: tuple[HEdge, ...]
    is_cycle: bool

    def __post_init__(self):
        assert len(self.verts) == len(self.edges) + 1
        if self.is_cycle:
            assert self.verts[0] == self.verts[-1] is not None

    @cached_property
    def bend_positions(self) -> tuple[int, ...]:
        """Indices i such that the pair (edges[i-1], edges[i]) bends at
        verts[i]; for cycles index 0 names the closing pair."""
        out = []
        rng = range(1, len(self.edges))
        for i in rng:
            if not self._opposite(self.edges[i - 1], self.edges[i], self.verts[i]):
                out.append(i)
        if self.is_cycle and not self._opposite(self.edges[-1], self.edges[0], self.verts[0]):
            out.insert(0, 0)
        return tuple(out)

    @staticmethod
    def _opposite(e1: HEdge, e2: HEdge, v: Pt) -> bool:
        return e1.cls == e2.cls and e1.sign_at(v) != e2.sign_at(v)

    def reversed(self) -> "LegalPath":
        return LegalPath(tuple(reversed(self.verts)), tuple(reversed(self.edges)), self.is_cycle)

    def rotated(self, k: int) -> "LegalPath":
        """Cyclic shift putting position k first (cycles only)."""
        assert self.is_cycle
        verts = self.verts[k:-1] + self.verts[: k + 1]
        return LegalPath(verts, self.edges[k:] + self.edges[:k], True)


def find_legal_path(h: Honeycomb) -> LegalPath:
    """Grow and return an open legal path or legal cycle.

    Raises NoNonintegralEdge when the honeycomb is fully integral.
    """
    nonint_vs, nonint_es = h.nonintegral
    if not nonint_vs:
        raise NoNonintegralEdge("honeycomb is integral")
    assert nonint_es

    rays = [e for e in nonint_es if e.is_ray]
    e0 = min(rays or nonint_es, key=HEdge.sort_key)
    verts: list[Optional[Pt]] = [None, e0.ends()[0]] if rays else sorted(e0.ends())
    edges = [e0]
    # (edge, vertex it was traversed out of) -> position in `edges`
    left_from: dict[tuple[HEdge, Pt], int] = {}
    if verts[0] is not None:
        left_from[(e0, verts[0])] = 0
    # vertex -> bend triples (position i, incoming, outgoing)
    bends: dict[Pt, list[tuple[int, HEdge, HEdge]]] = {}
    doms: dict[Pt, frozenset[HEdge]] = {}  # dominating_edges by vertex

    for _ in range(2 * sum(map(len, h.supports.values())) + 2):
        v = verts[-1]
        e = edges[-1]
        if (dom := doms.get(v)) is None:
            dom = doms[v] = dominating_edges(h, v)
        if e not in dom:
            e2 = h.incidence[v].get((e.cls, OPPOSITE[e.sign_at(v)]))
            assert e2 is not None, "non-dominating edge lacks an opposite"
        else:
            spare = [b for b in bends.get(v, []) if e not in (b[1], b[2])]
            if spare:
                e2 = spare[0][2]
            elif len(bends.get(v, [])) < abs(divergency(h, v)):
                # the first free one in slot order
                e2 = next(
                    (d for _, d in sorted(h.incidence[v].items()) if d in dom and d != e and d.c % h.scale),
                    None,
                )
                assert e2 is not None, "no free dominating partner"
            else:
                e2 = h.incidence[v][(e.cls, OPPOSITE[e.sign_at(v)])]
        assert is_legal_pair(h, v, e, e2, doms)

        j = left_from.get((e2, v))
        if j is not None:
            path = LegalPath(tuple(verts[j:]), tuple(edges[j:]), True)
            check_legal_path(h, path)
            return path
        u = e2.other_end(v)
        i = len(edges)
        edges.append(e2)
        left_from[(e2, v)] = i
        if not LegalPath._opposite(e, e2, v):
            bends.setdefault(v, []).append((i, e, e2))
        if u is None:
            verts.append(None)
            path = LegalPath(tuple(verts), tuple(edges), False)
            check_legal_path(h, path)
            return path
        verts.append(u)
    raise AssertionError("path growth did not terminate")


def check_legal_path(h: Honeycomb, p: LegalPath) -> None:
    """Assert the multiplicity, weight and bend-budget invariants."""
    k = len(p.edges)
    assert k >= 1
    for e in p.edges:
        assert e.c % h.scale
    if not p.is_cycle:
        assert p.verts[0] is None and p.verts[-1] is None and k > 1
        assert p.edges[0].is_ray and p.edges[-1].is_ray

    pairs = [(p.edges[i - 1], p.edges[i], p.verts[i]) for i in range(1, k)]
    if p.is_cycle:
        pairs.append((p.edges[-1], p.edges[0], p.verts[0]))
    doms: dict[Pt, frozenset[HEdge]] = {}
    for e1, e2, v in pairs:
        assert is_legal_pair(h, v, e1, e2, doms)

    count: dict[HEdge, int] = {}
    direction: dict[HEdge, set] = {}
    for i, e in enumerate(p.edges):
        count[e] = count.get(e, 0) + 1
        direction.setdefault(e, set()).add(p.verts[i])
    for e, n in count.items():
        assert n <= 2, f"edge used {n} times"
        if n == 2:
            assert e.weight > 1, "doubled edge of weight 1"
            assert len(direction[e]) == 2, "doubled edge in one direction"

    per_vertex: dict[Pt, int] = {}
    for i in p.bend_positions:
        per_vertex[p.verts[i]] = per_vertex.get(p.verts[i], 0) + 1
    for v, n in per_vertex.items():
        assert n <= min(2, abs(divergency(h, v))), f"bend budget exceeded at {v}"
