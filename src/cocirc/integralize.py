"""Rounding a concave cocirculation to an integer one.

The loop works on the dual honeycomb: while any nonintegral content
remains, find a legal path and deform it rightward (reversing a cycle
when needed).  The potential below is an integer that drops by at least
one per step and never falls below ``-2|E(G)|``, so the loop terminates
after at most ``beta0 + delta0 - omega0 + 2|E(G)|`` deformations.
Boundary edges with integer values and edges of all-integer faces are
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import grid as gr
from .deform import deform
from .duality import grid_to_honeycomb, honeycomb_to_grid
from .grid import Cocirculation, ConvexGrid
from .honeycomb import Honeycomb, excess
from .paths import find_legal_path


@dataclass(frozen=True)
class Potential:
    nonintegral_boundary: int  # weight of nonintegral semiinfinite edges
    nonintegral_excess: int  # total excess over nonintegral vertices
    integral_incident: int  # edge weight at integral vertices, once per incidence

    @property
    def value(self) -> int:
        return self.nonintegral_boundary + self.nonintegral_excess - self.integral_incident

    @property
    def settled(self) -> bool:
        return self.nonintegral_boundary == 0 and self.nonintegral_excess == 0


def potential(h: Honeycomb) -> Potential:
    vs, es = h.nonintegral
    beta = sum(e.weight for e in es if e.is_ray)
    delta = sum(excess(h, v) for v in vs)
    # Each edge counts once per integral end: when a nonintegral vertex
    # between integral ones vanishes and its two edges merge, omega holds.
    omega = sum(e.weight for v, slots in h.incidence.items() if v not in vs for e in slots.values())
    return Potential(beta, delta, omega)


@dataclass(frozen=True)
class TraceStep:
    eps: Fraction
    kinds: tuple[str, ...]
    cycle: bool
    before: Potential
    after: Potential


def _monotone(before: Potential, after: Potential) -> bool:
    """One step lowers the potential and moves none of its parts the wrong way."""
    return (
        after.value < before.value
        and after.nonintegral_boundary <= before.nonintegral_boundary
        and after.nonintegral_excess <= before.nonintegral_excess
        and after.integral_incident >= before.integral_incident
    )


def _step_budget(initial: Potential, edges: int) -> int:
    """The linear step budget ``beta0 + delta0 - omega0 + 2|E(G)|``.

    Each step lowers the integer potential ``beta + delta - omega`` by at
    least one and ``beta, delta >= 0``.  Every honeycomb of the loop is dual
    to a cocirculation on G, and an edge of weight w is dual to w edges of
    G, so omega, which counts each weight at most once per end, is at most
    2|E(G)|: the potential never falls below ``-2|E(G)|``."""
    return initial.value + 2 * edges


def integralize(
    g: ConvexGrid, h: Cocirculation
) -> tuple[Cocirculation, list[TraceStep]]:
    """Integer concave cocirculation agreeing with ``h`` on integer
    boundary edges and on edges of all-integer faces."""
    # Each cocirculation is checked once: the input by tiling_of, inside
    # grid_to_honeycomb (NotACocirculation, then NotConcave), and the
    # output by honeycomb_to_grid.
    hc = grid_to_honeycomb(g, h)
    o_set, i_set = gr.integer_edge_sets(g, h)
    pot = potential(hc)
    budget = _step_budget(pot, len(g.edges))
    trace: list[TraceStep] = []
    while not pot.settled:
        path = find_legal_path(hc)
        hc2, ev = deform(hc, path)
        pot2 = potential(hc2)
        # Explicit raises, not asserts: the audit must also run under -O.
        if pot2.value >= pot.value:
            raise AssertionError("potential failed to decrease")
        if not _monotone(pot, pot2):
            raise AssertionError("a potential part moved the wrong way")
        trace.append(TraceStep(ev.eps, ev.kinds, path.is_cycle, pot, pot2))
        hc, pot = hc2, pot2
        if len(trace) > budget:
            raise AssertionError("iteration budget exceeded")
    g2, vals = honeycomb_to_grid(hc)
    da, db = g.anchor_offset()
    # Compared face by face and keyed by g's own edges: no translated copy
    # of the grid or of its edges is built.
    ts2 = g2.triangles
    if len(ts2) != len(g.triangles) or any((up, a + da, b + db) not in ts2 for up, a, b in g.triangles):
        raise AssertionError("grid changed during rounding")
    out = {e: vals[(e[0] + da, e[1] + db, e[2])] for e in g.edges}
    if any(v.denominator != 1 for v in out.values()):
        raise AssertionError("a rounded value is not an integer")
    for e in o_set | i_set:
        if out[e] != h[e]:
            raise AssertionError(f"preserved edge {e} changed")
    return out, trace


def iteration_bound_check(
    g: ConvexGrid, trace: list[TraceStep], initial: Potential
) -> bool:
    """Audit a recorded run: monotone parts and the linear step budget."""
    pot = initial
    for step in trace:
        if step.before != pot or not _monotone(pot, step.after):
            return False
        pot = step.after
    return len(trace) <= _step_budget(initial, len(g.edges))
