"""Polytope vertex tests for concave cocirculations.

A concave cocirculation is a vertex of the polyhedron with pinned edge set
F exactly when the equality system active at it (face circuit sums, the
tight rhombus equalities, and the pins) determines it uniquely.  Within a
flatspace all parallel edges are equal, so the unknowns collapse to one
value per (tile, direction class); tiles sharing a side share that side's
class value.  The reduced system is solved by exact elimination over the
rationals, run on ints: a pin to the value ``p/q`` is the int row
``q x = p``, a tile's sum is ``x1 + x2 + x3 = 0``, rows are reduced without
division (Bareiss-style cross-multiplication, then division by the gcd of
the row), and only the back-substitution of a unique solution computes in
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional

from . import grid as gr
from .errors import FNotSubsetOfEdges
from .grid import Cocirculation, ConvexGrid, Edge, Tiling
from .honeycomb import Honeycomb
from .spans import HEdge, HLine, dval, t_of

Row = tuple[dict[int, int], int]


def eliminate(rows: Iterable[Row], nvars: int) -> tuple[int, Optional[list[Fraction]]]:
    """Exact Gaussian elimination; returns (rank, solution or None).

    The rows are ints.  The solution is returned only when it is unique;
    an inconsistent system raises ValueError.  Rows are reduced without
    division (each reduced row divided by the gcd of its entries), and only
    the back-substitution divides.  Zero entries are skipped, and the
    caller's rows are left as they are.
    """
    pivots: dict[int, Row] = {}
    for coeffs, rhs in rows:
        coeffs = {k: v for k, v in coeffs.items() if v}
        while coeffs:
            var = min(coeffs)
            if var not in pivots:
                pivots[var] = (coeffs, rhs)
                break
            pc, pr = pivots[var]
            a, b = pc[var], coeffs.pop(var)
            if a != 1:
                coeffs = {k: a * v for k, v in coeffs.items()}
            for k, v in pc.items():
                if k != var:
                    x = coeffs.get(k, 0) - b * v
                    if x:
                        coeffs[k] = x
                    else:
                        del coeffs[k]
            rhs = a * rhs - b * pr
            d = gcd(rhs, *coeffs.values())
            if d > 1:
                coeffs = {k: v // d for k, v in coeffs.items()}
                rhs //= d
        else:
            if rhs != 0:
                raise ValueError("inconsistent linear system")
    rank = len(pivots)
    if rank < nvars:
        return rank, None
    sol: list[Optional[Fraction]] = [None] * nvars
    for var in sorted(pivots, reverse=True):
        coeffs, rhs = pivots[var]
        acc = Fraction(rhs)
        for k, v in coeffs.items():
            if k != var:
                acc -= v * sol[k]
        sol[var] = acc / coeffs[var]
    return rank, sol  # type: ignore[return-value]


class _TileVars:
    """Union-find over (tile, class) slots with the shared-side merges."""

    def __init__(self, g: ConvexGrid, tiles: Tiling):
        self.tiles = tiles
        self.tile_of = {t: i for i, ts in enumerate(tiles) for t in ts}
        self._parent = parent = list(range(3 * len(tiles)))
        for diag, t1, t2, _, _ in g.rhombi:
            i, j = self.tile_of[t1], self.tile_of[t2]
            if i != j:
                a, b = self._slot(i, diag[2]), self._slot(j, diag[2])
                parent[gr.find(parent, a)] = gr.find(parent, b)
        roots = sorted({gr.find(parent, k) for k in range(len(parent))})
        self.index = {r: n for n, r in enumerate(roots)}
        self.nvars = len(roots)

    @staticmethod
    def _slot(tile: int, cls: int) -> int:
        return 3 * tile + cls - 1

    def var(self, tile: int, cls: int) -> int:
        return self.index[gr.find(self._parent, self._slot(tile, cls))]

    def var_of_edge(self, e: Edge) -> int:
        down, up = gr.faces_of(e)
        return self.var(self.tile_of[down if down in self.tile_of else up], e[2])

    def sum_rows(self) -> list[Row]:
        rows = []
        seen = set()
        for i in range(len(self.tiles)):
            key = (self.var(i, 1), self.var(i, 2), self.var(i, 3))
            if key not in seen:
                seen.add(key)
                rows.append(({key[0]: 1, key[1]: 1, key[2]: 1}, 0))
        return rows


def _pin_rows(tv: _TileVars, pins: Mapping[Edge, Fraction]) -> list[Row]:
    return [({tv.var_of_edge(e): v.denominator}, v.numerator) for e, v in sorted(pins.items())]


def vertex_degrees_of_freedom(
    g: ConvexGrid, h: Cocirculation, fixed: Iterable[Edge]
) -> int:
    """Dimension of the solution space of the active equality system."""
    fixed = set(fixed)
    if not fixed <= g.edges:
        raise FNotSubsetOfEdges(sorted(fixed - g.edges)[:3])
    tiles = gr.tiling_of(g, h)  # raises NotConcave
    tv = _TileVars(g, tiles)
    rows = _pin_rows(tv, {e: h[e] for e in fixed}) + tv.sum_rows()
    rank, _ = eliminate(rows, tv.nvars)
    return tv.nvars - rank


def is_vertex(g: ConvexGrid, h: Cocirculation, fixed: Iterable[Edge]) -> bool:
    """Whether ``h`` is a vertex of the concave cocirculations that agree
    with it on ``fixed``."""
    return vertex_degrees_of_freedom(g, h, fixed) == 0


def solve_flat_extension(
    g: ConvexGrid, tiles: Tiling, pins: Mapping[Edge, Fraction]
) -> Cocirculation:
    """The unique cocirculation flat on every tile with the given pins.

    Raises ValueError when the pins do not determine it uniquely or are
    inconsistent.
    """
    tv = _TileVars(g, tiles)
    rows = _pin_rows(tv, pins) + tv.sum_rows()
    rank, sol = eliminate(rows, tv.nvars)
    if sol is None:
        raise ValueError(f"pins leave {tv.nvars - rank} degrees of freedom")
    return {e: sol[tv.var_of_edge(e)] for e in g.edges}


def maximal_lines(h: Honeycomb) -> list[tuple[HEdge, ...]]:
    """Maximal stretches of collinear edges with no coverage gap."""
    out = []
    for _, es in sorted(h.supports.items()):  # each in increasing t
        run = [es[0]]
        for e in es[1:]:
            if run[-1].hi is not None and e.lo == run[-1].hi:
                run.append(e)
            else:
                out.append(tuple(run))
                run = [e]
        out.append(tuple(run))
    return out


def condition_c_extreme(h: Honeycomb, marked: Iterable[HEdge]) -> bool:
    """Sufficient two-lines test: every vertex lies on two maximal lines
    that each contain a marked edge."""
    marked = set(marked)
    good = [
        HLine(run[0].cls, run[0].c, run[0].lo, run[-1].hi)
        for run in maximal_lines(h)
        if any(e in marked for e in run)
    ]
    for v in h.vertices:
        on = [ln for ln in good if dval(v, ln.cls) == ln.c and ln.contains_t(t_of(ln.cls, v))]
        if len(on) < 2:
            return False
    return True
