"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cocirc.grid import (
    ConvexGrid,
    cocirculation_from_quadratic,
    fill_convex_polygon,
    three_side_grid,
)
from cocirc.honeycomb import Pt, dval, point_from_two, t_of


def hexagon_grid(a: int, b: int, c: int) -> ConvexGrid:
    """Hexagon with opposite sides equal: lengths (a, b, c, a, b, c)."""
    corners = [
        (0, 0),
        (a, 0),
        (a + b, b),
        (a + b, b + c),
        (b, b + c),
        (0, c),
    ]
    return ConvexGrid(fill_convex_polygon(corners))


def mixed_concave(g: ConvexGrid, seed: int):
    """Concave samples richer than pure strict quadratics: degenerate
    directions, integer parts and coarse denominators all occur."""
    rng = random.Random(seed)
    d = rng.choice([1, 2, 3, 4, 6])
    beta = Fraction(rng.randint(1, 3 * d), d)
    style = rng.randrange(4)
    if style == 0:
        alpha = Fraction(rng.randint(1, 3 * d), d)
        while alpha > 3 * beta:
            alpha = Fraction(rng.randint(1, 3 * d), d)
    elif style == 1:
        alpha = 3 * beta  # ties every class-1 rhombus: horizontal strips
    elif style == 2:
        alpha = Fraction(0)  # flat along one class
    else:
        alpha = beta
    lam = Fraction(rng.randint(-3 * d, 3 * d), d)
    mu = Fraction(rng.randint(-3 * d, 3 * d), d)
    h = cocirculation_from_quadratic(g, alpha, beta, lam, mu)
    if style == 3:
        # add an integer concave part so integral vertices appear early
        h2 = cocirculation_from_quadratic(g, Fraction(d), Fraction(d), Fraction(rng.randint(-3, 3)))
        h = {e: h[e] + h2[e] for e in h}
    return h


def corpus(n: int, seed0: int = 0):
    """Deterministic list of (grid, cocirculation) pairs of varied shape."""
    shapes = [
        three_side_grid(2),
        three_side_grid(3),
        three_side_grid(4),
        three_side_grid(5),
        three_side_grid(6),
        hexagon_grid(1, 1, 1),
        hexagon_grid(2, 1, 2),
        hexagon_grid(2, 3, 1),
        hexagon_grid(4, 2, 3),
        hexagon_grid(3, 4, 4),
    ]
    out = []
    for i in range(n):
        g = shapes[i % len(shapes)]
        out.append((g, mixed_concave(g, seed0 + i)))
    return out


def oracle_ray_weights(lines, v: Pt):
    """First-principles ray weights: parameterise each line and test the
    two half-line intersections for positive length."""
    out = {(cls, s): 0 for cls in (1, 2, 3) for s in ("+", "-")}
    for line, w in lines:
        if dval(v, line.cls) != line.c:
            continue
        t = t_of(line.cls, v)
        lo = t if line.lo is None else max(line.lo, t)
        hi = line.hi
        if (hi is None or lo < hi) and (line.lo is None or line.lo <= t) and (
            line.hi is None or t <= line.hi
        ):
            out[(line.cls, "+")] += w
        lo2 = line.lo
        hi2 = t if line.hi is None else min(line.hi, t)
        if (lo2 is None or lo2 < hi2) and (line.lo is None or line.lo <= t) and (
            line.hi is None or t <= line.hi
        ):
            out[(line.cls, "-")] += w
    return out


def oracle_candidate_points(system, covs) -> set[Pt]:
    """All line ends plus the crossing of every two supports of different
    classes, covered there or not: O(L^2) points."""
    pts: set[Pt] = set()
    for line, w in system:
        if w != 0:
            pts.update(line.ends())
    keys = sorted(covs)
    for i, (cls1, c1) in enumerate(keys):
        for cls2, c2 in keys[i + 1 :]:
            if cls1 != cls2:
                pts.add(point_from_two(cls1, c1, cls2, c2))
    return pts


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(24, seed0=100)
