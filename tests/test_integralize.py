import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cocirc

from conftest import corpus, frac_lines
from cocirc import serialize
from cocirc.constructions import counterexample_instance, fractional_vertex_instance, hexagon_instance
from cocirc.deform import deform
from cocirc.duality import grid_to_honeycomb, honeycomb_to_grid
from cocirc.errors import NotConcave
from cocirc.grid import (
    cocirculation_from_quadratic,
    integer_edge_sets,
    is_concave,
    random_concave,
    three_side_grid,
    triangle_edges,
)
from cocirc.honeycomb import claw, honeycomb_sum
from cocirc.paths import find_legal_path
from cocirc.integralize import (
    Potential,
    integralize,
    iteration_bound_check,
    potential,
)
from cocirc.spans import is_integral_point

F = Fraction


def test_potential_integral_honeycomb():
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(1), F(1))
    pot = potential(grid_to_honeycomb(g, h))
    assert pot.nonintegral_boundary == 0
    assert pot.nonintegral_excess == 0
    assert pot.integral_incident > 0
    assert pot.settled


def test_potential_shifted_claw():
    pot = potential(claw((F(1, 2), F(-1, 2))))
    assert pot == Potential(2, 1, 0)
    assert pot.value == 3


def test_potential_hexagon_regression():
    pot = potential(grid_to_honeycomb(*hexagon_instance(2)))
    # pinned by a definition scan of the k=2 honeycomb
    beta = sum(
        w
        for e, w in frac_lines(grid_to_honeycomb(*hexagon_instance(2)))
        if e.is_ray and e.c.denominator != 1
    )
    assert pot.nonintegral_boundary == beta
    assert pot.value == pot.nonintegral_boundary + pot.nonintegral_excess - pot.integral_incident


def test_integral_input_zero_iterations():
    g = three_side_grid(3)
    h = cocirculation_from_quadratic(g, F(2), F(1), F(3))
    out, trace = integralize(g, h)
    assert out == h and trace == []


def test_nonconcave_rejected():
    g = three_side_grid(2)
    h = cocirculation_from_quadratic(g, F(30), F(1))
    with pytest.raises(NotConcave):
        integralize(g, h)


def test_counterexample_rounds_but_moves_an_integral_edge():
    g, h = counterexample_instance()
    o_set, i_set = integer_edge_sets(g, h)
    out, trace = integralize(g, h)
    assert trace
    assert all(v.denominator == 1 for v in out.values())
    assert is_concave(g, out)
    assert all(out[e] == h[e] for e in o_set | i_set)
    integral = [e for e in g.edges if h[e].denominator == 1]
    assert any(out[e] != h[e] for e in integral)


def test_integral_faces_keep_values(small_corpus):
    for g, h in small_corpus[:10]:
        out, _ = integralize(g, h)
        _, i_set = integer_edge_sets(g, h)
        for t in g.triangles:
            es = triangle_edges(t)
            if all(h[e].denominator == 1 for e in es):
                assert all(out[e] == h[e] for e in es)


def test_trace_audit_on_corpus(small_corpus):
    for g, h in small_corpus[:10]:
        hc = grid_to_honeycomb(g, h)
        out, trace = integralize(g, h)
        assert iteration_bound_check(g, trace, potential(hc))


def test_integral_vertices_never_move_or_split():
    for g, h in corpus(6, seed0=777):
        hc = grid_to_honeycomb(g, h)
        while not potential(hc).settled:
            from cocirc.deform import deform
            from cocirc.paths import find_legal_path

            frozen = {hc.point(v) for v in hc.vertices if is_integral_point(v, hc.scale)}
            hc, _ = deform(hc, find_legal_path(hc))
            assert frozen <= set(map(hc.point, hc.vertices))


def test_hexagon_instance_rounds():
    g, h = hexagon_instance(3)
    out, trace = integralize(g, h)
    assert all(v.denominator == 1 for v in out.values())
    assert iteration_bound_check(g, trace, potential(grid_to_honeycomb(g, h)))


def test_integral_vertex_capture_grows_anchored_weight():
    # a stop on an integral vertex always anchors new weight there
    seen = 0
    for g, h in corpus(60, seed0=5150):
        _, trace = integralize(g, h)
        for s in trace:
            if "integral_vertex_hit" in s.kinds:
                assert s.after.integral_incident > s.before.integral_incident
                seen += 1
    assert seen > 0


_FROZEN_STEP = """
import importlib
from cocirc.constructions import counterexample_instance

rounding = importlib.import_module("cocirc.integralize")  # the module, not the function

rounding.deform = lambda h, path: (h, None)  # a step that moves nothing
try:
    rounding.integralize(*counterexample_instance())
    print("rounded")
except AssertionError as exc:
    print(f"AssertionError {exc}")
"""


def test_rounding_audit_under_optimize():
    # ``python -O`` strips asserts; the potential audit must still stop a
    # run whose step leaves the potential where it was, with the same
    # error as without -O.
    src = str(Path(cocirc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _FROZEN_STEP],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["AssertionError potential failed to decrease"], flags


def _integral_ends(h):
    """Each edge with the number of integral vertices among its ends."""
    intverts = frozenset(v for v in h.vertices if is_integral_point(v, h.scale))
    return [(e, sum(v in intverts for v in e.ends())) for e in h.edges]


def test_potential_counts_edge_weight_at_each_integral_end(small_corpus):
    # potential reads the incidence map; an edge between two integral
    # vertices counts at both ends
    instances = list(small_corpus) + [hexagon_instance(k) for k in (1, 2, 3)]
    both_ends = 0
    for g, h in instances:
        hc = grid_to_honeycomb(g, h)
        while True:
            pot = potential(hc)
            ends = _integral_ends(hc)
            assert pot.integral_incident == sum(e.weight * n for e, n in ends)
            both_ends += any(n == 2 for _, n in ends)
            if pot.settled:
                break
            hc, _ = deform(hc, find_legal_path(hc))
    assert both_ends > 0


def test_rounds_where_edges_merge_between_integral_vertices():
    # The claw sum has a nonintegral vertex between two integral ones on a
    # line; its one step removes that vertex and the two edges merge into
    # one.  The fractional-vertex instances k >= 2 hit the same merge.
    hc = honeycomb_sum(
        honeycomb_sum(claw((-1, 2), 2, "-"), claw((-1, 0), 2, "+")),
        claw((-1, F(2, 3)), 1, "+"),
    )
    instances = [honeycomb_to_grid(hc)]
    instances += [fractional_vertex_instance(k)[:2] for k in range(1, 6)]
    steps = []
    for g, h in instances:
        out, trace = integralize(g, h)
        assert all(v.denominator == 1 for v in out.values())
        assert iteration_bound_check(g, trace, potential(grid_to_honeycomb(g, h)))
        steps.append(len(trace))
    assert steps == [1, 0, 1, 2, 3, 4]


def _golden_corpus():
    """The n=4 rungs of the benchmark ladder at seed 1 (twelve seeds of
    ``random_concave(g, s, 7)`` drawn from ``random.Random(1)``), the
    hexagon instances k=1..3 and the counterexample."""
    rng = random.Random(1)
    g = three_side_grid(4)
    out = [(f"n4.s{s}", g, random_concave(g, s, 7)) for s in (rng.randrange(2**31) for _ in range(12))]
    out += [(f"hexagon{k}", *hexagon_instance(k)) for k in (1, 2, 3)]
    out.append(("counterexample", *counterexample_instance()))
    return out


def _pot_row(p):
    return {
        "nonintegral_boundary": p.nonintegral_boundary,
        "nonintegral_excess": p.nonintegral_excess,
        "integral_incident": p.integral_incident,
        "value": p.value,
    }


def test_rounding_outputs_and_traces_are_pinned():
    # A change that only makes rounding faster must leave every output
    # value and every trace row as they are.  The two digests cover the
    # JSON of each output cocirculation and of its trace rows, written as
    # the CLI writes them; a change to the potential's definition moves
    # only the trace digest.
    out_digest, trace_digest = hashlib.sha256(), hashlib.sha256()
    for name, g, h in _golden_corpus():
        out, trace = integralize(g, h)
        rows = [
            {
                "eps": serialize.frac_to_str(s.eps),
                "kinds": list(s.kinds),
                "cycle": s.cycle,
                "before": _pot_row(s.before),
                "after": _pot_row(s.after),
            }
            for s in trace
        ]
        out_digest.update(serialize.dumps({"name": name, "out": serialize.cocirc_to_json(out)}).encode())
        trace_digest.update(serialize.dumps({"name": name, "trace": rows}).encode())
    assert out_digest.hexdigest() == "3a25f67a9bc9195be1fb4a3d2acb97b515fafc979db2b2c8f256f94efba46681"
    assert trace_digest.hexdigest() == "c4c88ae6d79a43b9980fb7d3a29c355f68487388ed032d897f8a439bb713fb94"
