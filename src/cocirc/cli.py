"""Command-line front end.

Exit codes: 0 success, 2 domain error (non-concave input, no valid
deformation, ...), 3 malformed input, 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache

from . import constructions, serialize
from .deform import deform
from .duality import grid_to_honeycomb, honeycomb_to_grid
from .errors import CocircError, SchemaError
from .extremality import is_vertex, vertex_degrees_of_freedom
from .grid import (
    integer_edge_sets,
    is_concave,
    random_concave,
    three_side_grid,
    tiling_of,
    validate_grid,
)
from .integralize import Potential, TraceStep, integralize, potential
from .paths import find_legal_path
from .serialize import dumps, frac_to_str

def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(args):
    """The grid of ``--grid``, validated, and the cocirculation of ``--in``,
    or None without one.  A cocirculation edge outside the grid is a
    SchemaError."""
    g = serialize.grid_from_json(serialize.loads(_read(args.grid)))
    validate_grid(g)
    if args.infile is None:
        return g, None
    h = serialize.cocirc_from_json(serialize.loads(_read(args.infile)))
    outside = sorted(h.keys() - g.edges)
    if outside:
        raise SchemaError(f"cocirculation edges not in the grid: {outside[:3]}")
    return g, h


def _pot_json(p: Potential) -> dict:
    return {**asdict(p), "value": p.value}


def _trace_row(s: TraceStep) -> str:
    return dumps(
        {
            "eps": frac_to_str(s.eps),
            "kinds": list(s.kinds),
            "cycle": s.cycle,
            "before": _pot_json(s.before),
            "after": _pot_json(s.after),
        }
    )


def _cmd_validate(args) -> int:
    g, h = _load(args)
    out = {"ok": True, "triangles": len(g.triangles), "size": g.size}
    if h is not None:
        out["concave"] = is_concave(g, h)  # raises NotACocirculation first
        out["cocirculation"] = True
    _write(args.out, dumps(out))
    return 0


def _cmd_dualize(args) -> int:
    if args.to == "honeycomb":
        g, h = _load(args)
        hc = grid_to_honeycomb(g, h)
        _write(args.out, dumps(serialize.honeycomb_to_json(hc)))
    else:
        hc = serialize.honeycomb_from_json(serialize.loads(_read(args.infile)))
        g, h = honeycomb_to_grid(hc)
        _write(args.grid, dumps(serialize.grid_to_json(g)))
        _write(args.out, dumps(serialize.cocirc_to_json(h)))
    return 0


def _cmd_integralize(args) -> int:
    g, h = _load(args)
    out, trace = integralize(g, h)
    _write(args.out, dumps(serialize.cocirc_to_json(out)))
    if args.trace:
        _write(args.trace, "".join(map(_trace_row, trace)))
    return 0


def _cmd_legal_path(args) -> int:
    hc = serialize.honeycomb_from_json(serialize.loads(_read(args.infile)))
    p = find_legal_path(hc)
    doc = {"cycle": p.is_cycle, "edges": [serialize.hedge_to_json(e, hc.scale) for e in p.edges]}
    _write(args.out, dumps(doc))
    return 0


def _cmd_deform(args) -> int:
    hc = serialize.honeycomb_from_json(serialize.loads(_read(args.infile)))
    p = find_legal_path(hc)
    before = potential(hc)
    h2, ev = deform(hc, p, args.direction)
    after = potential(h2)
    _write(args.out, dumps(serialize.honeycomb_to_json(h2)))
    if args.trace:
        _write(args.trace, _trace_row(TraceStep(ev.eps, ev.kinds, p.is_cycle, before, after)))
    return 0


def _cmd_vertex_check(args) -> int:
    g, h = _load(args)
    fixed = serialize.edge_list_from_json(serialize.loads(_read(args.fixed)))
    dof = vertex_degrees_of_freedom(g, h, fixed)
    _write(args.out, dumps({"vertex": dof == 0, "degrees_of_freedom": dof}))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "dualgrid":
        hc = constructions.dual_grid_honeycomb(args.n)
        _write(args.out, dumps(serialize.honeycomb_to_json(hc)))
        return 0
    fixed = None
    if args.kind == "hexagon":
        g, h = constructions.hexagon_instance(args.k)
    elif args.kind == "fractional-vertex":
        g, h, fixed = constructions.fractional_vertex_instance(args.k)
    elif args.kind == "counterexample":
        g, h = constructions.counterexample_instance()
    else:
        g = three_side_grid(args.n)
        h = random_concave(g, seed=args.seed)
    _write(args.grid, dumps(serialize.grid_to_json(g)))
    _write(args.out, dumps(serialize.cocirc_to_json(h)))
    if fixed is not None and args.fixed:
        _write(args.fixed, dumps(serialize.edge_list_to_json(fixed)))
    return 0


def _check(ok: bool, what: str) -> None:
    """Raise AssertionError naming ``what`` unless ``ok``, also under -O."""
    if not ok:
        raise AssertionError(what)


def _selftest_cases():
    def three_vertex_sample():
        hc = constructions.sample_honeycomb()
        _check([len(hc.vertices), len(hc.edges), len(hc.boundary)] == [3, 10, 7], "not 3 vertices, 10 edges, 7 rays")
        g, h = honeycomb_to_grid(hc)
        _check(grid_to_honeycomb(g, h) == hc, "the round trip changed the honeycomb")

    def hexagon_stripes():
        g, h = constructions.hexagon_instance(3)
        _check(h[(1, 0, 1)] == h[(2, 0, 1)] == h[(3, 0, 1)] == Fraction(-1, 3), "stripe values not -1/3")
        _check(h[(1, -1, 2)] == Fraction(1, 3) and h[(1, -3, 2)] == Fraction(7, 3), "values not 1/3 and 7/3")
        _check(h[(0, -1, 1)] == Fraction(2, 3), "value not 2/3")
        _check(len(tiling_of(g, h)) == 17, "not 17 tiles")

    def rigid_half_integer():
        g, h = constructions.counterexample_instance()
        _check(is_concave(g, h), "instance not concave")
        fixed = [e for e in sorted(g.edges) if h[e].denominator == 1]
        _check(is_vertex(g, h, fixed), "instance not a vertex under its integral values")
        out, _ = integralize(g, h)
        o_set, i_set = integer_edge_sets(g, h)
        _check(all(out[e] == h[e] for e in o_set | i_set), "rounding changed an integral edge set")
        _check(any(out[e] != h[e] for e in fixed), "rounding kept every integral value")

    return [
        ("three-vertex honeycomb round trip", three_vertex_sample),
        ("hexagon k=3 stripe values", hexagon_stripes),
        ("rigid half-integer instance", rigid_half_integer),
    ]


def _cmd_selftest(args) -> int:
    failed = 0
    for name, fn in _selftest_cases():
        try:
            fn()
            status = "PASS"
        except Exception as ex:  # noqa: BLE001 - report, do not crash
            failed += 1
            status = f"FAIL ({type(ex).__name__}: {ex})"
        print(f"{status:4}  {name}")
    return 0 if failed == 0 else 1


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text}")
    return int(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` fills a fresh
    namespace on every call."""
    ap = argparse.ArgumentParser(prog="cocirc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, grid=False, infile=False, fixed=False, out=True, trace=False):
        if grid:
            p.add_argument("--grid", required=True, help="grid JSON path or -")
        if infile:
            p.add_argument("--in", dest="infile", required=True, help="input JSON path or -")
        if fixed:
            p.add_argument("--fixed", required=True, help="pinned edge list JSON")
        if out:
            p.add_argument("--out", default="-", help="output path (default stdout)")
        if trace:
            p.add_argument("--trace", default=None, help="JSONL trace output path")

    p = sub.add_parser("validate", help="check a grid (and optionally a cocirculation)")
    p.add_argument("--grid", required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("dualize", help="convert between grid+cocirculation and honeycomb")
    p.add_argument("--to", choices=("honeycomb", "grid"), required=True)
    p.add_argument("--grid", required=True, help="grid path (input or output by direction)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_dualize)

    p = sub.add_parser("integralize", help="round a concave cocirculation to an integer one")
    common(p, grid=True, infile=True, trace=True)
    p.set_defaults(fn=_cmd_integralize)

    p = sub.add_parser("legal-path", help="emit one legal path of a honeycomb")
    common(p, infile=True)
    p.set_defaults(fn=_cmd_legal_path)

    p = sub.add_parser("deform", help="apply one stopping deformation to a honeycomb")
    common(p, infile=True, trace=True)
    p.add_argument("--direction", choices=("right", "left"), default="right")
    p.set_defaults(fn=_cmd_deform)

    p = sub.add_parser("vertex-check", help="test polytope vertexhood under pinned edges")
    common(p, grid=True, infile=True, fixed=True)
    p.set_defaults(fn=_cmd_vertex_check)

    p = sub.add_parser("gen", help="generate a named instance")
    p.add_argument(
        "--kind",
        choices=("dualgrid", "hexagon", "fractional-vertex", "counterexample", "random-concave"),
        required=True,
    )
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default="-", help="grid output path where applicable")
    p.add_argument("--fixed", default=None, help="pinned-edges output (fractional-vertex)")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("selftest", help="run the pinned fixtures and print a table")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    # The subcommand names: the choices of the parser's subparsers action.
    commands = next(a.choices for a in ap._actions if a.dest == "command")
    if argv and not argv[0].startswith("-") and argv[0] not in commands:
        print(f"unknown subcommand: {argv[0]}", file=sys.stderr)
        return 64
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as ex:
        _write("-", dumps({"error": str(ex), "kind": "schema"}))
        return 3
    except OSError as ex:
        _write("-", dumps({"error": str(ex), "kind": "io"}))
        return 3
    except CocircError as ex:
        _write("-", dumps({"error": str(ex), "kind": type(ex).__name__}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
