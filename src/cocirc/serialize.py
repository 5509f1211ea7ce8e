"""JSON interchange for grids, cocirculations and honeycombs.

Rationals travel as canonical ``"p/q"`` strings with positive reduced
denominator; plain integers (``"p"`` or JSON numbers) and unreduced
``"p/q"`` are accepted on input, but not decimals, exponents or
surrounding whitespace.  Emitted documents are sorted so equal objects
serialize byte for byte equal.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .errors import NotPreHoneycomb, SchemaError
from .grid import Cocirculation, ConvexGrid, Edge
from .honeycomb import HEdge, HLine, Honeycomb, Pt, canonicalize, dval, frac_point, t_of


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_any(v: Any) -> Fraction:
    try:
        if isinstance(v, bool):
            raise ValueError
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str) and _RATIONAL.fullmatch(v):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"not a rational: {v!r}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def grid_to_json(g: ConvexGrid) -> dict:
    return {
        "triangles": [
            {"up": up, "a": a, "b": b} for up, a, b in sorted(g.triangles)
        ]
    }


def grid_from_json(doc: Any) -> ConvexGrid:
    _require(isinstance(doc, dict) and isinstance(doc.get("triangles"), list), "grid: want {'triangles': [...]}")
    tris = []
    for row in doc["triangles"]:
        _require(isinstance(row, dict), "grid: triangle rows must be objects")
        up, a, b = row.get("up"), row.get("a"), row.get("b")
        _require(isinstance(up, bool), "grid: 'up' must be boolean")
        _require(_is_int(a) and _is_int(b), "grid: 'a','b' must be integers")
        tris.append((up, a, b))
    _require(len(tris) > 0, "grid: empty triangle list")
    return ConvexGrid.of(tris)


def cocirc_to_json(h: Cocirculation) -> dict:
    return {
        "edges": [
            {"a": a, "b": b, "dir": d, "value": frac_to_str(h[(a, b, d)])}
            for a, b, d in sorted(h)
        ]
    }


def _edge_rows(doc: Any, what: str):
    """``((a, b, dir), row)`` for each row of an ``{'edges': [...]}`` document."""
    _require(isinstance(doc, dict) and isinstance(doc.get("edges"), list), f"{what}: want {{'edges': [...]}}")
    seen = set()
    for row in doc["edges"]:
        _require(isinstance(row, dict), f"{what}: edge rows must be objects")
        a, b, d = row.get("a"), row.get("b"), row.get("dir")
        _require(_is_int(a) and _is_int(b), f"{what}: 'a','b' must be integers")
        _require(d in (1, 2, 3), f"{what}: 'dir' must be 1, 2 or 3")
        _require((a, b, d) not in seen, f"{what}: duplicate edge {(a, b, d)}")
        seen.add((a, b, d))
        yield (a, b, d), row


def cocirc_from_json(doc: Any) -> Cocirculation:
    return {e: frac_from_any(row.get("value")) for e, row in _edge_rows(doc, "cocirc")}


def edge_list_from_json(doc: Any) -> frozenset[Edge]:
    return frozenset(e for e, _ in _edge_rows(doc, "edges"))


def edge_list_to_json(edges) -> dict:
    return {"edges": [{"a": a, "b": b, "dir": d} for a, b, d in sorted(edges)]}


def _pt_to_json(p: Pt, scale: int) -> dict:
    d1, d2 = frac_point(p, scale)
    return {"d1": frac_to_str(d1), "d2": frac_to_str(d2)}


def _pt_from_json(row: Any) -> Pt:
    _require(isinstance(row, dict), "point rows must be objects")
    return (frac_from_any(row.get("d1")), frac_from_any(row.get("d2")))


def hedge_to_json(e: HEdge, scale: int) -> dict:
    """An edge whose int coordinates are in units of ``1/scale``."""
    row: dict[str, Any] = {
        "class": e.cls,
        "weight": e.weight,
        "kind": "ray" if e.is_ray else "finite",
        "ends": [_pt_to_json(p, scale) for p in e.ends()],
    }
    if e.is_ray:
        row["sign"] = e.ray_sign
    return row


def honeycomb_to_json(h: Honeycomb) -> dict:
    return {
        "vertices": [_pt_to_json(v, h.scale) for v in h.vertices],
        "edges": [hedge_to_json(e, h.scale) for e in h.edges],
    }


def honeycomb_from_json(doc: Any) -> Honeycomb:
    _require(isinstance(doc, dict) and isinstance(doc.get("edges"), list), "honeycomb: want {'edges': [...]}")
    lines = []
    for row in doc["edges"]:
        _require(isinstance(row, dict), "honeycomb: edge rows must be objects")
        cls = row.get("class")
        _require(cls in (1, 2, 3), "honeycomb: 'class' must be 1, 2 or 3")
        w = row.get("weight")
        _require(_is_int(w) and w > 0, "honeycomb: 'weight' must be a positive integer")
        ends = [_pt_from_json(p) for p in row.get("ends", [])]
        kind = row.get("kind")
        if kind == "finite":
            _require(len(ends) == 2, "honeycomb: finite edge needs two ends")
            _require(dval(ends[1], cls) == dval(ends[0], cls), "honeycomb: ends not collinear for class")
            span = sorted((t_of(cls, ends[0]), t_of(cls, ends[1])))
            _require(span[0] < span[1], "honeycomb: degenerate finite edge")
        elif kind == "ray":
            _require(len(ends) == 1, "honeycomb: ray needs one end")
            sign = row.get("sign")
            _require(sign in ("+", "-"), "honeycomb: ray needs sign '+' or '-'")
            t = t_of(cls, ends[0])
            span = (t, None) if sign == "+" else (None, t)
        else:
            raise SchemaError("honeycomb: 'kind' must be 'finite' or 'ray'")
        lines.append((HLine(cls, dval(ends[0], cls), *span), w))
    try:
        return canonicalize(lines)
    except (NotPreHoneycomb, AssertionError) as ex:
        raise SchemaError(f"honeycomb: not a valid honeycomb ({ex})") from ex


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as ex:  # JSONDecodeError, too many digits, too deep
        raise SchemaError(f"invalid JSON: {ex}") from ex
