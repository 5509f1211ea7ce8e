"""JSON interchange for grids, cocirculations and honeycombs.

Rationals travel as canonical ``"p/q"`` strings with positive reduced
denominator; plain integers (``"p"`` or JSON numbers) and unreduced
``"p/q"`` are accepted on input, but not decimals, exponents or
surrounding whitespace.  A numerator, a denominator or a JSON integer has
at most ``MAX_DIGITS`` digits, CPython's default limit for int-string
conversion, whatever limit the interpreter is set to.  Emitted documents
are sorted so equal objects serialize byte for byte equal.

A honeycomb document is read straight onto one integer scale: each
rational once into a reduced ``(p, q)``, each row checked on ints at the
lcm of its own denominators, and the rows handed to ``canonicalize`` as
ints at the lcm ``L`` of the document's.  Only cocirculations come back
as Fractions.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Any

from .errors import NotPreHoneycomb, SchemaError
from .grid import Cocirculation, ConvexGrid, Edge
from .honeycomb import Honeycomb, canonicalize
from .spans import HEdge, HLine, Pt, dval, t_of

MAX_DIGITS = 4300

_DIGITS = f"[0-9]{{1,{MAX_DIGITS}}}"
_RATIONAL = re.compile(f"(-?{_DIGITS})(?:/({_DIGITS}))?")


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio(v: Any) -> tuple[int, int]:
    """``v``, a JSON integer or a ``"p"`` or ``"p/q"`` string, as ``(p, q)``
    with ``q > 0``, not yet reduced."""
    if isinstance(v, str):
        m = _RATIONAL.fullmatch(v)
        if m is not None:
            p, q = m.groups()
            try:  # int() raises below MAX_DIGITS only where the limit is set lower
                q = 1 if q is None else int(q)
                if q:
                    return int(p), q
            except ValueError:
                pass
    elif isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    raise SchemaError(f"not a rational: {v!r}")


def frac_from_any(v: Any) -> Fraction:
    return Fraction(*_ratio(v))


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
    tris = set()
    for row in doc["triangles"]:
        _require(isinstance(row, dict), "grid: triangle rows must be objects")
        up, a, b = row.get("up"), row.get("a"), row.get("b")
        _require(isinstance(up, bool), "grid: 'up' must be boolean")
        _require(_is_int(a) and _is_int(b), "grid: 'a','b' must be integers")
        t = (up, a, b)
        if t in tris:
            raise SchemaError(f"grid: duplicate triangle {t}")
        tris.add(t)
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
        if not isinstance(row, dict):
            raise SchemaError(f"{what}: edge rows must be objects")
        a, b, d = row.get("a"), row.get("b"), row.get("dir")
        if not (_is_int(a) and _is_int(b)):
            raise SchemaError(f"{what}: 'a','b' must be integers")
        if not (_is_int(d) and d in (1, 2, 3)):
            raise SchemaError(f"{what}: 'dir' must be 1, 2 or 3")
        e = (a, b, d)
        if e in seen:
            raise SchemaError(f"{what}: duplicate edge {e}")
        seen.add(e)
        yield e, row


def cocirc_from_json(doc: Any) -> Cocirculation:
    # Each distinct value string is read once.  Only strings are kept:
    # True == 1, so a JSON boolean must not meet the entry of an integer.
    read: dict[str, Fraction] = {}
    out: Cocirculation = {}
    for e, row in _edge_rows(doc, "cocirc"):
        v = row.get("value")
        if type(v) is not str:
            out[e] = frac_from_any(v)
        elif (x := read.get(v)) is not None:
            out[e] = x
        else:
            out[e] = read[v] = frac_from_any(v)
    return out


def edge_list_from_json(doc: Any) -> frozenset[Edge]:
    return frozenset(e for e, _ in _edge_rows(doc, "edges"))


def edge_list_to_json(edges) -> dict:
    return {"edges": [{"a": a, "b": b, "dir": d} for a, b, d in sorted(edges)]}


def _coord_to_str(x: int, scale: int) -> str:
    """``x / scale`` as a reduced ``"p/q"``."""
    g = gcd(x, scale)
    return f"{x // g}/{scale // g}"


def _pt_to_json(p: Pt, scale: int) -> dict:
    return {"d1": _coord_to_str(p[0], scale), "d2": _coord_to_str(p[1], scale)}


def _pt_from_json(row: Any) -> tuple[int, int, int]:
    """A point row as ``(x1, x2, q)``: ``d1 = x1/q`` and ``d2 = x2/q``, with
    ``q`` the lcm of their reduced denominators."""
    if not isinstance(row, dict):
        raise SchemaError("point rows must be objects")
    p1, q1 = _ratio(row.get("d1"))
    p2, q2 = _ratio(row.get("d2"))
    q = lcm(q1 // gcd(p1, q1), q2 // gcd(p2, q2))
    return p1 * q // q1, p2 * q // q2, q


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
    rows = []
    for row in doc["edges"]:
        _require(isinstance(row, dict), "honeycomb: edge rows must be objects")
        cls = row.get("class")
        _require(_is_int(cls) and cls in (1, 2, 3), "honeycomb: 'class' must be 1, 2 or 3")
        w = row.get("weight")
        _require(_is_int(w) and w > 0, "honeycomb: 'weight' must be a positive integer")
        ends = row.get("ends", [])
        _require(isinstance(ends, list), "honeycomb: 'ends' must be a list")
        ends = [_pt_from_json(p) for p in ends]
        kind = row.get("kind")
        if kind == "finite":
            _require(len(ends) == 2, "honeycomb: finite edge needs two ends")
            (a1, a2, qa), (b1, b2, qb) = ends
            r = lcm(qa, qb)  # the row's checks run on ints in units of 1/r
            a, b = (a1 * (r // qa), a2 * (r // qa)), (b1 * (r // qb), b2 * (r // qb))
            c = dval(a, cls)
            _require(dval(b, cls) == c, "honeycomb: ends not collinear for class")
            lo, hi = sorted((t_of(cls, a), t_of(cls, b)))
            _require(lo < hi, "honeycomb: degenerate finite edge")
        elif kind == "ray":
            _require(len(ends) == 1, "honeycomb: ray needs one end")
            sign = row.get("sign")
            _require(sign in ("+", "-"), "honeycomb: ray needs sign '+' or '-'")
            a1, a2, r = ends[0]
            c, t = dval((a1, a2), cls), t_of(cls, (a1, a2))
            lo, hi = (t, None) if sign == "+" else (None, t)
        else:
            raise SchemaError("honeycomb: 'kind' must be 'finite' or 'ray'")
        rows.append((cls, c, lo, hi, w, r))
    scale = lcm(*(r for *_, r in rows))
    lines = [(HLine(cls, c, lo, hi).scaled(scale // r), w) for cls, c, lo, hi, w, r in rows]
    try:
        return canonicalize(lines, scale)
    except (NotPreHoneycomb, AssertionError) as ex:
        raise SchemaError(f"honeycomb: not a valid honeycomb ({ex})") from ex


def _json_int(text: str) -> int:
    if len(text) > MAX_DIGITS and len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
    return int(text)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True) + "\n"


_TO_ZEROS = str.maketrans("123456789", "000000000")
_LONG_RUN = "0" * (MAX_DIGITS + 1)


def loads(text: str) -> Any:
    # A JSON integer can break the bound only where the text has a run of
    # more than MAX_DIGITS digits; only then are integers read through
    # the bounding hook, not json's own int.
    hook = _json_int if _LONG_RUN in text.translate(_TO_ZEROS) else None
    try:
        return json.loads(text, parse_int=hook)
    except (ValueError, RecursionError) as ex:  # JSONDecodeError, too many digits, too deep
        raise SchemaError(f"invalid JSON: {ex}") from ex
