import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import canonicalize_rational, mutated_honeycomb_documents
from cocirc.constructions import counterexample_instance, sample_honeycomb
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import NotPreHoneycomb, SchemaError
from cocirc.grid import three_side_grid
from cocirc.serialize import (
    MAX_DIGITS,
    cocirc_from_json,
    cocirc_to_json,
    dumps,
    edge_list_from_json,
    edge_list_to_json,
    frac_from_any,
    frac_to_str,
    grid_from_json,
    grid_to_json,
    honeycomb_from_json,
    honeycomb_to_json,
    loads,
)
from cocirc.spans import HLine, dval, t_of

F = Fraction


def test_fraction_strings():
    assert frac_to_str(F(-3, 6)) == "-1/2"
    assert frac_to_str(F(4)) == "4/1"
    assert frac_from_any("4/1") == 4
    assert frac_from_any("7") == 7
    assert frac_from_any(7) == 7
    assert frac_from_any("-2/4") == F(-1, 2)
    for bad in ("x", "1/0", None, 1.5, True, "1.5", "1e3", " 2/4 ", "7\n", "1/-2"):
        with pytest.raises(SchemaError):
            frac_from_any(bad)


def test_grid_and_cocirc_round_trip():
    g, h = counterexample_instance()
    g2 = grid_from_json(loads(dumps(grid_to_json(g))))
    assert g2 == g
    h2 = cocirc_from_json(loads(dumps(cocirc_to_json(h))))
    assert h2 == h
    fixed = edge_list_from_json(loads(dumps(edge_list_to_json(g.edges))))
    assert fixed == g.edges


def test_emitted_documents_are_canonical():
    g, h = counterexample_instance()
    assert dumps(cocirc_to_json(h)) == dumps(cocirc_to_json(dict(reversed(list(h.items())))))


def test_honeycomb_round_trip():
    for hc in (sample_honeycomb(), grid_to_honeycomb(*counterexample_instance())):
        doc = honeycomb_to_json(hc)
        assert honeycomb_from_json(loads(dumps(doc))) == hc


def test_schema_violations():
    with pytest.raises(SchemaError):
        grid_from_json({"triangles": "nope"})
    with pytest.raises(SchemaError):
        grid_from_json({"triangles": [{"up": 1, "a": 0, "b": 0}]})
    with pytest.raises(SchemaError):
        grid_from_json({"triangles": []})
    # A repeated triangle row, like a repeated edge row, names the row.
    rows = grid_to_json(three_side_grid(2))["triangles"]
    first = (rows[0]["up"], rows[0]["a"], rows[0]["b"])
    with pytest.raises(SchemaError, match=re.escape(f"grid: duplicate triangle {first}")):
        grid_from_json({"triangles": [rows[0], *rows]})
    with pytest.raises(SchemaError):
        cocirc_from_json({"edges": [{"a": 0, "b": 0, "dir": 4, "value": "1/2"}]})
    with pytest.raises(SchemaError, match="^cocirc: edge rows must be objects$"):
        cocirc_from_json({"edges": [5]})
    with pytest.raises(SchemaError, match="^edges: edge rows must be objects$"):
        edge_list_from_json({"edges": [5]})
    # JSON true and 2.0 equal 1 and 2 in Python, but are not integers
    for d in (True, 2.0):
        with pytest.raises(SchemaError, match="'dir' must be 1, 2 or 3"):
            cocirc_from_json({"edges": [{"a": 0, "b": 0, "dir": d, "value": "1/2"}]})
        with pytest.raises(SchemaError, match="'dir' must be 1, 2 or 3"):
            edge_list_from_json({"edges": [{"a": 0, "b": 0, "dir": d}]})
        ray = {"class": d, "weight": 1, "kind": "ray", "sign": "+", "ends": [{"d1": "0", "d2": "0"}]}
        with pytest.raises(SchemaError, match="'class' must be 1, 2 or 3"):
            honeycomb_from_json({"edges": [ray]})
    for a, b in ((True, 0), (0, False)):
        with pytest.raises(SchemaError):
            cocirc_from_json({"edges": [{"a": a, "b": b, "dir": 1, "value": "1/2"}]})
        with pytest.raises(SchemaError):
            edge_list_from_json({"edges": [{"a": a, "b": b, "dir": 1}]})
    with pytest.raises(SchemaError):
        cocirc_from_json({"edges": [{"a": 0, "b": 0, "dir": 1, "value": "1.5"}]})
    row = {"a": 0, "b": 0, "dir": 1}
    with pytest.raises(SchemaError):
        cocirc_from_json({"edges": [{**row, "value": "1/2"}, {**row, "value": "1/3"}]})
    with pytest.raises(SchemaError):
        edge_list_from_json({"edges": [row, row]})
    with pytest.raises(SchemaError):
        honeycomb_from_json({"edges": [{"class": 1, "weight": 0, "kind": "ray"}]})
    with pytest.raises(SchemaError):
        loads("{not json")
    # A non-list 'ends' has one message; the Fraction reader raised a
    # TypeError for 5 and named the rows or their count for the others.
    for ends in (5, "xy", "", {}):
        with pytest.raises(SchemaError, match="'ends' must be a list"):
            honeycomb_from_json({"edges": [{"class": 1, "weight": 1, "kind": "ray", "sign": "+", "ends": ends}]})


# The Fraction-based reader that the integer one replaced, kept as the
# oracle: each end point parsed into Fractions, checked with Fraction
# ``dval``/``t_of``, and canonicalized as a rational system at the lcm of
# its denominators (``canonicalize_rational``).

_ORACLE_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def oracle_frac_from_any(v):
    try:
        if isinstance(v, bool):
            raise ValueError
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str) and _ORACLE_RATIONAL.fullmatch(v):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"not a rational: {v!r}")


def _require(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _oracle_pt(row):
    _require(isinstance(row, dict), "point rows must be objects")
    return (oracle_frac_from_any(row.get("d1")), oracle_frac_from_any(row.get("d2")))


def oracle_honeycomb_from_json(doc):
    _require(isinstance(doc, dict) and isinstance(doc.get("edges"), list), "honeycomb: want {'edges': [...]}")
    lines = []
    for row in doc["edges"]:
        _require(isinstance(row, dict), "honeycomb: edge rows must be objects")
        cls = row.get("class")
        _require(isinstance(cls, int) and not isinstance(cls, bool) and cls in (1, 2, 3),
                 "honeycomb: 'class' must be 1, 2 or 3")
        w = row.get("weight")
        _require(isinstance(w, int) and not isinstance(w, bool) and w > 0,
                 "honeycomb: 'weight' must be a positive integer")
        ends = [_oracle_pt(p) for p in row.get("ends", [])]
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
        return canonicalize_rational(lines)
    except (NotPreHoneycomb, AssertionError) as ex:
        raise SchemaError(f"honeycomb: not a valid honeycomb ({ex})") from ex


def _outcome(fn, arg):
    try:
        return fn(arg)
    except SchemaError as ex:
        return f"SchemaError: {ex}"


# The oracle reads digits through int(), so it bounds them as the reader
# does only at CPython's default limit.
at_default_int_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != MAX_DIGITS,
    reason="the interpreter's int-string limit is not the default",
)


@at_default_int_limit
@settings(max_examples=400, deadline=None)
@given(mutated_honeycomb_documents())
def test_honeycomb_reader_matches_fraction_oracle(doc):
    assert _outcome(honeycomb_from_json, doc) == _outcome(oracle_honeycomb_from_json, doc)


@at_default_int_limit
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(),
    st.from_regex(r"-?0*[0-9]{1,6}(/0*[0-9]{1,6})?", fullmatch=True),
    st.text(alphabet="-/0123456789. +e", max_size=12),
    st.sampled_from(["1" * 4300, "-" + "9" * 4300, "1/" + "0" * 4299 + "7", "1" * 4301, "1/" + "1" * 4301]),
    st.none(), st.booleans(), st.floats(allow_nan=False),
))
def test_frac_from_any_matches_fraction_oracle(v):
    assert _outcome(frac_from_any, v) == _outcome(oracle_frac_from_any, v)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit to set")
def test_digit_bound_does_not_follow_the_interpreter_limit():
    longest, too_long = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)
    old = sys.get_int_max_str_digits()
    try:
        for limit in (0, MAX_DIGITS, 10 * MAX_DIGITS):
            sys.set_int_max_str_digits(limit)
            assert frac_from_any(longest) == int(longest)
            assert frac_from_any(f"-{longest}/{longest}") == -1
            assert loads(f"[{longest}]") == [int(longest)]
            assert loads(f'{{"s": "{too_long}", "n": [12, -3]}}') == {"s": too_long, "n": [12, -3]}
            for bad in (too_long, f"1/{too_long}", f"-{too_long}/1", "-0" + longest):
                with pytest.raises(SchemaError):
                    frac_from_any(bad)
            for bad in (f"[{too_long}]", f"[-{too_long}]", f'{{"a": {too_long}}}', f'["{too_long}", {too_long}]'):
                with pytest.raises(SchemaError, match="more than 4300 digits"):
                    loads(bad)
    finally:
        sys.set_int_max_str_digits(old)


def test_cocirc_values_read_once_per_string():
    # Each distinct value string is read once; a repeated string gives the
    # same value, and JSON integers and booleans do not share its entry:
    # True == 1, yet a boolean value is still a schema error.
    rows = [{"a": i, "b": 0, "dir": 1, "value": v} for i, v in enumerate(["1", 1, "2/4", "1/2", "1"])]
    h = cocirc_from_json({"edges": rows})
    assert list(h.values()) == [F(1), F(1), F(1, 2), F(1, 2), F(1)]
    for bad in (True, False):
        with pytest.raises(SchemaError, match=re.escape(f"not a rational: {bad!r}")):
            cocirc_from_json({"edges": [*rows, {"a": 9, "b": 0, "dir": 1, "value": bad}]})
    # The first bad row raises, whether or not its string repeats.
    rows += [{"a": 10 + i, "b": 0, "dir": 1, "value": v} for i, v in enumerate(["x/2", "x/2", "1/0"])]
    with pytest.raises(SchemaError, match=re.escape("not a rational: 'x/2'")):
        cocirc_from_json({"edges": rows})
