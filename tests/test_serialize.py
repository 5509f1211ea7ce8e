from fractions import Fraction

import pytest

from cocirc.constructions import counterexample_instance, sample_honeycomb
from cocirc.duality import grid_to_honeycomb
from cocirc.errors import SchemaError
from cocirc.serialize import (
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
    with pytest.raises(SchemaError):
        cocirc_from_json({"edges": [{"a": 0, "b": 0, "dir": 4, "value": "1/2"}]})
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
