import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import mutated_grid_documents, mutated_honeycomb_documents

import cocirc
from cocirc import serialize
from cocirc.cli import main
from cocirc.constructions import dual_grid_honeycomb
from cocirc.grid import random_concave, three_side_grid
from cocirc.serialize import loads


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_vertex_check_pipeline(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    f = tmp_path / "f.json"
    code, _ = run(capsys, "gen", "--kind", "fractional-vertex", "--k", "3",
                  "--grid", str(g), "--out", str(c), "--fixed", str(f))
    assert code == 0
    code, out = run(capsys, "vertex-check", "--grid", str(g), "--in", str(c), "--fixed", str(f))
    assert code == 0
    assert json.loads(out) == {"vertex": True, "degrees_of_freedom": 0}
    # Without --in, validate checks the grid alone.
    code, out = run(capsys, "validate", "--grid", str(g))
    assert code == 0
    assert json.loads(out).keys() == {"ok", "size", "triangles"}


def test_validate_malformed_grid(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, out = run(capsys, "validate", "--grid", str(bad))
    assert code == 3
    assert json.loads(out)["kind"] == "schema"
    code, out = run(capsys, "validate", "--grid", str(tmp_path / "missing.json"))
    assert code == 3
    assert json.loads(out)["kind"] == "io"


def test_validate_domain_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"triangles": [
        {"up": True, "a": 0, "b": 0}, {"up": True, "a": 5, "b": 5}]}))
    code, out = run(capsys, "validate", "--grid", str(g))
    assert code == 2


def test_validate_reports_unscaled_circuit_sum(tmp_path, capsys):
    g = three_side_grid(4)
    h = random_concave(g, seed=3, denom_bound=7)
    h[(0, 0, 1)] += Fraction(1, 3)
    gp, cp = tmp_path / "g.json", tmp_path / "c.json"
    gp.write_text(serialize.dumps(serialize.grid_to_json(g)))
    cp.write_text(serialize.dumps(serialize.cocirc_to_json(h)))
    code, out = run(capsys, "validate", "--grid", str(gp), "--in", str(cp))
    assert code == 2
    assert json.loads(out) == {"error": "circuit sum 1/3 on face (True, 0, 0)", "kind": "NotACocirculation"}
    del h[(0, 0, 1)]
    cp.write_text(serialize.dumps(serialize.cocirc_to_json(h)))
    code, out = run(capsys, "validate", "--grid", str(gp), "--in", str(cp))
    assert code == 2
    assert json.loads(out) == {"error": "missing value on edge (0, 0, 1)", "kind": "NotACocirculation"}


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 64


def test_integralize_pipeline(tmp_path, capsys):
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    out_c, tr = tmp_path / "int.json", tmp_path / "tr.jsonl"
    assert run(capsys, "gen", "--kind", "counterexample", "--grid", str(g), "--out", str(c))[0] == 0
    assert run(capsys, "integralize", "--grid", str(g), "--in", str(c),
               "--out", str(out_c), "--trace", str(tr))[0] == 0
    code, out = run(capsys, "validate", "--grid", str(g), "--in", str(out_c))
    assert code == 0
    assert json.loads(out)["concave"] is True
    rows = [json.loads(line) for line in tr.read_text().splitlines()]
    assert rows
    for row in rows:
        assert row["after"]["value"] < row["before"]["value"]
    values = loads(out_c.read_text())["edges"]
    assert all(v["value"].endswith("/1") for v in values)


def test_dualize_round_trip(tmp_path, capsys):
    g, c, h = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "h.json"
    g2, c2, h2 = tmp_path / "g2.json", tmp_path / "c2.json", tmp_path / "h2.json"
    assert run(capsys, "gen", "--kind", "hexagon", "--k", "2", "--grid", str(g), "--out", str(c))[0] == 0
    assert run(capsys, "dualize", "--to", "honeycomb", "--grid", str(g), "--in", str(c), "--out", str(h))[0] == 0
    assert run(capsys, "dualize", "--to", "grid", "--in", str(h), "--grid", str(g2), "--out", str(c2))[0] == 0
    assert run(capsys, "dualize", "--to", "honeycomb", "--grid", str(g2), "--in", str(c2), "--out", str(h2))[0] == 0
    assert h.read_text() == h2.read_text()
    dg = tmp_path / "dg.json"
    assert run(capsys, "gen", "--kind", "dualgrid", "--n", "3", "--out", str(dg))[0] == 0
    assert serialize.honeycomb_from_json(loads(dg.read_text())) == dual_grid_honeycomb(3)


def test_legal_path_and_deform(tmp_path, capsys):
    g, c, h = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "h.json"
    assert run(capsys, "gen", "--kind", "counterexample", "--grid", str(g), "--out", str(c))[0] == 0
    assert run(capsys, "dualize", "--to", "honeycomb", "--grid", str(g), "--in", str(c), "--out", str(h))[0] == 0
    code, out = run(capsys, "legal-path", "--in", str(h))
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] and isinstance(doc["cycle"], bool)
    h2, tr = tmp_path / "h2.json", tmp_path / "step.jsonl"
    code, _ = run(capsys, "deform", "--in", str(h), "--direction", "left",
                  "--out", str(h2), "--trace", str(tr))
    assert code == 0
    row = json.loads(tr.read_text())
    assert row["after"]["value"] < row["before"]["value"]


def test_cocirculation_edge_outside_grid(tmp_path, capsys):
    g, c, f = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "f.json"
    assert run(capsys, "gen", "--kind", "fractional-vertex", "--k", "2", "--grid", str(g),
               "--out", str(c), "--fixed", str(f))[0] == 0
    doc = json.loads(c.read_text())
    doc["edges"].append({"a": 99, "b": 99, "dir": 1, "value": "0/1"})
    c.write_text(json.dumps(doc))
    for argv in (
        ("validate", "--grid", str(g), "--in", str(c)),
        ("dualize", "--to", "honeycomb", "--grid", str(g), "--in", str(c)),
        ("integralize", "--grid", str(g), "--in", str(c)),
        ("vertex-check", "--grid", str(g), "--in", str(c), "--fixed", str(f)),
    ):
        code, out = run(capsys, *argv)
        assert code == 3, argv
        assert json.loads(out)["kind"] == "schema"
        assert "(99, 99, 1)" in json.loads(out)["error"]


def test_boolean_and_float_classes_are_schema_errors(tmp_path, capsys):
    # JSON true and 2.0 equal 1 and 2 in Python, but are not integers
    g, c, f, h = (tmp_path / name for name in ("g.json", "c.json", "f.json", "h.json"))
    assert run(capsys, "gen", "--kind", "fractional-vertex", "--k", "1", "--grid", str(g),
               "--out", str(c), "--fixed", str(f))[0] == 0
    assert run(capsys, "dualize", "--to", "honeycomb", "--grid", str(g), "--in", str(c), "--out", str(h))[0] == 0
    cases = (
        (c, "dir", ("validate", "--grid", str(g), "--in", str(c))),
        (f, "dir", ("vertex-check", "--grid", str(g), "--in", str(c), "--fixed", str(f))),
        (h, "class", ("legal-path", "--in", str(h))),
    )
    for odd in (True, 2.0):
        for path, key, argv in cases:
            text = path.read_text()
            doc = json.loads(text)
            doc["edges"][0][key] = odd
            path.write_text(json.dumps(doc))
            code, out = run(capsys, *argv)
            assert code == 3, (argv, odd)
            assert json.loads(out)["kind"] == "schema"
            assert f"'{key}' must be 1, 2 or 3" in json.loads(out)["error"]
            path.write_text(text)


@pytest.mark.parametrize("argv", [
    ("--kind", "hexagon", "--k", "0"),
    ("--kind", "hexagon", "--k", "-1"),
    ("--kind", "fractional-vertex", "--k", "0"),
    ("--kind", "dualgrid", "--n", "0"),
    ("--kind", "random-concave", "--n", "0"),
])
def test_gen_rejects_sizes_below_one(capsys, argv):
    # a bad flag value, like any other: argparse exits 2
    with pytest.raises(SystemExit) as ex:
        main(["gen", *argv])
    assert ex.value.code == 2


def test_json_past_the_parser_limits_is_a_schema_error(tmp_path, capsys):
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    assert run(capsys, "gen", "--kind", "hexagon", "--k", "1", "--grid", str(g), "--out", str(c))[0] == 0
    long_int = tmp_path / "long.json"  # over Python's 4,300-digit int limit
    long_int.write_text('{"triangles": [{"up": true, "a": ' + "1" * 5001 + ', "b": 0}]}')
    deep = tmp_path / "deep.json"  # past the recursion limit
    deep.write_text("[" * 200_000)
    for argv in (
        ("validate", "--grid", str(long_int)),
        ("validate", "--grid", str(deep)),
        ("integralize", "--grid", str(g), "--in", str(deep)),
    ):
        code, out = run(capsys, *argv)
        assert code == 3, argv
        assert json.loads(out)["kind"] == "schema"


def test_gen_random_concave_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        g, c = tmp_path / f"g{name}.json", tmp_path / f"c{name}.json"
        assert run(capsys, "gen", "--kind", "random-concave", "--n", "3",
                   "--seed", "17", "--grid", str(g), "--out", str(c))[0] == 0
        outs.append(c.read_text())
    assert outs[0] == outs[1]


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 3


def test_selftest_under_optimize():
    # ``python -O`` strips asserts; no side effect may hide inside one.
    src = str(Path(cocirc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cocirc.cli", "selftest"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS") == 3


def test_selftest_fails_on_broken_rounding_under_optimize():
    # Every selftest check raises explicitly, so a rounding that changes
    # nothing fails the table with and without -O, and names what failed.
    src = str(Path(cocirc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import cocirc.cli as cli\n"
        "cli.integralize = lambda g, h: (dict(h), [])\n"
        "raise SystemExit(cli.main(['selftest']))\n"
    )
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, flags
        assert proc.stdout.splitlines() == [
            "PASS  three-vertex honeycomb round trip",
            "PASS  hexagon k=3 stripe values",
            "FAIL (AssertionError: rounding kept every integral value)  rigid half-integer instance",
        ], flags


def test_cli_documents_are_pinned(tmp_path, capsys):
    # A change that only makes reading or writing documents faster must
    # leave every byte the commands write, and every exit code, as it is.
    cases = [("fractional-vertex", k) for k in (1, 2, 3)]
    cases += [("hexagon", k) for k in (1, 2, 3)] + [("counterexample", 1)]
    digest = hashlib.sha256()
    for kind, k in cases:
        d = tmp_path / f"{kind}{k}"
        d.mkdir()
        p = {name: str(d / name) for name in (
            "g.json", "c.json", "f.json", "h.json", "g2.json", "c2.json", "path.json",
            "left.json", "left.jsonl", "right.json", "right.jsonl")}
        fixed = ["--fixed", p["f.json"]] if kind == "fractional-vertex" else []
        steps = [
            ["gen", "--kind", kind, "--k", str(k), "--grid", p["g.json"], "--out", p["c.json"], *fixed],
            ["dualize", "--to", "honeycomb", "--grid", p["g.json"], "--in", p["c.json"], "--out", p["h.json"]],
            ["dualize", "--to", "grid", "--in", p["h.json"], "--grid", p["g2.json"], "--out", p["c2.json"]],
            ["legal-path", "--in", p["h.json"], "--out", p["path.json"]],
        ]
        steps += [
            ["deform", "--in", p["h.json"], "--direction", side, "--out", p[f"{side}.json"],
             "--trace", p[f"{side}.jsonl"]]
            for side in ("left", "right")
        ]
        for argv in steps:
            code, out = run(capsys, *argv)
            digest.update(f"{kind}{k} {argv[0]} {code}\n{out}".encode())
        for name, path in p.items():
            if os.path.exists(path):
                digest.update(f"{kind}{k} {name}\n".encode() + Path(path).read_bytes())
    assert digest.hexdigest() == "b46b5504d5d4abcc339216235d1b796cd281aa24d4a9e8ad0dfb4419c7e31ca2"


def test_gen_random_concave_documents_are_pinned(tmp_path, capsys):
    # The sampler feeds most fixtures and the benchmark inputs: a change to
    # how it computes must leave every byte of its documents as it is.
    digest = hashlib.sha256()
    g, c = str(tmp_path / "g.json"), str(tmp_path / "c.json")
    for n in range(3, 7):
        for seed in range(4):
            code, out = run(capsys, "gen", "--kind", "random-concave", "--n", str(n),
                            "--seed", str(seed), "--grid", g, "--out", c)
            assert code == 0 and out == ""
            for path in (g, c):
                digest.update(f"{n} {seed} {Path(path).name}\n".encode() + Path(path).read_bytes())
    assert digest.hexdigest() == "9aee7df31b0b925a34e7ad50703d70ebd2b4f1c601f3f980a2a428899862bbe0"


def _exit_code(argv) -> int:
    """``cli.main(argv)`` with its output swallowed; an exception escapes."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(docs=mutated_grid_documents())
def test_validate_fuzz_exits_with_a_documented_code(fuzz_dir, docs):
    g, c = fuzz_dir / "g.json", fuzz_dir / "c.json"
    g.write_text(json.dumps(docs[0]))
    c.write_text(json.dumps(docs[1]))
    assert _exit_code(["validate", "--grid", str(g), "--in", str(c)]) in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_honeycomb_documents())
def test_legal_path_fuzz_exits_with_a_documented_code(fuzz_dir, doc):
    h = fuzz_dir / "h.json"
    h.write_text(json.dumps(doc))
    assert _exit_code(["legal-path", "--in", str(h)]) in (0, 2, 3)


@settings(max_examples=150, deadline=None)
@given(doc=mutated_honeycomb_documents())
def test_dualize_to_grid_fuzz_exits_with_a_documented_code(fuzz_dir, doc):
    h = fuzz_dir / "h.json"
    h.write_text(json.dumps(doc))
    argv = ["dualize", "--to", "grid", "--in", str(h), "--grid", str(fuzz_dir / "dual_g.json"), "--out", "-"]
    assert _exit_code(argv) in (0, 2, 3)


@pytest.mark.parametrize("direction", ["left", "right"])
@settings(max_examples=150, deadline=None)
@given(doc=mutated_honeycomb_documents())
def test_deform_fuzz_exits_with_a_documented_code(fuzz_dir, direction, doc):
    h = fuzz_dir / "h.json"
    h.write_text(json.dumps(doc))
    assert _exit_code(["deform", "--in", str(h), "--direction", direction]) in (0, 2, 3)
