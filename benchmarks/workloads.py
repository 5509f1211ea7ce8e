"""The benchmark's three workloads and the output checks they run.

A workload generates its inputs from the workload seed (this is what
``setup_s`` times), computes what its checks need, and then runs passes:
each pass calls the program on the same inputs through ``Pass.run``,
which times the call, counts a raised exception or nonzero exit as a
failed operation, checks the output with the package's public
predicates, and feeds a canonical ``serialize.dumps`` of the output into
the pass digest.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import tempfile
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

from tracing import TARGETS


class CommandFailed(Exception):
    """A CLI command returned a nonzero exit code."""


class Pass:
    """Times, failures and digest of one pass over a workload."""

    def __init__(self, cc, tracer=None, keep=False):
        self.cc = cc
        self.tracer = tracer
        self.keep = keep  # keep outputs in ``results``; only the first pass needs them
        self.attempted = 0
        self.errors: list[dict] = []  # raised, or exited nonzero
        self.wrong: list[dict] = []  # completed, but the output failed a check
        self.seconds: dict[str, float] = {}  # label -> seconds, timed operations
        self.kind: dict[str, str] = {}  # label -> kind, timed operations
        self.results: dict[str, object] = {}
        self._digest = hashlib.sha256()

    def run(self, label, kind, fn, check=None, describe=None):
        """Run ``fn()`` as one operation.

        ``kind`` groups timed operations for the metrics; ``None`` leaves
        the operation untimed.
        ``check(out)`` returns a problem description or None, and
        ``describe(out)`` the JSON document that enters the digest.
        Returns the output, or None when the call failed.
        """
        self.attempted += 1
        recording = self.tracer.recording() if self.tracer else nullcontext()
        try:
            with recording:
                t0 = perf_counter()
                out = fn()
                dt = perf_counter() - t0
        except Exception as ex:  # noqa: BLE001 - a failed operation is a result
            error = {"op": label, "error": type(ex).__name__, "message": str(ex)}
            self.errors.append(error)
            self._feed(error)
            return None
        if kind is not None:
            self.seconds[label], self.kind[label] = dt, kind
        try:
            problem = check(out) if check else None
        except Exception as ex:  # noqa: BLE001 - a crashing check is a failed check
            problem = f"check raised {type(ex).__name__}: {ex}"
        if problem:
            self.wrong.append({"op": label, "problem": problem})
        self._feed({"op": label, "out": describe(out) if describe else None})
        if self.keep:
            self.results[label] = out
        return out

    def _feed(self, doc) -> None:
        self._digest.update(self.cc.serialize.dumps(doc).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)


class Timings:
    """Median seconds of each timed operation over a run's passes.

    Summing per-operation medians spreads every figure over the whole run,
    which damps the machine's speed swings better than the median of a
    few pass totals."""

    def __init__(self, passes: list[Pass]):
        self.kind = passes[0].kind
        self.seconds = {
            label: statistics.median(p.seconds[label] for p in passes)
            for label in self.kind
            if all(label in p.seconds for p in passes)
        }

    def _of(self, prefix):
        return [s for label, s in self.seconds.items() if self.kind[label].startswith(prefix)]

    def total(self, prefix: str = "") -> float:
        return sum(self._of(prefix))

    def slowest(self, prefix: str = "") -> float:
        return max(self._of(prefix), default=0.0)


# --------------------------------------------------------------- shared checks

def trace_rows(cc, trace) -> list[dict]:
    """The deterministic fields of an ``integralize`` trace, as the CLI
    writes them."""
    frac = cc.serialize.frac_to_str

    def pot(p):
        return {
            "nonintegral_boundary": p.nonintegral_boundary,
            "nonintegral_excess": p.nonintegral_excess,
            "integral_incident": p.integral_incident,
        }

    return [
        {"eps": frac(s.eps), "kinds": list(s.kinds), "cycle": s.cycle,
         "before": pot(s.before), "after": pot(s.after)}
        for s in trace
    ]


def rounding_expectations(cc, g, h):
    """What a rounding of ``h`` must preserve, and its starting potential."""
    o_set, i_set = cc.integer_edge_sets(g, h)
    return o_set | i_set, cc.potential(cc.grid_to_honeycomb(g, h))


def rounding_problem(cc, g, h, expect, result):
    out, trace = result
    preserved, initial = expect
    if set(out) != g.edges:
        return "output edge set differs from the grid's"
    if any(v.denominator != 1 for v in out.values()):
        return "output has a non-integer value"
    if not cc.is_concave(g, out):
        return "output is not concave"
    changed = sorted(e for e in preserved if out[e] != h[e])
    if changed:
        return f"preserved edge {changed[0]} changed"
    if not cc.iteration_bound_check(g, trace, initial):
        return "trace fails iteration_bound_check"
    return None


def describe_rounding(cc, result):
    out, trace = result
    return {"out": cc.serialize.cocirc_to_json(out), "trace": trace_rows(cc, trace)}


def translated(g, h):
    """``(g, h)`` moved as ``honeycomb_to_grid`` places it."""
    da, db = g.anchor_offset()
    return g.translate(da, db), {(a + da, b + db, d): v for (a, b, d), v in h.items()}


def round_trip_problem(g, h, result):
    _, g2, h2 = result
    return None if (g2, h2) == translated(g, h) else "round trip changed the input"


def largest_denominator(h) -> int:
    return max(v.denominator for v in h.values())


# ---------------------------------------------------------------- workloads

# Traced layers each workload must reach; a wrapper that never fires means
# a rebinding was missed, and the run fails rather than report zeros.
ROUNDING_LAYERS = frozenset({
    "honeycomb.canonicalize", "honeycomb.nonintegral_sets", "deform.deform",
    "deform.stop_epsilon", "deform.build_deformed_system", "deform.decompose",
    "paths.find_legal_path", "paths.check_legal_path", "integralize.integralize",
    "integralize.potential", "duality.grid_to_honeycomb", "duality.honeycomb_to_grid",
    "grid.is_concave", "grid.tiling_of", "grid.validate_grid",
})
PAPER_LAYERS = ROUNDING_LAYERS | frozenset({
    "extremality.vertex_degrees_of_freedom", "extremality.eliminate",
    "constructions.fractional_vertex_instance", "constructions.hexagon_instance",
})


class Ladder:
    """``integralize`` on random concave cocirculations of 3-side grids,
    several seeds per size; the rounding loop and its scaling."""

    name = "ladder"
    modules = ()
    layers = ROUNDING_LAYERS
    # Denominators of random_concave divide DENOM.  A prime gives every draw
    # full-denominator values, which halves the seed-driven spread of step
    # counts compared with the default 12 while still reaching all five
    # stop events.
    DENOM = 7

    def __init__(self, cc, seed: int, smoke: bool = False, workdir=None):
        self.cc, self.seed = cc, seed
        self.rungs = ((4, 1), (5, 1)) if smoke else ((4, 12), (5, 8), (6, 6))

    def make_inputs(self):
        rng = random.Random(self.seed)
        inputs = []
        for n, count in self.rungs:
            g = self.cc.three_side_grid(n)
            for _ in range(count):
                s = rng.randrange(2**31)
                inputs.append((n, s, g, self.cc.random_concave(g, s, self.DENOM)))
        return inputs

    def prepare(self, inputs) -> None:
        self.expect = [rounding_expectations(self.cc, g, h) for _, _, g, h in inputs]

    def run_pass(self, p: Pass, inputs) -> None:
        cc = self.cc
        for (n, s, g, h), expect in zip(inputs, self.expect):
            p.run(
                f"n{n}.s{s}", "integralize", lambda: cc.integralize(g, h),
                check=lambda r: rounding_problem(cc, g, h, expect, r),
                describe=lambda r: describe_rounding(cc, r),
            )

    def metrics(self, t: Timings) -> dict:
        return {
            "integralize_s": t.total("integralize"),
            "integralize_max_s": t.slowest("integralize"),
        }

    def table(self, first: Pass, t: Timings, inputs) -> list[dict]:
        """One row per instance; seconds per step from the median time."""
        rows = []
        for n, s, g, h in inputs:
            label = f"n{n}.s{s}"
            if label not in t.seconds:
                continue  # failed; listed with the run's failures
            _, trace = first.results[label]
            events = Counter(k for step in trace for k in step.kinds)
            rows.append({
                "n": n, "seed": s, "edges": len(g.edges),
                "honeycomb_vertices": len(self.cc.grid_to_honeycomb(g, h).vertices),
                "steps": len(trace), "largest_denominator": largest_denominator(h),
                "events": dict(sorted(events.items())),
                "s_per_step": t.seconds[label] / len(trace) if trace else None,
            })
        return rows


class Paper:
    """The paper's named instances: vertex checks, duality round trips and
    rounding on large grids with few flatspaces."""

    name = "paper"
    modules = ()
    layers = PAPER_LAYERS

    def __init__(self, cc, seed: int, smoke: bool = False, workdir=None):
        self.cc, self.seed = cc, seed
        self.ks = range(1, 3) if smoke else range(1, 6)

    def make_inputs(self):
        cc = self.cc
        inputs = []
        for k in self.ks:
            g, h, fixed = cc.fractional_vertex_instance(k)
            inputs.append((f"fractional_vertex{k}", g, h, fixed, False))
        for k in self.ks:
            g, h = cc.hexagon_instance(k)
            inputs.append((f"hexagon{k}", g, h, g.boundary_edges, True))
        g, h = cc.counterexample_instance()
        integer_edges = frozenset(e for e, v in h.items() if v.denominator == 1)
        inputs.append(("counterexample", g, h, integer_edges, True))
        # The instances are the paper's; the seed only sets the order they run in.
        random.Random(self.seed).shuffle(inputs)
        return inputs

    def prepare(self, inputs) -> None:
        self.expect = [rounding_expectations(self.cc, g, h) for _, g, h, _, _ in inputs]

    def run_pass(self, p: Pass, inputs) -> None:
        cc, ser = self.cc, self.cc.serialize
        for (name, g, h, fixed, timed), expect in zip(inputs, self.expect):
            p.run(
                f"{name}.vertex_check", "vertex_check",
                lambda: cc.vertex_degrees_of_freedom(g, h, fixed),
                check=lambda dof: None if dof == 0 else f"{dof} degrees of freedom with the pins",
                describe=lambda dof: dof,
            )

            def round_trip():
                hc = cc.grid_to_honeycomb(g, h)
                return (hc, *cc.honeycomb_to_grid(hc))

            p.run(
                f"{name}.dualize", "dualize", round_trip,
                check=lambda r: round_trip_problem(g, h, r),
                describe=lambda r: ser.honeycomb_to_json(r[0]),
            )
            # The fractional-vertex roundings are attempted but untimed: they
            # count as operations, and a failed call's time says where it broke.
            p.run(
                f"{name}.integralize", "integralize" if timed else None,
                lambda: cc.integralize(g, h),
                check=lambda r: rounding_problem(cc, g, h, expect, r),
                describe=lambda r: describe_rounding(cc, r),
            )

    def metrics(self, t: Timings) -> dict:
        return {
            "integralize_s": t.total("integralize"),
            "vertex_check_s": t.total("vertex_check"),
            "dualize_s": t.total("dualize"),
        }


class Cli:
    """The command sequence of README's CLI section, in process, through
    files in a temporary directory; the only workload that parses and
    writes documents."""

    name = "cli"
    modules = ("cli",)
    layers = frozenset(TARGETS)

    def __init__(self, cc, seed: int, smoke: bool = False, workdir=None):
        self.cc, self.seed, self.workdir = cc, seed, workdir
        self.k, self.n = (2, 3) if smoke else (5, 4)

    def make_inputs(self):
        return {"k": self.k, "n": self.n, "seed": random.Random(self.seed).randrange(2**31)}

    def prepare(self, inputs) -> None:
        cc = self.cc
        self.fv = cc.fractional_vertex_instance(inputs["k"])
        self.fv_honeycomb = cc.grid_to_honeycomb(*self.fv[:2])
        g = cc.three_side_grid(inputs["n"])
        h = cc.random_concave(g, inputs["seed"])
        self.rc = (g, h, rounding_expectations(cc, g, h))

    def _command(self, argv):
        try:
            code = self.cc.cli.main(argv)
        except SystemExit as ex:  # argparse rejects its arguments this way
            code = ex.code
        if code != 0:
            raise CommandFailed(f"cocirc {argv[0]} exited with {code}")

    def run_pass(self, p: Pass, inputs) -> None:
        cc, ser = self.cc, self.cc.serialize
        k, n, seed = str(inputs["k"]), str(inputs["n"]), str(inputs["seed"])
        with tempfile.TemporaryDirectory(dir=self.workdir, prefix=".bench-cli-") as tmp:

            def path(name):
                return os.path.join(tmp, name)

            def text(*names):
                out = []
                for name in names:
                    with open(path(name), encoding="utf-8") as fh:
                        out.append(fh.read())
                return out

            def load(name):
                return ser.loads(text(name)[0])

            def command(label, argv, outputs, check):
                p.run(
                    label, "cli." + argv[0],
                    lambda: self._command(argv),
                    check=lambda _: check(),
                    describe=lambda _: dict(zip(outputs, text(*outputs))),
                )

            g, h, fixed = self.fv
            command(
                "gen fractional-vertex",
                ["gen", "--kind", "fractional-vertex", "--k", k, "--grid", path("g.json"),
                 "--out", path("c.json"), "--fixed", path("f.json")],
                ["g.json", "c.json", "f.json"],
                lambda: None if (
                    ser.grid_from_json(load("g.json")) == g
                    and ser.cocirc_from_json(load("c.json")) == h
                    and ser.edge_list_from_json(load("f.json")) == fixed
                ) else "generated instance differs from fractional_vertex_instance",
            )
            command(
                "validate",
                ["validate", "--grid", path("g.json"), "--in", path("c.json"), "--out", path("v.json")],
                ["v.json"],
                lambda: None if load("v.json").get("concave") is True else "not reported concave",
            )
            command(
                "dualize to honeycomb",
                ["dualize", "--to", "honeycomb", "--grid", path("g.json"), "--in", path("c.json"),
                 "--out", path("h.json")],
                ["h.json"],
                lambda: None if ser.honeycomb_from_json(load("h.json")) == self.fv_honeycomb
                else "honeycomb differs from grid_to_honeycomb",
            )
            command(
                "dualize to grid",
                ["dualize", "--to", "grid", "--in", path("h.json"), "--grid", path("g2.json"),
                 "--out", path("c2.json")],
                ["g2.json", "c2.json"],
                lambda: None if (
                    ser.grid_from_json(load("g2.json")), ser.cocirc_from_json(load("c2.json"))
                ) == translated(g, h) else "round trip changed the input",
            )
            command(
                "vertex-check",
                ["vertex-check", "--grid", path("g.json"), "--in", path("c.json"),
                 "--fixed", path("f.json"), "--out", path("vc.json")],
                ["vc.json"],
                lambda: None if load("vc.json") == {"vertex": True, "degrees_of_freedom": 0}
                else f"reported {load('vc.json')}",
            )
            command(
                "legal-path",
                ["legal-path", "--in", path("h.json"), "--out", path("p.json")],
                ["p.json"],
                lambda: None if load("p.json")["edges"] else "empty legal path",
            )

            def deform_check():
                moved = ser.honeycomb_from_json(load("h3.json"))  # raises SchemaError if invalid
                step = load("d.jsonl")
                if moved == self.fv_honeycomb:
                    return "deformation left the honeycomb unchanged"
                if not (ser.frac_from_any(step["eps"]) > 0 and step["kinds"]):
                    return f"no stopping event at a positive parameter: {step}"
                return None

            command(
                "deform left",
                ["deform", "--in", path("h.json"), "--direction", "left", "--out", path("h3.json"),
                 "--trace", path("d.jsonl")],
                ["h3.json", "d.jsonl"],
                deform_check,
            )
            rg, rh, expect = self.rc
            command(
                "gen random-concave",
                ["gen", "--kind", "random-concave", "--n", n, "--seed", seed,
                 "--grid", path("rg.json"), "--out", path("rc.json")],
                ["rg.json", "rc.json"],
                lambda: None if (
                    ser.grid_from_json(load("rg.json")) == rg and ser.cocirc_from_json(load("rc.json")) == rh
                ) else "generated instance differs from random_concave",
            )

            def integralize_check():
                out = ser.cocirc_from_json(load("ri.json"))
                trace = [self._trace_step(ser.loads(line)) for line in text("rt.jsonl")[0].splitlines()]
                return rounding_problem(cc, rg, rh, expect, (out, trace))

            command(
                "integralize",
                ["integralize", "--grid", path("rg.json"), "--in", path("rc.json"),
                 "--out", path("ri.json"), "--trace", path("rt.jsonl")],
                ["ri.json", "rt.jsonl"],
                integralize_check,
            )

    def _trace_step(self, row):
        cc = self.cc

        def pot(d):
            return cc.Potential(d["nonintegral_boundary"], d["nonintegral_excess"], d["integral_incident"])

        return cc.TraceStep(
            cc.serialize.frac_from_any(row["eps"]), tuple(row["kinds"]), row["cycle"],
            pot(row["before"]), pot(row["after"]),
        )

    def metrics(self, t: Timings) -> dict:
        return {"cli_s": t.total("cli.")}


WORKLOADS = {w.name: w for w in (Ladder, Paper, Cli)}
