"""Benchmark of the cocirc package: one workload per process.

    python3 benchmarks/run.py --workload {ladder,paper,cli} --seed N --seconds S --trace {0,1}

Builds its inputs from ``--seed``, imports ``cocirc`` from the ``src``
directory next to this one, and runs passes over the workload for as
long as the next pass would still end within ``--seconds`` (at least
three passes).  It checks every output and prints two JSON lines: the
run record (per-workload metrics, failures, determinism digest,
calibration and, for ``ladder``, the per-instance table), then the
result, with the end-to-end metrics under ``--trace 0`` and the
per-layer metrics under ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, Pass, Timings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3

# name -> unit; the gated metrics of an untraced run, on every workload.
END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the metrics of a traced run, on every workload (zero where
# the workload does not reach the layer).
PER_LAYER = {
    "honeycomb.canonicalize.calls": "count",
    "honeycomb.canonicalize.self_s": "s",
    "honeycomb.canonicalize.lines_in": "count",
    "honeycomb.canonicalize.vertices_out": "count",
    "honeycomb.nonintegral_sets.self_s": "s",
    "deform.deform.calls": "count",
    "deform.deform.self_s": "s",
    "deform.stop_epsilon.self_s": "s",
    "deform.stop_epsilon.canonicalize_calls": "count",
    "deform.build_deformed_system.self_s": "s",
    "deform.build_deformed_system.lines_out": "count",
    "deform.decompose.self_s": "s",
    "paths.find_legal_path.calls": "count",
    "paths.find_legal_path.self_s": "s",
    "paths.find_legal_path.path_edges": "count",
    "paths.find_legal_path.cycles": "count",
    "paths.check_legal_path.self_s": "s",
    "integralize.steps": "count",
    "integralize.steps_per_edge": "1",
    "integralize.events.boundary_integral": "count",
    "integralize.events.opposite_sign_merge": "count",
    "integralize.events.integral_vertex_hit": "count",
    "integralize.events.line_vanished": "count",
    "integralize.events.validity_bound": "count",
    "integralize.potential.calls": "count",
    "integralize.potential.self_s": "s",
    "duality.grid_to_honeycomb.self_s": "s",
    "duality.honeycomb_to_grid.self_s": "s",
    "grid.is_concave.calls": "count",
    "grid.is_concave.self_s": "s",
    "grid.tiling_of.self_s": "s",
    "grid.validate_grid.self_s": "s",
    "extremality.vertex_degrees_of_freedom.self_s": "s",
    "extremality.eliminate.self_s": "s",
    "extremality.eliminate.rows": "count",
    "constructions.fractional_vertex_instance.self_s": "s",
    "constructions.hexagon_instance.self_s": "s",
    "serialize.loads.self_s": "s",
    "serialize.dumps.self_s": "s",
    "serialize.grid_from_json.self_s": "s",
    "serialize.cocirc_from_json.self_s": "s",
    "serialize.honeycomb_from_json.self_s": "s",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "cli.gen.s": "s",
    "cli.validate.s": "s",
    "cli.dualize.s": "s",
    "cli.vertex-check.s": "s",
    "cli.legal-path.s": "s",
    "cli.deform.s": "s",
    "cli.integralize.s": "s",
    "trace.overhead": "1",
}

# The record's per-workload metrics (median over passes), with units.
WORKLOAD_UNITS = {
    "integralize_s": "s",
    "integralize_max_s": "s",
    "scaling_exponent": "1",
    "vertex_check_s": "s",
    "dualize_s": "s",
    "cli_s": "s",
    "failed_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import(modules):
    """Import ``cocirc`` (and ``cocirc.<m>`` for each of ``modules``) anew."""
    for key in [k for k in sys.modules if k == "cocirc" or k.startswith("cocirc.")]:
        del sys.modules[key]
    cc = importlib.import_module("cocirc")
    for name in ("serialize", *modules):
        importlib.import_module("cocirc." + name)
    return cc


def calibration_s() -> float:
    """Seconds for a fixed pure-Fraction loop; tells a slow machine from a
    slow program.  Context only: nothing is normalised by it."""
    t0 = perf_counter()
    acc = 0
    for i in range(1, 20001):
        acc += (Fraction(i, 97) * Fraction(5, 7) - Fraction(i % 13, 11)).denominator
    return perf_counter() - t0


def scaling_exponent(table) -> float | None:
    """Least-squares slope of log(median seconds per step) against log |E|."""
    per_size: dict[int, list[float]] = {}
    for row in table:
        if row["s_per_step"] is not None:
            per_size.setdefault(row["edges"], []).append(row["s_per_step"])
    if len(per_size) < 2:
        return None
    xs = [math.log(e) for e in per_size]
    ys = [math.log(median(v)) for v in per_size.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(w, inputs, seconds):
    passes, start, last = [], perf_counter(), 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + last <= seconds:
        gc.collect()
        t0 = perf_counter()
        p = Pass(w.cc, keep=not passes)
        w.run_pass(p, inputs)
        passes.append(p)
        last = perf_counter() - t0
    return passes


def run_traced(w, seconds):
    """Alternate untraced and traced repetitions of input generation plus
    one pass; returns (untraced, traced) lists of (seconds, Pass, stats)."""
    tracer = Tracer()
    reps = {False: [], True: []}
    start = perf_counter()
    while True:
        traced = len(reps[True]) < len(reps[False])
        if reps[True] and perf_counter() - start + reps[traced][-1][0] > seconds:
            break
        p = Pass(w.cc, tracer if traced else None, keep=not reps[False])
        gc.collect()
        if traced:
            tracer.reset()
            with tracer:
                t0 = perf_counter()
                with tracer.recording():
                    inputs = w.make_inputs()
                w.run_pass(p, inputs)
                dt = perf_counter() - t0
            missing = w.layers - tracer.fired
            if missing:
                raise SystemExit(f"traced run: wrappers never fired: {sorted(missing)}")
            reps[True].append((dt, p, dict(tracer.stats)))
        else:
            t0 = perf_counter()
            w.run_pass(p, w.make_inputs())
            reps[False].append((perf_counter() - t0, p, None))
    return reps[False], reps[True]


def layer_metrics(untraced, traced):
    out = {}
    cli = Timings([p for _, p, _ in untraced])
    for name, unit in PER_LAYER.items():
        if name.startswith("cli."):
            # Timed from outside the call, so taken from the untraced passes.
            value = cli.total(name.removesuffix(".s"))
        elif name == "integralize.steps_per_edge":
            value = median([
                s["integralize.steps"] / s["integralize.edges"] if s.get("integralize.edges") else 0.0
                for _, _, s in traced
            ])
        elif name == "trace.overhead":
            value = median([dt for dt, _, _ in traced]) / median([dt for dt, _, _ in untraced])
        else:
            value = median([s.get(name, 0.0) for _, _, s in traced])
        out[name] = metric(int(value) if unit in ("count", "bytes") else value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "cocirc" / "__init__.py").is_file():
        print(f"cocirc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    calibration = [calibration_s()]
    W = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cc = fresh_import(W.modules)
        w = W(cc, args.seed, smoke=args.smoke, workdir=ROOT)
        inputs = w.make_inputs()
        setups.append(perf_counter() - t0)
    if not Path(cc.__file__).resolve().is_relative_to(SRC):
        print(f"imported cocirc from {cc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w.prepare(inputs)

    if args.trace:
        untraced, traced = run_traced(w, args.seconds)
        timed = [p for _, p, _ in untraced]
        passes = timed + [p for _, p, _ in traced]
    else:
        timed = passes = run_untraced(w, inputs, args.seconds)
    calibration.append(calibration_s())

    first, t = passes[0], Timings(timed)
    digests = {p.digest for p in passes}
    wrong = [x for p in passes for x in p.wrong]
    record_metrics = w.metrics(t)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "digest": first.digest, "digests_agree": len(digests) == 1,
        "attempted": first.attempted, "failed": first.failed,
        "errors": first.errors, "wrong": wrong, "calibration_s": calibration,
    }
    if args.workload == "ladder":
        record["table"] = w.table(first, t, inputs)
        record_metrics["scaling_exponent"] = scaling_exponent(record["table"])
    record_metrics["failed_ratio"] = first.failed / first.attempted
    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        values = {
            "pass_s": t.total(),
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: metric(v, END_TO_END[k]) for k, v in values.items()}
        record_metrics.update(setup_s=values["setup_s"], peak_rss_mb=values["peak_rss_mb"])
    record["metrics"] = {k: metric(v, WORKLOAD_UNITS[k]) for k, v in record_metrics.items()}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not wrong and len(digests) == 1,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
