"""Per-layer spans recorded from outside the package.

Each wrapper goes around one public function of a ``cocirc`` module and
is bound in place of the original in every ``cocirc`` namespace that
holds it (``from .honeycomb import canonicalize`` copies the name into
``deform``, ``duality``, ``serialize`` and ``constructions``).  Spans
nest through a stack, so a layer's self time is its span minus the
spans of the traced calls it made.  Nothing is recorded while
``Tracer.active`` is false, which keeps the benchmark's own output checks
out of the counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

def _canonicalize(stats, args, result, parent):
    stats["honeycomb.canonicalize.lines_in"] += len(args[0])
    stats["honeycomb.canonicalize.vertices_out"] += len(result.vertices)
    if parent == "deform.stop_epsilon":
        # A honeycomb canonicalized in the middle of an interval only to
        # test an event; the deformation itself is canonicalized in deform.
        stats["deform.stop_epsilon.canonicalize_calls"] += 1


def _build_deformed_system(stats, args, result, parent):
    stats["deform.build_deformed_system.lines_out"] += len(result.lines)


def _find_legal_path(stats, args, result, parent):
    stats["paths.find_legal_path.path_edges"] += len(result.edges)
    stats["paths.find_legal_path.cycles"] += int(result.is_cycle)


def _eliminate(stats, args, result, parent):
    stats["extremality.eliminate.rows"] += len(args[0])


def _integralize(stats, args, result, parent):
    g, _ = args
    _, trace = result
    stats["integralize.steps"] += len(trace)
    stats["integralize.edges"] += len(g.edges)
    for step in trace:
        for kind in step.kinds:
            stats["integralize.events." + kind] += 1


def _loads(stats, args, result, parent):
    stats["serialize.bytes_in"] += len(args[0].encode())


def _dumps(stats, args, result, parent):
    stats["serialize.bytes_out"] += len(result.encode())


# "<module>.<function>" of every traced function, with the hook that
# records its counts from the call's arguments and result.
TARGETS = {
    "honeycomb.canonicalize": _canonicalize,
    "honeycomb.nonintegral_sets": None,
    "deform.deform": None,
    "deform.stop_epsilon": None,
    "deform.build_deformed_system": _build_deformed_system,
    "deform.decompose": None,
    "paths.find_legal_path": _find_legal_path,
    "paths.check_legal_path": None,
    "integralize.integralize": _integralize,
    "integralize.potential": None,
    "duality.grid_to_honeycomb": None,
    "duality.honeycomb_to_grid": None,
    "grid.is_concave": None,
    "grid.tiling_of": None,
    "grid.validate_grid": None,
    "extremality.vertex_degrees_of_freedom": None,
    "extremality.eliminate": _eliminate,
    "constructions.fractional_vertex_instance": None,
    "constructions.hexagon_instance": None,
    "serialize.loads": _loads,
    "serialize.dumps": _dumps,
    "serialize.grid_from_json": None,
    "serialize.cocirc_from_json": None,
    "serialize.honeycomb_from_json": None,
}


class Tracer:
    """Wrappers around ``TARGETS``; use as a context manager to bind them."""

    def __init__(self):
        self.active = False
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.fired: set[str] = set()
        self._stack: list[list] = []  # [name, seconds spent in traced children]
        self._bound: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def reset(self) -> None:
        self.stats.clear()
        self.fired.clear()

    def _wrap(self, name: str, fn, hook):
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dt - frame[1]
                self.fired.add(name)
            if hook is not None:
                hook(stats, args, result, parent[0] if parent else None)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "cocirc" or key.startswith("cocirc.")
        ]
        for name, hook in TARGETS.items():
            mod, fn_name = name.split(".")
            orig = getattr(importlib.import_module(f"cocirc.{mod}"), fn_name)
            wrapper = self._wrap(name, orig, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._bound.append((m, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, orig in reversed(self._bound):
            setattr(m, attr, orig)
        self._bound.clear()
