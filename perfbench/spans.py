"""In-memory spans around the public functions of each layerfem module.

The package's modules import each other's functions by name
(`from .tridiag import solve`), so wrapping `layerfem.tridiag.solve`
alone would time nothing.  `Tracer.install` therefore replaces every
module attribute, in every loaded `layerfem` module and the package
itself, that *is* one of the wrapped functions, and `uninstall` puts the
originals back.

A span is a list [id, parent_id, op_id, layer, name, start, end, size,
error]; the spans of one op share op_id.  `size` is a per-function count
taken from the call (interior unknowns for tridiag.solve, records for
run_sweep) and `error` the name of the exception that left the span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# The package's modules; `errors` only defines exception types.
LAYERS = ("mesh", "assembly", "tridiag", "solver", "oracle", "experiments", "cli")

ID, PARENT, OP, LAYER, NAME, START, END, SIZE, ERROR = range(9)
BYTES_PER_FLOAT = 8

_SIZE_OF = {
    ("tridiag", "solve"): lambda args, result: args[0].n,
    ("experiments", "run_sweep"): lambda args, result: len(result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = _SIZE_OF.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.op_id, layer, name,
                    0.0, 0.0, 0, ""]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if size_of is not None:
                span[SIZE] = size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"layerfem.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(layer, name, obj)
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "layerfem" or n.startswith("layerfem.")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "op", "layer", "name", "start", "end", "size", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _noop() -> None:
    pass


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that wrapping adds to one call: a traced minus an untraced no-op.

    Each side is the fastest of `repeats` timings of `calls` calls, so
    that the host's slow phases do not enter the difference.
    """
    traced = Tracer()._wrap("trace", "noop", _noop)

    def fastest(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best / calls

    return fastest(traced) - fastest(_noop)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], ops: int, cli_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over `ops` traced ops, as {name: (value, unit)}.

    Times and counts are per op.  `cli_bytes` is the total size of the
    files the traced ops wrote.
    """
    own = self_times(spans)
    time_of: dict[tuple[str, str], float] = defaultdict(float)
    layer_time: dict[str, float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    layer_calls: dict[str, int] = defaultdict(int)
    size: dict[tuple[str, str], int] = defaultdict(int)
    singular = gate_checks = gate_rejects = 0
    for s, t in zip(spans, own):
        key = (s[LAYER], s[NAME])
        time_of[key] += t
        layer_time[s[LAYER]] += t
        calls[key] += 1
        layer_calls[s[LAYER]] += 1
        size[key] += s[SIZE]
        if key == ("tridiag", "solve") and s[ERROR] == "SingularSystemError":
            singular += 1
        parent_layer = spans[s[PARENT]][LAYER] if s[PARENT] >= 0 else None
        if key == ("tridiag", "matvec") and parent_layer == "solver":
            gate_checks += 1
        # a failed gate surfaces through the outermost solver span
        if s[LAYER] == "solver" and parent_layer != "solver" and s[ERROR] == "ResidualBoundError":
            gate_rejects += 1

    per_op = 1.0 / max(ops, 1)
    solve_s = time_of["tridiag", "solve"]
    unknowns = size["tridiag", "solve"]
    cli_s = layer_time["cli"]
    solve_bytes = BYTES_PER_FLOAT * (5 * unknowns - 2 * calls["tridiag", "solve"])
    return {
        "tridiag.solve_s": (solve_s * per_op, "s/op"),
        "tridiag.solve_calls": (calls["tridiag", "solve"] * per_op, "1/op"),
        "tridiag.unknowns": (unknowns * per_op, "1/op"),
        "tridiag.unknowns_per_s": (unknowns / solve_s if solve_s else 0.0, "1/s"),
        "tridiag.bytes_computed": (solve_bytes * per_op, "B/op"),
        "tridiag.singular": (singular * per_op, "1/op"),
        "solver.gate_s": (time_of["tridiag", "matvec"] * per_op, "s/op"),
        "solver.gate_rejects": (gate_rejects * per_op, "1/op"),
        "solver.gate_pass_ratio": (
            (gate_checks - gate_rejects) / gate_checks if gate_checks else 0.0, "ratio"),
        "solver.self_s": (layer_time["solver"] * per_op, "s/op"),
        "assembly.poisson_s": (time_of["assembly", "assemble_poisson"] * per_op, "s/op"),
        "assembly.cdr_s": (time_of["assembly", "assemble_cdr"] * per_op, "s/op"),
        "assembly.load_s": (time_of["assembly", "load_vector"] * per_op, "s/op"),
        "assembly.transfer_s": (
            time_of["assembly", "load_vector_from_solution"] * per_op, "s/op"),
        "assembly.calls": (layer_calls["assembly"] * per_op, "1/op"),
        "mesh.build_s": (layer_time["mesh"] * per_op, "s/op"),
        "mesh.calls": (layer_calls["mesh"] * per_op, "1/op"),
        "oracle.exact_u_s": (time_of["oracle", "exact_u"] * per_op, "s/op"),
        "oracle.calls": (layer_calls["oracle"] * per_op, "1/op"),
        "experiments.max_error_s": (time_of["experiments", "max_error"] * per_op, "s/op"),
        "experiments.sweep_self_s": (time_of["experiments", "run_sweep"] * per_op, "s/op"),
        "experiments.cells": (size["experiments", "run_sweep"] * per_op, "1/op"),
        "cli.self_s": (cli_s * per_op, "s/op"),
        "cli.bytes_out": (cli_bytes * per_op, "B/op"),
        "cli.bytes_per_s": (cli_bytes / cli_s if cli_s else 0.0, "B/s"),
    }
