"""Per-layer tracing of the ayrep CLI, installed from outside the program.

Run as a script, this starts one traced CLI invocation:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID -- verify --n 3 --json

It wraps the public functions of each ayrep module, calls
``ayrep.cli.main(argv)``, and writes the spans it kept in memory, with the
``lru_cache`` statistics read at the end, to SPANS.json.  The CLI's own
stdout and exit status pass through unchanged, so a traced invocation can be
checked against the same golden bytes as an untraced one.

A span is ``[name index, start, end, parent span index, work count]``; the
run id sits once at the top of the file and covers every span in it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("groups", "tableaux", "cells", "reps", "linalg", "induction", "tops", "verify", "cli")

# Functions whose calls and self time are reported by name.  Every other
# public function is wrapped too, so that its time lands in its own module.
REPORTED = {
    "groups": ("sym_group", "class_data_symmetric", "class_data_signed",
               "class_data_parabolic", "signed_reduced_word", "is_convex", "weak_interval"),
    "tableaux": ("enumerate_standard", "relabel", "skew_shape_family"),
    "cells": ("descent_cell", "descent_partition", "genericity_violation",
              "cell_tableau_bijection", "is_minimal_ay_cell"),
    "reps": ("build_from_functional", "build_orthogonal_skew", "character",
             "verify_coxeter", "verify_axiom_B", "mn_character"),
    "linalg": ("word_trace", "power_is_identity", "matmul"),
    "induction": ("induce", "classical_induced_character", "match_signed_forms", "shuffle_cell"),
    "tops": ("top_elements", "is_top_brute"),
}

# Work counts computed from a call's arguments and result, so that they do
# not depend on how the function is implemented.
WORK = {
    "cells.descent_cell": ("members", lambda args, result: result.size),
    "reps.build_from_functional": ("dim_sum", lambda args, result: result.dim),
    "reps.character": ("classes", lambda args, result: len(result.values)),
    "linalg.word_trace": ("steps", lambda args, result: args[1] * len(args[0])),
    "linalg.matmul": ("dim_sum", lambda args, result: result.dim),
    "induction.induce": ("dim_sum", lambda args, result: result.dim),
}

# Helpers called far more than 10^5 times in one run.  Wrapping them would
# dominate the trace; their time counts toward their caller.
HOT = frozenset({
    "groups.left_descents_in",
    "groups.pair",
    "groups.reflection",
    "groups.conjugated_reflection",
})


class Tracer:
    """Keeps the spans of one run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        traced.traced_name = name
        return traced


def ayrep_modules() -> dict:
    """Every loaded ayrep module, after importing the traced layers."""
    for short in MODULES:
        importlib.import_module(f"ayrep.{short}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "ayrep" or name.startswith("ayrep.")}


def find_caches(modules: dict) -> dict:
    """Every lru_cache held by an ayrep module, keyed by module.function."""
    caches = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)):
                key = f"{obj.__module__.removeprefix('ayrep.')}.{obj.__qualname__}"
                caches[key] = obj
    return caches


def _targets(modules: dict) -> dict:
    """Public module-level functions of the traced layers, by span name."""
    targets = {}
    for short in MODULES:
        mod = modules[f"ayrep.{short}"]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if attr.startswith("_") or name in HOT:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                targets[name] = obj
            elif callable(getattr(obj, "cache_info", None)):
                targets[name] = obj
    return targets


def install(tracer: Tracer) -> list:
    """Wrap the traced functions everywhere ayrep holds them.

    Modules import functions by name, so each wrapper is rebound in every
    ayrep module namespace, and in module-level dicts such as the suite
    table, that holds the original.  ``SquareMatrix.__mul__`` is patched on
    the class.  Returns the REPORTED names that were not found.
    """
    modules = ayrep_modules()
    wrappers = {}
    for name, fn in _targets(modules).items():
        work = WORK.get(name, (None, None))[1]
        wrappers[id(fn)] = tracer.wrap(name, fn, work)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]
    matrix = modules["ayrep.linalg"].SquareMatrix
    matrix.__mul__ = tracer.wrap("linalg.matmul", matrix.__mul__, WORK["linalg.matmul"][1])
    traced = {w.traced_name for w in wrappers.values()} | {"linalg.matmul"}
    return [f"{mod}.{fn}" for mod, fns in REPORTED.items() for fn in fns
            if f"{mod}.{fn}" not in traced]


def cache_stats(caches: dict) -> dict:
    stats = {}
    for key, fn in caches.items():
        info = fn.cache_info()
        stats[key] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    return stats


def aggregate(trace: dict) -> dict:
    """Per-name calls, inclusive and self seconds, and summed work counts.

    A span's self time is its duration minus the time its child spans cover;
    spans of one run are strictly nested, so that is the sum of the
    children's durations.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for k, (index, start, end, _, work) in enumerate(spans):
        row = totals.setdefault(trace["names"][index],
                                {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["inclusive_s"] += end - start
        row["self_s"] += end - start - child[k]
        row["work"] += work or 0
    return totals


def main(argv: list) -> int:
    out_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- CLI-ARGS...")
    tracer = Tracer(run_id)
    modules = ayrep_modules()
    caches = find_caches(modules)
    missing = install(tracer)
    for name in missing:
        print(f"tracer: {name} not found; reported as 0", file=sys.stderr)
    suites = {name: f"verify.{fn.__name__}"
              for name, fn in modules["ayrep.verify"].SUITES.items()}
    status = modules["ayrep.cli"].main(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"run_id": tracer.run_id, "names": tracer.names, "spans": tracer.spans,
                   "caches": cache_stats(caches), "suites": suites}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
