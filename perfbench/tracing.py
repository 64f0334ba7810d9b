"""Span tracing of tilekit's public functions, installed from outside.

The package is not edited.  :meth:`Tracer.install` replaces each traced
function under every module attribute that refers to it (``harness.max_tiling``,
``cli.max_tiling``, ``solver.enumerate_copies``, ``gadgets.enumerate_copies``,
...), because callers look functions up in their own module's globals at call
time.  Each call records a span ``[name, start, end, parent, note]`` in
memory; ``note`` holds counts read off the call's arguments and result at the
boundary.  :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import time
from math import comb
from typing import Callable

# module -> public functions that get a span, by the layer names used in the
# per-layer metrics
TRACED = {
    "solver": ("enumerate_copies", "max_tiling", "max_tiling_oracle"),
    "thresholds": (
        "chromatic_data",
        "chromatic_number",
        "smallest_color_class",
        "check_degree_sequence",
    ),
    "gadgets": ("epsilon_regular_check", "find_expanding_set", "find_swapping_set"),
    "constructions": ("extremal_two", "extremal_three", "lemma62_perfect_tiling"),
    "graphs": ("is_valid_tiling", "parse_graph"),
    "harness": ("verify_extremal_suite",),
    "cli": ("main",),
}

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"
# layers whose work in a workload's set-up shows in setup_s
SETUP_LAYERS = ("constructions.extremal_two", "constructions.lemma62_perfect_tiling")


def _note_enumerate(args, kwargs, result) -> dict:
    host, pattern = args[0], args[1]
    cap = kwargs.get("cap", args[2] if len(args) > 2 else None)
    within = kwargs.get("within")
    h = pattern.graph.n if hasattr(pattern, "graph") else pattern.n
    pool = len(set(within)) if within is not None else host.n
    copies = len(result.copies)
    if cap is not None:
        # a capped call stops at its first hits, so the subsets it walked
        # are not known from outside
        return {"copies": copies, "subsets": 0, "uncapped_copies": 0}
    return {"copies": copies, "subsets": comb(pool, h), "uncapped_copies": copies}


def _note_max_tiling(args, kwargs, result) -> dict:
    return {
        "nodes": result.nodes,
        "budget_hit": "node-budget-hit" in (result.reason or ""),
    }


def _note_oracle(args, kwargs, result) -> dict:
    # the oracle reports its memo size as `nodes`
    return {"states": result.nodes}


def _note_found(args, kwargs, result) -> dict:
    return {"found": result is not None}


NOTES: dict[str, Callable] = {
    "solver.enumerate_copies": _note_enumerate,
    "solver.max_tiling": _note_max_tiling,
    "solver.max_tiling_oracle": _note_oracle,
    "gadgets.find_expanding_set": _note_found,
    "gadgets.find_swapping_set": _note_found,
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules: dict) -> None:
        """Patch every attribute of `modules` that refers to a traced function.

        `modules` maps short names ("solver", "cli", ...; "" for the package
        itself) to the imported module objects.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, Callable]] = {}
        for modname, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[modname], fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{modname}.{fname}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def root(self, fn: Callable[[], object], name: str = OP_SPAN) -> object:
        """Run `fn` (one benchmark operation by default) under a root span."""
        return self._wrap(name, fn)()


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced pass).

    busy_s sums a layer's spans that have no ancestor of the same name; self
    time is a span's duration minus the part its child spans cover.
    """
    child_time: dict[int, float] = {}
    children: dict[int, list[int]] = {}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i][2] - spans[i][1]
            children.setdefault(parent, []).append(i)

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    sums: dict[str, float] = {}
    for i in range(lo, hi):
        name, start, end, parent, note = spans[i]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + dur
        if note:
            for key, value in note.items():
                k = f"{name}.{key}"
                sums[k] = sums.get(k, 0) + value
        if name == "thresholds.chromatic_data":
            # the multipartite short-cut answers without a colouring search
            kids = children.get(i, ())
            if not any(spans[c][0] == "thresholds.chromatic_number" for c in kids):
                sums["thresholds.chromatic_data.shortcut"] = (
                    sums.get("thresholds.chromatic_data.shortcut", 0) + 1
                )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    ec = "solver.enumerate_copies"
    m[f"{ec}.calls"] = calls.get(ec, 0)
    m[f"{ec}.busy_s"] = busy.get(ec, 0.0)
    m[f"{ec}.copies"] = sums.get(f"{ec}.copies", 0)
    m[f"{ec}.subsets"] = sums.get(f"{ec}.subsets", 0)
    m[f"{ec}.yield"] = ratio(sums.get(f"{ec}.uncapped_copies", 0), m[f"{ec}.subsets"])

    mt = "solver.max_tiling"
    m[f"{mt}.calls"] = calls.get(mt, 0)
    m[f"{mt}.busy_s"] = busy.get(mt, 0.0)
    m[f"{mt}.search_s"] = self_s.get(mt, 0.0)
    m[f"{mt}.nodes"] = sums.get(f"{mt}.nodes", 0)
    m[f"{mt}.nodes_per_s"] = ratio(m[f"{mt}.nodes"], m[f"{mt}.search_s"])
    m[f"{mt}.budget_hits"] = sums.get(f"{mt}.budget_hit", 0)

    mo = "solver.max_tiling_oracle"
    m[f"{mo}.calls"] = calls.get(mo, 0)
    m[f"{mo}.busy_s"] = busy.get(mo, 0.0)
    m[f"{mo}.states"] = sums.get(f"{mo}.states", 0)

    for fname in TRACED["thresholds"]:
        m[f"thresholds.{fname}.busy_s"] = busy.get(f"thresholds.{fname}", 0.0)
    m["thresholds.chromatic_data.shortcut_frac"] = ratio(
        sums.get("thresholds.chromatic_data.shortcut", 0),
        calls.get("thresholds.chromatic_data", 0),
    )

    for fname in TRACED["gadgets"]:
        g = f"gadgets.{fname}"
        m[f"{g}.calls"] = calls.get(g, 0)
        m[f"{g}.busy_s"] = busy.get(g, 0.0)
        if fname.startswith("find_"):
            m[f"{g}.found_frac"] = ratio(sums.get(f"{g}.found", 0), calls.get(g, 0))

    for modname in ("constructions", "graphs", "harness"):
        for fname in TRACED[modname]:
            m[f"{modname}.{fname}.busy_s"] = busy.get(f"{modname}.{fname}", 0.0)
    m["cli.main.calls"] = calls.get("cli.main", 0)
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)

    op_time = busy.get(OP_SPAN, 0.0)
    layer_self = sum(v for k, v in self_s.items() if k != OP_SPAN)
    m["trace.accounted_frac"] = ratio(layer_self, op_time)
    return {k: float(v) for k, v in m.items()}


def setup_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """``setup.<layer>.busy_s`` and ``setup.inputs_s`` of one traced set-up.

    ``setup.inputs_s`` is the ``SETUP_SPAN`` time: input generation and
    host-file writing, without the imports.
    """
    busy = layer_metrics(spans, lo, hi)
    m = {f"setup.{layer}.busy_s": busy[f"{layer}.busy_s"] for layer in SETUP_LAYERS}
    m["setup.inputs_s"] = sum(spans[i][2] - spans[i][1] for i in range(lo, hi)
                              if spans[i][0] == SETUP_SPAN)
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "nodes_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last in ("proven_n_max", "coverage_gap"):
        return "vertices"
    if last.endswith("_frac") or last == "yield":
        return "ratio"
    return "count"
