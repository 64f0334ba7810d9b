"""tilekit benchmark: runs one workload and prints its metrics.

Run from the repository root; tilekit is imported from ``src/``:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 28 --trace 0

The run sets the workload up several times (imports included) and reports
the median as ``setup_s``.  It then repeats passes over the workload's fixed
operation list for ``--seconds``, starting no pass that would end after them
once one has run; every output of every pass is checked against an
independent result, outside the timed region.

Each timed operation starts from a collected heap, with what was alive
before its pass frozen (``gc.freeze``).  A full collection takes 20-80 ms
while a large solve is live; without the reset, which operation pays for one
depends on what ran before it, and the per-operation times jump by that much
from pass to pass and seed to seed.

Every time is scaled to a reference machine speed.  The speed of a shared
virtual machine drifts by up to a factor of two from minute to minute (a
fixed pure-Python loop takes 5 ms in one minute and 9 ms in the next).  So
the run also times ``reference_loop``, which uses no tilekit code, next to
what it measures, and scales each time to a machine where the loop takes
``REFERENCE_S``: each set-up repeat by the loop timed just before and just
after it (the best of three each time), and every pass by the median of all
the loop timings taken between operations in the run, about forty a pass.
Over seconds the loop tracks tilekit's speed only loosely, so the passes
share one scale; over minutes it tracks the drift.  The report line keeps
the unscaled end-to-end values and the loop timings.

``--trace 0`` prints the end-to-end metrics.  Each operation's latency is
its median over the passes; ``wall_s`` is one pass made of those medians,
``op_p50_ms`` and ``op_tail_ms`` are their median and tail, and
``peak_rss_mb`` is the process's peak resident memory.  ``--trace 1``
traces one extra set-up (the ``setup.*`` metrics), alternates untraced and
traced passes and prints the per-layer metrics of the traced ones, the
traced pass time and the tracing overhead; the spans go to
``perfbench/out/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
carry a header (Python, CPU, nproc, commit, seed, node budget, operation
count) and a report with the failure fraction and the solve outcomes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
REFERENCE_S = 0.005
REFERENCE_SAMPLES_PER_PASS = 40
MODULES = ("graphs", "thresholds", "solver", "constructions", "gadgets", "harness", "cli")


def import_tilekit() -> tuple[dict, SimpleNamespace]:
    """Import tilekit afresh (dropping any earlier import).

    Returns the modules by short name ("" for the package) and a namespace
    of the submodules, as the workloads take it.
    """
    for name in [m for m in sys.modules if m == "tilekit" or m.startswith("tilekit.")]:
        del sys.modules[name]
    modules = {"": importlib.import_module("tilekit")}
    for name in MODULES:
        modules[name] = importlib.import_module(f"tilekit.{name}")
    return modules, SimpleNamespace(**{k: v for k, v in modules.items() if k})


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples above.

    With fewer than 20 samples no percentile has ten beyond it; the maximum
    is reported then, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def reference_loop() -> float:
    """Seconds taken by a fixed loop of dict, tuple and integer work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = (i, acc)
        acc ^= (key << 3) | i
    return time.perf_counter() - t0


def reference_best() -> float:
    """The best of three reference-loop timings."""
    return min(reference_loop() for _ in range(3))


def per_op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes."""
    return [statistics.median(lat[i] for lat in passes) for i in range(len(passes[0]))]


def run_pass(ops, tracer):
    """One pass: per-op latency, problem (None when correct), solves, and the
    reference-loop timings taken between its operations."""
    clock = time.perf_counter
    stride = max(1, len(ops) // REFERENCE_SAMPLES_PER_PASS)
    repeats = -(-REFERENCE_SAMPLES_PER_PASS // len(ops))  # loops at each sample point
    latencies, problems, solves, references = [], [], [], []
    # what is alive before the pass (inputs, earlier spans) is not traversed
    # by the collections an operation triggers
    gc.collect()
    gc.freeze()
    for i, op in enumerate(ops):
        if i % stride == 0:
            references.extend(reference_loop() for _ in range(repeats))
        # every operation starts from an empty collector, so the collections
        # it pays for are those its own allocations trigger, the same in
        # every pass, and not those its predecessors left pending
        gc.collect()
        t0 = clock()
        try:
            raw = tracer.root(op.run) if tracer is not None else op.run()
            problem = None
        except Exception as exc:  # an uncaught exception fails the operation
            raw, problem = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        if problem is None:
            try:
                problem, solve = op.check(raw)
            except Exception as exc:  # malformed output fails the operation
                problem, solve = f"check raised {type(exc).__name__}: {exc}", None
            if solve is not None:
                solves.append(solve)
        problems.append(problem)
    return latencies, problems, solves, references


def scaled(metrics: dict, scale: float) -> dict:
    """Times multiplied by `scale`, rates divided by it, other metrics as given."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            value *= scale
        elif unit == "1/s":
            value /= scale
        out[name] = (value, unit)
    return out


def solve_outcomes(solves) -> dict[str, float]:
    """proven_frac, proven_n_max (ex3 solves only) and coverage_gap."""
    return {
        "proven_frac": sum(s.proven for s in solves) / len(solves) if solves else 0.0,
        "proven_n_max": max((s.n for s in solves if s.ex3 and s.proven), default=0),
        "coverage_gap": sum(s.optimum - s.covered for s in solves if s.optimum is not None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tilekit" / "__init__.py").is_file():
        print(f"perfbench: no tilekit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "tests"))  # the test suite's brute-force oracles
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workload, workdir, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_setup(workload, seed: int, workdir: Path, tracing, tracer) -> dict:
    """``setup.*`` metrics: one set-up with the imports timed and the rest traced."""
    before = reference_best()
    t0 = time.perf_counter()
    modules, tk = import_tilekit()
    import_s = time.perf_counter() - t0
    tracer.install(modules)
    try:
        tracer.root(lambda: workload.setup(tk, seed, workdir), tracing.SETUP_SPAN)
    finally:
        tracer.uninstall()
    metrics = tracing.setup_metrics(tracer.spans, 0, len(tracer.spans))
    metrics["setup.import_s"] = import_s
    scale = REFERENCE_S / ((before + reference_best()) / 2)
    return {name: (value * scale, "s") for name, value in metrics.items()}


def measure(args, workload, workdir: Path, tracing) -> int:
    clock = time.perf_counter
    tracer = tracing.Tracer() if args.trace else None
    setup_layers = traced_setup(workload, args.seed, workdir, tracing, tracer) if tracer else {}
    setup_spans = len(tracer.spans) if tracer else 0

    # each repeat is scaled by the reference loop timed on either side of it
    setup_raw, setup_scaled, setup_refs = [], [], [reference_best()]
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drops the previous repeat's modules outside the timing
        t0 = clock()
        modules, tk = import_tilekit()
        ops = workload.setup(tk, args.seed, workdir)
        setup_raw.append(clock() - t0)
        setup_refs.append(reference_best())
        setup_scaled.append(setup_raw[-1] * REFERENCE_S / ((setup_refs[-2] + setup_refs[-1]) / 2))
    if not str(Path(tk.solver.__file__).resolve()).startswith(str(ROOT / "src")):
        print(f"perfbench: imported tilekit from {tk.solver.__file__}", file=sys.stderr)
        return 2

    header = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "node_budget": workload.budget if workload.budget is not None
        else tk.solver.DEFAULT_BUDGET,
        "ops_per_pass": len(ops),
    }
    print("perfbench header " + json.dumps(header), flush=True)

    untraced, traced = [], []  # per pass: list of op latencies
    traced_bounds = []
    attempted = failed = 0
    failures: list[str] = []
    solves = []
    references: list[float] = []
    start, last_pass_s = clock(), 0.0
    while True:
        pass_start = clock()
        # no pass that would end after --seconds, once one of each kind has run
        ending = pass_start - start + last_pass_s > args.seconds
        if ending and untraced and (tracer is None or traced):
            break
        with_trace = tracer is not None and len(untraced) > len(traced)
        if with_trace:
            lo = len(tracer.spans)
            tracer.install(modules)
            try:
                latencies, problems, solves, refs = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced_bounds.append((lo, len(tracer.spans)))
            traced.append(latencies)
        else:
            latencies, problems, solves, refs = run_pass(ops, None)
            untraced.append(latencies)
        references.extend(refs)
        last_pass_s = clock() - pass_start
        for op, problem in zip(ops, problems):
            attempted += 1
            if problem is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{op.label}: {problem}")

    # one pass is composed of each operation's median over the passes, which
    # keeps a slow spell of the machine during one pass out of every op's time
    per_op = per_op_medians(untraced)
    tail_pct, tail_value = tail(per_op)
    raw = {
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
    }
    scale = REFERENCE_S / statistics.median(references)
    end_to_end = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        **scaled(raw, scale),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    outcomes = solve_outcomes(solves)
    report = {
        "failed_frac": failed / attempted,
        "unscaled": {"setup_s": statistics.median(setup_raw),
                     **{k: v for k, (v, _unit) in raw.items()}},
        "reference_loop_s": {"setup": statistics.median(setup_refs),
                             "passes": statistics.median(references)},
        "pass_walls_s": {"untraced": [sum(lat) * scale for lat in untraced],
                         "traced": [sum(lat) * scale for lat in traced]},
        "op_tail_pct": tail_pct,
        "op_samples": len(per_op),
        **outcomes,
        "end_to_end": {k: v for k, (v, _unit) in end_to_end.items()},
        "failures": failures,
    }

    if tracer is None:
        metrics = end_to_end
    else:
        per_pass = [tracing.layer_metrics(tracer.spans, lo, hi) for lo, hi in traced_bounds]
        metrics = {
            name: (statistics.median(p[name] for p in per_pass), tracing.unit_of(name))
            for name in per_pass[0]
        }
        for key, value in outcomes.items():
            name = f"solver.max_tiling.{key}"
            metrics[name] = (value, tracing.unit_of(name))
        metrics = scaled(metrics, scale)
        metrics.update(setup_layers)
        traced_wall = sum(per_op_medians(traced)) * scale
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - end_to_end["wall_s"][0], "s")
        report["trace_overhead_s"] = metrics["trace.overhead_s"][0]
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "setup": [0, setup_spans], "passes": traced_bounds,
                       "spans": tracer.spans}, fh)
        report["spans"] = str(spans_path.relative_to(ROOT))

    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6f} {unit}")
    print("perfbench report " + json.dumps(report), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
