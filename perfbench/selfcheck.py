"""Self-check of the benchmark itself.

Run from the repository root (takes a few minutes):

    python3 perfbench/selfcheck.py

For every workload of BENCHMARK.json it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json, with
  its unit, and no other;
* a traced run prints every per-layer metric, with its unit, and no other;
* the counts (nodes, copies, states, proven_n_max, coverage_gap, ...) repeat
  exactly between two traced runs with ``SEED``;
* a traced run with the held-out ``HELD_OUT_SEED`` completes with every
  output correct;

and that layer_map.json covers every per-layer metric and names only known
workloads and metrics.  Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import fnmatch
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
HELD_OUT_SEED = 2
# per-layer metrics that are exact counts of work or outcomes
COUNT_SUFFIXES = (".calls", ".copies", ".subsets", ".nodes", ".states",
                  ".budget_hits", ".proven_frac", ".proven_n_max", ".coverage_gap",
                  ".shortcut_frac", ".found_frac", ".yield")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_problems(result: dict, declared: list[dict], what: str) -> list[str]:
    problems = []
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            problems.append(f"{what}: {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{what}: {m['name']} in {got[m['name']]['unit']}, declared {m['unit']}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{what}: undeclared metrics {sorted(extra)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{what}: {result['failed']} of {result['attempted']} operations failed")
    return problems


def layer_map_problems(bench: dict) -> list[str]:
    mapping = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["map"]
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]} | {m["name"] for m in bench["per_layer"]}
    problems = []
    for m in bench["per_layer"]:
        if not any(fnmatch.fnmatchcase(m["name"], key) for key in mapping):
            problems.append(f"layer_map.json: no entry for {m['name']}")
    for key, targets in mapping.items():
        for target in targets:
            workload, _, metric = target.partition(":")
            if workload not in workloads or metric not in metrics:
                problems.append(f"layer_map.json: {key} -> unknown {target}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = layer_map_problems(bench)
    counts = [m["name"] for m in bench["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
    for name in [w["name"] for w in bench["workloads"]]:
        problems += metric_problems(run(name, SEED, 0), bench["end_to_end"], f"{name} untraced")
        first = run(name, SEED, 1)
        second = run(name, SEED, 1)
        problems += metric_problems(first, bench["per_layer"], f"{name} traced")
        for metric in counts:
            a = first["metrics"].get(metric, {}).get("value")
            b = second["metrics"].get(metric, {}).get("value")
            if a != b:
                problems.append(f"{name}: {metric} = {a} then {b} with seed {SEED}")
        problems += metric_problems(run(name, HELD_OUT_SEED, 1), bench["per_layer"],
                                    f"{name} seed {HELD_OUT_SEED}")
        print(f"{name}: checked", flush=True)

    for p in problems:
        print(f"problem: {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
