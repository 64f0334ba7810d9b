"""Command line front end.

Subcommands: thresholds, construct, solve, gadgets, verify, sweep,
plotdata.  Exit codes carry the verdict: 0 all checks passed, 1 any
failure or rejected input (a ValueError, an input file that cannot be
read, which is an OSError, or a usage error, which argparse reports with
its usage line), 2 any inconclusive result (an exhausted solver budget is
inconclusive, never a pass or a silent fail), 3 an internal error (any
other exception), so that no crash reads as a "fail" verdict.  Both
errors print one ``error: ...`` line to stderr.  A closed output pipe
(``tilekit sweep --json | head``) is not an error: the verb stops, prints
nothing more, and exits 141, which is 128 + SIGPIPE, what a shell reports
for a writer killed by a closed pipe.  Each verb takes only the shared
options it reads: ``--json`` all but gadgets (always JSON) and plotdata
(always CSV), ``--budget`` solve, verify and sweep, ``--seed`` sweep.

Hosts and patterns are given either as files (edge list or graph6) or as
names in the small pattern grammar (K_t, K_{a,b,...}, C_k, bottle(r,s,w)).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .constructions import (
    build_h1,
    build_hstar,
    extremal_one,
    extremal_three,
    extremal_two,
    lemma62_perfect_tiling,
)
from .gadgets import (
    GreedyFailure,
    find_expanding_set,
    find_swapping_set,
    greedy_kr,
)
from .graphs import (
    Embedding,
    Graph,
    PartitionedGraph,
    Tiling,
    VertexOrdering,
    bottle_graph,
    emit_edge_list,
    is_valid_tiling,
    parse_graph,
)
from .harness import (
    emit_boundline_plot_data,
    hajnal_szemeredi_suite,
    pattern_by_name,
    read_params,
    require_keys,
    run_figure2,
    solver_oracle_sweep,
    verify_extremal_suite,
)
from .solver import DEFAULT_BUDGET, max_tiling
from .thresholds import (
    chromatic_data,
    format_rational,
    general_line,
    komlos_line,
    parse_rational,
    x_line,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def _load_graph(spec: str) -> Graph:
    """File path first, pattern name second."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return pattern_by_name(spec)


def _load_json_arg(text: str):
    """Inline JSON, or @file to read it from disk."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _int_rows(what: str, value, pairs: bool = False) -> list[tuple[int, ...]]:
    """A JSON list of integer lists as tuples, or a ValueError naming `what`."""
    if not isinstance(value, list):
        raise ValueError(f"{what}: not a list: {value!r}")
    for row in value:
        if not (isinstance(row, list) and all(type(v) is int for v in row)):
            raise ValueError(f"{what}: not a list of integers: {row!r}")
        if pairs and len(row) != 2:
            raise ValueError(f"{what}: not a vertex pair: {row!r}")
    return [tuple(row) for row in value]


def _load_tiling(path: str) -> Tiling:
    """Tiling JSON: {"pattern": {n, edges, classes}, "embeddings": [[...]]}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    require_keys(data, ("pattern", "embeddings"), "tiling")
    pat = data["pattern"]
    require_keys(pat, ("n", "edges", "classes"), "tiling pattern")
    if type(pat["n"]) is not int:
        raise ValueError(f"tiling pattern 'n': not an integer: {pat['n']!r}")
    edges = _int_rows("tiling pattern 'edges'", pat["edges"], pairs=True)
    classes = tuple(_int_rows("tiling pattern 'classes'", pat["classes"]))
    images = _int_rows("tiling 'embeddings'", data["embeddings"])
    g = Graph(pat["n"], edges)
    PartitionedGraph(g, classes)  # raises unless the classes partition [n]
    return Tiling(tuple(Embedding(g, img, classes) for img in images))


def _line_payload(line) -> dict:
    return {
        "intercept": format_rational(line.intercept),
        "slope": format_rational(line.slope),
        "cutoff": format_rational(line.cutoff),
        "slack": format_rational(line.slack),
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_thresholds(args) -> int:
    if args.figure2:
        table = run_figure2()
        if args.json:
            _emit(table.to_dict())
        else:
            print(f"{'pattern':<10} {'start':>6} {'end':>6} {'slope':>6}  match")
            for row in table.rows:
                print(
                    f"{row.name:<10} {str(row.start):>6} {str(row.end):>6} "
                    f"{str(row.slope):>6}  {row.matches}"
                )
        return EXIT_PASS if table.all_match else EXIT_FAIL
    if not args.pattern:
        raise ValueError("thresholds needs --pattern (or --figure2)")
    pattern = _load_graph(args.pattern)
    params = chromatic_data(pattern)
    if args.x is not None:
        line = x_line(params, parse_rational(args.x))
    elif args.sigma_prime is not None:
        line = general_line(pattern, parse_rational(args.sigma_prime))
    else:
        line = komlos_line(params, eta=parse_rational(args.eta))
    _emit(
        {
            "h": params.h,
            "r": params.r,
            "sigma": format_rational(params.sigma),
            "omega": format_rational(params.omega),
            "chi_cr": format_rational(params.chi_cr),
            "line": _line_payload(line),
        }
    )
    return EXIT_PASS


def _construct_ex1(params: dict):
    inst = extremal_one(**params)
    sidecar = {
        "family": "ex1",
        "classes": [list(c) for c in inst.host.classes],
        "A": list(inst.A),
        "C": list(inst.C),
    }
    return inst.host.graph, sidecar


def _construct_ex2(params: dict):
    inst = extremal_two(**params)
    sidecar = {
        "family": "ex2",
        "classes": [list(c) for c in inst.host.classes],
        "v_prime": list(inst.v_prime),
    }
    return inst.host.graph, sidecar


def _construct_ex3(params: dict):
    host = extremal_three(**params)
    sidecar = {"family": "ex3", "classes": [list(c) for c in host.classes]}
    return host.graph, sidecar


def _construct_hstar(params: dict):
    result = build_hstar(**params)
    sidecar = {
        "family": "hstar",
        "classes": [list(c) for c in result.hstar.classes],
        "tiling": [list(e.image) for e in result.tiling.embeddings],
        "direct_count": result.direct_count,
        "companion_count": result.companion_count,
    }
    return result.hstar.graph, sidecar


def _construct_h1(params: dict):
    result = build_h1(**params)
    sidecar = {
        "family": "h1",
        "classes": [list(c) for c in result.h1.classes],
        "tiling": [list(e.image) for e in result.tiling.embeddings],
    }
    return result.h1.graph, sidecar


def _construct_lemma62(params: dict):
    B = bottle_graph(params["r"], params["sigma"], params["omega"])
    result = lemma62_perfect_tiling(params["target"], B, params["m"])
    sidecar = {
        "family": "lemma62",
        "target": params["target"],
        "classes": [list(c) for c in result.host.classes],
        "tiling": [list(e.image) for e in result.tiling.embeddings],
        "copy_counts": dict(result.copy_counts),
    }
    return result.host.graph, sidecar


_CONSTRUCTORS = {
    "ex1": _construct_ex1,
    "ex2": _construct_ex2,
    "ex3": _construct_ex3,
    "hstar": _construct_hstar,
    "h1": _construct_h1,
    "lemma62": _construct_lemma62,
}


def cmd_construct(args) -> int:
    params = read_params(args.family, _load_json_arg(args.params))
    graph, sidecar = _CONSTRUCTORS[args.family](params)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(emit_edge_list(graph))
    sidecar_path = args.out + ".json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    if args.json:
        _emit({"out": args.out, "sidecar": sidecar_path, **sidecar})
    else:
        print(f"wrote {graph.n}-vertex host to {args.out} (+ {sidecar_path})")
    return EXIT_PASS


def cmd_solve(args) -> int:
    host = _load_graph(args.host)
    patterns = [_load_graph(p) for p in args.pattern]
    result = max_tiling(host, patterns, budget=args.budget)
    payload = {
        "covered_count": result.covered_count,
        "deficit": host.n - result.covered_count,
        "optimality": result.optimality,
        "nodes": result.nodes,
        "embeddings": [list(e.image) for e in result.tiling.embeddings],
    }
    if result.reason:
        payload["reason"] = result.reason
    if args.json:
        _emit(payload)
    else:
        print(
            f"covered {result.covered_count}/{host.n} "
            f"({len(result.tiling)} copies, {result.optimality})"
        )
    return EXIT_PASS if result.proven_optimal else EXIT_INCONCLUSIVE


def cmd_gadgets(args) -> int:
    host = _load_graph(args.host)
    if args.find == "kr":
        outcome = greedy_kr(
            host, args.r, args.sigma, args.omega, parse_rational(args.eta)
        )
        if isinstance(outcome, GreedyFailure):
            _emit(
                {
                    "found": False,
                    "step": outcome.step,
                    "neighborhood_size": outcome.neighborhood_size,
                }
            )
            return EXIT_FAIL
        _emit({"found": True, "clique": list(outcome.image)})
        return EXIT_PASS

    if not args.tiling:
        raise ValueError(f"--find {args.find} needs --tiling")
    tiling = _load_tiling(args.tiling)
    valid = is_valid_tiling(host, tiling)
    if not valid:
        raise ValueError(f"tiling is not in the host: {valid.violation}")
    if args.find == "expand":
        found = find_expanding_set(host, tiling, args.size)
        if found is None:
            _emit({"found": False, "size": args.size})
            return EXIT_FAIL
        _emit(
            {
                "found": True,
                "vertices": list(found.vertices),
                "assignment": [list(e.image) for e in found.assignment],
            }
        )
        return EXIT_PASS
    # swap
    found = find_swapping_set(
        host, tiling, VertexOrdering.by_degree(host), args.offset, args.size, m=args.m
    )
    if found is None:
        _emit({"found": False, "size": args.size, "offset": args.offset})
        return EXIT_FAIL
    _emit(
        {
            "found": True,
            "offset": found.offset,
            "pairs": [list(p) for p in found.pairs],
            "ordering": list(found.ordering.order),
        }
    )
    return EXIT_PASS


_DEFAULT_GRIDS = {
    "ex1": [{"r": 2, "sigma": 1, "omega": 2, "n": 15, "eta": "1/15", "k": 2}],
    "ex2": [{"pattern": "C5", "n": 40, "eta": "1/20"}],
    "ex3": [{"pattern": "K3", "n": 18, "x": "1/3", "eta": "1/18"}],
}


def _print_report(report, as_json: bool) -> int:
    if as_json:
        _emit(report.to_dict())
    else:
        print(f"{report.experiment}: {report.verdict}")
        for rec in report.records:
            print(f"  {rec.label}: {rec.verdict}")
    return _VERDICT_EXIT[report.verdict]


def cmd_verify(args) -> int:
    grid = _load_json_arg(args.grid) if args.grid else _DEFAULT_GRIDS[args.family]
    report = verify_extremal_suite(args.family, grid, budget=args.budget)
    return _print_report(report, args.json)


def cmd_sweep(args) -> int:
    if args.suite == "solver-oracle":
        report = solver_oracle_sweep(
            args.count, seed=args.seed, max_n=args.max_n, budget=args.budget
        )
    else:
        report = hajnal_szemeredi_suite(args.count, seed=args.seed, budget=args.budget)
    return _print_report(report, args.json)


def cmd_plotdata(args) -> int:
    pattern = _load_graph(args.pattern)
    params = chromatic_data(pattern)
    lines = [komlos_line(params, eta=parse_rational(args.eta))]
    labels = None
    if args.x:
        lines.extend(x_line(params, parse_rational(x)) for x in args.x)
        labels = ["komlos"] + [f"x={x}" for x in args.x]
    text = emit_boundline_plot_data(lines, args.n, labels)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # options shared by several verbs, each given only to the verbs that read it
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    budget_opt = argparse.ArgumentParser(add_help=False)
    budget_opt.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="solver node budget"
    )

    parser = argparse.ArgumentParser(
        prog="tilekit", description="graph tiling workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "thresholds", parents=[json_opt], help="degree-bound lines per pattern"
    )
    p.add_argument("--pattern", help="pattern file or name")
    p.add_argument("--eta", default="0", help="additive slack coefficient")
    p.add_argument("--x", help="proportional coverage x = a/b (uses the x-line)")
    p.add_argument("--sigma-prime", help="relaxed neck parameter (general line)")
    p.add_argument(
        "--figure2", action="store_true", help="print the reference table"
    )
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser(
        "construct", parents=[json_opt], help="build extremal hosts and tilings"
    )
    p.add_argument("--family", required=True, choices=sorted(_CONSTRUCTORS))
    p.add_argument("--params", required=True, help="JSON parameters (or @file)")
    p.add_argument("--out", required=True, help="edge-list output path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "solve", parents=[json_opt, budget_opt], help="maximum mixed tiling"
    )
    p.add_argument("--host", required=True, help="host graph file or name")
    p.add_argument(
        "--pattern", required=True, action="append", help="pattern file or name"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gadgets", help="structural gadget finders")
    p.add_argument("--find", required=True, choices=["expand", "swap", "kr"])
    p.add_argument("--host", required=True, help="host graph file or name")
    p.add_argument("--tiling", help="tiling JSON file (expand/swap)")
    p.add_argument("--size", type=int, default=1, help="requested set size")
    p.add_argument("--offset", type=int, default=1, help="swap index offset k")
    p.add_argument("--m", type=int, default=1, help="blow-up factor of the pattern")
    p.add_argument("--r", type=int, default=3, help="clique order (kr)")
    p.add_argument("--sigma", type=int, default=1, help="neck size (kr)")
    p.add_argument("--omega", type=int, default=1, help="width size (kr)")
    p.add_argument("--eta", default="1/10", help="degree slack (kr)")
    p.set_defaults(func=cmd_gadgets)

    p = sub.add_parser(
        "verify",
        parents=[json_opt, budget_opt],
        help="extremal family verification suite",
    )
    p.add_argument("--family", required=True, choices=["ex1", "ex2", "ex3"])
    p.add_argument("--grid", help="JSON list of parameter points (or @file)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sweep",
        parents=[json_opt, budget_opt],
        help="seeded verification sweeps",
    )
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument(
        "--suite",
        default="solver-oracle",
        choices=["solver-oracle", "hajnal-szemeredi"],
    )
    p.add_argument("--count", type=int, default=20, help="number of instances")
    p.add_argument("--max-n", type=int, default=14, help="largest host order")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plotdata", help="bound-line CSV data")
    p.add_argument("--pattern", required=True, help="pattern file or name")
    p.add_argument("--n", type=int, required=True, help="host order")
    p.add_argument("--eta", default="0", help="additive slack coefficient")
    p.add_argument(
        "--x", action="append", help="overlay an x-line (repeatable)"
    )
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error; its code 2
        # for the latter would read as an inconclusive verdict
        return EXIT_PASS if not exc.code else EXIT_FAIL
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to os.devnull so
        # that the flush at exit cannot raise again; 141 = 128 + SIGPIPE
        sys.stdout = open(os.devnull, "w")
        return 141
    except (ValueError, OSError) as exc:
        # OSError: an input file that cannot be read (missing, a directory)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
