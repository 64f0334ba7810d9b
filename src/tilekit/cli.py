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
(always CSV), ``--budget`` solve, verify and sweep, ``--seed`` sweep; an
option that the chosen mode would ignore (``thresholds --figure2`` with a
pattern or line option, ``sweep --max-n`` outside the solver-oracle suite,
``gadgets --tiling`` with ``--find kr``) is a usage error.

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
    check_expanding_set,
    check_swapping_set,
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
    edge_list_lines,
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
        eta = "0" if args.eta is None else args.eta  # no slack unless given
        line = komlos_line(params, eta=parse_rational(eta))
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


def _images(embeddings: Sequence[Embedding]) -> list[list[int]]:
    return [list(e.image) for e in embeddings]


def _construct(family: str, params: dict) -> tuple[PartitionedGraph, dict]:
    """The family's host and the sidecar fields that follow its classes."""
    if family == "ex1":
        inst = extremal_one(**params)
        return inst.host, {"A": list(inst.A), "C": list(inst.C)}
    if family == "ex2":
        inst = extremal_two(**params)
        return inst.host, {"v_prime": list(inst.v_prime)}
    if family == "ex3":
        return extremal_three(**params), {}
    if family == "hstar":
        result = build_hstar(**params)
        return result.hstar, {
            "tiling": _images(result.tiling.embeddings),
            "direct_count": result.direct_count,
            "companion_count": result.companion_count,
        }
    if family == "h1":
        result = build_h1(**params)
        return result.h1, {"tiling": _images(result.tiling.embeddings)}
    B = bottle_graph(params["r"], params["sigma"], params["omega"])
    result = lemma62_perfect_tiling(params["target"], B, params["m"])
    return result.host, {
        "tiling": _images(result.tiling.embeddings),
        "copy_counts": dict(result.copy_counts),
    }


def cmd_construct(args) -> int:
    params = read_params(args.family, _load_json_arg(args.params))
    host, fields = _construct(args.family, params)
    target = {"target": params["target"]} if "target" in params else {}
    sidecar = {
        "family": args.family, **target, "classes": [list(c) for c in host.classes], **fields
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(edge_list_lines(host.graph))
    sidecar_path = args.out + ".json"
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    if args.json:
        _emit({"out": args.out, "sidecar": sidecar_path, **sidecar})
    else:
        print(f"wrote {host.graph.n}-vertex host to {args.out} (+ {sidecar_path})")
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
        "embeddings": _images(result.tiling.embeddings),
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


# the options each gadgets mode reads, with their defaults
_GADGET_OPTIONS = {
    "kr": {"r": 3, "sigma": 1, "omega": 1, "eta": "1/10"},
    "expand": {"tiling": None, "size": 1},
    "swap": {"tiling": None, "size": 1, "offset": 1, "m": 1},
}


def cmd_gadgets(args) -> int:
    for name, default in _GADGET_OPTIONS[args.find].items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    host = _load_graph(args.host)
    if args.find == "kr":
        outcome = greedy_kr(host, args.r, args.sigma, args.omega, parse_rational(args.eta))
        if isinstance(outcome, GreedyFailure):
            step, size = outcome.step, outcome.neighborhood_size
            payload = {"found": False, "step": step, "neighborhood_size": size}
        else:
            payload = {"found": True, "clique": list(outcome.image)}
    else:
        if not args.tiling:
            raise ValueError(f"--find {args.find} needs --tiling")
        tiling = _load_tiling(args.tiling)
        valid = is_valid_tiling(host, tiling)
        if not valid:
            raise ValueError(f"tiling is not in the host: {valid.violation}")
        if args.find == "expand":
            found = find_expanding_set(host, tiling, args.size)
            payload = {"found": False, "size": args.size}
            if found is not None:
                payload = {
                    "found": True,
                    "vertices": list(found.vertices),
                    "assignment": _images(found.assignment),
                }
        else:
            ordering = VertexOrdering.by_degree(host)
            found = find_swapping_set(host, tiling, ordering, args.offset, args.size, m=args.m)
            payload = {"found": False, "size": args.size, "offset": args.offset}
            if found is not None:
                payload = {
                    "found": True,
                    "offset": found.offset,
                    "pairs": [list(p) for p in found.pairs],
                    "ordering": list(found.ordering.order),
                }
        if found is not None:
            # the finder's set passes the independent checker before it is printed
            check = check_expanding_set if args.find == "expand" else check_swapping_set
            report = check(host, tiling, found)
            if not report:
                raise AssertionError(
                    f"{type(found).__name__} fails its check: {report.violation}"
                )
    _emit(payload)
    return EXIT_PASS if payload["found"] else EXIT_FAIL


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
        max_n = 14 if args.max_n is None else args.max_n
        report = solver_oracle_sweep(
            args.count, seed=args.seed, max_n=max_n, budget=args.budget
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

def _budget(text: str) -> int:
    """--budget's type: a node count, at least 0."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {budget}")
    return budget


def build_parser() -> argparse.ArgumentParser:
    # options shared by several verbs, each given only to the verbs that read it
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable output")
    budget_opt = argparse.ArgumentParser(add_help=False)
    budget_opt.add_argument(
        "--budget", type=_budget, default=DEFAULT_BUDGET, help="solver node budget"
    )

    parser = argparse.ArgumentParser(
        prog="tilekit", description="graph tiling workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "thresholds", parents=[json_opt], help="degree-bound lines per pattern"
    )
    p.add_argument("--pattern", help="pattern file or name")
    line = p.add_mutually_exclusive_group()
    line.add_argument("--eta", help="additive slack coefficient (default 0)")
    line.add_argument("--x", help="proportional coverage x = a/b (uses the x-line)")
    line.add_argument("--sigma-prime", help="relaxed neck parameter (general line)")
    p.add_argument(
        "--figure2", action="store_true", help="print the reference table"
    )
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser(
        "construct", parents=[json_opt], help="build extremal hosts and tilings"
    )
    p.add_argument(
        "--family", required=True, choices=["ex1", "ex2", "ex3", "h1", "hstar", "lemma62"]
    )
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
    # defaults of None, so that an option the mode does not read is seen
    p.add_argument("--tiling", help="tiling JSON file (expand/swap)")
    p.add_argument("--size", type=int, help="requested set size (expand/swap, default 1)")
    p.add_argument("--offset", type=int, help="swap index offset k (swap, default 1)")
    p.add_argument("--m", type=int, help="blow-up factor of the pattern (swap, default 1)")
    p.add_argument("--r", type=int, help="clique order (kr, default 3)")
    p.add_argument("--sigma", type=int, help="neck size (kr, default 1)")
    p.add_argument("--omega", type=int, help="width size (kr, default 1)")
    p.add_argument("--eta", help="degree slack (kr, default 1/10)")
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
    p.add_argument(
        "--max-n", type=int, help="largest host order (solver-oracle only, default 14)"
    )
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

    for verb in sub.choices.values():
        verb.set_defaults(parser=verb)
    return parser


def _unread_option(args) -> Optional[str]:
    """The usage error for an option that the chosen mode would not read."""
    if args.command == "thresholds" and args.figure2:
        for name in ("pattern", "eta", "x", "sigma_prime"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                return f"argument --figure2: not allowed with argument {flag}"
    if args.command == "sweep" and args.suite != "solver-oracle" and args.max_n is not None:
        return f"argument --max-n: not allowed with argument --suite {args.suite}"
    if args.command == "gadgets":
        for name in ("tiling", "size", "offset", "m", "r", "sigma", "omega", "eta"):
            if name not in _GADGET_OPTIONS[args.find] and getattr(args, name) is not None:
                return f"argument --{name}: not allowed with argument --find {args.find}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        unread = _unread_option(args)
        if unread:
            args.parser.error(unread)
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
