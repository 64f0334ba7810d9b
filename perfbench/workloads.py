"""The four benchmark workloads.

``WORKLOADS[name].setup(tk, seed, workdir)`` builds the workload's seeded
inputs (writing host files into `workdir` where the operation reads them) and
returns its fixed operation list.  `tk` holds the tilekit modules; operations
look functions up through it at call time, so the tracer's patches apply.

An operation's ``run`` calls into tilekit and is timed.  It includes the
package's own validators (``is_valid_tiling``, ``check_*_set``) on what it
produced.  Its ``check`` is untimed and compares the result with an
independent one: oracles.py, and for the matching finders the brute-force
oracles of the test suite (``tests/_oracles.py``).  It returns the problem
found (None when the output is right) and, for a solve, a ``Solve`` record.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles
from _oracles import expanding_set_exists, swapping_set_exists

EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


@dataclass(frozen=True)
class Solve:
    """One maximum-tiling solve: host order, outcome and the known optimum."""

    n: int
    proven: bool
    covered: int
    optimum: Optional[int]
    ex3: bool = False


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[Optional[str], Optional[Solve]]]


@dataclass(frozen=True)
class Workload:
    name: str
    budget: Optional[int]  # node budget of its solves; None: the package default
    setup: Callable[[object, int, Path], list[Op]]


def run_cli(tk, argv: list[str]) -> tuple[object, str, str]:
    """`tilekit <argv>` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tk.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _images(tiling) -> list[tuple[int, ...]]:
    return [emb.image for emb in tiling.embeddings]


def _copy_images(catalog) -> list[tuple[int, ...]]:
    return [emb.image for emb in catalog.copies]


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------

SWEEP_PATTERNS = ("K2", "K3", "K_{1,2}", "C5")


def _oracle_op(tk, label: str, host, pattern) -> Op:
    def run():
        got = tk.solver.max_tiling(host, [pattern])
        want = tk.solver.max_tiling_oracle(host, [pattern])
        return (
            got,
            want,
            tk.graphs.is_valid_tiling(host, got.tiling),
            tk.graphs.is_valid_tiling(host, want.tiling),
        )

    def check(raw):
        got, want, got_ok, want_ok = raw
        solve = Solve(host.n, got.proven_optimal, got.covered_count, want.covered_count)
        for who, res, ok in (("solver", got, got_ok), ("oracle", want, want_ok)):
            if not ok:
                return f"{who} tiling rejected: {ok.violation}", solve
            bad = oracles.tiling_problem(host, pattern, _images(res.tiling))
            if bad:
                return f"{who} tiling: {bad}", solve
        if got.covered_count != want.covered_count:
            return f"solver covers {got.covered_count}, oracle {want.covered_count}", solve
        return None, solve

    return Op(label, run, check)


def setup_oracle_sweep(tk, seed: int, workdir: Path) -> list[Op]:
    """200 hosts as `sweep --suite solver-oracle` draws them, stratified.

    Every (n, pattern) pair with n in 5..14 appears once per edge-probability
    fifth of [0.3, 0.8), so the mix of host orders is the same for every
    seed and only the graphs change.
    """
    rng = random.Random(f"oracle-sweep/{seed}")
    patterns = [(name, tk.harness.pattern_by_name(name)) for name in SWEEP_PATTERNS]
    ops = []
    for stratum in range(5):
        for n in range(5, 15):
            for name, pattern in patterns:
                p = 0.3 + 0.1 * (stratum + rng.random())
                host = tk.harness.random_host(n, rng.randrange(2**32), p)
                ops.append(_oracle_op(tk, f"{name}/n{n}/p{p:.3f}", host, pattern))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# structured-bnb
# ---------------------------------------------------------------------------

STRUCTURED_BUDGET = 2_000
EX3_ORDERS = (18, 27, 36, 45, 54)
# (bottle shape (r, sigma, omega), Lemma 6.2 target); B* equals B at m = 1
LEMMA62_SOLVES = (
    ((2, 1, 2), "B"),
    ((2, 1, 2), "B'"),
    ((2, 1, 2), "Kr"),
    ((2, 2, 3), "B'"),
    ((2, 2, 3), "Kr"),
    ((3, 1, 2), "B"),
    ((3, 1, 2), "B'"),
    ((3, 1, 2), "Kr"),
    ((2, 1, 3), "B'"),
    ((2, 1, 3), "Kr"),
)


def _ex3_op(tk, n: int, budget: int) -> Op:
    point = {"pattern": "K3", "n": n, "x": "1/3", "eta": f"1/{n}"}
    argv = ["verify", "--family", "ex3", "--grid", json.dumps([point]),
            "--budget", str(budget), "--json"]
    # classes n/9 - 1, 4n/9 + 1, 4n/9: every triangle takes one vertex of the
    # smallest class, and the larger two never run out
    optimum = 3 * (n // 9 - 1)
    bound = Fraction(n, 3) - 1  # (x - eta) n

    def run():
        code, out, err = run_cli(tk, argv)
        return code, json.loads(out) if out.strip() else None, err

    def check(raw):
        code, report, err = raw
        if report is None:
            return f"verify exited {code} without a report: {err.strip()}", None
        rec = report["records"][0]
        d = rec["details"]
        proven = d["optimality"] == "proven-optimal"
        solve = Solve(n, proven, d["covered"], optimum, ex3=True)
        if d["covered"] > optimum or d["covered"] % 3:
            return f"covers {d['covered']}, optimum is {optimum}", solve
        if proven and d["covered"] != optimum:
            return f"proves {d['covered']}, optimum is {optimum}", solve
        if Fraction(d["proportional_bound"]) != bound:
            return f"bound {d['proportional_bound']}, expected {bound}", solve
        # optimum < bound, so the only right verdicts are pass and inconclusive
        want = "pass" if proven else "inconclusive"
        if rec["verdict"] != want or report["verdict"] != want:
            return f"verdict {rec['verdict']}, expected {want}", solve
        if code != EXIT[want]:
            return f"exit code {code} for verdict {want}", solve
        return None, solve

    return Op(f"verify-ex3-n{n}", run, check)


def _lemma62_solve_op(tk, label: str, path: Path, host, pattern, name: str,
                      budget: int, planted_problem: Optional[str]) -> Op:
    argv = ["solve", "--host", str(path), "--pattern", name,
            "--budget", str(budget), "--json"]

    def run():
        code, out, err = run_cli(tk, argv)
        payload = json.loads(out) if out.strip() else None
        valid = None
        if payload is not None:
            tiling = tk.graphs.Tiling(tuple(
                tk.graphs.Embedding(pattern, tuple(img)) for img in payload["embeddings"]
            ))
            valid = tk.graphs.is_valid_tiling(host, tiling)
        return code, payload, valid, err

    def check(raw):
        code, payload, valid, err = raw
        if payload is None:
            return f"solve exited {code} without output: {err.strip()}", None
        covered = payload["covered_count"]
        proven = payload["optimality"] == "proven-optimal"
        # the planted tiling is perfect, so the optimum is every vertex
        solve = Solve(host.n, proven, covered, host.n)
        if planted_problem:
            return f"planted tiling: {planted_problem}", solve
        if code != (EXIT["pass"] if proven else EXIT["inconclusive"]):
            return f"exit code {code} for {payload['optimality']}", solve
        if not valid:
            return f"tiling rejected: {valid.violation}", solve
        bad = oracles.tiling_problem(host, pattern, payload["embeddings"])
        if bad:
            return f"tiling: {bad}", solve
        if covered != pattern.n * len(payload["embeddings"]):
            return f"covered_count {covered} disagrees with the embeddings", solve
        if payload["deficit"] != host.n - covered:
            return f"deficit {payload['deficit']} != {host.n - covered}", solve
        if proven and covered != host.n:
            return f"proves {covered} of {host.n}, a perfect tiling exists", solve
        return None, solve

    return Op(label, run, check)


def setup_structured_bnb(tk, seed: int, workdir: Path) -> list[Op]:
    """ex3 bottleneck points through `verify`; Lemma 6.2 targets through `solve`.

    The hosts are fixed constructions, so the seed does not change this
    workload; the Lemma 6.2 hosts are written as edge lists at setup.
    """
    budget = STRUCTURED_BUDGET
    ops = [_ex3_op(tk, n, budget) for n in EX3_ORDERS]
    for (r, s, w), target in LEMMA62_SOLVES:
        bottle = tk.graphs.bottle_graph(r, s, w)
        built = tk.constructions.lemma62_perfect_tiling(target, bottle, 1)
        host = built.host.graph
        planted = _images(built.tiling)
        planted_problem = oracles.tiling_problem(host, bottle.graph, planted)
        if planted_problem is None and sum(map(len, planted)) != host.n:
            planted_problem = f"covers {sum(map(len, planted))} of {host.n}"
        tag = target.replace("'", "prime")
        path = workdir / f"lemma62-{r}{s}{w}-{tag}.txt"
        path.write_text(tk.graphs.emit_edge_list(host), encoding="utf-8")
        ops.append(_lemma62_solve_op(
            tk, f"solve-B({r},{s},{w})-{target}-n{host.n}", path, host, bottle.graph,
            f"bottle({r},{s},{w})", budget, planted_problem,
        ))
    return ops


# ---------------------------------------------------------------------------
# dense-catalogue
# ---------------------------------------------------------------------------

def _listing_op(tk, label: str, host, pattern) -> Op:
    def run():
        return tk.solver.enumerate_copies(host, pattern)

    def check(cat):
        if cat.truncated:
            return "uncapped listing reports truncation", None
        return oracles.catalogue_problem(host, pattern, _copy_images(cat)), None

    return Op(label, run, check)


def _dense_tiling_op(tk, label: str, host, pattern) -> Op:
    optimum: list[int] = []  # worked out by the first check, outside the timing

    def run():
        res = tk.solver.max_tiling(host, [pattern])
        return res, tk.graphs.is_valid_tiling(host, res.tiling)

    def check(raw):
        res, ok = raw
        if not optimum:
            optimum.append(oracles.max_cover(host, pattern))
        best = optimum[0]
        covered = res.covered_count
        solve = Solve(host.n, res.proven_optimal, covered, best)
        if not ok:
            return f"tiling rejected: {ok.violation}", solve
        bad = oracles.tiling_problem(host, pattern, _images(res.tiling))
        if bad:
            return bad, solve
        if covered != pattern.n * len(res.tiling.embeddings):
            return f"covered_count {covered} disagrees with the embeddings", solve
        if covered > best or (res.proven_optimal and covered != best):
            return f"covers {covered} (proven: {res.proven_optimal}), optimum is {best}", solve
        return None, solve

    return Op(label, run, check)


def _ex2_op(tk, name: str, pattern, n: int, eta: str) -> Op:
    """`verify --family ex2`: does any copy of the pattern meet V'?

    A vertex of V' sees one class of the 3-partite host, an independent set.
    A copy through it needs a pattern vertex with an independent
    neighbourhood: every vertex of C5 has one (verdict fail, with a witness;
    the README explains why that is the honest answer), no vertex of
    K_{1,2,2} does (verdict pass).
    """
    inst = tk.constructions.extremal_two(pattern, n, Fraction(eta))
    host = inst.host.graph
    v_prime = list(inst.v_prime)
    want = "fail" if oracles.has_independent_neighbourhood(pattern) else "pass"
    argv = ["verify", "--family", "ex2", "--grid",
            json.dumps([{"pattern": name, "n": n, "eta": eta}]), "--json"]

    def run():
        code, out, err = run_cli(tk, argv)
        return code, json.loads(out) if out.strip() else None, err

    def check(raw):
        code, report, err = raw
        if report is None:
            return f"verify exited {code} without a report: {err.strip()}", None
        rec = report["records"][0]
        d = rec["details"]
        if rec["verdict"] != want or code != EXIT[want]:
            return f"verdict {rec['verdict']} (exit {code}), expected {want}", None
        if d["v_prime"] != v_prime:
            return f"V' {d['v_prime']}, expected {v_prime}", None
        if want == "pass":
            if d["copies_meeting_v_prime"] != 0 or "witness_copy" in d:
                return "pass verdict with copies meeting V'", None
            return None, None
        witness = d.get("witness_copy")
        if witness is None:
            return "fail verdict without a witness copy", None
        bad = oracles.copy_problem(host, pattern, witness)
        if bad:
            return f"witness: {bad}", None
        if not set(witness) & set(v_prime):
            return "witness misses V'", None
        return None, None

    return Op(f"verify-ex2-{name}-n{n}", run, check)


def half_dense_host(tk, n: int, rng: random.Random):
    """Uniform random graph with exactly half of the n(n-1)/2 possible edges.

    G(n, M) rather than G(n, 1/2): the copy counts grow like the fifth power
    of the edge density, so fixing the edge count keeps the work per seed
    steady while the graph itself still changes with the seed.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return tk.graphs.Graph(n, rng.sample(pairs, len(pairs) // 2))


def setup_dense_catalogue(tk, seed: int, workdir: Path) -> list[Op]:
    """Full listings on G(n, M = n(n-1)/4), max_tiling, first-hit/no-hit queries.

    Four hosts at n = 20 and one at n = 30: the 16 operations put the median
    among the n = 20 queries rather than between two unlike slow ones, and
    stay below the 20 at which op_tail_ms would be a percentile instead of
    the slowest operation.
    """
    rng = random.Random(f"dense-catalogue/{seed}")
    c5 = tk.harness.pattern_by_name("C5")
    k122 = tk.harness.pattern_by_name("K_{1,2,2}")
    ops = []
    for i in range(4):
        host = half_dense_host(tk, 20, rng)
        ops.append(_listing_op(tk, f"list-C5-n20-{i}", host, c5))
        ops.append(_listing_op(tk, f"list-K122-n20-{i}", host, k122))
        ops.append(_dense_tiling_op(tk, f"max_tiling-C5-n20-{i}", host, c5))
    host = half_dense_host(tk, 30, rng)
    ops.append(_listing_op(tk, "list-C5-n30", host, c5))
    ops.append(_listing_op(tk, "list-K122-n30", host, k122))
    ops.append(_ex2_op(tk, "C5", c5, 40, "1/20"))
    ops.append(_ex2_op(tk, "K_{1,2,2}", k122, 40, "1/20"))
    return ops


# ---------------------------------------------------------------------------
# theory-gadgets
# ---------------------------------------------------------------------------

CORPUS_SIZE = 150
GENERATED = 20
LEMMA62_SHAPES = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3), (4, 1, 2), (3, 1, 3), (3, 2, 3))
LEMMA62_TARGETS = ("B", "B*", "B'", "Kr")
# epsilon-regularity pairs (kind, epsilon).  Random pairs use epsilons far
# from where their verdict flips (irregular at 1/5 and 1/4 with an early
# witness, regular at 1/2 after a full walk), so the work per seed is steady.
REGULARITY_CASES = (
    [("complete", Fraction(1, k)) for k in (5, 4, 3, 2)]
    + [("halves", Fraction(1, k)) for k in (5, 4, 3, 2)]
    + [("empty", Fraction(1, 3))]
    + [(f"p{p}", Fraction(1, k)) for p in ("0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8")
       for k in (5, 4, 2)]
)
FINDER_INSTANCES = 40


def _chromatic_op(tk, label: str, g) -> Op:
    def run():
        d = tk.thresholds.chromatic_data(g)
        return (
            d,
            tk.thresholds.komlos_line(d),
            tk.thresholds.x_line(d, Fraction(1, 2)),
            tk.thresholds.general_line(g, Fraction(d.h, d.r)),
        )

    def check(raw):
        d, kl, xl, gl = raw
        r, sigma = oracles.colouring_data(g)
        if (d.h, d.r, d.sigma) != (g.n, r, sigma):
            return f"(h, r, sigma) = {(d.h, d.r, d.sigma)}, expected {(g.n, r, sigma)}", None
        h = g.n
        omega = Fraction(h - sigma, r - 1)
        chi_cr = (r - 1) * Fraction(h) / (h - sigma)
        if (d.omega, d.chi_cr) != (omega, chi_cr):
            return "omega or chi_cr off", None
        if (kl.intercept, kl.slope, kl.cutoff) != (1 - (omega + sigma) / h, sigma / omega, omega / h):
            return "Komlos line coefficients off", None
        if kl.value_at_cutoff != 1 - 1 / chi_cr:
            return "Komlos line misses 1 - 1/chi_cr at its cutoff", None
        x = Fraction(1, 2)
        gx = x * (1 - 1 / chi_cr) + (1 - x) * (1 - Fraction(1, r - 1))
        if xl.value_at_cutoff != gx:
            return "x-line misses g(x) at its cutoff", None
        if (gl.slope, gl.cutoff) != (1, Fraction(1, r)):
            return "general line at sigma' = h/r is not slope 1, cutoff 1/r", None
        return None, None

    return Op(label, run, check)


def _generate_op(tk, label: str, line, n: int, seed: int) -> Op:
    def run():
        g = tk.harness.generate_satisfying_instance(line, n, seed)
        return g, tk.thresholds.check_degree_sequence(g, line)

    def check(raw):
        g, verdict = raw
        if g.n != n:
            return f"host has {g.n} vertices, asked for {n}", None
        if not verdict:
            return f"check_degree_sequence fails at index {verdict.index}", None
        return oracles.degree_line_problem(
            g, line.intercept, line.slope, line.cutoff, line.slack
        ), None

    return Op(label, run, check)


def _lemma62_build_op(tk, shape, target: str, m: int) -> Op:
    r, sigma, omega = shape
    b = sigma + (r - 1) * omega
    t = (omega - sigma) * b
    want_n = {
        "B": b * m * t,
        "B*": b * m * m * t,
        "B'": (sigma + (r - 1) * (omega - 1)) * m * t,
        "Kr": r * m * t,
    }[target]
    bottle = tk.graphs.bottle_graph(r, sigma, omega)

    def run():
        res = tk.constructions.lemma62_perfect_tiling(target, bottle, m)
        return res, tk.graphs.is_valid_tiling(res.host.graph, res.tiling)

    def check(raw):
        res, ok = raw
        host = res.host.graph
        if host.n != want_n:
            return f"host has {host.n} vertices, expected {want_n}", None
        if not ok:
            return f"tiling rejected: {ok.violation}", None
        images = _images(res.tiling)
        pattern = tk.graphs.bottle_graph(r, sigma * m, omega * m).graph
        bad = oracles.tiling_problem(host, pattern, images)
        if bad:
            return bad, None
        if sum(map(len, images)) != host.n:
            return f"tiling covers {sum(map(len, images))} of {host.n}", None
        return None, None

    return Op(f"lemma62-B({r},{sigma},{omega})-{target}-m{m}", run, check)


def _extremal_two_op(tk, name: str, pattern, n: int, eta: Fraction) -> Op:
    r, sigma = oracles.colouring_data(pattern)
    h = pattern.n
    omega = Fraction(h - sigma, r - 1)
    dip_degree = (1 - (omega + sigma) / h) * n
    floor_degree = (1 - omega / h) * n
    dip = int(eta * n) + 1

    def run():
        return tk.constructions.extremal_two(pattern, n, eta)

    def check(inst):
        g = inst.host.graph
        if list(inst.v_prime) != list(inst.host.classes[0][:dip]):
            return f"V' = {inst.v_prime} is not the first {dip} neck vertices", None
        degrees = [row.bit_count() for row in g.rows]
        if any(degrees[v] != dip_degree for v in inst.v_prime):
            return f"V' degrees are not exactly {dip_degree}", None
        if any(degrees[v] < floor_degree for v in range(n) if v not in inst.v_prime):
            return f"a vertex outside V' has degree below {floor_degree}", None
        return None, None

    return Op(f"extremal_two-{name}-n{n}", run, check)


def _extremal_three_op(tk, name: str, pattern, n: int) -> Op:
    x, eta = Fraction(1, 3), Fraction(1, n)
    r, sigma = oracles.colouring_data(pattern)
    h = pattern.n
    rest = Fraction((h - x * sigma) * n, (r - 1) * h)
    want = [x * sigma * n / h - eta * n, rest + eta * n] + [rest] * (r - 2)

    def run():
        return tk.constructions.extremal_three(pattern, n, x, eta)

    def check(host):
        sizes = [len(c) for c in host.classes]
        if sizes != want:
            return f"class sizes {sizes}, expected {[str(s) for s in want]}", None
        g = host.graph
        for cls in host.classes:
            if any(g.rows[v].bit_count() != n - len(cls) for v in cls):
                return "host is not complete multipartite on its classes", None
        return None, None

    return Op(f"extremal_three-{name}-n{n}", run, check)


def _regularity_op(tk, label: str, g, eps: Fraction, check_seed: str) -> Op:
    A, B = list(range(10)), list(range(10, 20))

    def run():
        return tk.gadgets.epsilon_regular_check(A, B, g, eps)

    def check(res):
        return oracles.regularity_problem(g, A, B, eps, res, random.Random(check_seed)), None

    return Op(label, run, check)


def _finder_ops(tk, label: str, G, T, size: int, k: int) -> list[Op]:
    def run_expand():
        found = tk.gadgets.find_expanding_set(G, T, size)
        return found, found is not None and tk.gadgets.check_expanding_set(G, T, found)

    def check_expand(raw):
        found, ok = raw
        exists = expanding_set_exists(G, T, size)
        if (found is not None) != exists:
            return f"finder says {found is not None}, brute force {exists}", None
        if found is not None and (not ok or len(found) != size):
            return f"expanding set rejected: {ok.violation if not ok else len(found)}", None
        return None, None

    check_ordering = tk.graphs.VertexOrdering.by_degree(G)

    def run_swap():
        ordering = tk.graphs.VertexOrdering.by_degree(G)
        found = tk.gadgets.find_swapping_set(G, T, ordering, k, size, m=1)
        return found, found is not None and tk.gadgets.check_swapping_set(G, T, found)

    def check_swap(raw):
        found, ok = raw
        exists = swapping_set_exists(G, T, check_ordering, k, size)
        if (found is not None) != exists:
            return f"finder says {found is not None}, brute force {exists}", None
        if found is not None and (not ok or len(found) != size):
            return f"swapping set rejected: {ok.violation if not ok else len(found)}", None
        return None, None

    return [
        Op(f"{label}-expand", run_expand, check_expand),
        Op(f"{label}-swap", run_swap, check_swap),
    ]


def setup_theory_gadgets(tk, seed: int, workdir: Path) -> list[Op]:
    """Colouring searches, bound lines, constructions and the gadgets."""
    rng = random.Random(f"theory-gadgets/{seed}")
    th, hs, gr = tk.thresholds, tk.harness, tk.graphs
    ops: list[Op] = []

    corpus = []
    for i in range(CORPUS_SIZE):
        if i % 4 == 0:  # complete multipartite: chromatic_data's short-cut
            sizes = [rng.randint(1, 3) for _ in range(2 + i // 4 % 3)]
            g = gr.complete_multipartite(sizes).graph
        else:  # orders 5..9 in turn
            g = hs.random_host(5 + i % 5, rng.randrange(2**32), rng.uniform(0.3, 0.8))
            while not g.edge_count():
                g = hs.random_host(g.n, rng.randrange(2**32), 0.5)
        corpus.append(g)
        ops.append(_chromatic_op(tk, f"chromatic-{i}", g))

    for i in range(GENERATED):
        params = th.chromatic_data(corpus[i])
        line = th.komlos_line(params, Fraction(1, 50)) if i % 2 else th.x_line(params, Fraction(1, 2))
        n = 40 + 4 * i
        ops.append(_generate_op(tk, f"generate-{i}-n{n}", line, n, rng.randrange(2**32)))

    for shape in LEMMA62_SHAPES:
        for m in (1, 2):
            for target in LEMMA62_TARGETS:
                ops.append(_lemma62_build_op(tk, shape, target, m))

    c5, k122 = hs.pattern_by_name("C5"), hs.pattern_by_name("K_{1,2,2}")
    k3, k12 = hs.pattern_by_name("K3"), hs.pattern_by_name("K_{1,2}")
    for n in (40, 60, 80, 100):
        ops.append(_extremal_two_op(tk, "C5", c5, n, Fraction(1, 20)))
        ops.append(_extremal_two_op(tk, "K_{1,2,2}", k122, n, Fraction(1, 20)))
    for n in (36, 54, 72, 90):
        ops.append(_extremal_three_op(tk, "K3", k3, n))
        ops.append(_extremal_three_op(tk, "K_{1,2}", k12, n))

    pairs = [(a, b) for a in range(10) for b in range(10, 20)]
    for i, (kind, eps) in enumerate(REGULARITY_CASES):
        if kind == "complete":
            edges = pairs
        elif kind == "halves":  # half of A joined to all of B: irregular
            edges = [(a, b) for a, b in pairs if a < 5]
        elif kind == "empty":
            edges = []
        else:
            p = float(kind[1:])
            edges = [e for e in pairs if rng.random() < p]
        ops.append(_regularity_op(
            tk, f"regularity-{kind}-eps{eps}", gr.Graph(20, edges), eps, f"{seed}/{i}"
        ))

    for i in range(FINDER_INSTANCES):
        G, T, _pattern = hs.random_tiling_instance(rng.randrange(2**32))
        outside = G.n - len(T.covered)
        ops.extend(_finder_ops(tk, f"finders-{i}", G, T, rng.randint(1, outside), rng.randint(0, 3)))
    return ops


WORKLOADS = {
    "oracle-sweep": Workload("oracle-sweep", None, setup_oracle_sweep),
    "structured-bnb": Workload("structured-bnb", STRUCTURED_BUDGET, setup_structured_bnb),
    "dense-catalogue": Workload("dense-catalogue", None, setup_dense_catalogue),
    "theory-gadgets": Workload("theory-gadgets", None, setup_theory_gadgets),
}
