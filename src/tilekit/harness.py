"""Experiment harness: seeded instance generation, reference tables, sweeps.

Everything here is reproducible plumbing.  Suites return an
ExperimentReport whose records each carry the seed that regenerates them;
rerunning any suite with the same arguments reproduces the report
bit-for-bit.  Verdicts are three-valued: a solver that gives up its
optimality proof downgrades a record to "inconclusive", never to "pass".
Every suite record is built by :func:`_record`, the one place a verdict
is decided.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .constructions import (
    dip_exclusion_witness,
    extremal_one,
    extremal_three,
    extremal_two,
)
from .graphs import (
    Embedding,
    Graph,
    PartitionedGraph,
    Tiling,
    bottle_graph,
    check_order,
    complete_multipartite,
)
from .solver import (
    DEFAULT_BUDGET,
    ORACLE_MAX_VERTICES,
    enumerate_copies,
    max_tiling,
    max_tiling_oracle,
)
from .thresholds import (
    BoundLine,
    _check_degrees,
    chromatic_data,
    check_degree_sequence,
    format_rational,
    komlos_line,
    parse_rational,
)

__all__ = [
    "ExperimentReport",
    "Figure2Row",
    "Figure2Table",
    "InstanceRecord",
    "RNG_ALGORITHM",
    "cycle_graph",
    "emit_boundline_plot_data",
    "generate_satisfying_instance",
    "hajnal_szemeredi_suite",
    "pattern_by_name",
    "random_host",
    "random_min_degree_host",
    "random_tiling_instance",
    "read_params",
    "require_keys",
    "run_figure2",
    "solver_oracle_sweep",
    "verify_extremal_suite",
]

RNG_ALGORITHM = "mersenne-twister (random.Random)"

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (frozenset, set)):
        return [_jsonable(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


@dataclass(frozen=True)
class InstanceRecord:
    label: str
    verdict: str  # pass | fail | inconclusive
    seed: Optional[int] = None
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "verdict": self.verdict,
            "seed": self.seed,
            "params": _jsonable(self.params),
            "details": _jsonable(self.details),
        }


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    records: tuple[InstanceRecord, ...]

    @property
    def verdict(self) -> str:
        if any(r.verdict == "fail" for r in self.records):
            return "fail"
        if any(r.verdict == "inconclusive" for r in self.records):
            return "inconclusive"
        return "pass"

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "rng": RNG_ALGORITHM,
            "verdict": self.verdict,
            "records": [r.to_dict() for r in self.records],
        }


# ---------------------------------------------------------------------------
# named patterns
# ---------------------------------------------------------------------------

def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    check_order(k)
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


_NAME_FORMS = (
    (re.compile(r"^K_?\{(\d+(?:,\d+)*)\}$"), "multipartite"),
    (re.compile(r"^K_?(\d+(?:,\d+)+)$"), "multipartite"),
    (re.compile(r"^K_?(\d+)$"), "complete"),
    (re.compile(r"^C_?(\d+)$"), "cycle"),
    (re.compile(r"^bottle\((\d+),(\d+),(\d+)\)$"), "bottle"),
)


def pattern_by_name(name: str) -> Graph:
    """Small pattern grammar: K_t, K_{a,b,...}, C_k, bottle(r,s,w)."""
    text = name.strip().replace(" ", "")
    for rx, kind in _NAME_FORMS:
        m = rx.match(text)
        if not m:
            continue
        if kind == "multipartite":
            sizes = [int(s) for s in m.group(1).split(",")]
            return complete_multipartite(sizes).graph
        if kind == "complete":
            t = int(m.group(1))
            check_order(t)  # before the list of t classes is built
            return complete_multipartite([1] * t).graph
        if kind == "cycle":
            return cycle_graph(int(m.group(1)))
        return bottle_graph(int(m.group(1)), int(m.group(2)), int(m.group(3))).graph
    raise ValueError(f"unrecognized pattern name {name!r}")


# ---------------------------------------------------------------------------
# parameter points
# ---------------------------------------------------------------------------

# the keys of each family's parameters, as the constructors name them
_PARAM_KEYS = {
    "ex1": ("r", "sigma", "omega", "n", "eta", "k"),
    "ex2": ("pattern", "n", "eta"),
    "ex3": ("pattern", "n", "x", "eta"),
    "hstar": ("pattern", "sigma_prime"),
    "h1": ("pattern", "x"),
    "lemma62": ("r", "sigma", "omega", "target", "m"),
}
_PARAM_DEFAULTS = {"m": 1}


def require_keys(data, keys: Sequence[str], what: str) -> None:
    """ValueError naming `what` and each of `keys` missing from `data`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: not a JSON object: {data!r}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what}: missing {', '.join(map(repr, missing))}")


def _rational_param(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    if isinstance(value, float):
        value = repr(value)  # the decimal as written: 0.1 is 1/10
    return parse_rational(value) if isinstance(value, str) else Fraction(value)


def _int_param(value) -> int:
    q = _rational_param(value)
    if q.denominator != 1:
        raise ValueError(f"not an integer: {value!r}")
    return int(q)


def _pattern_param(value) -> Graph:
    if not isinstance(value, str):
        raise TypeError(f"a pattern is given by its name, got {value!r}")
    return pattern_by_name(value)


# how each value is read; every other key is an integer
_PARAM_READERS = {
    "pattern": _pattern_param,
    "target": str,
    "eta": _rational_param,
    "x": _rational_param,
    "sigma_prime": _rational_param,
}


def read_params(family: str, point) -> dict:
    """A family's parameters from a JSON object, each value in its type.

    Rationals are "p/q" strings or numbers, a float read by the decimal it
    is written as (0.1 is 1/10), and patterns are names; a bool is no
    number.  A missing key or an unreadable value raises ValueError naming
    the family and key.
    """
    keys = _PARAM_KEYS[family]
    required = [k for k in keys if k not in _PARAM_DEFAULTS]
    require_keys(point, required, f"{family} parameters")
    out = {}
    for key in keys:
        value = point.get(key, _PARAM_DEFAULTS.get(key))
        try:
            out[key] = _PARAM_READERS.get(key, _int_param)(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{family} parameter {key!r}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# the reference threshold table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Figure2Row:
    """One table row: computed coefficients beside the reference values.

    start is the coefficient of n in the bound on the smallest degree, end
    the coefficient at the cutoff, slope the per-index increment.  A None
    reference means the table lists no coefficient for that cell (the star
    rows bound the smallest degree by an absolute constant instead), so the
    cell is not compared.
    """

    name: str
    start: Fraction
    end: Fraction
    slope: Fraction
    expected_start: Optional[Fraction] = None
    expected_end: Optional[Fraction] = None
    expected_slope: Optional[Fraction] = None

    @property
    def matches(self) -> bool:
        return all(
            want is None or got == want
            for got, want in (
                (self.start, self.expected_start),
                (self.end, self.expected_end),
                (self.slope, self.expected_slope),
            )
        )

    def to_dict(self) -> dict:
        return {
            "pattern": self.name,
            "start": format_rational(self.start),
            "end": format_rational(self.end),
            "slope": format_rational(self.slope),
            "matches": self.matches,
        }


@dataclass(frozen=True)
class Figure2Table:
    rows: tuple[Figure2Row, ...]

    @property
    def all_match(self) -> bool:
        return all(r.matches for r in self.rows)

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "all_match": self.all_match}


# (name, start, end, slope) per row; the star rows bound d_1 by an absolute
# constant, so they have no start cell
_FIGURE2_REFERENCE: tuple[tuple[str, Optional[Fraction], Fraction, Fraction], ...] = (
    ("C5", Fraction(2, 5), Fraction(3, 5), Fraction(1, 2)),
    *((f"K_{{1,{t}}}", None, Fraction(1, t + 1), Fraction(1, t)) for t in range(1, 6)),
    *((f"K_{t}", Fraction(t - 2, t), Fraction(t - 1, t), Fraction(1)) for t in range(3, 7)),
    ("K_{2,4,6}", Fraction(5, 12), Fraction(7, 12), Fraction(2, 5)),
)


def run_figure2() -> Figure2Table:
    """Start/end/slope coefficients of the degree bound for the reference
    patterns, each compared against the reference table (rational equality)."""
    rows = []
    for name, *want in _FIGURE2_REFERENCE:
        line = komlos_line(chromatic_data(pattern_by_name(name)))
        rows.append(
            Figure2Row(
                name=name,
                start=line.intercept,
                end=line.value_at_cutoff,
                slope=line.slope,
                expected_start=want[0],
                expected_end=want[1],
                expected_slope=want[2],
            )
        )
    return Figure2Table(rows=tuple(rows))


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def _check_host_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"host order n must be at least 1, got {n}")


def emit_boundline_plot_data(
    lines: Union[BoundLine, Sequence[BoundLine]],
    n: int,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """CSV of required degrees: sloped up to each cutoff, flat beyond.

    Column k holds ``integer_form(n).need(i)`` for i up to the cutoff
    index and the flat ceiling value afterwards; at a cutoff index that
    lands on an integer the two segments agree.  Raises ValueError unless
    n >= 1.
    """
    _check_host_order(n)
    if isinstance(lines, BoundLine):
        lines = [lines]
    if labels is None:
        labels = ["required"] if len(lines) == 1 else [
            f"line{k + 1}" for k in range(len(lines))
        ]
    if len(labels) != len(lines):
        raise ValueError("one label per line")
    forms = [(line.integer_form(n), math.ceil(line.value_at_cutoff * n)) for line in lines]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", *labels])
    for i in range(1, n + 1):
        writer.writerow(
            [i, *(form.need(i) if i <= form.last else flat for form, flat in forms)]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# seeded instance generators
# ---------------------------------------------------------------------------

def random_host(n: int, seed: int, edge_prob: float = 0.5) -> Graph:
    """Erdos-Renyi style host; identical (n, seed, p) gives identical graphs."""
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    check_order(n)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph(n, edges)


def _multipartite_plus_noise(sizes: Sequence[int], seed: int) -> Graph:
    """Complete multipartite graph on `sizes` plus a seeded random set of
    the edges inside its classes."""
    base = complete_multipartite(sizes)
    rng = random.Random(seed)
    inside = [
        (u, v)
        for cls in base.classes
        for i, u in enumerate(cls)
        for v in cls[i + 1 :]
    ]
    rows = list(base.graph.rows)
    for u, v in rng.sample(inside, rng.randint(0, len(inside))):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._from_rows(rows)


def random_min_degree_host(r: int, n: int, seed: int) -> Graph:
    """Graph with min degree >= (1 - 1/r) n: balanced r-partite plus noise.

    The balanced complete r-partite base already meets the bound when r
    divides n; seeded extra edges inside classes only raise degrees.
    """
    if r < 2 or n % r:
        raise ValueError("need r >= 2 and r | n")
    return _multipartite_plus_noise([n // r] * r, seed)


def _recover_bottle_fractions(line: BoundLine) -> tuple[int, Fraction, Fraction]:
    """(r, neck fraction, width fraction) back out of a bound line."""
    r_minus_1 = 1 / line.cutoff - line.slope
    if r_minus_1.denominator != 1 or r_minus_1 < 1 or line.slope < 0:
        raise ValueError("line does not come from a bottle shape")
    r = int(r_minus_1) + 1
    width_frac = line.cutoff
    neck_frac = line.slope * line.cutoff
    return r, neck_frac, width_frac


def generate_satisfying_instance(line: BoundLine, n: int, seed: int) -> Graph:
    """Seeded host meeting the line: a multipartite skeleton plus edges.

    Class sizes start from the bottle proportions implied by the line;
    vertices then migrate largest-to-smallest class, splitting in a fresh
    class whenever the sizes are balanced but still failing (a slacked line
    at small n can demand more than the pure proportions), until the
    synthetic degree sequence passes.  In the worst case this walks all the
    way to the complete graph, which the feasibility pre-check guarantees
    passes.  The seeded perturbation then only adds edges, which can never
    break the bound, and the returned graph is re-checked.  Raises
    ValueError unless n >= 1, and for a line no bottle shape gives (one
    with a negative slope among them).
    """
    _check_host_order(n)
    form = line.integer_form(n)
    if form.last >= 1 and form.need(form.last) > n - 1:
        raise ValueError(f"line infeasible at n = {n}: bound exceeds n - 1")
    r, neck_frac, width_frac = _recover_bottle_fractions(line)
    sizes = [math.floor(neck_frac * n)] + [math.floor(width_frac * n)] * (r - 1)
    sizes[0] += n - sum(sizes)
    if sizes[0] < 0:
        sizes = [0] + [math.floor(width_frac * n)] * (r - 1)
        sizes[0] = n - sum(sizes[1:])
    while not _check_degrees(sorted((n - s, s) for s in sizes if s), line):
        if max(sizes) - min(sizes) <= 1:
            if max(sizes) <= 1:
                raise AssertionError("feasible line rejected the complete graph")
            sizes.append(0)
        hi = sizes.index(max(sizes))
        lo = sizes.index(min(sizes))
        sizes[hi] -= 1
        sizes[lo] += 1
    g = _multipartite_plus_noise([s for s in sizes if s > 0], seed)
    final = check_degree_sequence(g, line)
    if not final:
        raise AssertionError(f"perturbed instance lost the bound at {final.index}")
    return g


def random_tiling_instance(seed: int) -> tuple[Graph, Tiling, PartitionedGraph]:
    """Seeded (host, tiling, pattern) triple for gadget-finder testing.

    One to six disjoint aligned bottle copies, one to four outside vertices,
    and seeded extra edges sprinkled anywhere (extra edges never invalidate
    the planted embeddings).
    """
    rng = random.Random(seed)
    r = rng.choice([2, 3])
    sigma = rng.choice([1, 2])
    omega = sigma + rng.choice([0, 1])
    pattern = bottle_graph(r, sigma, omega)
    b = pattern.graph.n
    ncopies = rng.randint(1, 6)
    outside = rng.randint(1, 4)
    n = ncopies * b + outside
    edges = []
    embeddings = []
    for c in range(ncopies):
        off = c * b
        edges.extend((u + off, v + off) for u, v in pattern.graph.edges())
        embeddings.append(
            Embedding(pattern.graph, tuple(range(off, off + b)), pattern.classes)
        )
    present = set()
    for u, v in edges:
        present.add((u, v) if u < v else (v, u))
    candidates = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in present
    ]
    extra = rng.sample(candidates, rng.randint(0, len(candidates) // 2))
    return Graph(n, edges + extra), Tiling(tuple(embeddings)), pattern


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _record(
    label: str, holds: bool, decided: bool, params: dict, details: dict,
    seed: Optional[int] = None,
) -> InstanceRecord:
    """The verdict rule: "pass" or "fail" as the claim holds, once the check
    is decided; "inconclusive" while it is not."""
    verdict = ("pass" if holds else "fail") if decided else "inconclusive"
    return InstanceRecord(label, verdict, seed, params, details)


def _solve_record_details(result) -> dict:
    return {
        "covered": result.covered_count,
        "optimality": result.optimality,
        "nodes": result.nodes,
    }


def _extremal_one_record(point: dict, budget: int) -> InstanceRecord:
    inst = extremal_one(**point)
    pattern = bottle_graph(point["r"], point["sigma"], point["omega"])
    misses_required = math.ceil(Fraction(3, 2) * point["eta"] * point["n"])
    label = f"staircase-n{point['n']}-k{point['k']}"
    if inst.host.graph.n > ORACLE_MAX_VERTICES:
        return _record(
            label, False, False, point,
            {"reason": "host too large for the exhaustive oracle"},
        )
    result = max_tiling_oracle(
        inst.host.graph, [pattern], maximize_overlap=inst.C
    )
    overlap = len(result.tiling.covered & set(inst.C))
    missed = len(inst.C) - overlap
    details = _solve_record_details(result)
    details.update(
        {
            "C_size": len(inst.C),
            "max_C_overlap_among_optimal": overlap,
            "missed_C": missed,
            "required_missed": misses_required,
        }
    )
    return _record(label, missed >= misses_required, True, point, details)


def _extremal_two_record(point: dict, budget: int) -> InstanceRecord:
    pattern, n, eta = point["pattern"], point["n"], point["eta"]
    inst = extremal_two(pattern, n, eta)
    catalog = enumerate_copies(
        inst.host.graph, pattern, cap=1, touching=inst.v_prime
    )
    hits = len(catalog.copies) + (1 if catalog.truncated else 0)
    hypothesis_vertex = dip_exclusion_witness(pattern)
    details: dict = {
        "v_prime": list(inst.v_prime),
        "copies_meeting_v_prime": hits,
        "exclusion_hypothesis": hypothesis_vertex is None,
    }
    if hypothesis_vertex is not None:
        details["hypothesis_vertex"] = hypothesis_vertex
    if catalog.truncated:
        # truncated means more than cap=1 copies meet V': at least the 2
        # counted, possibly many more
        details["copies_meeting_v_prime_is_lower_bound"] = True
    if catalog.copies:
        details["witness_copy"] = list(catalog.copies[0].image)
    # the capped listing is exact for existence, so this is always decided
    return _record(
        f"degree-dip-n{n}", not catalog.copies, True,
        {"n": n, "eta": eta, "pattern_order": pattern.n}, details,
    )


def _extremal_three_record(point: dict, budget: int) -> InstanceRecord:
    pattern, n, x, eta = point["pattern"], point["n"], point["x"], point["eta"]
    host = extremal_three(pattern, n, x, eta)
    result = max_tiling(host.graph, [pattern], budget=budget)
    bound = (x - eta) * n
    details = _solve_record_details(result)
    details["proportional_bound"] = bound
    holds = result.covered_count < bound
    # a tiling that reaches the bound refutes the claim without a proof
    return _record(
        f"bottleneck-n{n}-x{x}", holds, result.proven_optimal or not holds,
        {"n": n, "x": x, "eta": eta, "pattern_order": pattern.n}, details,
    )


_EXTREMAL_RUNNERS = {
    "ex1": _extremal_one_record,
    "ex2": _extremal_two_record,
    "ex3": _extremal_three_record,
}


def verify_extremal_suite(
    family: str, grid: Sequence[dict], budget: int = DEFAULT_BUDGET
) -> ExperimentReport:
    """Construct each grid point, solve, and check the family's bound.

    ex1: every optimal bottle tiling misses >= ceil(3 eta n / 2) of C
         (checked by an oracle maximizing overlap with C among optima).
    ex2: no pattern copy meets V' (copy enumeration through V', capped
         at one copy).  This holds whenever no pattern vertex has
         an (r-2)-colourable neighborhood (details["exclusion_hypothesis"];
         otherwise the offending vertex is details["hypothesis_vertex"]).
         A capped count is marked as a lower bound.
    ex3: the maximum tiling covers fewer than (x - eta) n vertices.

    The grid is a list of points, each read by :func:`read_params`; any
    other JSON value is a named input error.  A budget-limited solve
    downgrades the record to inconclusive, unless its tiling already
    reaches the ex3 bound, which refutes the claim without a proof.
    """
    if family not in _EXTREMAL_RUNNERS:
        raise ValueError(f"unknown family {family!r}; pick one of ex1, ex2, ex3")
    if not isinstance(grid, (list, tuple)):
        raise ValueError("grid must be a JSON list of objects")
    if not grid:
        raise ValueError("grid has no points")
    runner = _EXTREMAL_RUNNERS[family]
    records = tuple(runner(read_params(family, point), budget) for point in grid)
    return ExperimentReport(experiment=f"extremal-{family}", records=records)


def solver_oracle_sweep(
    count: int,
    seed: int,
    max_n: int = 14,
    budget: int = DEFAULT_BUDGET,
) -> ExperimentReport:
    """Branch-and-bound vs. exhaustive oracle on seeded random hosts.

    Patterns rotate through K2, K3, K_{1,2}, C5; hosts have 5..max_n
    vertices so every pattern fits.  A record passes only when the solver
    proves optimality and matches the oracle exactly.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if max_n < 5:
        raise ValueError("max_n must be at least 5")
    if max_n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle refuses hosts above {ORACLE_MAX_VERTICES} vertices")
    patterns = [(name, pattern_by_name(name)) for name in ("K2", "K3", "K_{1,2}", "C5")]
    master = random.Random(seed)
    records = []
    for i in range(count):
        name, pattern = patterns[i % len(patterns)]
        inst_seed = master.randrange(2**32)
        n = master.randint(max(5, pattern.n), max_n)
        prob = master.uniform(0.3, 0.8)
        host = random_host(n, inst_seed, prob)
        got = max_tiling(host, [pattern], budget=budget)
        want = max_tiling_oracle(host, [pattern])
        details = {
            "solver_covered": got.covered_count,
            "oracle_covered": want.covered_count,
            "optimality": got.optimality,
            "nodes": got.nodes,
        }
        params = {"n": n, "pattern": name, "edge_prob": round(prob, 4)}
        holds = got.covered_count == want.covered_count
        records.append(
            _record(f"sweep-{i:03d}-{name}", holds, got.proven_optimal, params, details,
                    seed=inst_seed)
        )
    return ExperimentReport(experiment="solver-oracle-sweep", records=tuple(records))


def hajnal_szemeredi_suite(
    count: int, seed: int, budget: int = DEFAULT_BUDGET
) -> ExperimentReport:
    """Perfect clique tilings under the classical minimum-degree bound.

    Seeded hosts with delta >= (1 - 1/r) n and r | n must admit perfect
    K_r-tilings; the solver must find one and prove it optimal within the
    node budget, or the record is inconclusive.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    master = random.Random(seed)
    records = []
    for i in range(count):
        r = 2 if i % 2 == 0 else 3
        k = master.randint(1, 12 // r)
        n = r * k
        inst_seed = master.randrange(2**32)
        host = random_min_degree_host(r, n, inst_seed)
        kr = complete_multipartite([1] * r).graph
        result = max_tiling(host, [kr], budget=budget)
        records.append(
            _record(f"hs-{i:03d}-r{r}-n{n}", result.covered_count == n,
                    result.proven_optimal, {"r": r, "n": n},
                    _solve_record_details(result), seed=inst_seed)
        )
    return ExperimentReport(experiment="hajnal-szemeredi", records=tuple(records))
