"""End-to-end acceptance gate.

One test per shipped guarantee.  Each test times itself against a fixed
wall-clock budget, prints a single verdict line, and fails loudly if the
guarantee or the budget is broken.  Everything is deterministic (seeds are
module constants) and every comparison is exact — Fraction or integer
equality, no tolerance knobs.

  1. reference degree-bound table reproduced exactly as rationals   < 1 s
  2. cutoff/endpoint identities on all connected patterns h <= 7    < 30 s
  3. branch-and-bound solver == exhaustive oracle, 200 seeded hosts < 5 min
  4. perfect clique tilings under the classical degree bound        < 2 min
  5. the three extremal mechanisms (a: bottleneck cap, b: staircase
     misses, c: degree dip excludes copies of a pattern that meets
     the exclusion hypothesis, no vertex with an (r-2)-colourable
     neighbourhood)                                                 < 2 min
  6. constructive tilings validate (blown-up targets, neck-scaled
     bottle, half-covered bottle)                                   < 1 min
  7. expanding/swapping finders == brute-force existence; regularity
     check == an independent second brute force                     < 5 min
  8. proportional bound line == bottle bound line, coefficient by
     coefficient                                                    < 10 s
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import networkx as nx

from _oracles import (
    expanding_set_exists,
    regularity_violation,
    swapping_set_exists,
)
from tilekit.constructions import (
    LEMMA62_TARGETS,
    build_h1,
    build_hstar,
    lemma62_perfect_tiling,
)
from tilekit.gadgets import (
    check_expanding_set,
    check_swapping_set,
    epsilon_regular_check,
    find_expanding_set,
    find_swapping_set,
)
from tilekit.graphs import Graph, VertexOrdering, bottle_graph, is_valid_tiling
from tilekit.harness import (
    cycle_graph,
    hajnal_szemeredi_suite,
    pattern_by_name,
    random_tiling_instance,
    run_figure2,
    solver_oracle_sweep,
    verify_extremal_suite,
)
from tilekit.thresholds import (
    TilingParams,
    chromatic_data,
    g_of_x,
    komlos_line,
    x_line,
)

SWEEP_SEED = 0
HS_SEED = 0
LINE_SEED = 20240815

# canonical desk-scale points for the three extremal constructions
EX1_POINT = {"r": 2, "sigma": 1, "omega": 2, "n": 15, "eta": "1/15", "k": 2}
# K_{1,2,2} meets the degree-dip exclusion hypothesis (C5 does not: every
# vertex of C5 has an independent neighbourhood, so C5 copies meet V')
EX2_POINT = {"pattern": "K_{1,2,2}", "n": 40, "eta": "1/20"}
EX3_POINT = {"pattern": "K3", "n": 18, "x": "1/3", "eta": "1/18"}

# the three extremal checks share one two-minute budget
_EXTREMAL_ELAPSED: dict[str, float] = {}


def _verdict(tag: str, ok: bool, elapsed: float, budget: float, detail: str = "") -> str:
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"acceptance {tag}: {flag} ({elapsed:.2f}s / {budget:.0f}s budget)"
    if detail:
        line += f" -- {detail}"
    print(line)
    return line


def _atlas_connected(max_n: int) -> list[Graph]:
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if 2 <= n <= max_n and nx.is_connected(nxg):
            out.append(Graph(n, list(nxg.edges())))
    return out


# ---------------------------------------------------------------------------
# 1. reference table
# ---------------------------------------------------------------------------

def test_1_reference_table_exact():
    t0 = time.perf_counter()
    table = run_figure2()
    elapsed = time.perf_counter() - t0
    rows = {row.name: row for row in table.rows}
    spot = {
        "C5": (Fraction(2, 5), Fraction(3, 5), Fraction(1, 2)),
        "K_{2,4,6}": (Fraction(5, 12), Fraction(7, 12), Fraction(2, 5)),
        "K_4": (Fraction(1, 2), Fraction(3, 4), Fraction(1)),
        "K_{1,3}": (None, Fraction(1, 4), Fraction(1, 3)),
    }
    spot_ok = all(
        (want[0] is None or rows[name].start == want[0])
        and rows[name].end == want[1]
        and rows[name].slope == want[2]
        for name, want in spot.items()
    )
    ok = table.all_match and spot_ok
    line = _verdict("1 reference-table", ok, elapsed, 1.0, f"{len(table.rows)} rows")
    assert ok and elapsed < 1.0, line


# ---------------------------------------------------------------------------
# 2. threshold identities, exhaustive small-pattern corpus
# ---------------------------------------------------------------------------

def test_2_cutoff_identities_exhaustive():
    t0 = time.perf_counter()
    corpus = _atlas_connected(7)
    bad = []
    for g in corpus:
        params = chromatic_data(g)
        if komlos_line(params).value_at_cutoff != 1 - 1 / params.chi_cr:
            bad.append(("cutoff", g))
        if g_of_x(params, 1) != 1 - params.omega / Fraction(params.h):
            bad.append(("endpoint", g))
    elapsed = time.perf_counter() - t0
    ok = not bad
    line = _verdict(
        "2 threshold-identities", ok, elapsed, 30.0,
        f"{len(corpus)} connected patterns, {len(bad)} mismatches",
    )
    assert ok and elapsed < 30.0, line


# ---------------------------------------------------------------------------
# 3. solver vs. oracle
# ---------------------------------------------------------------------------

def test_3_solver_matches_oracle():
    t0 = time.perf_counter()
    report = solver_oracle_sweep(200, seed=SWEEP_SEED, max_n=14)
    elapsed = time.perf_counter() - t0
    ok = report.verdict == "pass"
    line = _verdict(
        "3 solver-oracle", ok, elapsed, 300.0,
        f"{len(report.records)} hosts, verdict {report.verdict}",
    )
    assert ok and elapsed < 300.0, line


# ---------------------------------------------------------------------------
# 4. classical degree bound sanity
# ---------------------------------------------------------------------------

def test_4_hajnal_szemeredi_sanity():
    t0 = time.perf_counter()
    report = hajnal_szemeredi_suite(50, seed=HS_SEED)
    elapsed = time.perf_counter() - t0
    ok = report.verdict == "pass"
    line = _verdict(
        "4 hajnal-szemeredi", ok, elapsed, 120.0,
        f"{len(report.records)} hosts, verdict {report.verdict}",
    )
    assert ok and elapsed < 120.0, line


# ---------------------------------------------------------------------------
# 5. extremal mechanisms (shared two-minute budget)
# ---------------------------------------------------------------------------

def test_5a_bottleneck_caps_coverage():
    t0 = time.perf_counter()
    record = verify_extremal_suite("ex3", [EX3_POINT]).records[0]
    _EXTREMAL_ELAPSED["5a"] = time.perf_counter() - t0
    ok = (
        record.verdict == "pass"
        and record.details["covered"] == 3
        and record.details["proportional_bound"] == 5
    )
    line = _verdict(
        "5a bottleneck", ok, _EXTREMAL_ELAPSED["5a"], 120.0,
        f"covered {record.details['covered']} < bound "
        f"{record.details['proportional_bound']}",
    )
    assert ok, line


def test_5b_staircase_misses_designated_set():
    t0 = time.perf_counter()
    record = verify_extremal_suite("ex1", [EX1_POINT]).records[0]
    _EXTREMAL_ELAPSED["5b"] = time.perf_counter() - t0
    ok = record.verdict == "pass" and record.details["missed_C"] >= 2
    line = _verdict(
        "5b staircase", ok, _EXTREMAL_ELAPSED["5b"], 120.0,
        f"every optimal tiling misses >= {record.details['missed_C']} of C",
    )
    assert ok, line


def test_5c_degree_dip_excludes_copies():
    t0 = time.perf_counter()
    record = verify_extremal_suite("ex2", [EX2_POINT]).records[0]
    _EXTREMAL_ELAPSED["5c"] = time.perf_counter() - t0
    total = sum(_EXTREMAL_ELAPSED.values())
    assert total < 120.0, f"extremal suite took {total:.1f}s, budget 120s"
    hits = record.details["copies_meeting_v_prime"]
    ok = record.verdict == "pass" and hits == 0
    ok = ok and record.details["exclusion_hypothesis"] is True
    capped = record.details.get("copies_meeting_v_prime_is_lower_bound", False)
    detail = f"{'at least ' if capped else ''}{hits} pattern copies meet V'"
    if not record.details["exclusion_hypothesis"]:
        detail += f", hypothesis fails at vertex {record.details['hypothesis_vertex']}"
    if "witness_copy" in record.details:
        detail += f", e.g. {record.details['witness_copy']}"
    line = _verdict("5c degree-dip", ok, _EXTREMAL_ELAPSED["5c"], 120.0, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# 6. constructive tilings
# ---------------------------------------------------------------------------

def test_6_constructive_tilings_validate():
    t0 = time.perf_counter()
    failures = []
    for target in LEMMA62_TARGETS:
        for shape in ((2, 1, 2), (3, 1, 2), (3, 2, 3)):
            for m in (1, 2):
                res = lemma62_perfect_tiling(target, bottle_graph(*shape), m)
                valid = is_valid_tiling(res.host.graph, res.tiling).ok
                perfect = len(res.tiling.covered) == res.host.graph.n
                if not (valid and perfect):
                    failures.append((target, shape, m))
    hs = build_hstar(cycle_graph(5), Fraction(3, 2))
    if not (
        sorted(len(c) for c in hs.hstar.classes) == [6, 7, 7]
        and is_valid_tiling(hs.hstar.graph, hs.tiling).ok
        and len(hs.tiling.covered) == hs.hstar.graph.n == 20
    ):
        failures.append("hstar")
    h1 = build_h1(pattern_by_name("K3"), Fraction(1, 2))
    if not (
        sorted(len(c) for c in h1.h1.classes) == [2, 5, 5]
        and is_valid_tiling(h1.h1.graph, h1.tiling).ok
        and len(h1.tiling.covered) * 2 == h1.h1.graph.n == 12
    ):
        failures.append("h1")
    elapsed = time.perf_counter() - t0
    ok = not failures
    line = _verdict(
        "6 constructive-tilings", ok, elapsed, 60.0,
        f"24 blown-up targets + neck-scaled + half-covered; failures {failures}",
    )
    assert ok and elapsed < 60.0, line


# ---------------------------------------------------------------------------
# 7. gadget exactness
# ---------------------------------------------------------------------------

def test_7_gadget_finders_and_regularity_exact():
    t0 = time.perf_counter()
    mismatches = 0
    checks = 0
    for i in range(100):
        G, T, _ = random_tiling_instance(i)
        ordering = VertexOrdering.by_degree(G)
        k = i % 4
        for size in range(1, 5):
            es = find_expanding_set(G, T, size)
            if (es is not None) != expanding_set_exists(G, T, size):
                mismatches += 1
            if es is not None and not check_expanding_set(G, T, es).ok:
                mismatches += 1
            ss = find_swapping_set(G, T, ordering, k, size)
            if (ss is not None) != swapping_set_exists(G, T, ordering, k, size):
                mismatches += 1
            if ss is not None and not check_swapping_set(G, T, ss).ok:
                mismatches += 1
            checks += 2

    a_side, b_side = list(range(6)), list(range(6, 12))
    densities = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for seed in range(30):
        rng = random.Random(seed)
        p = densities[seed % 3]
        edges = [(u, v) for u in a_side for v in b_side if rng.random() < p]
        G = Graph(12, edges)
        for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
            res = epsilon_regular_check(a_side, b_side, G, eps)
            if res.regular != (regularity_violation(a_side, b_side, G, eps) is None):
                mismatches += 1
            if res.witness is not None:
                # recompute the witness gap from scratch
                X, Y = res.witness.X, res.witness.Y
                inner = sum(G.has_edge(u, v) for u in X for v in Y)
                gap = abs(Fraction(inner, len(X) * len(Y)) - res.density)
                if gap < eps:
                    mismatches += 1
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    line = _verdict(
        "7 gadget-exactness", ok, elapsed, 300.0,
        f"{checks} comparisons, {mismatches} mismatches",
    )
    assert ok and elapsed < 300.0, line


# ---------------------------------------------------------------------------
# 8. proportional line == bottle line
# ---------------------------------------------------------------------------

def test_8_proportional_line_matches_bottle_line():
    t0 = time.perf_counter()
    pool = [g for g in _atlas_connected(7) if g.n >= 3]
    rng = random.Random(LINE_SEED)
    bad = 0
    for _ in range(20):
        H = rng.choice(pool)
        p = chromatic_data(H)
        b = rng.randint(2, 6)
        a = rng.randint(1, b - 1)
        neck = a * (p.r - 1) * p.sigma
        width = b * p.h - a * p.sigma
        hb = neck + (p.r - 1) * width
        assert hb == b * (p.r - 1) * p.h  # the bottle order is b(r-1)h
        bottle_params = TilingParams(
            h=hb,
            r=p.r,
            sigma=neck,
            omega=Fraction(hb - neck, p.r - 1),
            chi_cr=Fraction((p.r - 1) * hb, hb - neck),
        )
        got = x_line(p, Fraction(a, b))
        want = komlos_line(bottle_params)
        if (got.intercept, got.slope, got.cutoff) != (
            want.intercept,
            want.slope,
            want.cutoff,
        ):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    line = _verdict(
        "8 line-identity", ok, elapsed, 10.0, f"20 draws, {bad} mismatches"
    )
    assert ok and elapsed < 10.0, line
