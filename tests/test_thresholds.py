"""Exact rational parameter and bound-line tests.

Brute-force colouring oracles are coded here from scratch (exhaustive
assignment enumeration) so the search in tilekit.thresholds is checked
against something genuinely independent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import degree_line_check
from tilekit.graphs import Graph, complete_multipartite
from tilekit.thresholds import (
    BoundLine,
    DegreeCheck,
    TilingParams,
    _check_degrees,
    check_degree_sequence,
    chromatic_data,
    chromatic_number,
    format_rational,
    g_of_x,
    general_line,
    komlos_line,
    parse_rational,
    sigma_coloring,
    smallest_color_class,
    x_line,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@st.composite
def graphs_with_edge(draw: st.DrawFn, max_n: int = 6) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), min_size=1, max_size=len(possible)))
    return Graph(n, edges)


def brute_chromatic_number(g: Graph) -> int:
    """Smallest k admitting a proper colouring; vertex 0 pinned to colour 0."""
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for rest in product(range(k), repeat=g.n - 1):
            assign = (0,) + rest
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def brute_sigma(g: Graph, r: int) -> int:
    """Min over proper colourings with exactly r used colours of the smallest
    class. Pinning vertex 0 is safe: class sizes are permutation-invariant."""
    edges = list(g.edges())
    best = g.n + 1
    for rest in product(range(r), repeat=g.n - 1):
        assign = (0,) + rest
        if len(set(assign)) != r:
            continue
        if all(assign[u] != assign[v] for u, v in edges):
            best = min(best, min(assign.count(c) for c in range(r)))
    return best


# ---------------------------------------------------------------------------
# rational plumbing
# ---------------------------------------------------------------------------


def test_parse_rational():
    assert parse_rational("2/5") == Fraction(2, 5)
    assert parse_rational("  3 ") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("two fifths")
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("1/0")


def test_format_rational_always_explicit():
    assert format_rational(Fraction(2, 5)) == "2/5"
    assert format_rational(3) == "3/1"
    assert format_rational(Fraction(0)) == "0/1"


@PROPERTY_SETTINGS
@given(st.fractions(max_denominator=1000))
def test_rational_round_trip(q: Fraction):
    assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# chromatic search vs brute force
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(graphs_with_edge())
def test_chromatic_number_matches_brute_force(g: Graph):
    assert chromatic_number(g) == brute_chromatic_number(g)


@PROPERTY_SETTINGS
@given(graphs_with_edge())
def test_sigma_matches_brute_force(g: Graph):
    r = chromatic_number(g)
    assert smallest_color_class(g, r) == brute_sigma(g, r)


@PROPERTY_SETTINGS
@given(graphs_with_edge())
def test_sigma_witness_is_a_proper_coloring(g: Graph):
    r = chromatic_number(g)
    best, witness = sigma_coloring(g, r)
    assert len(witness) == g.n
    assert all(witness[u] != witness[v] for u, v in g.edges())
    assert min(witness.count(c) for c in range(r)) == best


@PROPERTY_SETTINGS
@given(graphs_with_edge())
def test_sigma_coloring_below_chi_finds_nothing(g: Graph):
    assert sigma_coloring(g, chromatic_number(g) - 1) == (g.n + 1, ())


@PROPERTY_SETTINGS
@given(graphs_with_edge(max_n=8))
def test_chromatic_data_agrees_with_the_public_searches(g: Graph):
    params = chromatic_data(g)
    r = chromatic_number(g)
    assert (params.r, params.sigma) == (r, smallest_color_class(g, r))


@PROPERTY_SETTINGS
@given(graphs_with_edge(max_n=8))
def test_chromatic_data_matches_brute_force(g: Graph):
    params = chromatic_data(g)
    r = brute_chromatic_number(g)
    assert (params.r, params.sigma) == (r, brute_sigma(g, r))


def test_known_parameter_bundles():
    c5 = chromatic_data(C5)
    assert (c5.h, c5.r, c5.sigma) == (5, 3, 1)
    assert c5.omega == 2
    assert c5.chi_cr == Fraction(5, 2)

    k4 = chromatic_data(complete_multipartite([1, 1, 1, 1]).graph)
    assert (k4.h, k4.r, k4.sigma, k4.omega, k4.chi_cr) == (4, 4, 1, 1, 4)

    star = chromatic_data(complete_multipartite([1, 3]).graph)
    assert (star.h, star.r, star.sigma) == (4, 2, 1)
    assert star.omega == 3
    assert star.chi_cr == Fraction(4, 3)

    k246 = chromatic_data(complete_multipartite([2, 4, 6]).graph)
    assert (k246.h, k246.r, k246.sigma) == (12, 3, 2)
    assert k246.omega == 5
    assert k246.chi_cr == Fraction(12, 5)


def test_petersen_parameters():
    petersen = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    params = chromatic_data(petersen)
    assert params.r == 3
    # any two maximum independent sets intersect, so no (2, 4, 4) colouring
    assert params.sigma == brute_sigma(petersen, 3)
    assert params.sigma == 3


def test_chromatic_data_rejects_degenerate_patterns():
    with pytest.raises(ValueError, match="empty"):
        chromatic_data(Graph(0))
    with pytest.raises(ValueError, match="edgeless"):
        chromatic_data(Graph(3))


def test_tiling_params_validation():
    with pytest.raises(ValueError, match="omega"):
        TilingParams(h=5, r=3, sigma=1, omega=Fraction(3), chi_cr=Fraction(5, 2))
    with pytest.raises(ValueError, match="chi_cr"):
        TilingParams(h=5, r=3, sigma=1, omega=Fraction(2), chi_cr=Fraction(3))
    with pytest.raises(ValueError, match="sigma"):
        TilingParams(h=5, r=3, sigma=2, omega=Fraction(3, 2), chi_cr=Fraction(10, 3))


def _atlas_connected(max_h: int) -> list[Graph]:
    out = []
    for nxg in nx.graph_atlas_g():
        h = nxg.number_of_nodes()
        if not 2 <= h <= max_h or nxg.number_of_edges() == 0:
            continue
        if not nx.is_connected(nxg):
            continue
        out.append(Graph(h, list(nxg.edges())))
    return out


def test_chi_cr_bracketing_on_atlas_sample():
    # chi_cr in (r-1, r], equality iff all optimal colourings can be balanced
    for g in _atlas_connected(7)[::10]:
        params = chromatic_data(g)
        assert params.r - 1 < params.chi_cr <= params.r
        assert (params.chi_cr == params.r) == (params.h == params.r * params.sigma)


# ---------------------------------------------------------------------------
# bound lines
# ---------------------------------------------------------------------------


def test_komlos_line_c5():
    line = komlos_line(chromatic_data(C5))
    assert line.intercept == Fraction(2, 5)
    assert line.slope == Fraction(1, 2)
    assert line.cutoff == Fraction(2, 5)
    assert line.slack == 0
    assert line.value_at_cutoff == Fraction(3, 5)


def test_komlos_line_k3():
    line = komlos_line(chromatic_data(complete_multipartite([1, 1, 1]).graph))
    assert (line.intercept, line.slope, line.cutoff) == (
        Fraction(1, 3),
        Fraction(1),
        Fraction(1, 3),
    )


def test_slack_shifts_requirements():
    params = chromatic_data(C5)
    plain = komlos_line(params)
    slacked = komlos_line(params, eta=Fraction(1, 10))
    n = 100
    plain_form, slacked_form = plain.integer_form(n), slacked.integer_form(n)
    for i in range(1, plain_form.last + 1):
        assert slacked_form.need(i) - plain_form.need(i) == 10


def test_bound_line_validation():
    with pytest.raises(ValueError, match="slack"):
        BoundLine(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1))
    with pytest.raises(ValueError, match="cutoff"):
        BoundLine(Fraction(0), Fraction(1), Fraction(0))


def test_required_ceil_is_exact():
    line = BoundLine(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
    form = line.integer_form(9)
    assert Fraction(form.a + form.b, form.q) == Fraction(7, 2)
    assert form.need(1) == 4
    assert form.need(2) == 4
    assert form.last == 4


@PROPERTY_SETTINGS
@given(graphs_with_edge(), st.fractions(min_value=0, max_value=1, max_denominator=20))
def test_value_at_cutoff_meets_flat_threshold(g: Graph, eta: Fraction):
    params = chromatic_data(g)
    line = komlos_line(params, eta=eta)
    assert line.value_at_cutoff == 1 - 1 / params.chi_cr + eta


@PROPERTY_SETTINGS
@given(
    graphs_with_edge(),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50),
)
def test_g_of_x_affine_increasing(g: Graph, x: Fraction):
    params = chromatic_data(g)
    dx = Fraction(1, 200)
    lo, hi = g_of_x(params, x), g_of_x(params, x + dx)
    slope = (hi - lo) / dx
    assert slope == (1 - 1 / params.chi_cr) - (1 - Fraction(1, params.r - 1))
    assert slope > 0
    assert g_of_x(params, 1) == 1 - params.omega / params.h


def test_g_of_x_domain():
    params = chromatic_data(C5)
    with pytest.raises(ValueError):
        g_of_x(params, 0)
    with pytest.raises(ValueError):
        g_of_x(params, Fraction(3, 2))


@PROPERTY_SETTINGS
@given(
    graphs_with_edge(),
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20),
)
def test_x_line_meets_g_of_x(g: Graph, x: Fraction):
    params = chromatic_data(g)
    line = x_line(params, x)
    assert line.value_at_cutoff == g_of_x(params, x)
    assert line.slope >= 0


@PROPERTY_SETTINGS
@given(
    graphs_with_edge(),
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20), max_denominator=20),
)
def test_x_line_coefficients(g: Graph, x: Fraction):
    params = chromatic_data(g)
    h, r, neck = params.h, params.r, x * params.sigma
    line = x_line(params, x)
    assert line.intercept == g_of_x(params, x) - neck / h
    assert line.slope == (r - 1) * neck / (h - neck)
    assert line.cutoff == (h - neck) / ((r - 1) * h)


def test_general_line_endpoints():
    params = chromatic_data(C5)
    at_sigma = general_line(C5, params.sigma)
    reference = komlos_line(params)
    assert (at_sigma.intercept, at_sigma.slope, at_sigma.cutoff) == (
        reference.intercept,
        reference.slope,
        reference.cutoff,
    )
    at_top = general_line(C5, Fraction(5, 3))
    assert at_top.slope == 1
    assert at_top.cutoff == Fraction(1, 3)
    with pytest.raises(ValueError, match="sigma'"):
        general_line(C5, Fraction(1, 2))
    with pytest.raises(ValueError, match="sigma'"):
        general_line(C5, 2)


# ---------------------------------------------------------------------------
# degree sequence checking
# ---------------------------------------------------------------------------


def test_bottle_host_meets_komlos_line():
    # scale the extremal bottle for C5: neck n/5, widths 2n/5 each
    params = chromatic_data(C5)
    line = komlos_line(params)
    host = complete_multipartite([8, 16, 16]).graph
    assert check_degree_sequence(host, line)


def test_degree_check_reports_first_violation():
    params = chromatic_data(C5)
    line = komlos_line(params)
    base = complete_multipartite([8, 16, 16]).graph
    # sabotage: delete every neck edge at vertex 0
    edges = [e for e in base.edges() if 0 not in e]
    host = Graph(base.n, edges)
    verdict = check_degree_sequence(host, line)
    assert not verdict
    assert verdict.index == 1
    assert verdict.degree == 0
    assert verdict.required == line.integer_form(40).need(1)


@PROPERTY_SETTINGS
@given(st.integers(min_value=3, max_value=30))
def test_complete_graph_passes_every_komlos_line(n: int):
    host = complete_multipartite([1] * n).graph
    for pattern in (C5, complete_multipartite([1, 1, 1]).graph):
        line = komlos_line(chromatic_data(pattern))
        assert check_degree_sequence(host, line)


def _reference(degrees, line: BoundLine) -> DegreeCheck:
    return DegreeCheck(
        *degree_line_check(degrees, line.intercept, line.slope, line.cutoff, line.slack)
    )


@st.composite
def lines_and_blocks(draw: st.DrawFn) -> tuple[BoundLine, list[tuple[int, int]]]:
    """A line of any slope sign and intercept, and ascending (degree,
    multiplicity) blocks; equal neighbouring degrees are allowed."""
    line = BoundLine(
        intercept=draw(st.fractions(-2, 2, max_denominator=12)),
        slope=draw(st.fractions(-3, 3, max_denominator=12)),
        cutoff=draw(st.fractions(0, 1, max_denominator=12).filter(lambda c: c > 0)),
        slack=draw(st.fractions(0, 1, max_denominator=12)),
    )
    blocks = draw(
        st.lists(
            st.tuples(st.integers(-3, 40), st.integers(1, 8)), min_size=1, max_size=8
        )
    )
    return line, sorted(blocks, key=lambda block: block[0])


F = Fraction


@settings(max_examples=400, deadline=None)
@given(lines_and_blocks())
# slope < 0: the bound falls, so a block is tested at its first index
@example((BoundLine(F(1, 2), F(-1), F(1, 2)), [(3, 2), (4, 3), (9, 5)]))
# slope = 0: one constant bound up to the cutoff
@example((BoundLine(F(1, 3), F(0), F(1, 2)), [(2, 1), (3, 4), (5, 4)]))
# slack > 0 on a rising line
@example((BoundLine(F(1, 5), F(1, 2), F(2, 5), F(1, 10)), [(3, 2), (5, 3), (9, 5)]))
# a negative intercept: the ceiling of a negative bound
@example((BoundLine(F(-7, 3), F(1, 4), F(1, 2)), [(-2, 2), (-1, 3), (0, 5)]))
# cutoff = 1: every index is bound
@example((BoundLine(F(0), F(1), F(1)), [(1, 1), (2, 1), (2, 2)]))
# n = 1
@example((BoundLine(F(0), F(1), F(1)), [(0, 1)]))
# blocks that straddle the cutoff: one fails at it, one only past it
@example((BoundLine(F(0), F(1), F(1, 2)), [(1, 1), (4, 6), (9, 3)]))
@example((BoundLine(F(0), F(1), F(1, 2)), [(1, 1), (5, 6), (9, 3)]))
def test_block_check_matches_the_per_index_reference(case):
    line, blocks = case
    degrees = [d for d, m in blocks for _ in range(m)]
    assert _check_degrees(blocks, line) == _reference(degrees, line)


@PROPERTY_SETTINGS
@given(graphs_with_edge(max_n=9), st.fractions(-1, 1, max_denominator=9),
       st.fractions(-2, 2, max_denominator=9))
def test_graph_check_matches_the_per_index_reference(g: Graph, intercept, slope):
    line = BoundLine(intercept, slope, Fraction(2, 3))
    assert check_degree_sequence(g, line) == _reference(g.degrees(), line)


def test_block_check_edge_cases():
    # need(i) = i up to the cutoff index 5 of n = 10: the block of degree 4
    # on indices 2..7 fails at 5; one of degree 5 passes, since the bounds
    # 6 and 7 at its indices 6 and 7 lie past the cutoff
    straddle = BoundLine(F(0), F(1), F(1, 2))
    assert _check_degrees([(1, 1), (4, 6), (9, 3)], straddle) == DegreeCheck(
        False, index=5, degree=4, required=5
    )
    assert _check_degrees([(1, 1), (5, 6), (9, 3)], straddle)
    # falling, need(i) = 6 - i up to 3: the block of degree 3 on indices
    # 2..4 meets the bound at index 3 but not at its first index
    falling = BoundLine(F(1), F(-1), F(1, 2))
    assert _check_degrees([(5, 1), (3, 3), (7, 2)], falling) == DegreeCheck(
        False, index=2, degree=3, required=4
    )
    # a rising bound inside one block: the first i with 3 + i/2 > 5 is 5
    rising = BoundLine(F(3, 10), F(1, 2), F(1))
    assert _check_degrees([(5, 10)], rising) == DegreeCheck(
        False, index=5, degree=5, required=6
    )
    assert _check_degrees([(0, 1)], BoundLine(F(-1, 2), F(1, 3), F(1)))


def test_degree_check_at_the_maximum_order():
    # n = 4,096 in three twin classes: three blocks, one integer test each
    host = complete_multipartite([1800, 1200, 1096]).graph
    lines = [
        komlos_line(chromatic_data(C5)),
        komlos_line(chromatic_data(C5), eta=Fraction(1, 100)),
        x_line(chromatic_data(complete_multipartite([1, 1, 1]).graph), Fraction(1, 2)),
        BoundLine(Fraction(3, 5), Fraction(-1, 7), Fraction(1)),
    ]
    for line in lines:
        assert check_degree_sequence(host, line) == _reference(host.degrees(), line)
    # need(i) = ceil(1638.4 + i/2) first exceeds 4096 - 1800 = 2296 at 1316
    assert check_degree_sequence(host, lines[0]) == DegreeCheck(
        False, index=1316, degree=2296, required=2297
    )
