"""Extremal host family and constructive tiling tests.

Degree lists and class profiles asserted here were computed by hand from
the construction descriptions before the code existed; they are frozen as
oracles.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tilekit.constructions import (
    build_h1,
    build_hstar,
    dip_exclusion_witness,
    extremal_one,
    extremal_three,
    extremal_two,
    lemma62_perfect_tiling,
)
from tilekit.graphs import (
    Graph,
    bottle_graph,
    complete_multipartite,
    is_valid_tiling,
    iter_bits,
)
from tilekit.solver import max_tiling

from _oracles import reference_extremal_one, reference_extremal_two

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K3 = complete_multipartite([1, 1, 1]).graph
K4 = complete_multipartite([1, 1, 1, 1]).graph


# ---------------------------------------------------------------------------
# family 1: the staircase window
# ---------------------------------------------------------------------------

EX1_PARAMS = dict(r=2, sigma=1, omega=2, n=15, eta=Fraction(1, 15), k=2)


def test_extremal_one_frozen_degree_list():
    inst = extremal_one(**EX1_PARAMS)
    assert sorted(inst.host.graph.degrees()) == [
        1, 1, 1, 1, 3, 3, 4, 4, 5, 5, 6, 8, 10, 10, 14,
    ]
    assert inst.A == (0,)
    assert inst.C == (5, 6, 7, 8)


def test_extremal_one_window_rows_flatten():
    # rows k .. k + 2*eta*n of the staircase all keep the same degree
    inst = extremal_one(**EX1_PARAMS)
    neck = len(inst.host.classes[0])
    k, window = EX1_PARAMS["k"], 2
    row_degree = {
        i: inst.host.graph.degree(neck + i - 1) for i in range(k, k + window + 1)
    }
    assert len(set(row_degree.values())) == 1


def test_extremal_one_c_structure():
    inst = extremal_one(**EX1_PARAMS)
    g = inst.host.graph
    blocked = set(inst.host.classes[0]) - set(inst.A)
    for u in inst.C:
        for v in inst.C:
            assert u == v or not g.has_edge(u, v)
        for w in blocked:
            assert not g.has_edge(u, w)


def test_extremal_one_copies_through_c_must_use_a():
    # any pattern copy meeting C spends a vertex inside A, so |A| caps them
    inst = extremal_one(**EX1_PARAMS)
    g = inst.host.graph
    for u in inst.C:
        outside_v2 = [w for w in iter_bits(g.rows[u]) if w not in inst.host.classes[1]]
        assert set(outside_v2) <= set(inst.A)


def test_extremal_one_validation():
    with pytest.raises(ValueError, match="need r >= 2"):
        extremal_one(r=1, sigma=1, omega=2, n=15, eta=Fraction(1, 15), k=2)
    with pytest.raises(ValueError, match="divide"):
        extremal_one(r=2, sigma=1, omega=2, n=16, eta=Fraction(1, 16), k=2)
    with pytest.raises(ValueError, match="not an integer"):
        extremal_one(r=2, sigma=1, omega=2, n=15, eta=Fraction(1, 7), k=2)
    with pytest.raises(ValueError, match="1 <= sigma <= omega"):
        extremal_one(r=2, sigma=3, omega=2, n=15, eta=Fraction(1, 15), k=2)
    with pytest.raises(ValueError, match="k must satisfy"):
        extremal_one(r=2, sigma=1, omega=2, n=15, eta=Fraction(1, 15), k=9)
    # a window of width 2 eta n <= 0 leaves C empty, and ex1 would pass vacuously
    for eta in (Fraction(-1, 15), Fraction(0)):
        with pytest.raises(ValueError, match="eta must be positive"):
            extremal_one(r=2, sigma=1, omega=2, n=15, eta=eta, k=2)


@PROPERTY_SETTINGS
@given(st.data())
def test_extremal_one_matches_the_pair_rule(data):
    r = data.draw(st.integers(min_value=2, max_value=4), label="r")
    sigma = data.draw(st.integers(min_value=1, max_value=3), label="sigma")
    omega = data.draw(st.integers(min_value=sigma, max_value=4), label="omega")
    b = sigma + (r - 1) * omega
    n = b * data.draw(st.integers(min_value=1, max_value=4), label="n/b")
    width = omega * n // b
    assume(width >= 3)  # room for k >= 1 and a window of 1
    window = data.draw(st.integers(min_value=1, max_value=width - 2), label="2*eta*n")
    k = data.draw(st.integers(min_value=1, max_value=width - 1 - window), label="k")
    eta = Fraction(window, 2 * n)
    built = extremal_one(r, sigma, omega, n, eta, k)
    ref, classes = reference_extremal_one(r, sigma, omega, n, eta, k)
    assert built.host.graph.rows == ref.rows
    assert built.host.classes == classes


# ---------------------------------------------------------------------------
# family 2: the degree dip
# ---------------------------------------------------------------------------


def test_dip_exclusion_witness_odd_cycles_fail_the_hypothesis():
    # r = 3 and every vertex of an odd cycle has an independent neighbourhood
    assert dip_exclusion_witness(C5) == 0
    assert dip_exclusion_witness(Graph(7, [(i, (i + 1) % 7) for i in range(7)])) == 0


@pytest.mark.parametrize(
    "pattern",
    [
        complete_multipartite([1, 2, 2]).graph,
        bottle_graph(3, 1, 2).graph,
        K4,
        # r = 2: V' has no neighbours, and no vertex of K_{1,2} has an empty
        # neighbourhood (chromatic number 0)
        complete_multipartite([1, 2]).graph,
    ],
    ids=["K_{1,2,2}", "bottle(3,1,2)", "K4", "K_{1,2}"],
)
def test_dip_exclusion_witness_patterns_meeting_the_hypothesis(pattern):
    assert dip_exclusion_witness(pattern) is None


def test_extremal_two_frozen_profile():
    inst = extremal_two(C5, 40, Fraction(1, 20))
    assert inst.host.class_sizes() == (11, 13, 16)
    assert inst.v_prime == (0, 1, 2)
    g = inst.host.graph
    for v in inst.v_prime:
        assert g.degree(v) == 16  # (1 - (omega+sigma)/h) n
    others = set(range(40)) - set(inst.v_prime)
    assert all(g.degree(v) >= 24 for v in others)  # (1 - omega/h) n


def test_extremal_two_dip_is_exactly_blocked_from_one_class():
    inst = extremal_two(C5, 40, Fraction(1, 20))
    g = inst.host.graph
    class_two = set(inst.host.classes[1])
    for v in inst.v_prime:
        assert class_two.isdisjoint(iter_bits(g.rows[v]))


def test_extremal_two_validation():
    with pytest.raises(ValueError, match="sigma < omega"):
        extremal_two(K3, 12, Fraction(1, 12))
    with pytest.raises(ValueError, match="must divide"):
        extremal_two(C5, 41, Fraction(1, 20))
    with pytest.raises(ValueError, match="positive"):
        extremal_two(C5, 40, 0)
    with pytest.raises(ValueError, match=">= 1"):
        extremal_two(C5, 40, Fraction(1, 2))


# (pattern, h, r, sigma), worked out by hand
EX2_PATTERNS = [
    (C5, 5, 3, 1),
    (complete_multipartite([1, 2, 2]).graph, 5, 3, 1),
    (complete_multipartite([1, 2]).graph, 3, 2, 1),
    (complete_multipartite([2, 3]).graph, 5, 2, 2),
    (complete_multipartite([1, 1, 2]).graph, 4, 3, 1),
    (Graph(7, [(i, (i + 1) % 7) for i in range(7)]), 7, 3, 1),
]


@PROPERTY_SETTINGS
@given(
    st.sampled_from(EX2_PATTERNS),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=10),
)
def test_extremal_two_matches_the_pair_rule(case, q: int, a: int):
    pattern, h, r, sigma = case
    n, eta = h * q, Fraction(a, 40)
    expected = reference_extremal_two(h, r, sigma, n, eta)
    if expected is None:
        with pytest.raises(ValueError):
            extremal_two(pattern, n, eta)
        return
    built = extremal_two(pattern, n, eta)
    ref, classes = expected
    assert built.host.graph.rows == ref.rows
    assert built.host.classes == classes


# ---------------------------------------------------------------------------
# family 3: the proportional bottleneck
# ---------------------------------------------------------------------------


def test_extremal_three_frozen_profile():
    host = extremal_three(K3, 18, Fraction(1, 3), Fraction(1, 18))
    assert host.class_sizes() == (1, 9, 8)


def test_extremal_three_first_class_caps_the_tiling():
    host = extremal_three(K3, 18, Fraction(1, 3), Fraction(1, 18))
    result = max_tiling(host.graph, [K3])
    assert result.proven_optimal
    assert result.covered_count == 3  # one triangle per first-class vertex


def test_extremal_three_validation():
    with pytest.raises(ValueError, match="strictly inside"):
        extremal_three(K3, 18, 1, Fraction(1, 18))
    with pytest.raises(ValueError, match="not an integer"):
        extremal_three(K3, 19, Fraction(1, 3), Fraction(1, 19))
    with pytest.raises(ValueError, match="positive"):
        extremal_three(K3, 18, Fraction(1, 3), Fraction(1, 2))


def test_extremal_three_at_paper_scale():
    # n = 4,095, x*sigma*n/h = 455 moved by eta*n = 1; built in milliseconds
    host = extremal_three(K3, 4095, Fraction(1, 3), Fraction(1, 4095))
    assert host.class_sizes() == (454, 1821, 1820)
    g = host.graph
    for cls in host.classes:
        assert all(g.degree(v) == 4095 - len(cls) for v in cls)


# ---------------------------------------------------------------------------
# perfect tilings of the four blow-up targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["B", "B*", "B'", "Kr"])
@pytest.mark.parametrize("m", [1, 2])
def test_lemma62_targets_are_perfectly_tiled(target: str, m: int):
    B = bottle_graph(3, 1, 2)
    result = lemma62_perfect_tiling(target, B, m)
    assert is_valid_tiling(result.host.graph, result.tiling)
    assert len(result.tiling.covered) == result.host.graph.n
    bstar_order = 1 * m + 2 * (3 - 1) * m
    assert len(result.tiling) == result.host.graph.n // bstar_order


def test_lemma62_kr_copy_counts():
    B = bottle_graph(3, 1, 2)  # t = (2-1)*5 = 5
    result = lemma62_perfect_tiling("Kr", B, 1)
    assert result.host.class_sizes() == (5, 5, 5)
    assert result.copy_counts == {"rotated": 3}


def test_lemma62_bprime_counts():
    B = bottle_graph(3, 1, 3)  # b = 7, t = 14
    result = lemma62_perfect_tiling("B'", B, 1)
    assert result.host.class_sizes() == (14, 28, 28)
    assert result.copy_counts == {"aligned": 7, "rotated": 3}


def test_lemma62_validation():
    with pytest.raises(ValueError, match="t = .* 0"):
        lemma62_perfect_tiling("B", bottle_graph(3, 2, 2), 1)
    with pytest.raises(ValueError, match="unknown target"):
        lemma62_perfect_tiling("C", bottle_graph(3, 1, 2), 1)
    with pytest.raises(ValueError, match="m must be"):
        lemma62_perfect_tiling("B", bottle_graph(3, 1, 2), 0)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["B", "B*", "B'", "Kr"]),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
)
def test_lemma62_random_bottles(target: str, r: int, sigma: int, extra: int):
    B = bottle_graph(r, sigma, sigma + extra)
    result = lemma62_perfect_tiling(target, B, 1)
    assert is_valid_tiling(result.host.graph, result.tiling)
    assert len(result.tiling.covered) == result.host.graph.n


@pytest.mark.parametrize(
    "build, images, classes",
    [
        (
            lambda: lemma62_perfect_tiling("B'", bottle_graph(3, 1, 3), 1).tiling,
            [
                (0, 14, 15, 16, 42, 43, 44), (1, 17, 18, 19, 45, 46, 47),
                (2, 20, 21, 22, 48, 49, 50), (3, 23, 24, 25, 51, 52, 53),
                (4, 26, 27, 28, 54, 55, 56), (5, 29, 30, 31, 57, 58, 59),
                (6, 32, 33, 34, 60, 61, 62), (7, 35, 36, 37, 63, 64, 65),
                (38, 8, 9, 10, 66, 67, 68), (69, 11, 12, 13, 39, 40, 41),
            ],
            ((0,), (1, 2, 3), (4, 5, 6)),
        ),
        (
            lambda: lemma62_perfect_tiling("Kr", bottle_graph(3, 1, 2), 2).tiling,
            [
                (0, 1, 10, 11, 12, 13, 20, 21, 22, 23),
                (14, 15, 2, 3, 4, 5, 24, 25, 26, 27),
                (28, 29, 6, 7, 8, 9, 16, 17, 18, 19),
            ],
            ((0, 1), (2, 3, 4, 5), (6, 7, 8, 9)),
        ),
        (
            lambda: build_hstar(C5, Fraction(3, 2)).tiling,
            [(0, 6, 13, 7, 14), (1, 8, 15, 9, 16), (10, 2, 17, 3, 18), (19, 11, 4, 12, 5)],
            None,
        ),
        (
            lambda: build_h1(bottle_graph(3, 1, 2).graph, Fraction(2, 3)).tiling,
            [(0, 4, 5, 17, 18), (1, 19, 20, 6, 7), (2, 8, 9, 21, 22), (3, 23, 24, 10, 11)],
            None,
        ),
    ],
    ids=["lemma62-Bprime", "lemma62-Kr-m2", "hstar-companion", "h1-r3"],
)
def test_placed_images_are_pinned(build, images, classes):
    tiling = build()
    assert [e.image for e in tiling.embeddings] == images
    assert all(e.pattern_classes == classes for e in tiling.embeddings)


# ---------------------------------------------------------------------------
# the relaxed-neck bottle with a perfect pattern tiling
# ---------------------------------------------------------------------------


def test_hstar_c5_with_fractional_neck():
    result = build_hstar(C5, Fraction(3, 2))
    assert result.hstar.class_sizes() == (6, 7, 7)
    assert result.direct_count == 2
    assert result.companion_count == 1
    assert len(result.tiling) == 4  # 2 direct + 1 companion of r-1 = 2 copies
    assert is_valid_tiling(result.hstar.graph, result.tiling)
    assert len(result.tiling.covered) == 20


def test_hstar_at_sigma_is_all_direct():
    result = build_hstar(C5, 1)
    assert result.companion_count == 0
    assert result.direct_count == len(result.tiling)
    assert len(result.tiling.covered) == result.hstar.graph.n


def test_hstar_at_top_of_range():
    # sigma' = h/r makes the host balanced
    result = build_hstar(C5, Fraction(5, 3))
    sizes = set(result.hstar.class_sizes())
    assert len(sizes) == 1
    assert is_valid_tiling(result.hstar.graph, result.tiling)
    assert len(result.tiling.covered) == result.hstar.graph.n


def test_hstar_rejections():
    with pytest.raises(ValueError, match="fractional"):
        build_hstar(complete_multipartite([1, 2, 3]).graph, Fraction(3, 2))
    with pytest.raises(ValueError, match="no proper colouring"):
        build_hstar(complete_multipartite([1, 2, 4]).graph, Fraction(3, 2))
    with pytest.raises(ValueError, match="t = 0"):
        build_hstar(K3, 1)
    with pytest.raises(ValueError, match="sigma'"):
        build_hstar(C5, 2)


# ---------------------------------------------------------------------------
# the exactly-proportional bottle
# ---------------------------------------------------------------------------


def test_h1_k3_frozen():
    result = build_h1(K3, Fraction(1, 2))
    assert result.h1.class_sizes() == (2, 5, 5)
    assert len(result.tiling.covered) == 6
    assert is_valid_tiling(result.h1.graph, result.tiling)


def test_h1_c5_frozen():
    result = build_h1(C5, Fraction(1, 2))
    assert result.h1.class_sizes() == (2, 9, 9)
    assert len(result.tiling.covered) == 10
    assert is_valid_tiling(result.h1.graph, result.tiling)


@PROPERTY_SETTINGS
@given(
    st.sampled_from([K3, C5, complete_multipartite([1, 2]).graph]),
    st.fractions(min_value=Fraction(1, 6), max_value=Fraction(5, 6), max_denominator=6),
)
def test_h1_covers_exactly_the_x_fraction(pattern: Graph, x: Fraction):
    result = build_h1(pattern, x)
    assert is_valid_tiling(result.h1.graph, result.tiling)
    assert len(result.tiling.covered) == x * result.h1.graph.n


C7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])

# pattern: (class sizes of H_1, image of each copy) at x = 1/2; C5 and C7
# take their colour classes from the sigma search, K_{1,2} and
# bottle(3, 1, 2) from their parts
H1_PINS = {
    "C5": (C5, (2, 9, 9), [(2, 11, 3, 12, 0), (13, 4, 14, 5, 1)]),
    "C7": (C7, (2, 13, 13), [(2, 15, 3, 16, 4, 17, 0), (18, 5, 19, 6, 20, 7, 1)]),
    "K_{1,2}": (complete_multipartite([1, 2]).graph, (1, 5), [(0, 1, 2)]),
    "bottle(3,1,2)": (
        bottle_graph(3, 1, 2).graph,
        (2, 9, 9),
        [(0, 2, 3, 11, 12), (1, 13, 14, 4, 5)],
    ),
}


@pytest.mark.parametrize("name", sorted(H1_PINS))
def test_h1_tiling_is_pinned(name):
    pattern, sizes, images = H1_PINS[name]
    result = build_h1(pattern, Fraction(1, 2))
    assert result.h1.class_sizes() == sizes
    assert [emb.image for emb in result.tiling.embeddings] == images
    assert is_valid_tiling(result.h1.graph, result.tiling)


def test_h1_neck_is_exactly_filled():
    result = build_h1(K3, Fraction(1, 2))
    neck = set(result.h1.classes[0])
    assert neck <= result.tiling.covered


def test_h1_domain():
    with pytest.raises(ValueError, match="strictly inside"):
        build_h1(K3, 1)


# ---------------------------------------------------------------------------
# hosts above the vertex limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: extremal_one(r=2, sigma=1, omega=2, n=999_999, eta=Fraction(1, 999_999), k=2),
        lambda: extremal_two(C5, 1_000_000, Fraction(1, 20)),
        lambda: extremal_three(K3, 999_999, Fraction(1, 3), Fraction(1, 999_999)),
        lambda: lemma62_perfect_tiling("Kr", bottle_graph(3, 1, 2), 66_667),
        lambda: build_h1(K3, Fraction(1, 500_000)),
        lambda: build_hstar(C5, Fraction(400_001, 400_000)),
    ],
    ids=["ex1", "ex2", "ex3", "lemma62", "h1", "hstar"],
)
def test_oversized_constructions_are_rejected_before_their_edges(build):
    # orders near a million: listing the edges first would take minutes and GBs
    with pytest.raises(ValueError, match=r"vertex count \d+ outside \[0, 4096\]"):
        build()
