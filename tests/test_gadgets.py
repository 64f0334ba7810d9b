"""Structural gadget tests: expanding/swapping sets, greedy cliques,
regularity.

The matching-based finders are compared against the brute-force existence
oracles in _oracles.py on randomly planted tilings.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (
    expanding_set_exists,
    regularity_mask_order,
    regularity_violation,
    swapping_set_exists,
)
from tilekit.gadgets import (
    ExpandingSet,
    GreedyFailure,
    SwappingSet,
    check_expanding_set,
    check_swapping_set,
    epsilon_regular_check,
    find_expanding_set,
    find_swapping_set,
    greedy_kr,
)
from tilekit.graphs import (
    Embedding,
    Graph,
    Tiling,
    VertexOrdering,
    complete_multipartite,
    iter_bits,
)
from tilekit.harness import random_tiling_instance

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K3_CLASSES = ((0,), (1,), (2,))
K3 = Graph(3, [(0, 1), (1, 2), (2, 0)])


def k3_copy(u: int, v: int, w: int) -> Embedding:
    # neck u, width classes {v} and {w}
    return Embedding(K3, (u, v, w), K3_CLASSES)


# ---------------------------------------------------------------------------
# parameter checks
# ---------------------------------------------------------------------------


def test_greedy_params_validation():
    host = complete_multipartite([4, 4, 4]).graph
    with pytest.raises(ValueError, match="need r >= 2"):
        greedy_kr(host, 1, 1, 1, Fraction(1, 10))
    with pytest.raises(ValueError, match="need 1 <= sigma <= omega"):
        greedy_kr(host, 3, 2, 1, Fraction(1, 10))
    with pytest.raises(ValueError, match="eta must be positive"):
        greedy_kr(host, 3, 1, 1, 0)


# ---------------------------------------------------------------------------
# expanding sets
# ---------------------------------------------------------------------------


def test_expanding_set_found_when_vertex_sees_both_width_classes():
    host = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2)])
    tiling = Tiling((k3_copy(0, 1, 2),))
    found = find_expanding_set(host, tiling, 1)
    assert found is not None
    assert found.vertices == (3,)
    assert check_expanding_set(host, tiling, found)


def test_expanding_set_needs_every_width_class():
    # 3 sees only one width class; the neck does not help
    host = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 0)])
    tiling = Tiling((k3_copy(0, 1, 2),))
    assert find_expanding_set(host, tiling, 1) is None


def test_expanding_set_saturation():
    # two eligible outside vertices, one copy: size 1 works, size 2 cannot
    host = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2), (4, 1), (4, 2)])
    tiling = Tiling((k3_copy(0, 1, 2),))
    assert find_expanding_set(host, tiling, 2) is None
    found = find_expanding_set(host, tiling, 1)
    assert found is not None and len(found) == 1


def test_check_expanding_set_catches_violations():
    host = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 1), (3, 2)])
    tiling = Tiling((k3_copy(0, 1, 2),))
    copy = tiling.embeddings[0]
    inside = ExpandingSet(vertices=(0,), assignment=(copy,))
    assert "inside the tiling" in check_expanding_set(host, tiling, inside).violation
    foreign = ExpandingSet(vertices=(3,), assignment=(k3_copy(1, 0, 2),))
    assert "not in tiling" in check_expanding_set(host, tiling, foreign).violation
    twice = ExpandingSet(vertices=(3, 3), assignment=(copy, copy))
    assert check_expanding_set(host, tiling, twice).violation == "repeated vertex"
    # 3 sees the neck 0 and the width class {1}, not the width class {2}
    shy = Graph(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1)])
    one = ExpandingSet(vertices=(3,), assignment=(copy,))
    assert check_expanding_set(shy, tiling, one).violation == (
        "vertex 3 misses width class (2,) of its copy"
    )
    with pytest.raises(ValueError, match="align"):
        ExpandingSet(vertices=(3,), assignment=())


def test_expanding_set_requires_positive_size():
    with pytest.raises(ValueError, match="size"):
        find_expanding_set(Graph(1), Tiling(), 0)


@PROPERTY_SETTINGS
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_expanding_finder_matches_brute_force(seed: int, size: int):
    host, tiling, _pattern = random_tiling_instance(seed)
    found = find_expanding_set(host, tiling, size)
    assert (found is not None) == expanding_set_exists(host, tiling, size)
    if found is not None:
        assert check_expanding_set(host, tiling, found)
        assert len(found) == size


# ---------------------------------------------------------------------------
# swapping sets
# ---------------------------------------------------------------------------


def _swap_fixture():
    # triangle copy on {0,1,2}; 3 sees neck 0 and width 1 but misses width 2;
    # pendant 4 keeps the witness vertex 2 late in the degree order
    host = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 2)])
    tiling = Tiling((k3_copy(0, 1, 2),))
    ordering = VertexOrdering.by_degree(host)
    return host, tiling, ordering


def test_swapping_pair_with_index_gap():
    host, tiling, ordering = _swap_fixture()
    found = find_swapping_set(host, tiling, ordering, 1, 1)
    assert found is not None
    assert found.pairs == ((3, 2),)
    assert check_swapping_set(host, tiling, found)


def test_swapping_boundary_is_inclusive():
    host, tiling, ordering = _swap_fixture()
    gap = ordering.position(2) - ordering.position(3)
    assert find_swapping_set(host, tiling, ordering, gap, 1) is not None
    assert find_swapping_set(host, tiling, ordering, gap + 1, 1) is None


def test_swapping_offset_beyond_n_is_hopeless():
    host, tiling, ordering = _swap_fixture()
    assert find_swapping_set(host, tiling, ordering, host.n + 1, 1) is None


@pytest.mark.parametrize(
    "k, size, message", [(0, 0, "size must be >= 1"), (-1, 1, "k must be >= 0")]
)
def test_swapping_set_rejects_a_bad_size_or_offset(k, size, message):
    host, tiling, ordering = _swap_fixture()
    with pytest.raises(ValueError, match=rf"^{message}$"):
        find_swapping_set(host, tiling, ordering, k, size)


def test_check_swapping_set_catches_gap_violation():
    host, tiling, ordering = _swap_fixture()
    found = find_swapping_set(host, tiling, ordering, 1, 1)
    bad = type(found)(
        ordering=ordering, offset=host.n + 1, pairs=found.pairs, m=found.m
    )
    assert "index gap" in check_swapping_set(host, tiling, bad).violation


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((1, 2),), "vertex 1 lies inside the tiling"),
        (((3, 0),), "witness 0 is not a width-class vertex"),  # the neck
        (((3, 4),), "witness 4 is not a width-class vertex"),  # no copy
        (((3, 2), (4, 1)), "two pairs share a copy"),
        (((3, 2), (3, 1)), "repeated uncovered vertex"),
        (((4, 1),), "vertex 4 sees too little of the neck"),  # 4 sees only 2
        (((3, 1),), "vertex 3 sees too little of width class (2,)"),
    ],
    ids=["covered-z", "neck-y", "outside-y", "shared-copy", "repeated-z", "shy-of-neck",
         "shy-of-width"],
)
def test_check_swapping_set_names_the_violation(pairs, message):
    host, tiling, ordering = _swap_fixture()
    ss = SwappingSet(ordering=ordering, offset=0, pairs=pairs)
    assert check_swapping_set(host, tiling, ss).violation == message


def test_copies_without_class_structure_are_rejected():
    host, _, ordering = _swap_fixture()
    bare = Tiling((Embedding(K3, (0, 1, 2)),))
    with pytest.raises(ValueError, match="class structure"):
        find_expanding_set(host, bare, 1)
    with pytest.raises(ValueError, match="class structure"):
        find_swapping_set(host, bare, ordering, 0, 1)
    ss = SwappingSet(ordering=ordering, offset=0, pairs=((3, 2),))
    with pytest.raises(ValueError, match="class structure"):
        check_swapping_set(host, bare, ss)


def test_swapping_rejects_a_copy_with_unequal_width_classes():
    # K_{1,1,2} is no bottle graph: its width classes have sizes 1 and 2, so
    # no single omega threshold applies to it
    k112 = complete_multipartite([1, 1, 2])
    host = complete_multipartite([1, 1, 2, 1]).graph
    tiling = Tiling((Embedding(k112.graph, (0, 1, 2, 3), k112.classes),))
    ordering = VertexOrdering.by_degree(host)
    with pytest.raises(ValueError, match="share one size"):
        find_swapping_set(host, tiling, ordering, 0, 1)
    pairs = SwappingSet(ordering=ordering, offset=0, pairs=((4, 2),))
    with pytest.raises(ValueError, match="share one size"):
        check_swapping_set(host, tiling, pairs)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=2),
)
def test_swapping_finder_matches_brute_force(seed: int, k: int, size: int):
    host, tiling, _pattern = random_tiling_instance(seed)
    ordering = VertexOrdering.by_degree(host)
    found = find_swapping_set(host, tiling, ordering, k, size)
    assert (found is not None) == swapping_set_exists(host, tiling, ordering, k, size)
    if found is not None:
        assert check_swapping_set(host, tiling, found)


# ---------------------------------------------------------------------------
# greedy clique extraction
# ---------------------------------------------------------------------------


def test_greedy_succeeds_on_slack_balanced_host():
    host = complete_multipartite([4, 4, 4]).graph
    result = greedy_kr(host, 3, 1, 2, Fraction(1, 10))
    assert isinstance(result, Embedding)
    assert result.image == (0, 4, 8)


def test_greedy_fails_at_step_two_on_a_star():
    # center (vertex 0, degree 11) passes the floor of 8.4; every leaf misses it
    host = complete_multipartite([1, 11]).graph
    result = greedy_kr(host, 3, 1, 1, Fraction(1, 10))
    assert isinstance(result, GreedyFailure)
    assert result.step == 2
    assert result.neighborhood_size == 11


def test_greedy_fails_at_step_one_without_slack_room():
    host = complete_multipartite([6, 6]).graph
    result = greedy_kr(host, 2, 1, 1, Fraction(1, 10))
    assert isinstance(result, GreedyFailure)
    assert result.step == 1
    assert result.neighborhood_size == 12


def test_greedy_last_step_takes_any_common_neighbor():
    # K2 target: step 2 has no degree floor
    host = complete_multipartite([1, 11]).graph
    result = greedy_kr(host, 2, 1, 1, Fraction(1, 10))
    assert isinstance(result, Embedding)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=4, max_value=10),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    st.integers(min_value=2, max_value=4),
)
def test_greedy_outcome_is_sound(n: int, raw_edges: list, r: int):
    edges = [(u % n, v % n) for u, v in raw_edges if u % n != v % n]
    host = Graph(n, edges)
    sigma, omega, eta = 1, 2, Fraction(1, 10)
    result = greedy_kr(host, r, sigma, omega, eta)
    if isinstance(result, GreedyFailure):
        assert 1 <= result.step <= r
        return
    # a genuine clique, with every prefix inside the promised neighborhood size
    picks = result.image
    assert len(picks) == r
    for a in range(r):
        for b in range(a + 1, r):
            assert host.has_edge(picks[a], picks[b])
    k = host.n
    common = set(range(k))
    for i, x in enumerate(picks[:-1], start=1):
        bound = k - Fraction(i * omega, sigma + (r - 1) * omega) * k + i * eta * k / 3
        common &= set(iter_bits(host.rows[x]))
        assert len(common) >= bound


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_half_graph_witness_frozen():
    # half graph on 5+5: i ~ j iff j - 5 >= i
    edges = [(i, j) for i in range(5) for j in range(5, 10) if j - 5 >= i]
    g = Graph(10, edges)
    result = epsilon_regular_check(range(5), range(5, 10), g, Fraction(1, 4))
    assert not result
    assert result.density == Fraction(3, 5)
    assert result.witness.X == (0, 1)
    assert result.witness.Y == (6, 7)
    assert result.witness.gap == Fraction(2, 5)


def test_complete_bipartite_is_regular():
    g = complete_multipartite([4, 4]).graph
    result = epsilon_regular_check(range(4), range(4, 8), g, Fraction(1, 10))
    assert result
    assert result.density == 1


def test_empty_side_is_regular():
    result = epsilon_regular_check([], [0, 1], Graph(2), Fraction(1, 2))
    assert result and result.density == 0


def test_regularity_validation():
    with pytest.raises(ValueError, match="disjoint"):
        epsilon_regular_check([0, 1], [1, 2], Graph(3), Fraction(1, 2))
    with pytest.raises(ValueError, match="at most"):
        epsilon_regular_check(range(11), range(11, 13), Graph(13), Fraction(1, 2))
    with pytest.raises(ValueError, match="positive"):
        epsilon_regular_check([0], [1], Graph(2), 0)
    k22 = complete_multipartite([2, 2]).graph
    with pytest.raises(ValueError, match="repeats a vertex"):
        epsilon_regular_check([0, 0, 1], [2, 3], k22, Fraction(1, 2))
    with pytest.raises(ValueError, match="vertex 9 is not in the graph"):
        epsilon_regular_check([0, 1], [2, 9], k22, Fraction(1, 2))
    with pytest.raises(ValueError, match="vertex -1 is not in the graph"):
        epsilon_regular_check([-1, 1], [2, 3], k22, Fraction(1, 2))


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(4, 7)), max_size=16),
    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8),
)
def test_regularity_matches_fraction_brute_force(raw_edges: list, eps: Fraction):
    g = Graph(8, raw_edges)
    result = epsilon_regular_check(range(4), range(4, 8), g, eps)
    violation = regularity_violation(range(4), range(4, 8), g, eps)
    assert result.regular == (violation is None)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.data(),
    st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=8),
)
def test_regularity_result_matches_mask_order_brute_force(
    na: int, nb: int, data, eps: Fraction
):
    # one spare vertex outside both sides; labels shuffled so sorting matters
    n = na + nb + 1
    labels = data.draw(st.permutations(range(n)))
    a_side, b_side = labels[:na], labels[na:na + nb]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    g = Graph(n, edges)
    result = epsilon_regular_check(a_side, b_side, g, eps)
    density, witness = regularity_mask_order(a_side, b_side, g, eps)
    assert result.epsilon == eps and result.density == density
    assert result.regular == (witness is None)
    got = result.witness and (result.witness.X, result.witness.Y, result.witness.gap)
    assert got == witness


def _half_dense_pair(seed: int, a_side, b_side) -> Graph:
    rng = random.Random(seed)
    edges = [(a, b) for a in sorted(a_side) for b in sorted(b_side) if rng.random() < 0.5]
    return Graph(20, edges)


# results of the full Y-mask walk on 10 x 10 pairs, the largest sides allowed
@pytest.mark.parametrize(
    "seed, a_side, b_side, eps, density, witness",
    [
        (3, range(10), range(10, 20), Fraction(1, 5), Fraction(43, 100),
         ((0, 1, 2), (10, 11, 15), Fraction(71, 300))),
        # the first X, (0, 1, 2), has no violating Y
        (3, range(10), range(10, 20), Fraction(1, 4), Fraction(43, 100),
         ((1, 2, 3), (10, 12, 16), Fraction(287, 900))),
        (2, range(10), range(10, 20), Fraction(1, 2), Fraction(41, 100), None),
        # interleaved sides, A given in descending order
        (3, range(19, 0, -2), range(0, 20, 2), Fraction(1, 3), Fraction(43, 100),
         ((3, 5, 9, 11), (0, 4, 8, 16), Fraction(147, 400))),
    ],
    ids=["irregular-eps1/5", "irregular-later-x-eps1/4", "regular-eps1/2",
         "interleaved-eps1/3"],
)
def test_regularity_max_side_results_are_pinned(seed, a_side, b_side, eps, density, witness):
    a_side, b_side = list(a_side), list(b_side)
    result = epsilon_regular_check(a_side, b_side, _half_dense_pair(seed, a_side, b_side), eps)
    assert result.density == density
    assert result.regular == (witness is None)
    got = result.witness and (result.witness.X, result.witness.Y, result.witness.gap)
    assert got == witness
