"""Maximum-tiling solver tests: catalogs, branch and bound, oracle agreement."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import assignment_max_cover, assignment_max_cover_overlap, reference_copies
from tilekit import solver
from tilekit.constructions import (
    extremal_one,
    extremal_three,
    extremal_two,
    lemma62_perfect_tiling,
)
from tilekit.graphs import (
    Graph,
    Tiling,
    bottle_graph,
    complete_multipartite,
    is_valid_tiling,
)
from tilekit.harness import random_host
from tilekit.solver import (
    CopyCatalog,
    TilingResult,
    enumerate_copies,
    max_tiling,
    max_tiling_oracle,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

K2 = Graph(2, [(0, 1)])
K3 = Graph(3, [(0, 1), (1, 2), (2, 0)])
P3 = Graph(3, [(0, 1), (1, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

PETERSEN = Graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


@st.composite
def hosts(draw: st.DrawFn, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# copy enumeration
# ---------------------------------------------------------------------------


def test_triangles_in_k4():
    cat = enumerate_copies(complete_multipartite([1] * 4).graph, K3)
    assert len(cat) == 4
    assert not cat.truncated
    assert [frozenset(emb.image) for emb in cat.copies] == [
        frozenset(s) for s in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    ]


def test_copies_deduplicate_by_image_set():
    # 12 automorphic embeddings of C5 into K5, one catalog entry
    cat = enumerate_copies(complete_multipartite([1] * 5).graph, C5)
    assert len(cat) == 1


def test_within_and_touching_filters():
    host = complete_multipartite([1] * 5).graph
    cat = enumerate_copies(host, K3, within=[0, 1, 2, 3])
    assert len(cat) == 4
    cat = enumerate_copies(host, K3, touching=[4])
    assert len(cat) == 6
    assert all(4 in emb.image for emb in cat.copies)


def test_cap_semantics():
    # truncated <=> more than cap copies exist
    host = complete_multipartite([1] * 4).graph
    exact = enumerate_copies(host, K3, cap=4)
    assert len(exact) == 4 and not exact.truncated
    cut = enumerate_copies(host, K3, cap=2)
    assert len(cut) == 2 and cut.truncated


def test_cap_zero_only_reports_existence():
    some = enumerate_copies(complete_multipartite([1] * 4).graph, K3, cap=0)
    assert len(some) == 0 and some.truncated
    none = enumerate_copies(Graph(4, [(0, 1), (1, 2), (2, 3)]), K3, cap=0)
    assert len(none) == 0 and not none.truncated


def test_enumerate_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="empty pattern"):
        enumerate_copies(K3, Graph(0))
    with pytest.raises(ValueError, match="host only"):
        enumerate_copies(K2, K3)


@pytest.mark.parametrize("bad", [[4], [-1], [0, 7]])
def test_enumerate_rejects_vertices_outside_the_host(bad):
    host = complete_multipartite([1] * 4).graph
    with pytest.raises(ValueError, match="within vertex .* outside the host range"):
        enumerate_copies(host, K3, within=bad)
    with pytest.raises(ValueError, match="touching vertex .* outside the host range"):
        enumerate_copies(host, K3, touching=bad)


def test_ex2_c5_witness_is_pinned():
    inst = extremal_two(C5, 40, Fraction(1, 20))
    cat = enumerate_copies(inst.host.graph, C5, cap=1, touching=inst.v_prime)
    assert [list(emb.image) for emb in cat.copies] == [[0, 24, 3, 11, 25]]
    assert cat.truncated


DIFFERENTIAL_PATTERNS = [
    Graph(1),  # K1
    Graph(2),  # two isolated vertices
    Graph(4, [(0, 1), (2, 3)]),  # 2K2
    Graph(4, [(0, 1), (1, 2)]),  # P3 + K1
    C4,
    C5,
    complete_multipartite([1, 2, 2]).graph,  # K_{1,2,2}
    bottle_graph(3, 1, 2),
]


@st.composite
def coin_hosts(draw: st.DrawFn, max_n: int = 10) -> Graph:
    """Each pair an edge by its own coin flip: dense enough that several
    copies often share one vertex set."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flips = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    return Graph(n, [e for e, keep in zip(possible, flips) if keep])


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(
    coin_hosts(max_n=10),
    st.sampled_from(DIFFERENTIAL_PATTERNS),
    st.sampled_from([None, 0, 1, 2, 5]),
    st.data(),
)
def test_catalog_matches_subset_reference(host, pattern, cap, data):
    pg = getattr(pattern, "graph", pattern)
    if pg.n > host.n:
        return
    vertex_sets = st.none() | st.lists(st.integers(0, host.n - 1), unique=True)
    within = data.draw(vertex_sets)
    touching = data.draw(vertex_sets)
    cat = enumerate_copies(host, pattern, cap, within=within, touching=touching)
    images, truncated = reference_copies(host, pg, cap, within, touching)
    assert [emb.image for emb in cat.copies] == images
    assert cat.truncated == truncated


def _image_digest(cat: CopyCatalog) -> str:
    return hashlib.sha256(repr([emb.image for emb in cat.copies]).encode()).hexdigest()


@pytest.mark.parametrize(
    "pattern, count, digest",
    [
        (C5, 29855, "1e1e00d054e44af8adcc5ed0d56b43ddea1bd78be11ffb206ffad54205af55a5"),
        (complete_multipartite([1, 2, 2]).graph, 3311,
         "c0c34634fb2e994f4d63c702dccb86fd35b204fc0f2f734da7a4e4a9b2107ee5"),
    ],
    ids=["C5", "K_{1,2,2}"],
)
def test_half_dense_catalog_is_pinned(pattern, count, digest):
    # G(30, 217): too large for the subset reference, so the catalogue's
    # images and order are pinned by count and digest
    rng = random.Random(30)
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    host = Graph(30, rng.sample(pairs, 217))
    cat = enumerate_copies(host, pattern)
    assert len(cat) == count and not cat.truncated
    assert _image_digest(cat) == digest


def test_twin_pool_catalog_is_pinned():
    # the call max_tiling makes on a Lemma 6.2 host: the pool is the first
    # h twins of each class
    bottle = bottle_graph(3, 1, 2)
    host = lemma62_perfect_tiling("Kr", bottle, 2).host.graph
    seen: dict[int, int] = {}  # row -> twins met so far
    pool = []
    for v, row in enumerate(host.rows):
        seen[row] = seen.get(row, 0) + 1
        if seen[row] <= bottle.graph.n:
            pool.append(v)
    assert (host.n, len(pool)) == (30, 15)
    cat = enumerate_copies(host, bottle, within=pool)
    assert len(cat) == 1500 and not cat.truncated
    assert cat.copies[0].image == (20, 0, 1, 10, 11)
    assert all(emb.pattern_classes == bottle.classes for emb in cat.copies)
    assert _image_digest(cat) == "28e7e3d04e2deb32dd4f63407bda869986dc24e2ad5b9ac39f4239fb3c2edf89"


@PROPERTY_SETTINGS
@given(hosts(max_n=8))
def test_enumerated_copies_are_valid_embeddings(host: Graph):
    for pattern in (K2, P3, K3):
        if pattern.n > host.n:
            continue
        for emb in enumerate_copies(host, pattern).copies:
            assert emb.violation_in(host) is None


def test_bottle_pattern_carries_classes():
    host = complete_multipartite([2, 2, 2]).graph
    cat = enumerate_copies(host, bottle_graph(3, 1, 1))
    assert all(emb.pattern_classes == ((0,), (1,), (2,)) for emb in cat.copies)


# ---------------------------------------------------------------------------
# branch and bound on known instances
# ---------------------------------------------------------------------------


def test_perfect_triangle_tiling_of_octahedron():
    result = max_tiling(complete_multipartite([2, 2, 2]).graph, [K3])
    assert result.proven_optimal
    assert result.covered_count == 6
    assert len(result.tiling) == 2


def test_petersen_splits_into_two_five_cycles():
    result = max_tiling(PETERSEN, [C5])
    assert result.proven_optimal
    assert result.covered_count == 10


def test_mixed_patterns_cover_disjoint_union():
    host = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    only_triangles = max_tiling(host, [K3])
    assert only_triangles.covered_count == 3
    mixed = max_tiling(host, [K3, K2])
    assert mixed.covered_count == 5
    assert sorted(e.pattern.n for e in mixed.tiling.embeddings) == [2, 3]


def test_result_is_validated():
    host = Graph(4, [(0, 1), (2, 3)])
    result = max_tiling(host, [K2])
    assert is_valid_tiling(host, result.tiling)
    assert result.covered_count == host.n


def test_tiling_result_rejects_inconsistent_count():
    with pytest.raises(ValueError, match="disagrees"):
        TilingResult(tiling=Tiling(), covered_count=1, optimality="proven-optimal")


def test_tiling_result_rejects_unknown_optimality():
    with pytest.raises(ValueError, match="unknown optimality"):
        TilingResult(tiling=Tiling(), covered_count=0, optimality="maybe")


# Seeded hosts without twins, each with the tiling a search over all copies
# returns: on such hosts every copy type is one copy, so these stay put.
PINNED_TWIN_FREE = [
    (1, 14, 0.35, [K3, K2], [[0, 4, 9], [1, 2, 13], [3, 7, 10], [5, 8], [11, 12]]),
    (2, 16, 0.3, [C4], [[1, 6, 5, 8], [2, 3, 7, 9], [10, 14, 13, 15]]),
    (3, 15, 0.5, [C5], [[0, 6, 13, 1, 12], [2, 3, 4, 10, 14], [5, 7, 8, 9, 11]]),
    (4, 18, 0.25, [complete_multipartite([1, 2]).graph],
     [[0, 1, 2], [4, 3, 8], [11, 5, 12], [15, 6, 7], [13, 9, 16], [10, 14, 17]]),
    (5, 20, 0.4, [K3],
     [[0, 7, 14], [1, 6, 11], [2, 8, 16], [3, 17, 18], [4, 9, 19], [5, 12, 13]]),
    (6, 13, 0.45, [complete_multipartite([1, 2, 2]).graph, K3],
     [[0, 5, 11], [2, 3, 7], [4, 8, 10]]),
]


@pytest.mark.parametrize("seed, n, p, patterns, images", PINNED_TWIN_FREE)
def test_twin_free_tilings_are_pinned(seed, n, p, patterns, images):
    rng = random.Random(seed)
    host = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    assert len(set(host.rows)) == n  # no two vertices are twins
    result = max_tiling(host, patterns)
    assert result.proven_optimal
    assert [list(emb.image) for emb in result.tiling.embeddings] == images


def test_twins_take_the_lowest_free_vertices():
    # K_{2,3}: the K2s take 0-2 and 1-3 (the lowest twins of each class)
    host = complete_multipartite([2, 3]).graph
    result = max_tiling(host, [K2])
    assert result.proven_optimal
    assert [emb.image for emb in result.tiling.embeddings] == [(0, 2), (1, 3)]


@pytest.mark.parametrize(
    "host, pattern, covered",
    [
        # ex3 bottleneck: classes 39, 161 and 160, every triangle needs the first
        (extremal_three(K3, 360, Fraction(1, 3), Fraction(1, 360)).graph, K3, 117),
        # Lemma 6.2 target B for bottle(3,1,2) blown up by 8: a perfect tiling
        (lemma62_perfect_tiling("B", bottle_graph(3, 1, 2), 8).host.graph,
         bottle_graph(3, 1, 2), 200),
    ],
    ids=["ex3-K3-n360", "lemma62-B312-B-m8"],
)
def test_blow_up_hosts_are_proven_within_budget(host, pattern, covered):
    result = max_tiling(host, [pattern], budget=100_000)
    assert result.proven_optimal
    assert result.nodes <= 100_000
    assert result.covered_count == covered
    assert is_valid_tiling(host, result.tiling)


# ---------------------------------------------------------------------------
# resource limits
# ---------------------------------------------------------------------------


def test_budget_exhaustion_downgrades_optimality():
    # budget 4 stops at three triangles, below the optimum of four
    host = complete_multipartite([4, 4, 4]).graph
    result = max_tiling(host, [K3], budget=4)
    assert not result.proven_optimal
    assert result.optimality == "best-found"
    assert "node-budget-hit" in result.reason
    assert result.covered_count == 9
    assert result.nodes == 4


def test_reaching_the_root_bound_proves_optimality():
    # the fifth node covers all 12 vertices, the root bound, so the search
    # stops there proven, whatever budget is left
    host = complete_multipartite([4, 4, 4]).graph
    for budget in (5, 6, 100):
        result = max_tiling(host, [K3], budget=budget)
        assert result.proven_optimal
        assert result.covered_count == 12
        assert result.nodes == 5


def test_long_path_needs_no_recursion():
    n = 2500
    result = max_tiling(Graph(n, [(v, v + 1) for v in range(n - 1)]), [K2])
    assert result.proven_optimal
    assert result.covered_count == n


@pytest.mark.parametrize("table_bytes", [0, 1_000])
def test_full_dominance_table_only_costs_pruning(monkeypatch, table_bytes):
    host = lemma62_perfect_tiling("B", bottle_graph(3, 1, 2), 1).host.graph
    full = max_tiling(host, [bottle_graph(3, 1, 2)])
    monkeypatch.setattr(solver, "_DOMINANCE_MAX_BYTES", table_bytes)
    capped = max_tiling(host, [bottle_graph(3, 1, 2)])
    assert capped.proven_optimal
    assert capped.tiling == full.tiling
    assert capped.nodes > full.nodes


def test_oracle_size_limit():
    with pytest.raises(ValueError, match="oracle refuses"):
        max_tiling_oracle(Graph(17), [K2])


# ---------------------------------------------------------------------------
# solver vs oracle
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(hosts(max_n=10))
def test_solver_agrees_with_oracle(host: Graph):
    patterns = [p for p in (K2, P3, K3) if p.n <= host.n]
    if not patterns:
        return
    ours = max_tiling(host, patterns)
    oracle = max_tiling_oracle(host, patterns)
    assert ours.proven_optimal
    assert ours.covered_count == oracle.covered_count
    assert is_valid_tiling(host, ours.tiling)
    assert is_valid_tiling(host, oracle.tiling)


@st.composite
def blow_ups(draw: st.DrawFn) -> Graph:
    """A base graph on at most 5 vertices, each vertex replaced by 1-4 twins
    (n <= 16), with the host vertices shuffled so that classes interleave."""
    b = draw(st.integers(min_value=1, max_value=5))
    possible = [(i, j) for i in range(b) for j in range(i + 1, b)]
    flips = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=b, max_size=b).filter(lambda s: sum(s) <= 16)
    )
    labels = iter(draw(st.permutations(range(sum(sizes)))))
    blocks = [[next(labels) for _ in range(size)] for size in sizes]
    return Graph(sum(sizes), [
        (u, v)
        for (i, j), keep in zip(possible, flips) if keep
        for u in blocks[i] for v in blocks[j]
    ])


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(blow_ups(), st.lists(st.sampled_from([K2, K3, P3, C4, C5]), min_size=1, max_size=2))
def test_blow_up_tilings_match_oracle(host: Graph, patterns):
    patterns = [p for p in patterns if p.n <= host.n]
    if not patterns:
        return
    ours = max_tiling(host, patterns)
    assert ours.proven_optimal
    assert ours.covered_count == max_tiling_oracle(host, patterns).covered_count
    assert is_valid_tiling(host, ours.tiling)


def test_adding_edges_never_hurts_coverage():
    rng = random.Random(20240817)
    for _ in range(50):
        n = rng.randint(4, 9)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in possible if rng.random() < 0.4]
        host = Graph(n, edges)
        before = max_tiling(host, [K3, K2]).covered_count
        missing = [e for e in possible if e not in set(edges)]
        if not missing:
            continue
        host2 = Graph(n, edges + [rng.choice(missing)])
        after = max_tiling(host2, [K3, K2]).covered_count
        assert after >= before


def test_deterministic_reruns():
    host = Graph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7), (2, 3)])
    first = max_tiling(host, [K3, K2])
    second = max_tiling(host, [K3, K2])
    assert first == second
    o1 = max_tiling_oracle(host, [K3, K2])
    o2 = max_tiling_oracle(host, [K3, K2])
    assert o1 == o2


def test_covered_count_is_sum_of_copy_sizes():
    host = complete_multipartite([3, 3, 3]).graph
    result = max_tiling(host, [K3])
    assert result.covered_count == sum(e.pattern.n for e in result.tiling.embeddings)


# ---------------------------------------------------------------------------
# lexicographic overlap objective
# ---------------------------------------------------------------------------


def test_oracle_overlap_steers_among_equal_optima():
    # P3 has two maximum K2-tilings: {0,1} and {1,2}
    result = max_tiling_oracle(P3, [K2], maximize_overlap=[2])
    assert result.covered_count == 2
    assert 2 in result.tiling.covered
    other = max_tiling_oracle(P3, [K2], maximize_overlap=[0])
    assert 0 in other.tiling.covered


def test_oracle_overlap_never_beats_coverage():
    # covering wins even when overlap prefers a smaller tiling
    host = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    result = max_tiling_oracle(host, [K3, K2], maximize_overlap=[3, 4])
    assert result.covered_count == 5


@pytest.mark.parametrize("bad", [-1, 5])
def test_oracle_rejects_overlap_vertices_outside_the_host(bad):
    message = f"maximize_overlap vertex {bad} outside the host range 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        max_tiling_oracle(P3, [K2], maximize_overlap=[bad])


# ---------------------------------------------------------------------------
# the oracle against a slower one, and its witnesses
# ---------------------------------------------------------------------------


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    coin_hosts(max_n=7),
    st.lists(st.sampled_from([K2, P3, K3, C4, C5]), min_size=1, max_size=3, unique=True),
)
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), [K3, P3])
@example(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]), [P3, K3])
def test_oracle_matches_assignment_max_cover(host: Graph, patterns):
    """Subset recursion over copies found by raw permutation tests; lists
    with two patterns of one order make the first pattern win shared sets."""
    patterns = [p for p in patterns if p.n <= host.n]
    if not patterns:
        return
    assert max_tiling_oracle(host, patterns).covered_count == assignment_max_cover(
        host, patterns
    )


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    coin_hosts(max_n=7),
    st.lists(st.sampled_from([K2, P3, K3, C4, C5]), min_size=1, max_size=3, unique=True),
    st.sets(st.integers(0, 6)),
)
@example(P3, [K2], {2})
@example(Graph(4, [(0, 1), (2, 3)]), [K2], {0, 1, 2, 3})
@example(Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), [K3, K2], {3, 4})
def test_oracle_overlap_matches_lexicographic_brute_force(host: Graph, patterns, drawn):
    """(covered, overlap) of the oracle's tiling is the lexicographic
    maximum over all families of disjoint copies; the second example covers
    every vertex of the overlap set, the largest value the encoding holds."""
    patterns = [p for p in patterns if p.n <= host.n]
    if not patterns:
        return
    overlap = {v for v in drawn if v < host.n}
    result = max_tiling_oracle(host, patterns, maximize_overlap=overlap)
    assert is_valid_tiling(host, result.tiling)
    got = (result.covered_count, len(result.tiling.covered & overlap))
    assert got == assignment_max_cover_overlap(host, patterns, overlap)


BOTTLE_212 = bottle_graph(2, 1, 2)
# the default ex1 grid point of `tilekit verify --family ex1`
EX1_DEFAULT = extremal_one(r=2, sigma=1, omega=2, n=15, eta=Fraction(1, 15), k=2)
ORACLE_PINS = {
    # name: (host, patterns, maximize_overlap), (images, covered_count, nodes)
    "c5-n14": (
        (random_host(14, 5, 0.5), [C5], None),
        ([(4, 5, 8, 6, 10), (7, 12, 11, 9, 13)], 10, 994),
    ),
    "k12-n12": (
        (random_host(12, 8, 0.35), [complete_multipartite([1, 2]).graph], None),
        ([(0, 1, 3), (4, 2, 5), (10, 6, 7), (11, 8, 9)], 12, 457),
    ),
    "k3-p3-n11": (
        (random_host(11, 3, 0.45), [K3, P3], None),
        ([(2, 9, 3), (5, 4, 10), (7, 6, 8)], 9, 259),
    ),
    "c4-overlap-n11": (
        (random_host(11, 21, 0.45), [C4], range(0, 11, 3)),
        ([(0, 1, 3, 5), (2, 6, 10, 9)], 8, 93),
    ),
    "bottle212-n12": (
        (random_host(12, 13, 0.3), [BOTTLE_212], None),
        ([(1, 0, 2), (9, 3, 4), (6, 5, 8), (10, 7, 11)], 12, 442),
    ),
    "c5-k3-n13": (
        (random_host(13, 2, 0.55), [C5, K3], None),
        ([(0, 3, 6, 2, 4), (1, 9, 11), (5, 8, 7, 12, 10)], 13, 931),
    ),
    "c5-k3-overlap-n16": (
        (random_host(16, 9, 0.3), [C5, K3], range(0, 16, 2)),
        ([(0, 3, 2, 6, 8), (1, 11, 9, 5, 12), (4, 10, 14, 13, 15)], 15, 1393),
    ),
    "ex1-default-n15": (
        (EX1_DEFAULT.host.graph, [BOTTLE_212], EX1_DEFAULT.C),
        ([(0, 5, 6), (2, 9, 10), (3, 11, 12), (4, 13, 14)], 12, 3074),
    ),
}


@pytest.mark.parametrize("name", ORACLE_PINS)
def test_oracle_tilings_are_pinned(name):
    """The oracle's witness is the first embedding of a subset in
    itertools.permutations order; these are its exact outputs."""
    (host, patterns, overlap), (images, covered, nodes) = ORACLE_PINS[name]
    result = max_tiling_oracle(host, patterns, maximize_overlap=overlap)
    assert [emb.image for emb in result.tiling.embeddings] == images
    assert result.covered_count == covered
    assert result.nodes == nodes
    assert is_valid_tiling(host, result.tiling)
    if name == "bottle212-n12":
        for emb in result.tiling.embeddings:
            assert emb.pattern_classes == BOTTLE_212.classes
