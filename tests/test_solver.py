"""Maximum-tiling solver tests: catalogs, branch and bound, oracle agreement."""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
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
    blow_up,
    bottle_graph,
    complete_multipartite,
    is_valid_tiling,
    iter_bits,
)
from tilekit.harness import generate_satisfying_instance, pattern_by_name, random_host
from tilekit.thresholds import chromatic_data, x_line
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
# one growth plan of P4 places the later vertex of a symmetry pair first, so
# a vertex must lie below one already placed; no other pattern here does so.
# In P5 that pair is two steps apart, so a capped or touching chunk's
# look-ahead meets the constraint too.
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

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


@pytest.mark.parametrize("cap", [-1, -2])
def test_a_negative_cap_is_rejected(cap):
    # -1 read as "no copies, truncated" and -2 failed inside the heap
    with pytest.raises(ValueError, match=rf"^cap must be >= 0, got {cap}$"):
        enumerate_copies(complete_multipartite([1] * 4).graph, K3, cap=cap)


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
    P4,
    P5,
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


@pytest.mark.parametrize(
    "host, pattern, touching",
    [(C5, P4, None), (pattern_by_name("C_6"), P5, [5])],
    ids=["P4-in-C5", "P5-in-C6-through-5"],
)
def test_paths_in_cycles_match_subset_reference(host, pattern, touching):
    # the properties above meet P4 and P5 on random hosts only; these two
    # lose a copy when a vertex that must lie below a placed one may lie
    # above it instead, in a step (P4) or in a touching chunk's look-ahead (P5)
    cat = enumerate_copies(host, pattern, touching=touching)
    images, _ = reference_copies(host, pattern, touching=touching)
    assert [emb.image for emb in cat.copies] == images


@st.composite
def weighted_coin_hosts(draw: st.DrawFn, min_n: int, max_n: int) -> Graph:
    """Each pair an edge by its own coin with a drawn bias: hosts large and
    dense enough that a chunk holds thousands of copies."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.sampled_from([0.3, 0.4, 0.5, 0.6, 0.7]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(
    weighted_coin_hosts(16, 28),
    st.sampled_from(DIFFERENTIAL_PATTERNS),
    st.sampled_from([None, 0, 1, 2, 5]),
    st.data(),
)
def test_capped_queries_match_the_uncapped_catalogue(host, pattern, cap, data):
    # a capped query, or an uncapped one through `touching`, grows its
    # chunks with cuts; the catalogue without `touching`, filtered and cut
    # here, is what it must reproduce
    within = data.draw(st.none() | st.lists(st.integers(0, host.n - 1), min_size=12, unique=True))
    touching = data.draw(st.none() | st.lists(st.integers(0, host.n - 1), max_size=4, unique=True))
    cat = enumerate_copies(host, pattern, cap, within=within, touching=touching)
    images = [emb.image for emb in enumerate_copies(host, pattern, within=within).copies]
    if touching is not None:
        images = [image for image in images if set(image) & set(touching)]
    assert [emb.image for emb in cat.copies] == images[:cap]
    assert cat.truncated == (cap is not None and len(images) > cap)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    weighted_coin_hosts(6, 18),
    st.sampled_from(DIFFERENTIAL_PATTERNS),
    st.none() | st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_bounded_chunks_are_the_first_of_the_chunk(host, pattern, m, data):
    # chunk(v1, m) holds the first m sets of chunk(v1) that meet touch_mask,
    # keyed alike (all of them when m is None); with m = 0, one of them when
    # there is any.  The m-th set and its key are checked too, which
    # enumerate_copies never returns.
    pg = getattr(pattern, "graph", pattern)
    if pg.n > host.n:
        return
    touching = data.draw(st.none() | st.lists(st.integers(0, host.n - 1), max_size=4, unique=True))
    touch_mask = None if touching is None else sum(1 << v for v in touching)
    growth = solver._growth(pg)
    classes = [1 << v for v in range(host.n)]
    full = solver._chunks(host, growth, classes)
    bounded = solver._chunks(host, growth, classes, touch_mask)
    for v1 in range(host.n):
        chunk = full(v1)
        meeting = [
            r for r in sorted(chunk, reverse=True)
            if touch_mask is None or any(r >> (host.n - 1 - v) & 1 for v in touching)
        ]
        got = bounded(v1, m)
        if m == 0:
            assert len(got) == min(1, len(meeting)) and set(got) <= set(meeting)
        else:  # meeting[:None] is all of it
            assert got == {r: chunk[r] for r in meeting[:m]}


@pytest.mark.parametrize(
    "n, witness", [(60, [0, 36, 4, 16, 37]), (100, [0, 60, 6, 26, 61])]
)
def test_ex2_c5_witness_is_pinned_at_scale(n, witness):
    # the first copy through V' is the first of its chunk's 530,400 at
    # n = 100, and is found without growing the rest
    inst = extremal_two(C5, n, Fraction(1, 20))
    cat = enumerate_copies(inst.host.graph, C5, cap=1, touching=inst.v_prime)
    assert [list(emb.image) for emb in cat.copies] == [witness]
    assert cat.truncated


def c5_line_host(n: int) -> Graph:
    return generate_satisfying_instance(x_line(chromatic_data(C5), Fraction(1, 2)), n, 1)


@pytest.mark.parametrize("n, image", [(40, (0, 2, 4, 1, 5)), (60, (0, 2, 1, 6, 3))])
def test_x_line_c5_query_is_pinned(n, image):
    cat = enumerate_copies(c5_line_host(n), C5, cap=1, touching=[0])
    assert [emb.image for emb in cat.copies] == [image]
    assert cat.truncated


def test_x_line_c5_query_matches_subset_reference_at_scale():
    # chunk 0 of this 150-vertex host takes minutes to grow whole; the
    # reference reaches its first three copies after about 23,000 subsets
    host = c5_line_host(150)
    cat = enumerate_copies(host, C5, 2, touching=[0])
    images, truncated = reference_copies(host, C5, 2, touching=[0])
    assert [emb.image for emb in cat.copies] == images
    assert cat.truncated == truncated
    # cap=0 stops at the first copy it grows
    assert enumerate_copies(host, C5, 0, touching=[0]) == CopyCatalog((), truncated=True)


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
    # a pool of the first h twins of each class, as pooled_types below
    # lists it: the reference that max_tiling's copy types are checked
    # against
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


K12 = complete_multipartite([1, 2]).graph


def seeded_host(seed: int, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# Seeded hosts without twins, each with the tiling a search over all copies
# returns: on such hosts every copy type is one copy, so these stay put.  The
# last two mix K3 with K_{1,2}, two patterns of one size whose types merge.
PINNED_TWIN_FREE = [
    (1, 14, 0.35, [K3, K2], [[0, 4, 9], [1, 2, 13], [3, 7, 10], [5, 8], [11, 12]]),
    (2, 16, 0.3, [C4], [[1, 6, 5, 8], [2, 3, 7, 9], [10, 14, 13, 15]]),
    (3, 15, 0.5, [C5], [[0, 6, 13, 1, 12], [2, 3, 4, 10, 14], [5, 7, 8, 9, 11]]),
    (4, 18, 0.25, [K12],
     [[0, 1, 2], [4, 3, 8], [11, 5, 12], [15, 6, 7], [13, 9, 16], [10, 14, 17]]),
    (5, 20, 0.4, [K3],
     [[0, 7, 14], [1, 6, 11], [2, 8, 16], [3, 17, 18], [4, 9, 19], [5, 12, 13]]),
    (6, 13, 0.45, [complete_multipartite([1, 2, 2]).graph, K3],
     [[0, 5, 11], [2, 3, 7], [4, 8, 10]]),
    (21, 15, 0.35, [K3, K12], [[1, 0, 3], [2, 4, 6], [7, 5, 9], [10, 11, 13]]),
    (22, 12, 0.3, [K3, K12], [[0, 2, 3], [8, 1, 6], [4, 7, 9]]),
]
# the nodes each of those searches takes, by seed
TWIN_FREE_NODES = {1: 829, 2: 19, 3: 246, 4: 86, 5: 134, 6: 64, 21: 2310, 22: 47}


@pytest.mark.parametrize("seed, n, p, patterns, images", PINNED_TWIN_FREE)
def test_twin_free_tilings_are_pinned(seed, n, p, patterns, images):
    host = seeded_host(seed, n, p)
    assert len(set(host.rows)) == n  # no two vertices are twins
    result = max_tiling(host, patterns)
    assert result.proven_optimal
    assert result.reason is None
    assert [list(emb.image) for emb in result.tiling.embeddings] == images
    assert result.nodes == TWIN_FREE_NODES[seed]


# t-fold blow-ups of seeded twin-free hosts: every class has t twins
PINNED_BLOW_UPS = [
    (7, 8, 0.5, 2, [K3, K2],
     [[0, 2, 8], [1, 3, 12], [4, 9], [5, 10], [6, 14], [7, 15], [11, 13]], 16, 39),
    (8, 7, 0.6, 2, [C5], [[0, 2, 1, 3, 6], [4, 7, 8, 5, 9]], 10, 3),
    (9, 6, 0.5, 3, [K3], [[0, 6, 15], [1, 7, 16], [2, 8, 17]], 9, 31),
    (10, 6, 0.6, 3, [C4, K2],
     [[0, 3, 1, 4], [2, 5, 12, 6], [7, 13, 8, 14], [9, 15, 10, 16], [11, 17]], 18, 15),
    (11, 5, 0.7, 3, [complete_multipartite([1, 2, 2]).graph, K3],
     [[3, 0, 1, 12, 13], [2, 6, 14], [4, 7, 9], [5, 8, 10]], 14, 349),
]


@pytest.mark.parametrize("seed, n, p, t, patterns, images, covered, nodes", PINNED_BLOW_UPS)
def test_blow_up_tilings_are_pinned(seed, n, p, t, patterns, images, covered, nodes):
    host = blow_up(seeded_host(seed, n, p), t).graph
    result = max_tiling(host, patterns)
    assert result.proven_optimal
    assert [list(emb.image) for emb in result.tiling.embeddings] == images
    assert result.covered_count == covered
    assert result.nodes == nodes


def test_budget_hit_tiling_is_pinned():
    # the twin-free K3 host above, stopped after 50 of its 134 nodes
    result = max_tiling(seeded_host(5, 20, 0.4), [K3], budget=50)
    assert result.optimality == "best-found"
    assert result.reason == "node-budget-hit"
    assert [list(emb.image) for emb in result.tiling.embeddings] == [
        [0, 7, 14], [1, 4, 9], [2, 8, 16], [3, 17, 18], [5, 12, 13]
    ]
    assert result.covered_count == 15
    assert result.nodes == 50


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


def test_a_negative_budget_is_rejected():
    with pytest.raises(ValueError, match=r"^budget must be >= 0, got -5$"):
        max_tiling(complete_multipartite([1, 1, 1]).graph, [K3], budget=-5)


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


@pytest.mark.parametrize(
    "solve, patterns, message",
    [
        (max_tiling, [], "need at least one pattern"),
        (max_tiling_oracle, [], "need at least one pattern"),
        (max_tiling_oracle, [Graph(0)], "empty pattern"),
    ],
    ids=["search-no-pattern", "oracle-no-pattern", "oracle-empty-pattern"],
)
def test_degenerate_pattern_lists_are_named_errors(solve, patterns, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        solve(K3, patterns)


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
def blow_ups(draw: st.DrawFn, min_twins: int = 1, max_n: int = 16) -> Graph:
    """A base graph on at most 5 vertices, each vertex replaced by
    min_twins-4 twins (n <= max_n), with the host vertices shuffled so that
    classes interleave."""
    b = draw(st.integers(min_value=1, max_value=5))
    possible = [(i, j) for i in range(b) for j in range(i + 1, b)]
    flips = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    sizes = draw(
        st.lists(st.integers(min_twins, 4), min_size=b, max_size=b)
        .filter(lambda s: sum(s) <= max_n)
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


# ---------------------------------------------------------------------------
# copy types: the twin quotient against the pooled catalogue
# ---------------------------------------------------------------------------


def pooled_types(host: Graph, patterns) -> list:
    """Copy types the slow way, as (sorted canonical image, witness pattern,
    witness image): every copy on the first min(|class|, h) twins of each
    class, kept when no unused twin lies before a used one, the first
    pattern's witness winning a type two patterns share; larger patterns
    first, then sorted canonical image."""
    earlier: dict[int, list[int]] = {}  # row -> the twins met so far
    before = []  # per vertex, its twins of lower index
    for v, row in enumerate(host.rows):
        before.append(list(earlier.setdefault(row, [])))
        earlier[row].append(v)
    types: dict[int, dict[frozenset, tuple]] = {}
    for p in patterns:
        pg = getattr(p, "graph", p)
        if pg.n > host.n:
            continue
        of_size = types.setdefault(pg.n, {})
        pool = [v for v in range(host.n) if len(before[v]) < pg.n]
        for emb in enumerate_copies(host, p, within=pool).copies:
            image = set(emb.image)
            if all(u in image for w in image for u in before[w]):
                of_size.setdefault(frozenset(image), (emb.pattern, emb.image))
    return [
        (sorted(canon), *witness)
        for size in sorted(types, reverse=True)
        for canon, witness in sorted(types[size].items(), key=lambda t: sorted(t[0]))
    ]


def pooled_types_by_class(host: Graph, patterns) -> list:
    """pooled_types split as max_tiling lists them: the class with least
    vertex f (classes numbered by least vertex) gets the types whose
    canonical image holds f and no singleton-class vertex below f."""
    counts = Counter(host.rows)
    lonely = {v for v, row in enumerate(host.rows) if counts[row] == 1}
    seen = set()
    firsts = [v for v, row in enumerate(host.rows) if not (row in seen or seen.add(row))]
    table = pooled_types(host, patterns)
    return [
        [t for t in table if f in t[0] and not any(w < f for w in t[0] if w in lonely)]
        for f in firsts
    ]


def class_types(host: Graph, patterns) -> list:
    """The types max_tiling lists at each class, in the form of
    pooled_types_by_class.  The lists are asked for from the last class to
    the first, so each is built before any class below it is listed."""
    classes = solver._twin_classes(host)
    _, types_at = solver._copy_types(host, patterns, classes)
    listed = {k: types_at(k) for k in reversed(range(len(classes[1])))}

    def row(opt: tuple) -> tuple:
        # each witness is built as max_tiling builds it for a placed type
        _, canon, pattern = opt
        within = list(iter_bits(canon))
        (emb,) = enumerate_copies(host, pattern, within=within).copies
        return within, emb.pattern, emb.image

    return [[row(opt) for *_, opt in listed[k]] for k in range(len(classes[1]))]


def takes_the_quotient(host: Graph) -> bool:
    """Whether every twin class holds at least two vertices, as on a blow-up."""
    return all(size >= 2 for size in Counter(host.rows).values())


# K_{1,3} puts up to three vertices in one class, more than some classes hold
TYPE_PATTERNS = [
    K2, K3, P3, C4, C5, bottle_graph(3, 1, 2), K12, complete_multipartite([1, 3]).graph, P4
]


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(
    blow_ups(min_twins=2, max_n=20),
    st.lists(st.sampled_from(TYPE_PATTERNS), min_size=1, max_size=2),
)
@example(complete_multipartite([2, 3, 2]).graph, [K3, K12])
@example(complete_multipartite([2, 3, 2]).graph, [K12, K3])
def test_quotient_types_match_the_pooled_catalogue(host: Graph, patterns):
    # two patterns of one size (K3 with K_{1,2}) share types, and the
    # first pattern's witness wins each shared one
    assert takes_the_quotient(host)
    assert class_types(host, patterns) == pooled_types_by_class(host, patterns)


def line_host(name: str, x: Fraction, n0: int, t: int, join=None) -> Graph:
    """The t-fold blow-up of the x-line host for the pattern `name`, plus
    with `join` one vertex joined to every vertex ("universal") or to every
    even label ("even")."""
    line = x_line(chromatic_data(pattern_by_name(name)), x)
    host = blow_up(generate_satisfying_instance(line, n0, 1), t).graph
    if join is None:
        return host
    step = {"universal": 1, "even": 2}[join]
    return Graph(host.n + 1, [*host.edges(), *((v, host.n) for v in range(0, host.n, step))])


# the x-line blow-up hosts: pattern, x, base order, the blow-up factor of the
# ROADMAP Baseline, the number of copy types at that factor, and what one
# added vertex is joined to (None: no vertex added).  The added vertex is a
# twin class of its own, and those hosts are checked at t = 2 alone.
LINE_HOSTS = [
    ("K3", Fraction(1, 2), 12, 100, 30, None),
    ("C5", Fraction(1, 2), 15, 10, 1422, None),
    ("bottle(3,1,2)", Fraction(2, 3), 15, 20, 984, None),
    ("K3", Fraction(1, 2), 12, 2, None, "universal"),
    ("C5", Fraction(1, 2), 15, 2, None, "universal"),
    ("bottle(3,1,2)", Fraction(2, 3), 15, 2, None, "universal"),
    ("K3", Fraction(1, 2), 12, 2, None, "even"),
]


@pytest.mark.parametrize(
    "name, x, n0, t, count, join",
    LINE_HOSTS,
    ids=[name if join is None else f"{name}-{join}" for name, *_, join in LINE_HOSTS],
)
def test_line_host_types_match_the_pooled_catalogue(name, x, n0, t, count, join):
    pattern = pattern_by_name(name)
    small = line_host(name, x, n0, 2, join)
    assert takes_the_quotient(small) == (join is None)
    assert class_types(small, [pattern]) == pooled_types_by_class(small, [pattern])
    if count is None:
        return
    assert len(pooled_types(small, [pattern])) == count
    # as many types at the Baseline's factor, where the pool is too slow;
    # each is listed at the class of its least vertex
    host = line_host(name, x, n0, t)
    listed = {tuple(t[0]) for types in class_types(host, [pattern]) for t in types}
    assert len(listed) == count


def canonical_image(host: Graph, image) -> int:
    """The mask of the first vertices of each twin class that `image` meets,
    as many as it takes there."""
    mask = 0
    for row, count in Counter(host.rows[w] for w in image).items():
        for v in [v for v in range(host.n) if host.rows[v] == row][:count]:
            mask |= 1 << v
    return mask


def watch_chunks(monkeypatch, listing: bool) -> list:
    """Record the chunks solver._chunks grows of one kind: with `listing`,
    the least vertex of each chunk grown on the host's twin classes (a type
    listing); without, the pool of each chunk grown on one class per pool
    vertex (a witness, on its canonical image)."""
    grown = []
    chunks = solver._chunks

    def counted(host, growth, classes, *touch):
        chunk = chunks(host, growth, classes, *touch)
        if (list(classes) == solver._twin_classes(host)[1]) != listing:
            return chunk

        def counted_chunk(v1, *m):
            grown.append(v1 if listing else sum(classes))
            return chunk(v1, *m)

        return counted_chunk

    monkeypatch.setattr(solver, "_chunks", counted)
    return grown


def test_types_come_from_the_quotient_on_every_host(monkeypatch):
    # a twin class of one vertex is a class whose fibre cap is 1: K_{1,2,2}
    # and a twin-free host list their types on their twin classes, as
    # K_{2,2,2} does, so a chunk on one class per vertex is grown only for
    # a placed type's witness, on its canonical image
    grown = watch_chunks(monkeypatch, listing=False)  # the pool of each
    for host, pattern in [
        (complete_multipartite([1, 2, 2]).graph, K3),
        (complete_multipartite([2, 2, 2]).graph, K3),
        (seeded_host(0, 20, 0.5), C5),
    ]:
        grown.clear()
        result = max_tiling(host, [pattern])
        assert result.proven_optimal and result.tiling
        placed = {canonical_image(host, emb.image) for emb in result.tiling.embeddings}
        assert sorted(grown) == sorted(placed)


# Petersen minus a vertex holds C5 but no triangle
PETERSEN_9 = PETERSEN.induced(range(9))[0]


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(
    st.one_of(coin_hosts(max_n=9), blow_ups(max_n=14)),
    st.lists(st.sampled_from(TYPE_PATTERNS), min_size=1, max_size=3),
)
@example(complete_multipartite([2, 1, 2]).graph, [K3, K12])
@example(complete_multipartite([2, 1, 2]).graph, [K12, K3])
@example(PETERSEN_9, [K3, C5])
def test_types_listed_on_demand_match_the_pooled_catalogue(host: Graph, patterns):
    # each class's list, built when asked for, is the pooled table's types
    # listed there, in table order; a pattern with no copy adds no size.  In
    # K_{2,1,2} the triangles through the singleton 2 are listed at classes
    # {0, 1} and {2}, not at {3, 4}.
    assert class_types(host, patterns) == pooled_types_by_class(host, patterns)
    sizes, _ = solver._copy_types(host, patterns, solver._twin_classes(host))
    assert sizes == {len(t[0]) for t in pooled_types(host, patterns)}


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(coin_hosts(max_n=10), st.sampled_from(DIFFERENTIAL_PATTERNS))
def test_twin_free_types_are_copies(host, pattern):
    # on a twin-free host a type is a copy: the chunk listed on the twin
    # classes holds the catalogue's copies with that least vertex, key for
    # key, and the class of a vertex lists the copies whose least vertex it
    # is, in catalogue order
    pg = getattr(pattern, "graph", pattern)
    if pg.n > host.n or len(set(host.rows)) < host.n:
        return
    growth = solver._growth(pg)
    listing = solver._chunks(host, growth, solver._twin_classes(host)[1])
    catalogue = enumerate_copies(host, pattern).copies
    by_least = [[emb for emb in catalogue if min(emb.image) == v] for v in range(host.n)]
    for v, copies in enumerate(by_least):
        chunk = listing(v)
        keys = [chunk[r] for r in sorted(chunk, reverse=True)]
        assert [growth[1](key) for key in keys] == [emb.image for emb in copies]
    assert class_types(host, [pattern]) == [
        [(sorted(emb.image), emb.pattern, emb.image) for emb in copies] for copies in by_least
    ]


def test_search_grows_only_the_chunks_it_branches_on(monkeypatch):
    # the pinned twin-free C5 host: 6 of its 15 vertices are branched on,
    # and only the types starting there are listed, each start once
    host = seeded_host(3, 15, 0.5)
    grown = watch_chunks(monkeypatch, listing=True)
    result = max_tiling(host, [C5])
    assert result.nodes == TWIN_FREE_NODES[3]
    assert grown == [0, 4, 5, 3, 6, 2]
    assert len(grown) < host.n


def test_witnesses_are_built_only_for_placed_types(monkeypatch):
    # a type's Embedding is built when the tiling first places it, and a
    # quotient type's witness is searched for only then
    built = []
    embedding = solver.Embedding

    def counted(*args):
        built.append(args)
        return embedding(*args)

    grown = watch_chunks(monkeypatch, listing=False)  # the pool of each
    monkeypatch.setattr(solver, "Embedding", counted)
    # twin-free: every copy is its own type, so one Embedding per placed
    # copy, not one per copy listed
    host = seeded_host(0, 20, 0.5)
    assert len(set(host.rows)) == host.n
    result = max_tiling(host, [C5])
    assert len(built) == len(result.tiling) > 0
    # ex3 for K3 at n = 1,440 has twin classes of 159, 640 and 641 vertices,
    # and its types are listed on them.  The optimum places 159 copies of
    # one type: one chunk on one class per vertex, on the canonical image,
    # is grown for the witness, which is moved onto the twins of the other
    # 158.
    built.clear()
    grown.clear()
    host = extremal_three(K3, 1440, Fraction(1, 3), Fraction(1, 1440)).graph
    result = max_tiling(host, [K3])
    assert result.proven_optimal and len(result.tiling) == 159
    assert [pool.bit_count() for pool in grown] == [3]
    assert len(built) == 159
    # the C5 x-line blow-up host lists 1,422 types; a short search places
    # a few of them and grows the chunks of their canonical images alone
    grown.clear()
    result = max_tiling(line_host("C5", Fraction(1, 2), 15, 10), [C5], budget=1000)
    assert {pool.bit_count() for pool in grown} == {5}
    assert len(grown) == len(set(grown)) <= len(result.tiling)


def test_x_line_c5_solve_is_pinned():
    # 39 twin classes, 38 of one vertex and one pair
    host = c5_line_host(40)
    assert sorted(Counter(host.rows).values()) == [1] * 38 + [2]
    result = max_tiling(host, [C5])
    assert result.proven_optimal
    assert (result.covered_count, result.nodes) == (40, 3480)
    assert [emb.image for emb in result.tiling.embeddings] == [
        (0, 2, 4, 1, 5), (3, 6, 12, 22, 7), (8, 30, 9, 17, 23), (10, 13, 21, 11, 15),
        (14, 24, 16, 18, 26), (19, 27, 29, 20, 37), (25, 32, 28, 36, 35), (31, 33, 34, 38, 39),
    ]


def test_mixed_class_hosts_are_pinned():
    # ex3 for K3 at n = 18: twin classes of 1, 8 and 9 vertices
    host = extremal_three(K3, 18, Fraction(1, 3), Fraction(1, 18)).graph
    assert sorted(Counter(host.rows).values()) == [1, 8, 9]
    result = max_tiling(host, [K3])
    assert result.proven_optimal
    assert (result.covered_count, result.nodes) == (3, 3)
    assert [list(emb.image) for emb in result.tiling.embeddings] == [[0, 1, 10]]
    # no triangle: the coin-sum bound counts only C5, so the first C5 meets
    # the root bound of 5 and the search stops after 2 nodes
    result = max_tiling(PETERSEN_9, [K3, C5])
    assert result.proven_optimal
    assert (result.covered_count, result.nodes) == (5, 2)
    assert [list(emb.image) for emb in result.tiling.embeddings] == [[0, 1, 2, 3, 4]]


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
