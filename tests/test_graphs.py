"""Core graph type tests: construction, I/O round trips, tiling validation."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilekit.graphs import (
    Embedding,
    Graph,
    GraphParseError,
    PartitionedGraph,
    Tiling,
    VertexOrdering,
    blow_up,
    bottle_graph,
    bottle_shape,
    complete_multipartite,
    emit_edge_list,
    parse_edge_list,
    graph6_decode,
    is_valid_tiling,
    multipartite_classes,
    parse_graph,
)

from _oracles import (
    reference_blow_up,
    reference_complete_multipartite,
    reference_multipartite_classes,
)

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def nx_graph6(g: Graph) -> str:
    return nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()


@st.composite
def graphs(draw: st.DrawFn, max_n: int = 12) -> Graph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible))) if possible else []
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Graph basics
# ---------------------------------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_parallel_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@PROPERTY_SETTINGS
@given(graphs())
def test_degree_sum_is_twice_edge_count(g: Graph):
    assert sum(g.degrees()) == 2 * g.edge_count()


@PROPERTY_SETTINGS
@given(graphs())
def test_adjacency_is_symmetric(g: Graph):
    for u, v in g.edges():
        assert g.has_edge(u, v) and g.has_edge(v, u)


def test_induced_subgraph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, vmap = g.induced([0, 1, 3])
    assert vmap == (0, 1, 3)
    assert sub.edge_count() == 1  # only 0-1 survives
    assert sub.has_edge(0, 1)


# ---------------------------------------------------------------------------
# I/O round trips
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(graphs())
def test_edge_list_round_trip(g: Graph):
    assert parse_graph(emit_edge_list(g)) == g


@PROPERTY_SETTINGS
@given(graphs())
def test_graph6_round_trip(g: Graph):
    # networkx is the independent encoder; tilekit only reads graph6
    text = nx_graph6(g)
    assert graph6_decode(text) == g
    assert parse_graph(text) == g
    assert parse_graph(">>graph6<<" + text) == g


@PROPERTY_SETTINGS
@given(graphs())
def test_graph6_matches_networkx(g: Graph):
    # both decoders read the same string to the same edge set
    text = nx_graph6(g)
    back = nx.from_graph6_bytes(text.encode())
    assert set(back.edges()) == set(graph6_decode(text).edges())


def test_parse_graph_round_trips_long_graph6_header():
    # n > 62 takes the four-byte '~' size field
    path = Graph(70, [(i, i + 1) for i in range(69)])
    assert parse_graph(nx_graph6(path)) == path
    assert parse_graph(emit_edge_list(path)) == path


GRAPH6_LIKE = st.tuples(
    st.sampled_from(["", ">>graph6<<"]),
    st.sampled_from(["", "~"]),  # '~' opens the four-byte size field
    st.text(alphabet=[chr(c) for c in range(58, 130)], max_size=20),
).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0123456789 \t\n-"), GRAPH6_LIKE))
def test_parse_graph_accepts_or_names_the_error(text: str):
    # any text parses or raises ValueError (GraphParseError is one), never
    # an IndexError, KeyError or other uncaught exception
    try:
        g = parse_graph(text)
    except ValueError:
        return
    assert isinstance(g, Graph)


def test_parse_graph_dispatches_on_leading_digit_line():
    assert parse_graph("3\n0 1\n") == Graph(3, [(0, 1)])
    assert parse_graph(">>graph6<<B_") == Graph(3, [(0, 1)])


def test_parse_graph_rejects_garbage():
    with pytest.raises(GraphParseError):
        parse_graph("")
    with pytest.raises(GraphParseError):
        parse_graph("3\n0 1 2\n")
    with pytest.raises(GraphParseError, match="missing vertex count"):
        parse_edge_list("   \n  \n")


def test_graph6_large_size_field():
    g = Graph(100, [(0, 99)])
    assert graph6_decode(nx_graph6(g)) == g


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
)
def test_bottle_graph_shape(r: int, neck: int, extra: int):
    width = neck + extra - 1
    if neck > width:
        return
    bottle = bottle_graph(r, neck, width)
    assert bottle.graph.n == neck + (r - 1) * width
    assert bottle.class_sizes() == (neck,) + (width,) * (r - 1)
    for v in bottle.classes[0]:
        assert bottle.graph.degree(v) == (r - 1) * width
    for cls in bottle.classes[1:]:
        for v in cls:
            assert bottle.graph.degree(v) == neck + (r - 2) * width


def test_bottle_graph_rejects_bad_parameters():
    with pytest.raises(ValueError, match="r >= 2"):
        bottle_graph(1, 1, 1)
    with pytest.raises(ValueError, match="exceeds width"):
        bottle_graph(3, 3, 2)
    with pytest.raises(ValueError, match="positive"):
        bottle_graph(3, 0, 2)


def test_bottle_shape_inverts_bottle_graph():
    for r in range(2, 5):
        for width in range(1, 4):
            for neck in range(1, width + 1):
                for m in range(1, 4):
                    sizes = bottle_graph(r, neck * m, width * m).class_sizes()
                    assert bottle_shape(sizes, m) == (r, neck, width)
    assert bottle_shape([2, 4, 4]) == (3, 2, 4)


@pytest.mark.parametrize(
    "sizes, m, message",
    [
        ((2,), 1, "at least two classes"),
        ((1, 2, 3), 1, "share one size"),
        ((3, 2, 2), 1, "neck 3 exceeds width 2"),
        ((2, 3, 3), 2, "not divisible by m = 2"),
        ((1, 2, 2), 0, "m must be >= 1, got 0"),
        ((1, 2, 2), -1, "m must be >= 1, got -1"),
    ],
)
def test_bottle_shape_rejects_non_bottles(sizes, m, message):
    with pytest.raises(ValueError, match=message):
        bottle_shape(sizes, m)


def test_complete_multipartite_edges():
    g = complete_multipartite([2, 3])
    assert g.graph.edge_count() == 6
    assert not g.graph.has_edge(0, 1)
    assert g.graph.has_edge(0, 2)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6))
def test_complete_multipartite_matches_the_pair_rule(sizes: list[int]):
    built = complete_multipartite(sizes)
    ref, classes = reference_complete_multipartite(sizes)
    assert built.graph.rows == ref.rows
    assert built.classes == classes


@PROPERTY_SETTINGS
@given(graphs(max_n=7), st.integers(min_value=1, max_value=4))
def test_blow_up_matches_the_pair_rule(g: Graph, t: int):
    built = blow_up(g, t)
    ref, classes = reference_blow_up(g, t)
    assert built.graph.rows == ref.rows
    assert built.classes == classes


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_multipartite([500_000, 500_000]),
        lambda: bottle_graph(3, 300_000, 350_000),
    ],
    ids=["complete-multipartite", "bottle-graph"],
)
def test_oversized_hosts_are_rejected_before_their_edges(build):
    # a million vertices: listing the edges first would take minutes and GBs
    with pytest.raises(ValueError, match=r"vertex count 1000000 outside \[0, 4096\]"):
        build()


def test_partitioned_graph_rejects_bad_partition():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="two classes"):
        PartitionedGraph(g, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="partition"):
        PartitionedGraph(g, ((0, 1),))


@PROPERTY_SETTINGS
@given(graphs(max_n=6), st.integers(min_value=1, max_value=3))
def test_blow_up_degrees(g: Graph, t: int):
    blown = blow_up(g, t)
    assert blown.graph.n == g.n * t
    for x in range(g.n):
        for i in range(t):
            assert blown.graph.degree(x * t + i) == t * g.degree(x)


@PROPERTY_SETTINGS
@given(graphs(max_n=4), st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3))
def test_blow_up_composes_up_to_isomorphism(g: Graph, a: int, b: int):
    if g.n * a * b > 12:
        return
    twice = blow_up(blow_up(g, a).graph, b).graph
    once = blow_up(g, a * b).graph
    assert nx.is_isomorphic(to_networkx(twice), to_networkx(once))


def test_blow_up_clone_sets_independent():
    blown = blow_up(Graph(2, [(0, 1)]), 3)
    for cls in blown.classes:
        for u in cls:
            for v in cls:
                assert u == v or not blown.graph.has_edge(u, v)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
def test_multipartite_classes_recovers_sizes(sizes: list[int]):
    g = complete_multipartite(sizes)
    found = multipartite_classes(g.graph)
    assert found is not None
    assert sorted(len(c) for c in found) == sorted(sizes)
    # sorted by (size, smallest label)
    assert found == sorted(found, key=lambda c: (len(c), c[0]))


@st.composite
def relabelled_multipartite(draw: st.DrawFn, drop_edge: bool) -> Graph:
    """A complete multipartite graph under a random relabelling, with one
    edge removed when drop_edge is set."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    g = complete_multipartite(sizes).graph
    perm = draw(st.permutations(range(g.n)))
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    if drop_edge and edges:
        del edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
    return Graph(g.n, edges)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        graphs(),
        relabelled_multipartite(drop_edge=False),
        relabelled_multipartite(drop_edge=True),
    )
)
def test_multipartite_classes_matches_the_pair_rule(g: Graph):
    assert multipartite_classes(g) == reference_multipartite_classes(g)


def test_multipartite_classes_rejects_c5():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert multipartite_classes(c5) is None


def test_multipartite_classes_empty_graph():
    assert multipartite_classes(Graph(0)) is None


# ---------------------------------------------------------------------------
# embeddings and tilings
# ---------------------------------------------------------------------------

K3 = Graph(3, [(0, 1), (1, 2), (2, 0)])


def test_embedding_violations():
    host = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert Embedding(K3, (0, 1, 2)).violation_in(host) is None
    assert "non-edge" in Embedding(K3, (3, 4, 5)).violation_in(host)
    assert "not injective" in Embedding(K3, (0, 1, 1)).violation_in(host)
    assert "outside host range" in Embedding(K3, (0, 1, 6)).violation_in(host)
    assert "pattern has 3" in Embedding(K3, (0, 1)).violation_in(host)


def test_tiling_validation():
    host = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    good = Tiling((Embedding(K3, (0, 1, 2)),))
    assert is_valid_tiling(host, good)
    overlapping = Tiling((Embedding(K3, (0, 1, 2)), Embedding(K3, (2, 3, 4))))
    report = is_valid_tiling(host, overlapping)
    assert not report
    assert "overlap at vertex 2" in report.violation


def test_tiling_covered_and_len():
    t = Tiling((Embedding(K3, (0, 1, 2)), Embedding(K3, (4, 5, 6))))
    assert t.covered == frozenset({0, 1, 2, 4, 5, 6})
    assert len(t) == 2


# ---------------------------------------------------------------------------
# vertex orderings
# ---------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(graphs())
def test_by_degree_ordering_is_monotone(g: Graph):
    ordering = VertexOrdering.by_degree(g)
    degs = [g.degree(v) for v in ordering.order]
    assert degs == sorted(degs)
    assert sorted(ordering.order) == list(range(g.n))


def test_ordering_positions_are_one_based():
    ordering = VertexOrdering([3, 1, 0, 2])
    assert ordering.position(3) == 1
    assert ordering.position(2) == 4
    assert len(ordering) == 4


def test_ordering_rejects_repeats():
    with pytest.raises(ValueError, match="repeats"):
        VertexOrdering([0, 0, 1])
