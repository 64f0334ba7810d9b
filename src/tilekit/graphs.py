"""Core graph types: bitmask graphs, partitions, embeddings, tilings, I/O.

Vertices are always 0..n-1. Adjacency is kept as one int bitmask per vertex,
which makes neighborhood intersection a single `&` and keeps every structure
hashable and immutable after construction.

``Graph(n, edges)`` is the validated entry point for edges from outside the
package (parsers, tiling files, user code): it checks the order, the range
of every endpoint and self-loops. The package's own constructors of dense
hosts (complete multipartite graphs, blow-ups, the extremal families) never
list their edges: they compute each adjacency row from class bitmasks, so a
vertex of class C in a complete multipartite graph gets the row
``full & ~mask(C)``, and an n-vertex host costs O(n) row operations instead
of O(n^2) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 4096


class GraphParseError(ValueError):
    pass


class Graph:
    """Immutable simple undirected graph with dense bitmask rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Graph on len(rows) vertices with these adjacency rows, unchecked.

        For the package's own constructors, whose rows are symmetric and
        loop-free by construction; edges from outside go through __init__.
        """
        g = cls.__new__(cls)
        rows = tuple(rows)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "rows", rows)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basic queries ------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in iter_bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    # -- derived graphs -----------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the map new-index -> old vertex."""
        vs = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(vs)}
        edges = [
            (pos[u], pos[v]) for u, v in combinations(vs, 2) if self.has_edge(u, v)
        ]
        return Graph(len(vs), edges), vs

    # -- equality is labeled ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def check_order(n: int) -> None:
    """ValueError unless a graph may have n vertices; constructors call it
    before they build any rows."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph together with an ordered partition of its vertex set."""

    graph: Graph
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            for v in cls:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
        if seen != set(range(self.graph.n)):
            raise ValueError("classes do not partition the vertex set")

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True, slots=True)
class Embedding:
    """Injective map witnessing one copy of `pattern` inside a host.

    image[i] is the host vertex carrying pattern vertex i. When the pattern
    came with a class partition (complete multipartite patterns), the classes
    are carried along so tilings can report which host vertices sit in
    width classes.
    """

    pattern: Graph
    image: tuple[int, ...]
    pattern_classes: Optional[tuple[tuple[int, ...], ...]] = None

    def __init__(
        self,
        pattern: Graph,
        image: tuple[int, ...],
        pattern_classes: Optional[tuple[tuple[int, ...], ...]] = None,
    ):
        # The generated frozen __init__ stores each field by a generic
        # object.__setattr__ lookup; the catalogue builds one Embedding per
        # copy, so the fields go straight through their slot descriptors
        # (bound below the class, one per field in field order).
        _set_pattern(self, pattern)
        _set_image(self, image)
        _set_pattern_classes(self, pattern_classes)

    def violation_in(self, host: Graph) -> Optional[str]:
        """None if this is a valid copy in host, else a description."""
        if len(self.image) != self.pattern.n:
            return f"image has {len(self.image)} vertices, pattern has {self.pattern.n}"
        if len(set(self.image)) != len(self.image):
            return f"image {self.image} is not injective"
        for w in self.image:
            if not 0 <= w < host.n:
                return f"image vertex {w} outside host range"
        for u, v in self.pattern.edges():
            if not host.has_edge(self.image[u], self.image[v]):
                return (
                    f"pattern edge ({u}, {v}) maps to non-edge "
                    f"({self.image[u]}, {self.image[v]})"
                )
        return None


# Unpacked from fields(), so a field added without a line in __init__
# fails here, at import, instead of being left unset.
_set_pattern, _set_image, _set_pattern_classes = (
    getattr(Embedding, f.name).__set__ for f in fields(Embedding)
)


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint embeddings; disjointness is checked by is_valid_tiling."""

    embeddings: tuple[Embedding, ...] = ()

    @property
    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for emb in self.embeddings:
            out.update(emb.image)
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.embeddings)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def is_valid_tiling(host: Graph, tiling: Tiling) -> ValidationReport:
    """Check every embedding is a valid copy and images are pairwise disjoint."""
    used: dict[int, int] = {}
    for idx, emb in enumerate(tiling.embeddings):
        bad = emb.violation_in(host)
        if bad is not None:
            return ValidationReport(False, f"embedding {idx}: {bad}")
        for w in emb.image:
            if w in used:
                return ValidationReport(
                    False, f"embeddings {used[w]} and {idx} overlap at vertex {w}"
                )
            used[w] = idx
    return ValidationReport(True)


class VertexOrdering:
    """Permutation of [n] along which degrees are non-decreasing."""

    __slots__ = ("order", "_pos")

    def __init__(self, order: Iterable[int]):
        self.order = tuple(order)
        self._pos = {v: i + 1 for i, v in enumerate(self.order)}
        if len(self._pos) != len(self.order):
            raise ValueError("ordering repeats a vertex")

    @classmethod
    def by_degree(cls, g: Graph) -> "VertexOrdering":
        # ties broken by label so downstream index comparisons are deterministic
        return cls(sorted(range(g.n), key=lambda v: (g.degree(v), v)))

    def position(self, v: int) -> int:
        """1-based rank of v in the ordering."""
        return self._pos[v]

    def __len__(self) -> int:
        return len(self.order)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _multipartite_rows(
    class_sizes: Sequence[int],
) -> tuple[tuple[tuple[int, ...], ...], list[int], list[int]]:
    """(classes, masks, rows): classes of these sizes on consecutive labels
    from 0, their vertex bitmasks, and the rows of the complete multipartite
    graph on them, full & ~mask(C) for a vertex of class C."""
    classes, masks, start = [], [], 0
    for s in class_sizes:
        classes.append(tuple(range(start, start + s)))
        masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << start) - 1
    rows = []
    for mask, s in zip(masks, class_sizes):
        rows.extend([full & ~mask] * s)
    return tuple(classes), masks, rows


def complete_multipartite(class_sizes: list[int]) -> PartitionedGraph:
    """Complete multipartite graph; edge iff endpoints in distinct classes."""
    if not class_sizes:
        raise ValueError("class_sizes must be nonempty")
    if any(s <= 0 for s in class_sizes):
        raise ValueError(f"class sizes must be positive, got {class_sizes}")
    check_order(sum(class_sizes))
    classes, _, rows = _multipartite_rows(class_sizes)
    return PartitionedGraph(Graph._from_rows(rows), classes)


def bottle_graph(r: int, neck: int, width: int) -> PartitionedGraph:
    """Complete r-partite graph with one neck class and r-1 width classes.

    The neck is class index 0. neck == width is allowed (balanced case).
    """
    if r < 2:
        raise ValueError(f"bottle graph needs r >= 2, got r={r}")
    if neck < 1 or width < 1:
        raise ValueError(f"neck and width must be positive, got ({neck}, {width})")
    if neck > width:
        raise ValueError(f"neck {neck} exceeds width {width}")
    check_order(neck + width * (r - 1))  # before the list of r classes is built
    return complete_multipartite([neck] + [width] * (r - 1))


def bottle_shape(sizes: Sequence[int], m: int = 1) -> tuple[int, int, int]:
    """(r, sigma, omega) of the bottle graph bottle_graph(r, sigma*m, omega*m)
    with these class sizes, neck first; the inverse of :func:`bottle_graph`.

    Raises ValueError unless m >= 1, there are at least two classes, the
    width classes share one size, the neck is no wider than them and m
    divides both sizes.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if len(sizes) < 2:
        raise ValueError("bottle graphs need at least two classes")
    neck, width = sizes[0], sizes[1]
    if any(s != width for s in sizes[2:]):
        raise ValueError(f"width classes must share one size, got {tuple(sizes)}")
    if neck > width:
        raise ValueError(f"neck {neck} exceeds width {width}")
    if neck % m or width % m:
        raise ValueError(f"class sizes ({neck}, {width}) not divisible by m = {m}")
    return len(sizes), neck // m, width // m


def blow_up(g: Graph, t: int) -> PartitionedGraph:
    """Replace each vertex x by t clones; clone sets of adjacent vertices are
    completely joined, clone sets themselves stay independent.

    Class i of the result is the clone set of original vertex i.
    """
    if t < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {t}")
    if g.n * t > MAX_VERTICES:
        raise ValueError(f"blow-up would have {g.n * t} > {MAX_VERTICES} vertices")
    block = (1 << t) - 1
    rows = []
    for row in g.rows:
        clone_row = 0
        for y in iter_bits(row):
            clone_row |= block << (y * t)
        rows.extend([clone_row] * t)
    classes = tuple(tuple(range(x * t, (x + 1) * t)) for x in range(g.n))
    return PartitionedGraph(Graph._from_rows(rows), classes)


def multipartite_classes(g: Graph) -> Optional[list[tuple[int, ...]]]:
    """If g is complete multipartite, return its classes (sorted by size then
    smallest label); otherwise None.

    The parts of a complete multipartite graph are its open-twin classes
    (vertices with equal rows), so the vertices are grouped by row, and g is
    complete multipartite exactly when every row is ``full & ~mask(C)`` for
    the vertex's own class C.
    """
    if g.n == 0:
        return None
    members: dict[int, int] = {}  # row -> mask of the vertices with that row
    for v, row in enumerate(g.rows):
        members[row] = members.get(row, 0) | 1 << v
    full = (1 << g.n) - 1
    if any(row != full & ~mask for row, mask in members.items()):
        return None
    classes = [tuple(iter_bits(mask)) for mask in members.values()]
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


# ---------------------------------------------------------------------------
# I/O: edge lists in and out, graph6 in
# ---------------------------------------------------------------------------


def _is_count(text: str) -> bool:
    """Whether `text` is a run of ASCII digits.  str.isdigit alone also
    takes other digits, such as Arabic-Indic or superscript ones, which
    int() then reads or rejects without naming the line."""
    return text.isascii() and text.isdigit()


def parse_graph(text: str) -> Graph:
    """Parse either the edge-list format (first line n, then "u v" lines) or a
    graph6 string. A leading line of ASCII digits selects the edge-list reader."""
    stripped = text.strip()
    if not stripped:
        raise GraphParseError("empty input")
    if stripped.startswith(">>graph6<<"):
        return graph6_decode(stripped[len(">>graph6<<") :].strip())
    # the first line ends at the first break of any kind; splitting only the
    # text before the first "\n" keeps a long edge list from being split whole
    first = stripped.partition("\n")[0].splitlines()[0].strip()
    if _is_count(first):
        return parse_edge_list(text)
    return graph6_decode(stripped)


def parse_edge_list(text: str) -> Graph:
    """Read the edge-list format.  The edges are parsed as Graph consumes
    them, so no list of them is built."""
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        count = raw.strip()
        if count:
            break
    else:
        raise GraphParseError("missing vertex count line")
    if not _is_count(count):
        raise GraphParseError(f"line {lineno}: expected vertex count, got {count!r}")

    def edges() -> Iterator[tuple[int, int]]:
        for lineno, raw in lines:
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 2 or not all(map(_is_count, parts)):
                raise GraphParseError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
            yield int(parts[0]), int(parts[1])

    try:
        return Graph(int(count), edges())
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def edge_list_lines(g: Graph) -> Iterator[str]:
    """The lines of g's edge list, each with its newline: the vertex count,
    then "u v" per edge, made one at a time so that a file can be written
    without holding all of it."""
    yield f"{g.n}\n"
    yield from (f"{u} {v}\n" for u, v in g.edges())


def emit_edge_list(g: Graph) -> str:
    return "".join(edge_list_lines(g))


def graph6_decode(s: str) -> Graph:
    s = s.strip()
    if not s:
        raise GraphParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise GraphParseError("graph6 string has characters outside chr(63)..chr(126)")
    if data[0] == 63:  # '~' prefix: 18-bit vertex count
        if len(data) < 4:
            raise GraphParseError("truncated graph6 size field")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    check_order(n)  # before the body is read, which is quadratic in n
    need = n * (n - 1) // 2
    if len(body) * 6 < need:
        raise GraphParseError(f"graph6 body too short for n={n}")
    bits = []
    for d in body:
        for k in range(5, -1, -1):
            bits.append(d >> k & 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)
