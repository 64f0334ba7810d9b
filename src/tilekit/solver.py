"""Exact maximum-tiling search with an independent exhaustive oracle.

A tiling is a set of vertex-disjoint pattern copies in a host; the solver
maximizes the number of covered host vertices, allowing several patterns at
once (mixed tilings).  Copies are identified with their image vertex sets:
automorphism-distinct embeddings of the same set are redundant branches.

* :func:`enumerate_copies` -- the copy catalogue.  A rooted search
  (Ullmann 1976; VF2, Cordella et al. 2004) grows embeddings from their
  least image vertex along pattern edges by intersecting neighbourhood
  bitmasks; stabilizer-chain constraints from Aut(pattern) (Grochow &
  Kellis 2007) leave one embedding per copy.  Each image set carries its
  lexicographically least embedding, pattern vertices read by descending
  degree, ties by index, and sets are listed in lexicographic order.

Two solvers deliberately share nothing beyond the Graph type:

* :func:`max_tiling` -- branch and bound on the lowest uncovered vertex;
  either a copy through that vertex is chosen or the vertex is permanently
  skipped.  Upper bound: covered + the best coin sum of pattern sizes that
  fits in the remaining free-vertex count.
* :func:`max_tiling_oracle` -- memoized recursion over free-vertex bitmasks
  with naive permutation-based copy detection, for hosts up to 16 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graphs import Embedding, Graph, PartitionedGraph, Tiling, iter_bits

__all__ = [
    "DEFAULT_BUDGET",
    "ORACLE_MAX_VERTICES",
    "CopyCatalog",
    "TilingResult",
    "enumerate_copies",
    "max_tiling",
    "max_tiling_oracle",
]

DEFAULT_BUDGET = 10_000_000
ORACLE_MAX_VERTICES = 16

PatternLike = Union[Graph, PartitionedGraph]


def _pattern_parts(p: PatternLike):
    """Split a pattern into (graph, classes-or-None).

    Partitioned patterns keep their class structure so tilings of bottle
    graphs can report which host vertices landed in width classes.
    """
    if isinstance(p, PartitionedGraph):
        return p.graph, p.classes
    return p, None


# ---------------------------------------------------------------------------
# copy enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopyCatalog:
    """All (or the first `cap`) copies of one pattern in a host.

    A copy is an image vertex set: copies are deduplicated by it and listed
    in lexicographic order of the sorted set.  Each carries one witness
    embedding, the lexicographically least of all embeddings onto that set
    when pattern vertices are read by descending degree, ties by index.
    ``truncated`` is set exactly when more than `cap` copies exist, so
    ``len(copies) + truncated`` is a lower bound on the true count, and
    downstream optimality claims must be downgraded.
    """

    host: Graph
    pattern: Graph
    pattern_classes: Optional[tuple[tuple[int, ...], ...]]
    copies: tuple[Embedding, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.copies)

    def image_sets(self) -> list[frozenset[int]]:
        return [emb.image_set for emb in self.copies]


def _automorphism_extends(pattern: Graph, fixed: Sequence[tuple[int, int]]) -> bool:
    """Whether some automorphism of `pattern` maps a to b for every (a, b) in fixed."""
    rows = pattern.rows
    pinned = {a for a, _ in fixed}
    todo = list(fixed) + [(v, None) for v in range(pattern.n) if v not in pinned]
    src: list[int] = []
    dst: list[int] = []

    def fits(a: int, b: int) -> bool:
        return (
            b not in dst
            and rows[a].bit_count() == rows[b].bit_count()
            and all((rows[a] >> x & 1) == (rows[b] >> y & 1) for x, y in zip(src, dst))
        )

    def rec(i: int) -> bool:
        if i == len(todo):
            return True
        a, b = todo[i]
        for c in (b,) if b is not None else range(pattern.n):
            if fits(a, c):
                src.append(a)
                dst.append(c)
                if rec(i + 1):
                    return True
                src.pop()
                dst.pop()
        return False

    return rec(0)


def _search_plans(pattern: Graph, order: Sequence[int]):
    """Rooted growth plans that meet each copy once, in its least embedding.

    Symmetry breaking along the stabilizer chain of Aut(pattern) taken in
    `order`: for each order[i] and each other vertex b of its orbit under
    the automorphisms fixing order[:i], require image[order[i]] < image[b].
    Exactly one embedding per copy satisfies all of these, the one whose
    images read in `order` are lexicographically least.

    One plan per root, a pattern vertex allowed to carry the least image
    vertex.  A plan lists the pattern vertices in growth order (next: most
    placed neighbours, then degree, then index) and, per step, the earlier
    positions the new vertex must be adjacent to, lie above and lie below,
    and where each vertex of `order` sits in it.
    """
    h = pattern.n
    rows = pattern.rows
    pairs = [
        (a, b)
        for i, a in enumerate(order)
        for b in order[i + 1 :]
        if _automorphism_extends(pattern, [(p, p) for p in order[:i]] + [(a, b)])
    ]
    above = {b for _, b in pairs}
    plans = []
    for root in order:
        if root in above:
            continue
        seq = [root]
        while len(seq) < h:
            seq.append(max(
                (v for v in range(h) if v not in seq),
                key=lambda v: (sum(rows[v] >> p & 1 for p in seq), rows[v].bit_count(), -v),
            ))
        pos = {v: i for i, v in enumerate(seq)}
        steps = [
            (
                tuple(pos[w] for w in seq[:i] if rows[v] >> w & 1),
                tuple(pos[a] for a, b in pairs if b == v and pos[a] < i),
                tuple(pos[b] for a, b in pairs if a == v and pos[b] < i),
            )
            for i, v in enumerate(seq)
        ]
        plans.append((steps, tuple(pos[u] for u in order)))
    return plans


def _least_witnesses(
    host: Graph, pattern: Graph, pool_mask: int, touch_mask: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the witness image of every copy, in the catalogue's order.

    Chunk by the least image vertex v1, ascending.  Within a chunk, grow each
    embedding from v1 along the plans of :func:`_search_plans`, drawing host
    vertices from the pool above v1 and intersecting neighbourhood masks;
    keep, per image set, the witness least in (-degree, index) order; then
    yield the chunk's sets in lexicographic order.
    """
    h = pattern.n
    rows = host.rows
    order = sorted(range(h), key=lambda v: (-pattern.degree(v), v))
    plans = _search_plans(pattern, order)
    # the current chunk and plan, read by grow
    img = [0] * h
    best: dict[int, tuple[int, ...]] = {}
    avail = 0
    steps: list = []
    key_pos: tuple[int, ...] = ()

    def grow(i: int, used: int) -> None:
        if i == h:
            key = tuple([img[p] for p in key_pos])
            old = best.get(used)
            if old is None or key < old:
                best[used] = key
            return
        nbrs, lo, hi = steps[i]
        cand = avail & ~used
        for p in nbrs:
            cand &= rows[img[p]]
        for p in lo:
            cand &= -2 << img[p]
        for p in hi:
            cand &= (1 << img[p]) - 1
        while cand:
            low = cand & -cand
            img[i] = low.bit_length() - 1
            grow(i + 1, used | low)
            cand ^= low

    for v1 in iter_bits(pool_mask):
        avail = pool_mask >> (v1 + 1) << (v1 + 1)
        if avail.bit_count() < h - 1:
            return
        if touch_mask is not None and not (touch_mask & pool_mask) >> v1:
            return
        best.clear()
        img[0] = v1
        for steps, key_pos in plans:
            grow(1, 1 << v1)
        chunk = sorted(best.items(), key=lambda item: sorted(item[1]))
        for mask, key in chunk:
            if touch_mask is not None and not mask & touch_mask:
                continue
            image = [0] * h
            for u, x in zip(order, key):
                image[u] = x
            yield tuple(image)


def _vertex_mask(host: Graph, vertices: Iterable[int], name: str) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < host.n:
            raise ValueError(f"{name} vertex {v} outside the host range 0..{host.n - 1}")
        mask |= 1 << v
    return mask


def enumerate_copies(
    host: Graph,
    pattern: PatternLike,
    cap: Optional[int] = None,
    *,
    within: Optional[Iterable[int]] = None,
    touching: Optional[Iterable[int]] = None,
) -> CopyCatalog:
    """Every distinct-vertex-set copy of `pattern` inside `host`.

    cap: keep at most this many copies; ``truncated`` is set exactly when
        more than `cap` copies exist (``cap=0`` keeps none and reports
        whether any exists).
    within: restrict images to this vertex pool.
    touching: keep only copies meeting this set (used to ask "does any copy
        pass through V?" cheaply with cap=1).

    Vertices of `within` or `touching` outside the host raise ValueError.
    Order and witnesses are as described on :class:`CopyCatalog`.
    """
    pg, pcls = _pattern_parts(pattern)
    if pg.n == 0:
        raise ValueError("empty pattern")
    if pg.n > host.n:
        raise ValueError(f"pattern has {pg.n} vertices, host only {host.n}")
    pool_mask = (
        _vertex_mask(host, within, "within") if within is not None else (1 << host.n) - 1
    )
    touch_mask = _vertex_mask(host, touching, "touching") if touching is not None else None
    copies = []
    truncated = False
    for image in _least_witnesses(host, pg, pool_mask, touch_mask):
        if cap is not None and len(copies) >= cap:
            truncated = True
            break
        copies.append(Embedding(pg, image, pcls))
    return CopyCatalog(
        host=host,
        pattern=pg,
        pattern_classes=pcls,
        copies=tuple(copies),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingResult:
    """Outcome of a maximum-tiling search.

    optimality is "proven-optimal" only when the search tree was exhausted
    within the node budget; otherwise "best-found" with the reason.
    """

    tiling: Tiling
    covered_count: int
    optimality: str
    reason: Optional[str] = None
    nodes: int = 0

    def __post_init__(self) -> None:
        if self.optimality not in ("proven-optimal", "best-found"):
            raise ValueError(f"unknown optimality {self.optimality!r}")
        if self.covered_count != len(self.tiling.covered):
            raise ValueError("covered_count disagrees with the tiling")

    @property
    def proven_optimal(self) -> bool:
        return self.optimality == "proven-optimal"


def max_tiling(
    host: Graph,
    patterns: Sequence[PatternLike],
    budget: int = DEFAULT_BUDGET,
) -> TilingResult:
    """Maximum mixed tiling by branch and bound.

    Branch vertex = lowest uncovered vertex; its options are the copies
    through it (larger patterns first, then lexicographic image), followed by
    permanently skipping it.  The first tiling attaining the optimum in this
    deterministic order is returned.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    catalogs = []
    seen = set()
    for p in patterns:
        pg, pcls = _pattern_parts(p)
        if pg.n == 0:
            raise ValueError("empty pattern")
        key = (pg, pcls)
        if key in seen or pg.n > host.n:
            continue
        seen.add(key)
        catalogs.append(enumerate_copies(host, p))

    by_set: dict[frozenset, Embedding] = {}
    for cat in catalogs:
        for emb in cat.copies:
            by_set.setdefault(emb.image_set, emb)
    options = sorted(
        by_set.values(), key=lambda e: (-e.pattern.n, tuple(sorted(e.image)))
    )
    per_vertex: list[list] = [[] for _ in range(host.n)]
    for emb in options:
        mask = 0
        for w in emb.image:
            mask |= 1 << w
        for w in emb.image:
            per_vertex[w].append((mask, emb.pattern.n, emb))

    # best coverable total from m free vertices, ignoring adjacency
    sizes = sorted({emb.pattern.n for emb in options})
    fit = [0] * (host.n + 1)
    for m in range(1, host.n + 1):
        best = fit[m - 1]
        for s in sizes:
            if s <= m:
                best = max(best, fit[m - s] + s)
        fit[m] = best

    best_count = 0
    best_embs: tuple[Embedding, ...] = ()
    chosen: list[Embedding] = []
    nodes = 0
    budget_hit = False

    def rec(free: int, covered: int) -> None:
        nonlocal best_count, best_embs, nodes, budget_hit
        if budget_hit:
            return
        nodes += 1
        if nodes > budget:
            budget_hit = True
            return
        if covered > best_count:
            best_count = covered
            best_embs = tuple(chosen)
        if not free or covered + fit[free.bit_count()] <= best_count:
            return
        v = (free & -free).bit_length() - 1
        for mask, size, emb in per_vertex[v]:
            if mask & free == mask:
                chosen.append(emb)
                rec(free & ~mask, covered + size)
                chosen.pop()
                if budget_hit:
                    return
        rec(free & ~(1 << v), covered)

    rec((1 << host.n) - 1, 0)

    return TilingResult(
        tiling=Tiling(best_embs),
        covered_count=best_count,
        optimality="best-found" if budget_hit else "proven-optimal",
        reason="node-budget-hit" if budget_hit else None,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def max_tiling_oracle(
    host: Graph,
    patterns: Sequence[PatternLike],
    *,
    maximize_overlap: Optional[Iterable[int]] = None,
) -> TilingResult:
    """Exhaustive maximum tiling on hosts with at most 16 vertices.

    Copies are found by trying raw vertex permutations per subset (no shared
    code with the main search); the optimum is a memoized recursion over
    free-vertex bitmasks.  With ``maximize_overlap`` the objective becomes
    lexicographic (covered vertices, then overlap with the given set), which
    answers "how much of this set can an optimal tiling cover?" exactly.
    """
    if host.n > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"oracle refuses hosts above {ORACLE_MAX_VERTICES} vertices, got {host.n}"
        )
    if not patterns:
        raise ValueError("need at least one pattern")

    copy_map: dict[int, Embedding] = {}
    seen_pattern_graphs = set()
    for p in patterns:
        pg, pcls = _pattern_parts(p)
        if pg.n == 0:
            raise ValueError("empty pattern")
        if pg in seen_pattern_graphs or pg.n > host.n:
            continue
        seen_pattern_graphs.add(pg)
        pedges = list(pg.edges())
        for subset in combinations(range(host.n), pg.n):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if mask in copy_map:
                continue
            for perm in permutations(subset):
                if all(host.has_edge(perm[a], perm[b]) for a, b in pedges):
                    copy_map[mask] = Embedding(pg, perm, pcls)
                    break

    per_vertex: list[list] = [[] for _ in range(host.n)]
    for mask in sorted(copy_map):
        emb = copy_map[mask]
        for w in emb.image:
            per_vertex[w].append((mask, emb))

    overlap_mask = 0
    if maximize_overlap is not None:
        for v in maximize_overlap:
            overlap_mask |= 1 << v

    memo: dict[int, tuple[int, int]] = {}
    pick: dict[int, tuple[str, int]] = {}

    def value(free: int) -> tuple[int, int]:
        if not free:
            return (0, 0)
        got = memo.get(free)
        if got is not None:
            return got
        v = (free & -free).bit_length() - 1
        best = value(free & ~(1 << v))
        best_pick = ("skip", v)
        for mask, emb in per_vertex[v]:
            if mask & free == mask:
                sub = value(free & ~mask)
                cand = (
                    sub[0] + emb.pattern.n,
                    sub[1] + (mask & overlap_mask).bit_count(),
                )
                if cand > best:
                    best = cand
                    best_pick = ("copy", mask)
        memo[free] = best
        pick[free] = best_pick
        return best

    full = (1 << host.n) - 1
    covered, _overlap = value(full)

    embs = []
    cursor = full
    while cursor:
        kind, payload = pick[cursor]
        if kind == "skip":
            cursor &= ~(1 << payload)
        else:
            embs.append(copy_map[payload])
            cursor &= ~payload
    return TilingResult(
        tiling=Tiling(tuple(embs)),
        covered_count=covered,
        optimality="proven-optimal",
        nodes=len(memo),
    )
