"""Exact maximum-tiling search with an independent exhaustive oracle.

A tiling is a set of vertex-disjoint pattern copies in a host; the solver
maximizes the number of covered host vertices, allowing several patterns at
once (mixed tilings).  Copies are identified with their image vertex sets:
automorphism-distinct embeddings of the same set are redundant branches.

* :func:`enumerate_copies` -- the copy catalogue.  A rooted search
  (Ullmann 1976; VF2, Cordella et al. 2004) grows embeddings from their
  least image vertex along pattern edges by intersecting neighbourhood
  bitmasks; stabilizer-chain constraints from Aut(pattern) (Grochow &
  Kellis 2007) leave one embedding per Aut(pattern)-orbit.  That is not one
  per image set: a triangle carries three K_{1,2} embeddings, one per
  centre, that no automorphism relates.  So the least of them per set is
  kept: each image set carries its lexicographically least embedding,
  pattern vertices read by descending degree, ties by index, and sets are
  listed in lexicographic order.

Two solvers deliberately share nothing beyond the Graph type:

* :func:`max_tiling` -- branch and bound over the twin quotient.  Open
  twins (vertices with equal rows) form classes, and a copy matters only
  through its *copy type*, the number of vertices it takes from each class.
  The search branches on the lowest free vertex: a type through its class,
  placed on the lowest free vertices of each class it uses, or skipping the
  vertex (its whole class when no type through it fits).  It cuts a subtree
  by the bound covered + the best coin sum of pattern sizes within the free
  count, and by a dominance table of the most covered seen per free mask.
  On a host without twins every type is one copy.
* :func:`max_tiling_oracle` -- memoized recursion over free-vertex bitmasks
  (the subset dynamic programme of Held & Karp 1962), for hosts up to 16
  vertices.  Copies are found per vertex subset by raw permutation testing,
  keyed by the subset's induced shape: one table per pattern of the first
  permutation for each set of needed pairs.  Each copy is listed once,
  under its least vertex; a value is one integer encoding (covered,
  overlap), and the tiling is walked back from the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from operator import itemgetter
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
# the dominance table of max_tiling stops growing at about this size
_DOMINANCE_MAX_BYTES = 128 * 2**20
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
    when pattern vertices are read by descending degree, ties by index; a
    partitioned pattern's classes ride on every witness.  ``truncated`` is
    set exactly when more than `cap` copies exist, so ``len(copies) +
    truncated`` is a lower bound on the true count, and downstream
    optimality claims must be downgraded.
    """

    copies: tuple[Embedding, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.copies)


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
    """Rooted growth plans that meet each Aut(pattern)-orbit once.

    Symmetry breaking along the stabilizer chain of Aut(pattern) taken in
    `order`: for each order[i] and each other vertex b of its orbit under
    the automorphisms fixing order[:i], require image[order[i]] < image[b].
    Exactly one embedding per Aut(pattern)-orbit of embeddings satisfies all
    of these, the one whose images read in `order` are lexicographically
    least.  That is one per orbit, not one per image set: a set can carry
    several orbits that no automorphism relates (a triangle carries three
    K_{1,2} embeddings, one per choice of centre), so the caller still keeps
    the least of them per set.

    One plan per root, a pattern vertex allowed to carry the least image
    vertex.  A plan lists the pattern vertices in growth order (next: most
    placed neighbours, then degree, then index).  Each step names the vertex
    placed by its *slot*, its position in `order`, and the slots of the
    earlier vertices it must be adjacent to, lie above and lie below.
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
    slot = {v: i for i, v in enumerate(order)}
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
        plans.append(tuple(
            (
                slot[v],
                tuple(slot[w] for w in seq[:i] if rows[v] >> w & 1),
                tuple(slot[a] for a, b in pairs if b == v and a in seq[:i]),
                tuple(slot[b] for a, b in pairs if a == v and b in seq[:i]),
            )
            for i, v in enumerate(seq)
        ))
    return plans


def _least_witnesses(
    host: Graph, pattern: Graph, pool_mask: int, touch_mask: Optional[int]
) -> Iterator[tuple[int, ...]]:
    """Yield the witness image of every copy, in the catalogue's order.

    Chunk by the least image vertex v1, ascending.  Within a chunk, grow each
    embedding from v1 along the plans of :func:`_search_plans`, drawing host
    vertices from the pool above v1 and intersecting neighbourhood masks.
    The plans leave one embedding per Aut(pattern)-orbit, and an image set
    can carry several orbits (a triangle carries three K_{1,2} embeddings),
    so keep, per image set, the key (images read in (-degree, index) order)
    that is least; it is the witness.  The last growth step records its
    candidates in a loop rather than one call each.

    The chunk's dict is keyed by the *reversed* image mask, bit n-1-v for
    vertex v.  Among sets of one size the lexicographic order of the sorted
    sets is descending order of reversed masks, so the chunk is yielded by
    a plain reverse sort, and `touching` is tested on the reversed mask.
    """
    h = pattern.n
    n = host.n
    rows = host.rows
    order = sorted(range(h), key=lambda v: (-pattern.degree(v), v))
    plans = _search_plans(pattern, order)
    # key -> image; itemgetter returns a bare item, not a 1-tuple, for one index
    to_image = itemgetter(*sorted(range(h), key=order.__getitem__)) if h > 1 else tuple
    rtouch = 0
    if touch_mask is not None:
        for v in iter_bits(touch_mask):
            rtouch |= 1 << (n - 1 - v)
    # the current chunk and plan, read by grow; img holds images by slot
    img = [0] * h
    best: dict[int, tuple[int, ...]] = {}
    avail = 0
    steps: tuple = ()
    last = h - 1

    def grow(i: int, used: int, rused: int, cand: int) -> None:
        """Place step i on each vertex of cand and grow the rest."""
        s = steps[i][0]
        if i == last:
            while cand:
                low = cand & -cand
                top = low.bit_length()
                img[s] = top - 1
                key = tuple(img)
                r = rused | 1 << (n - top)
                old = best.get(r)
                if old is None or key < old:
                    best[r] = key
                cand ^= low
            return
        _, nbrs, lo, hi = steps[i + 1]
        while cand:
            low = cand & -cand
            top = low.bit_length()
            img[s] = top - 1
            nxt = avail & ~(used | low)
            for p in nbrs:
                nxt &= rows[img[p]]
            for p in lo:
                nxt &= -2 << img[p]
            for p in hi:
                nxt &= (1 << img[p]) - 1
            if nxt:
                grow(i + 1, used | low, rused | 1 << (n - top), nxt)
            cand ^= low

    for v1 in iter_bits(pool_mask):
        avail = pool_mask >> (v1 + 1) << (v1 + 1)
        if avail.bit_count() < h - 1:
            return
        if touch_mask is not None and not (touch_mask & pool_mask) >> v1:
            return
        best.clear()
        for steps in plans:
            grow(0, 0, 0, 1 << v1)
        for r in sorted(best, reverse=True):
            if touch_mask is None or r & rtouch:
                yield to_image(best[r])


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
    return CopyCatalog(copies=tuple(copies), truncated=truncated)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingResult:
    """Outcome of a maximum-tiling search.

    optimality is "proven-optimal" only when the search tree was exhausted
    within the node budget, or the tiling met the search's upper bound;
    otherwise "best-found" with the reason.  ``nodes`` never exceeds the
    budget.
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


def _take_twins(free: int, taken: int, parts) -> int:
    """`taken` plus the lowest c free vertices of each (class mask, c) in
    `parts`, or 0 when some class has fewer than c left."""
    for cmask, c in parts:
        f = free & cmask
        if f.bit_count() < c:
            return 0
        for _ in range(c):
            low = f & -f
            taken |= low
            f ^= low
    return taken


def max_tiling(
    host: Graph,
    patterns: Sequence[PatternLike],
    budget: int = DEFAULT_BUDGET,
) -> TilingResult:
    """Maximum mixed tiling by branch and bound over the twin quotient.

    Open twins (vertices with equal rows) form classes, and a tiling's size
    does not depend on which twins of a class its copies use.  A *copy type*
    is a class-count vector that some copy has; it is represented by its
    canonical copy, on the first vertices of each class it uses, with that
    copy's catalogue witness.  The types come from :func:`enumerate_copies`
    restricted to the first min(|class|, h) vertices of each class, and are
    ordered as copies are: larger patterns first, then lexicographic image
    of the canonical copy.

    Branch vertex = lowest free vertex.  Its options are the types through
    its class that fit the free vertices, each placed on the lowest free
    vertices of every class it uses (so the free set stays a suffix of each
    class, and twin-symmetric branches coincide), followed by skipping the
    vertex for good.  When no type through its class fits, the whole class
    is dropped at once.  A subtree is cut when covered + the best coin sum
    of pattern sizes within the free count cannot beat the incumbent, or
    when the dominance table (free mask -> most covered seen there) holds an
    earlier visit with at least as much covered.  The search stops, proven
    optimal, as soon as a tiling covers the root bound (the best coin sum
    within n).  It runs on an explicit stack; the table stops growing at
    about ``_DOMINANCE_MAX_BYTES``, which only costs pruning.

    The first tiling attaining the optimum in this deterministic order is
    returned, each type's witness moved onto the twins it took (the j-th
    vertex of a class to the j-th taken one).  On a twin-free host every
    class is a singleton and every copy its own type, so this is the first
    optimal tiling in the order of all copies.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    # Twin classes, numbered by least vertex.  A vertex is not in its own
    # row, so twins are never adjacent: a class is an independent set, and
    # permuting it is a host automorphism.
    class_of_row: dict[int, int] = {}
    cls_of = [class_of_row.setdefault(row, len(class_of_row)) for row in host.rows]
    class_mask = [0] * len(class_of_row)
    below = [0] * host.n  # the twins before v in its class
    for v, i in enumerate(cls_of):
        below[v] = class_mask[i]
        class_mask[i] |= 1 << v
    twins = 0  # the vertices of classes with more than one vertex
    for mask in class_mask:
        if mask & (mask - 1):
            twins |= mask

    types: dict[int, Embedding] = {}  # canonical image mask -> witness
    seen = set()
    for p in patterns:
        pg, pcls = _pattern_parts(p)
        if pg.n == 0:
            raise ValueError("empty pattern")
        key = (pg, pcls)
        if key in seen or pg.n > host.n:
            continue
        seen.add(key)
        # a copy uses at most h twins of a class, and any h of them alike
        pool = [v for v in range(host.n) if below[v].bit_count() < pg.n]
        for emb in enumerate_copies(host, p, within=pool).copies:
            mask = need = 0
            for w in emb.image:
                mask |= 1 << w
                need |= below[w]
            if not need & ~mask:  # canonical: no unused twin before a used one
                types.setdefault(mask, emb)

    # per class, the types through it, each as (mask on singleton classes,
    # (class mask, count) per larger class, (size, canonical mask, witness))
    per_class: list[list] = [[] for _ in class_mask]
    order = sorted(types.items(), key=lambda t: (-t[1].pattern.n, sorted(t[1].image)))
    for canon, emb in order:
        parts: tuple = ()
        if canon & twins:
            used: dict[int, int] = {}
            for w in iter_bits(canon & twins):
                used[cls_of[w]] = used.get(cls_of[w], 0) + 1
            parts = tuple((class_mask[i], c) for i, c in used.items())
        entry = (canon & ~twins, parts, (emb.pattern.n, canon, emb))
        for w in emb.image:
            if not below[w]:  # once per class: a canonical copy uses its first vertex
                per_class[cls_of[w]].append(entry)

    # best coverable total from m free vertices, ignoring adjacency
    sizes = sorted({emb.pattern.n for emb in types.values()})
    fit = [0] * (host.n + 1)
    for m in range(1, host.n + 1):
        best = fit[m - 1]
        for s in sizes:
            if s <= m:
                best = max(best, fit[m - s] + s)
        fit[m] = best

    best_count = 0
    best_chosen: tuple = ()  # (taken mask, option) per copy of the incumbent
    # frames of the path: free mask, covered, the (taken mask, option) pairs
    # that fit, the next one to try; all but the top one are inside the
    # subtree of the option before their next one
    stack: list[list] = []
    dominance: dict[int, int] = {}
    room = _DOMINANCE_MAX_BYTES // (104 + host.n // 8)  # an entry and its key
    nodes = 0
    budget_hit = False

    def visit(free: int, covered: int) -> Optional[list]:
        """Count a node; return its frame, or None when it is cut."""
        nonlocal best_count, best_chosen, nodes, budget_hit
        if nodes >= budget:
            budget_hit = True
            return None
        nodes += 1
        if covered > best_count:
            best_count = covered
            best_chosen = tuple(f[2][f[3] - 1] for f in stack)
        while True:
            if not free or covered + fit[free.bit_count()] <= best_count:
                return None
            if dominance.get(free, -1) >= covered:
                return None
            if len(dominance) < room:
                dominance[free] = covered
            k = cls_of[(free & -free).bit_length() - 1]
            fits = []
            for fixed, parts, opt in per_class[k]:
                if fixed & free == fixed:
                    taken = _take_twins(free, fixed, parts) if parts else fixed
                    if taken:
                        fits.append((taken, opt))
            if fits:
                return [free, covered, fits, 0]
            # free only shrinks, so no type through class k fits below here
            free &= ~class_mask[k]

    root = visit((1 << host.n) - 1, 0)
    if root:
        stack.append(root)
    # an incumbent at the root bound is optimal, so the search stops there
    while stack and not budget_hit and best_count < fit[host.n]:
        frame = stack[-1]
        free, covered, fits, i = frame
        if i < len(fits):
            frame[3] = i + 1
            taken, opt = fits[i]
            child = visit(free & ~taken, covered + opt[0])
        else:
            stack.pop()
            child = visit(free & (free - 1), covered)  # skip the lowest free vertex
        if child:
            stack.append(child)

    def place(taken: int, opt: tuple) -> Embedding:
        _size, canon, emb = opt
        if taken == canon:
            return emb
        image = tuple(
            list(iter_bits(taken & class_mask[cls_of[w]]))[below[w].bit_count()]
            for w in emb.image
        )
        return Embedding(emb.pattern, image, emb.pattern_classes)

    return TilingResult(
        tiling=Tiling(tuple(place(taken, opt) for taken, opt in best_chosen)),
        covered_count=best_count,
        optimality="best-found" if budget_hit else "proven-optimal",
        reason="node-budget-hit" if budget_hit else None,
        nodes=nodes,
    )


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def _oracle_copy_test(host: Graph, pattern: Graph):
    """The oracle's copy test: subset -> image of the first fitting permutation.

    Permutations pi of range(h) are tried in ``itertools.permutations``
    order, pi giving the image ``tuple(subset[i] for i in pi)``.  Number the
    local pairs {i, j} of the h positions; a subset's *shape* is the mask of
    pairs whose host vertices are adjacent, and pi's *need* is the mask of
    pairs it maps the pattern's edges to.  pi embeds the pattern exactly when
    need is within shape, so the answer depends on the shape alone and is
    worked out once per shape.  The table keeps the first pi of each distinct
    need (at most h!/|Aut(pattern)| of them), extended lazily only as far as
    the shapes seen so far require.
    """
    h = pattern.n
    rows = host.rows
    pairs = [(i, j, 1 << k) for k, (i, j) in enumerate(combinations(range(h), 2))]
    bit = [[0] * h for _ in range(h)]
    for i, j, b in pairs:
        bit[i][j] = bit[j][i] = b
    pedges = list(pattern.edges())
    perms = permutations(range(h))
    table: dict[int, tuple[int, ...]] = {}  # need -> its first permutation
    first_fit: dict[int, Optional[tuple[int, ...]]] = {}  # shape -> permutation

    def fit(shape: int) -> Optional[tuple[int, ...]]:
        for need, perm in table.items():
            if not need & ~shape:
                return perm
        for perm in perms:
            need = 0
            for a, b in pedges:
                need |= bit[perm[a]][perm[b]]
            if need not in table:
                table[need] = perm
                if not need & ~shape:
                    return perm
        return None

    def image_of(subset: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        shape = 0
        for i, j, b in pairs:
            if rows[subset[i]] >> subset[j] & 1:
                shape |= b
        if shape in first_fit:
            perm = first_fit[shape]
        else:
            perm = first_fit[shape] = fit(shape)
        return None if perm is None else tuple([subset[i] for i in perm])

    return image_of


def max_tiling_oracle(
    host: Graph,
    patterns: Sequence[PatternLike],
    *,
    maximize_overlap: Optional[Iterable[int]] = None,
) -> TilingResult:
    """Exhaustive maximum tiling on hosts with at most 16 vertices.

    Copies are found per vertex subset, in lexicographic order, as the first
    permutation of the subset that embeds the pattern (no shared code with
    the main search).  That permutation depends only on the subset's induced
    shape, so it is looked up per shape in a table of permutations built
    lazily once per pattern and call (:func:`_oracle_copy_test`).  With
    ``maximize_overlap`` the objective becomes lexicographic (covered
    vertices, then overlap with the given set), which answers "how much of
    this set can an optimal tiling cover?" exactly.

    The optimum is a memoized recursion over free-vertex bitmasks.  A state
    either skips its least free vertex v or places a copy through it; such a
    copy has v as its least vertex, so each copy is listed once, under its
    least vertex, in ascending mask order.  A value is the single integer
    covered * (n + 1) + overlap, which orders as the pair since overlap <= n.
    The recursion keeps the first copy that strictly beats the running best,
    so the tiling is walked back from the memo alone: skip v when that ties,
    else take the first fitting copy that reaches the state's value.
    ``nodes`` counts the non-empty free masks memoized.
    """
    if host.n > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"oracle refuses hosts above {ORACLE_MAX_VERTICES} vertices, got {host.n}"
        )
    if not patterns:
        raise ValueError("need at least one pattern")
    n = host.n
    overlap_mask = 0
    if maximize_overlap is not None:
        for v in maximize_overlap:
            if not 0 <= v < n:
                raise ValueError(
                    f"maximize_overlap vertex {v} outside the host range 0..{n - 1}"
                )
            overlap_mask |= 1 << v

    copy_map: dict[int, Embedding] = {}
    seen_pattern_graphs = set()
    for p in patterns:
        pg, pcls = _pattern_parts(p)
        if pg.n == 0:
            raise ValueError("empty pattern")
        if pg in seen_pattern_graphs or pg.n > n:
            continue
        seen_pattern_graphs.add(pg)
        image_of = _oracle_copy_test(host, pg)
        for subset in combinations(range(n), pg.n):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if mask in copy_map:
                continue
            image = image_of(subset)
            if image is not None:
                copy_map[mask] = Embedding(pg, image, pcls)

    # value of a free mask: covered * (n + 1) + overlap, which orders as the
    # pair (covered, overlap) because overlap <= n
    scale = n + 1
    by_least: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for mask in sorted(copy_map):
        by_least[(mask & -mask).bit_length() - 1].append(
            (mask, mask.bit_count() * scale + (mask & overlap_mask).bit_count())
        )

    memo = {0: 0}

    def value(free: int) -> int:
        # only copies through the least free vertex can fit: it is their least
        low = free & -free
        best = memo.get(free ^ low)
        if best is None:
            best = value(free ^ low)
        for mask, worth in by_least[low.bit_length() - 1]:
            if mask & free == mask:
                sub = memo.get(free ^ mask)
                if sub is None:
                    sub = value(free ^ mask)
                if sub + worth > best:
                    best = sub + worth
        memo[free] = best
        return best

    full = (1 << n) - 1
    total = value(full) if full else 0

    # walk back: skipping the least vertex wins ties, else the first copy
    # in by_least order that reaches the optimum, as the strict > above
    embs = []
    cursor = full
    while cursor:
        low = cursor & -cursor
        best = memo[cursor]
        if memo[cursor ^ low] == best:
            cursor ^= low
            continue
        for mask, worth in by_least[low.bit_length() - 1]:
            if mask & cursor == mask and memo[cursor ^ mask] + worth == best:
                break
        embs.append(copy_map[mask])
        cursor ^= mask
    return TilingResult(
        tiling=Tiling(tuple(embs)),
        covered_count=total // scale,
        optimality="proven-optimal",
        nodes=len(memo) - 1,
    )
