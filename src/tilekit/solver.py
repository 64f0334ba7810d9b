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
  The types are the homomorphisms of the pattern into the quotient whose
  fibres fit the classes (a class of one vertex caps its fibre at 1),
  grown by the catalogue's routine on the classes, each class's vertices
  taken in vertex order, and listed per start class, a class's part only
  when the search first branches on it.  The search branches on the
  lowest free vertex: a type through its class, placed on the lowest free
  vertices of each class it uses, or skipping the vertex (its whole class
  when no type through it fits).  A class lists only the types whose
  singleton-class vertices all lie at or above its least vertex, since no
  other type can fit while it holds the lowest free vertex.  It cuts a
  subtree by the bound covered + the best coin sum of pattern sizes within
  the free count, and by a dominance table of the most covered seen per
  free mask.  On a host without twins every type is one copy, listed
  once, at its least vertex.  Each listed type carries the key its listing
  chunk grew it with.  A type's witness is built only when the returned
  tiling places the type: from that key when no vertex of it lies in a
  twin class, else by :func:`enumerate_copies` within its canonical copy.
* :func:`max_tiling_oracle` -- memoized recursion over free-vertex bitmasks
  (the subset dynamic programme of Held & Karp 1962), for hosts up to 16
  vertices.  Copies are found per vertex subset by raw permutation testing,
  keyed by the subset's induced shape: one table per pattern of the first
  permutation for each set of needed pairs.  Subsets are grown depth first
  and each shape with them, one vertex's block of pairs at a time.  Each
  copy is kept raw, listed once, under its least vertex; a value is one
  integer encoding (covered, overlap), and the tiling is walked back from
  the memo, its copies alone made Embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush, heapreplace
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

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
    vertex.  A plan lists the pattern vertices from its root, each next one
    with the most placed neighbours, then the highest degree, then the
    lowest index.  Each step names the vertex placed by its *slot*, its
    position in `order`, and the slots of the earlier vertices it must be
    adjacent to, lie above and lie below.  A plan comes as (steps, ahead):
    ahead[i] holds the same three slot lists for each step after step i + 1,
    cut to the slots placed up to step i, which is what the look-ahead of a
    cut chunk in :func:`_chunks` knows of where those steps can go;
    steps[i + 1] already holds the next step's lists.
    """
    rows = pattern.rows
    pairs = [
        (a, b)
        for i, a in enumerate(order)
        for b in order[i + 1 :]
        if _automorphism_extends(pattern, [(p, p) for p in order[:i]] + [(a, b)])
    ]
    above = {b for _, b in pairs}
    slot = {v: i for i, v in enumerate(order)}

    def ties(v: int, placed: Sequence[int]) -> tuple:
        """The slots of `placed` that v must be adjacent to, lie above and lie below."""
        return (
            tuple(slot[w] for w in placed if rows[v] >> w & 1),
            tuple(slot[a] for a, b in pairs if b == v and a in placed),
            tuple(slot[b] for a, b in pairs if a == v and b in placed),
        )

    plans = []
    for root in order:
        if root in above:
            continue
        seq = [root]
        while len(seq) < pattern.n:
            seq.append(max(
                (v for v in range(pattern.n) if v not in seq),
                key=lambda v: (sum(rows[v] >> p & 1 for p in seq), rows[v].bit_count(), -v),
            ))
        steps = tuple((slot[v], *ties(v, seq[:i])) for i, v in enumerate(seq))
        ahead = tuple(
            tuple(ties(w, seq[: i + 1]) for w in seq[i + 2 :]) for i in range(len(seq))
        )
        plans.append((steps, ahead))
    return plans


@lru_cache(maxsize=64)
def _growth(pattern: Graph):
    """The plans of :func:`_search_plans` for `pattern`, pattern vertices
    taken by descending degree, ties by index, with the map from a key
    (images in that order) back to an image; what :func:`_chunks` needs of
    the pattern for copies and copy types alike.  Kept for the last few
    patterns: a Graph is immutable and hashable, and a few patterns recur
    across many calls."""
    h = pattern.n
    if h == 0:
        raise ValueError("empty pattern")
    order = sorted(range(h), key=lambda v: (-pattern.degree(v), v))
    # itemgetter returns a bare item, not a 1-tuple, for one index
    to_image = itemgetter(*sorted(range(h), key=order.__getitem__)) if h > 1 else tuple
    return tuple(_search_plans(pattern, order)), to_image


def _chunks(host: Graph, growth, classes: Sequence[int], touch_mask: Optional[int] = None):
    """The maps of a pattern into `classes` one chunk at a time, on request.

    `classes` are disjoint vertex masks in order of least vertex, and a map
    takes the vertices of a class in vertex order.  With one class per
    vertex of a pool the maps are the catalogue on that pool; with the twin
    classes of the host (:func:`_twin_classes`) a map's image is the
    canonical copy of a copy type.  `growth` is :func:`_growth` of the
    pattern, and its map turns a key into an image.

    Returns chunk(v1), for v1 the least vertex of a class: the image sets
    whose least vertex is v1, as a dict from reversed image mask (below) to
    key.  Grow each map from v1 along the plans, intersecting neighbourhood
    masks, each step drawing from the free set: the first vertex not yet
    taken of each class at or above v1's.  Per vertex, three tables hold
    what a step needs of the classes (a map takes at most h vertices of a
    class, so only its first h get entries): succ[v], the next vertex of
    v's class, which joins the free set once v is taken; and above[v] and
    below[v], the vertices of the classes at or above and at or below v's,
    which cut a step whose slot must lie above or below v's slot.  With one
    vertex per class v itself is taken, so these are the plans' strict
    symmetry constraints, and they leave one embedding per
    Aut(pattern)-orbit.  An image set can carry several orbits (a triangle
    carries three K_{1,2} embeddings), so keep, per image set, the key
    (images read in (-degree, index) order) that is least; it is the
    witness.  On twin classes the constraints hold non-strictly on
    classes: of each orbit of maps into the classes under Aut(pattern), the
    one whose classes, read by slot, are lexicographically least meets them
    (the lex-leader constraints of Crawford, Ginsberg, Luks & Roy 1996), and
    a plan is rooted at its first pattern vertex, by slot, on v1's class.
    Several maps can give one type, recorded once; its key is one of them,
    not always the catalogue's witness.  The last growth step records its
    candidates in a loop rather than one call each.

    A chunk is keyed by the *reversed* image mask, bit n-1-v for vertex v.
    Among sets of one size the lexicographic order of the sorted sets is
    descending order of reversed masks, so a chunk is put in the
    catalogue's order by a plain reverse sort of its keys.

    With one class per vertex, a chunk holds only its sets that meet
    `touch_mask` (all of them when it is None), and chunk(v1, m) only the
    first m of them in that order (the m largest reversed masks), each with
    its least key.  Each step takes one vertex of its candidate set (the
    free set cut by the rows of its placed neighbours and by the symmetry
    constraints on placed slots) and works out the next step's.  A plain
    chunk, one without m whose v1 meets `touch_mask`, looks no further.  Any
    other chunk looks ahead: a step also works out the sets of the steps
    after the next, and a completion's new vertices lie in the union U of
    the later sets.  A partial embedding is cut when a later step has no
    candidate, or when it misses `touch_mask` and so does U.  With m this is
    also a branch and bound (Land & Doig 1960): once m sets are held, a
    partial embedding is cut when its bound is below the least of them.
    The t-th lowest vertex a completion adds is at least the t-th lowest of
    the candidate sets' least vertices, so the bound is the reversed mask of
    the placed vertices plus, for t = 1, 2, ..., the lowest vertex of U
    above the one taken for t - 1 and at or above that t-th least vertex.  A
    bound equal to the least held set is not cut, since the embedding may
    still give a held set a smaller key.  The leaf keeps only the sets that
    meet `touch_mask` and are not below that least set, so the step before
    it needs no look-ahead: its U is the leaf's candidate set, whose lowest
    vertex gives the bound.  With m = 0 the grower stops at the first
    complete embedding that meets `touch_mask` and returns its set alone,
    under that embedding's key: whether the chunk has any.
    """
    plans, _ = growth
    h = len(plans[0][0])
    n = host.n
    rows = host.rows
    succ = [0] * n
    above = [0] * n
    below = [0] * n
    pool = sum(classes)  # the classes are disjoint
    heads = lower = 0  # heads: the least vertex of each class
    for c in classes:
        up = pool ^ lower
        lower |= c
        heads |= c & -c
        # a map that takes the h-th vertex of a class is complete, so that
        # vertex's successor never joins the free set
        for _ in range(h):
            low = c & -c
            c ^= low
            v = low.bit_length() - 1
            above[v], below[v], succ[v] = up, lower, c & -c
            if not c:
                break
    # the current chunk and plan, read by grow; img holds images by slot,
    # look the later steps each step looks ahead to (none for a plain chunk)
    img = [0] * h
    best: dict[int, tuple[int, ...]] = {}
    steps: tuple = ()
    look: tuple = ()
    bare = ((),) * h
    last = h - 1
    # touch_mask plain and reversed (all bits without one), the sets wanted
    # (None: all), a heap of the reversed masks held, the least of them once
    # m are held
    touch = rtouch = -1
    if touch_mask is not None:
        touch, rtouch = touch_mask, 0
        for v in iter_bits(touch_mask):
            rtouch |= 1 << (n - 1 - v)
    want: Optional[int] = None
    held: list[int] = []
    floor = 0

    def grow(i: int, free: int, rused: int, cand: int) -> bool:
        """Place step i on each vertex of cand and grow the rest; True once
        m = 0 is answered."""
        nonlocal floor
        s = steps[i][0]
        if i == last:
            if not rused & rtouch:
                cand &= touch
            while cand:
                low = cand & -cand
                top = low.bit_length()
                img[s] = top - 1
                key = tuple(img)
                r = rused | 1 << (n - top)
                old = best.get(r)
                if old is None:
                    if want is not None:
                        if r < floor:  # below every held set, as are later ones
                            break
                        if not want:
                            best[r] = key
                            return True
                        if len(held) < want:
                            heappush(held, r)
                        else:
                            del best[heapreplace(held, r)]
                        if len(held) == want:
                            floor = held[0]
                    best[r] = key
                elif key < old:
                    best[r] = key
                cand ^= low
            return False
        _, nbrs, lo, hi = steps[i + 1]
        later = look[i]
        while cand:
            low = cand & -cand
            top = low.bit_length()
            cand ^= low
            img[s] = top - 1
            left = free & ~low | succ[top - 1]
            nxt = left
            for p in nbrs:
                nxt &= rows[img[p]]
            for p in lo:
                nxt &= above[img[p]]
            for p in hi:
                nxt &= below[img[p]]
            if not nxt:
                continue
            r = rused | 1 << (n - top)
            if later:
                reach = nxt  # the union of the later steps' candidate sets
                lows = [nxt & -nxt]
                for adj, ups, downs in later:
                    c = left
                    for p in adj:
                        c &= rows[img[p]]
                    for p in ups:
                        c &= above[img[p]]
                    for p in downs:
                        c &= below[img[p]]
                    if not c:
                        break
                    reach |= c
                    lows.append(c & -c)
                if not c or not (r & rtouch or reach & touch):
                    continue
                if floor:
                    bound = r
                    for t in sorted(lows):
                        reach &= -t  # the vertices at or above t
                        w = reach & -reach
                        if not w:
                            break
                        bound |= 1 << (n - w.bit_length())
                        reach ^= w
                    if bound < floor or not w:
                        continue
            if grow(i + 1, left, r, nxt):
                return True
        return False

    def chunk(v1: int, m: Optional[int] = None) -> dict[int, tuple[int, ...]]:
        nonlocal best, steps, look, want, held, floor
        best, want, held, floor = {}, m, [], 0
        free = above[v1] & heads
        plain = m is None and touch >> v1 & 1  # all wanted, all meet touch_mask
        for steps, ahead in plans:
            look = bare if plain else ahead
            if grow(0, free, 0, 1 << v1):
                break
        return best

    return chunk


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
    touching: keep only copies meeting this set.  With cap=1 this answers
        "does any copy pass through V?" and names the first such copy.

    Copies are grown one chunk at a time, a chunk being the copies with one
    least vertex (:func:`_chunks`).  With `touching`, a chunk whose least
    vertex is outside that set looks ahead and drops a partial copy once it
    can no longer meet the set.  With a cap, each chunk is asked only for
    as many of its copies as are still wanted, plus one to decide
    ``truncated``, and its look-ahead is also a branch and bound on the
    catalogue order that stops once no other embedding can come earlier;
    ``cap=0`` stops at the first copy it grows.  So a capped query costs a
    small part of its chunk: on a 150-vertex host whose chunk 0 takes
    minutes to grow whole, the first C5 through vertex 0 takes under 0.1 s.

    Vertices of `within` or `touching` outside the host raise ValueError,
    as does a negative cap.  Order and witnesses are as described on
    :class:`CopyCatalog`.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    pg, pcls = _pattern_parts(pattern)
    if pg.n > host.n:
        raise ValueError(f"pattern has {pg.n} vertices, host only {host.n}")
    growth = _growth(pg)  # raises for an empty pattern
    pool_mask = (
        _vertex_mask(host, within, "within") if within is not None else (1 << host.n) - 1
    )
    touch_mask = _vertex_mask(host, touching, "touching") if touching is not None else None
    _, to_image = growth
    chunk = _chunks(host, growth, [1 << v for v in iter_bits(pool_mask)], touch_mask)
    copies = []
    truncated = False
    for v1 in iter_bits(pool_mask):
        if (pool_mask >> (v1 + 1)).bit_count() < pg.n - 1:
            break
        if touch_mask is not None and not (touch_mask & pool_mask) >> v1:
            break
        if cap is None:
            best = chunk(v1)
        else:
            # one set past the cap tells whether the catalogue goes on
            room = cap - len(copies)
            best = chunk(v1, room + 1 if room else 0)
        rs = sorted(best, reverse=True)
        if cap is not None and len(rs) > room:
            truncated = True
            del rs[room:]
        copies.extend(Embedding(pg, to_image(best[r]), pcls) for r in rs)
        if truncated:
            break
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


def _twin_classes(host: Graph):
    """Open twins (vertices with equal rows) as classes numbered by least
    vertex: (class of each vertex, mask of each class, the vertices of
    classes with more than one, the least vertex of each class).

    A vertex is not in its own row, so twins are never adjacent: a class is
    an independent set, and permuting it is a host automorphism.  Two
    classes are joined completely or not at all.
    """
    class_of_row: dict[int, int] = {}
    cls_of = [class_of_row.setdefault(row, len(class_of_row)) for row in host.rows]
    class_mask = [0] * len(class_of_row)
    for v, i in enumerate(cls_of):
        class_mask[i] |= 1 << v
    twins = 0
    firsts = 0
    for mask in class_mask:
        firsts |= mask & -mask
        if mask & (mask - 1):
            twins |= mask
    return cls_of, class_mask, twins, firsts


def _copy_types(host: Graph, patterns: Sequence[PatternLike], classes):
    """The copy types by class: the sizes of the patterns with a copy, and
    types_at(k), listing the types that :func:`max_tiling` tries at class
    k.

    A type is listed as (mask on singleton classes, (class mask, count) per
    larger class, (size, canonical image mask, pattern as passed, key)), in
    table order: larger patterns first, then lexicographic order of the
    canonical image.  The key is the one its listing chunk kept, images
    read in (-degree, index) order.  Its witness is the catalogue's witness
    of the pattern on the canonical image; a type two patterns of one size
    share keeps the first pattern's.  On one-vertex classes the chunk keeps
    each set's least key, as the catalogue does, so the key of a type with
    no vertex in a twin class is its witness; a type that uses a twin class
    may have been met first by another key (see :func:`max_tiling`).
    `classes` is :func:`_twin_classes` of the host; returns (sizes,
    types_at).

    Class k, with least vertex f, lists the types whose canonical image
    holds f and no singleton-class vertex below f.  A canonical copy starts
    at the least vertex of a class, so types_at(k) reads the types starting
    at each twin class's least vertex below f and at f, and keeps those
    that pass that rule, each size in descending order of reversed
    canonical mask, the catalogue's order.  The types starting at a vertex
    are the chunk there of :func:`_chunks` run on the twin classes, each key
    turned into its canonical mask when a class first reads them.  The
    sizes come from reading the classes' least vertices up to each
    pattern's first type.
    """
    cls_of, class_mask, twins, firsts = classes

    def listed(h: int, key: tuple, p: PatternLike) -> tuple:
        """The type of a chunk's key as the class lists hold it."""
        canon = 0
        for w in key:
            canon |= 1 << w
        if not canon & twins:
            return canon, (), (h, canon, p, key)
        used: dict[int, int] = {}
        for w in iter_bits(canon & twins):
            used[cls_of[w]] = used.get(cls_of[w], 0) + 1
        parts = tuple((class_mask[i], c) for i, c in used.items())
        return canon & ~twins, parts, (h, canon, p, key)

    def lister(p: PatternLike):
        """For one pattern: (size, read), read(v) its types whose canonical
        copy starts at v, by reversed canonical mask."""
        pg, _ = _pattern_parts(p)
        chunk = _chunks(host, _growth(pg), class_mask)
        starting: dict[int, dict[int, tuple]] = {}

        def read(v: int) -> dict[int, tuple]:
            got = starting.get(v)
            if got is None:
                got = starting[v] = {r: listed(pg.n, key, p) for r, key in chunk(v).items()}
            return got

        return pg.n, read

    listers = [lister(p) for p in patterns if _pattern_parts(p)[0].n <= host.n]
    sizes = {h for h, read in listers if any(read(v) for v in iter_bits(firsts))}

    def types_at(k: int) -> list[tuple]:
        f = (class_mask[k] & -class_mask[k]).bit_length() - 1
        lower = (1 << f) - 1
        earlier = list(iter_bits(firsts & twins & lower))
        # per size, reversed canonical mask -> type
        types: dict[int, dict[int, tuple]] = {}
        for h, read in listers:
            of_size = types.setdefault(h, {})
            for v in earlier:
                for r, t in read(v).items():
                    fixed, _, (_, canon, _, _) = t
                    if canon >> f & 1 and not fixed & lower:
                        of_size.setdefault(r, t)
            for r, t in read(f).items():  # every type starting at f passes
                of_size.setdefault(r, t)
        return [
            types[size][r]
            for size in sorted(types, reverse=True)
            for r in sorted(types[size], reverse=True)
        ]

    return sizes, types_at


def max_tiling(
    host: Graph,
    patterns: Sequence[PatternLike],
    budget: int = DEFAULT_BUDGET,
) -> TilingResult:
    """Maximum mixed tiling by branch and bound over the twin quotient.

    Open twins (vertices with equal rows) form classes, and a tiling's size
    does not depend on which twins of a class its copies use.  A *copy type*
    is a class-count vector that some copy has; it is represented by its
    canonical copy, on the first vertices of each class it uses, whose
    catalogue witness is built only if the returned tiling places the type.
    Types are ordered as copies are: larger patterns first, then
    lexicographic image of the canonical copy.  They are the homomorphisms
    of the pattern into the twin quotient whose fibres fit the classes, a
    class of one vertex holding a fibre of at most one, grown as copies are
    but on the twin classes (:func:`_copy_types`), and no copy is listed.
    A class's types are listed when the search
    first branches on it, so a search that stops after a few branch
    vertices lists only their part.  On a twin-free host the quotient is
    the host and a type is a copy.

    Branch vertex = lowest free vertex.  Its options are the types through
    its class that fit the free vertices, each placed on the lowest free
    vertices of every class it uses (so the free set stays a suffix of each
    class, and twin-symmetric branches coincide), followed by skipping the
    vertex for good.  A type is listed at a class only when none of its
    singleton-class vertices lies below the class's least vertex: while the
    class holds the lowest free vertex, such a vertex is taken, so the type
    could never fit there (on a twin-free host each copy is listed once, at
    its least vertex, instead of h times).  When no type through its class
    fits, the whole class is dropped at once.  A subtree is cut when covered
    + the best coin sum of pattern sizes within the free count cannot beat
    the incumbent, or when the dominance table (free mask -> most covered
    seen there) holds an earlier visit with at least as much covered.  The
    search stops, proven optimal, as soon as a tiling covers the root bound
    (the best coin sum within n).  It runs on an explicit stack; the table
    stops growing at about ``_DOMINANCE_MAX_BYTES``, which only costs
    pruning.

    The first tiling attaining the optimum in this deterministic order is
    returned.  Each type it places gets its witness, the catalogue's least
    embedding onto the canonical image, built once and moved onto the twins
    each copy took (the j-th vertex of a class to the j-th taken one).  A
    type with no vertex in a twin class reads it off the key its record
    carries; a type that uses a twin class grows it with
    :func:`enumerate_copies` within the canonical image, since its key need
    not be the least one.  On a twin-free host every class is a singleton
    and every copy its own type, so this is the first optimal tiling in the
    order of all copies.
    """
    if not patterns:
        raise ValueError("need at least one pattern")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    classes = _twin_classes(host)
    cls_of, class_mask, twins, _ = classes

    sizes, types_at = _copy_types(host, patterns, classes)
    # per class, types_at(k) from the first visit that branches there
    per_class: list[Optional[list]] = [None] * len(class_mask)

    # best coverable total from m free vertices, ignoring adjacency
    sizes = sorted(sizes)
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
            listed = per_class[k]
            if listed is None:
                listed = per_class[k] = types_at(k)
            fits = []
            for fixed, parts, opt in listed:
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

    witnesses: dict[int, Embedding] = {}  # canonical mask -> witness

    def place(taken: int, opt: tuple) -> Embedding:
        _, canon, p, key = opt
        if canon not in witnesses:
            if not canon & twins:
                pg, pcls = _pattern_parts(p)
                witnesses[canon] = Embedding(pg, _growth(pg)[1](key), pcls)
            else:
                # a list, not an iterator, so that a tracer can read it after the call
                within = list(iter_bits(canon))
                (witnesses[canon],) = enumerate_copies(host, p, within=within).copies
        emb = witnesses[canon]
        if taken == canon:
            return emb
        image = tuple(
            list(iter_bits(taken & class_mask[cls_of[w]]))[
                (class_mask[cls_of[w]] & ((1 << w) - 1)).bit_count()
            ]
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

def _oracle_copies(host: Graph, pattern: Graph, pcls, found: dict) -> None:
    """The oracle's copy test: put each h-subset not yet in `found` that
    holds a copy of `pattern` there, keyed by its mask, as (pattern, image
    of the first fitting permutation, pcls).

    Permutations pi of range(h) are tried in ``itertools.permutations``
    order, pi giving the image ``tuple(subset[i] for i in pi)``.  Number the
    local pairs (i, k), i < k, of the h positions as bit k(k-1)/2 + i; a
    subset's *shape* is the mask of pairs whose host vertices are adjacent,
    and pi's *need* is the mask of pairs it maps the pattern's edges to.  pi
    embeds the pattern exactly when need is within shape, so the answer
    depends on the shape alone and is worked out once per shape.  The table
    keeps the first pi of each distinct need (at most h!/|Aut(pattern)| of
    them), extended lazily only as far as the shapes seen so far require.

    Subsets are grown depth first, in the order of ``combinations``, and so
    is each shape: the pairs among the first k positions are its lowest
    k(k-1)/2 bits, and the k-th vertex adds one k-bit block, the earlier
    positions it is adjacent to, read from a table per prefix of which
    earlier positions each later vertex sees.  A prefix is dropped when no
    permutation fits its shape even with every later pair adjacent, since
    then no subset it starts holds a copy.
    """
    h = pattern.n
    n = host.n
    rows = host.rows
    bit = [[0] * h for _ in range(h)]
    for k in range(h):
        for i in range(k):
            bit[i][k] = bit[k][i] = 1 << (k * (k - 1) // 2 + i)
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

    def first(shape: int) -> Optional[tuple[int, ...]]:
        perm = first_fit.get(shape, False)  # False: not worked out yet
        if perm is False:
            perm = first_fit[shape] = fit(shape)
        return perm

    # a prefix's table is one integer, h bits per host vertex u: the
    # positions taken whose vertex u is adjacent to.  Taking vertex v at
    # position k adds spread[v] << k, where bit u*h of spread[v] is set when
    # v and u are adjacent.
    spread = [0] * n
    for v, row in enumerate(rows):
        for u in range(n):
            if row >> u & 1:
                spread[v] |= 1 << (u * h)
    block = (1 << h) - 1
    every_pair = (1 << (h * (h - 1) // 2)) - 1
    subset = [0] * h
    last = h - 1

    def grow(k: int, start: int, mask: int, shape: int, sees: int) -> None:
        """Take each vertex from `start` on at position k, after the prefix
        `mask` of shape `shape` whose table is `sees`."""
        shift = k * (k - 1) // 2
        if k == last:
            sees >>= start * h
            for u in range(start, n):
                perm = first(shape | (sees & block) << shift)
                sees >>= h
                if perm is not None and mask | 1 << u not in found:
                    subset[k] = u
                    found[mask | 1 << u] = (pattern, tuple([subset[i] for i in perm]), pcls)
            return
        later = every_pair >> (shift + k) << (shift + k)  # the pairs past position k
        for u in range(start, n - last + k):
            grown = shape | (sees >> u * h & block) << shift
            if first(grown | later) is not None:
                subset[k] = u
                grow(k + 1, u + 1, mask | 1 << u, grown, sees | spread[u] << k)

    grow(0, 0, 0, 0, 0)


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
    lazily once per pattern and call; subsets are grown depth first, each
    shape from its prefix's (:func:`_oracle_copies`).  A copy is kept as its
    Embedding's fields, and only the copies of the returned tiling become
    Embeddings.  With ``maximize_overlap`` the objective becomes
    lexicographic (covered vertices, then overlap with the given set), which
    answers "how much of this set can an optimal tiling cover?" exactly.

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

    # mask -> (pattern, image, pattern classes), an Embedding's fields
    copy_map: dict[int, tuple] = {}
    seen_pattern_graphs = set()
    for p in patterns:
        pg, pcls = _pattern_parts(p)
        if pg.n == 0:
            raise ValueError("empty pattern")
        if pg in seen_pattern_graphs or pg.n > n:
            continue
        seen_pattern_graphs.add(pg)
        _oracle_copies(host, pg, pcls, copy_map)

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
        embs.append(Embedding(*copy_map[mask]))
        cursor ^= mask
    return TilingResult(
        tiling=Tiling(tuple(embs)),
        covered_count=total // scale,
        optimality="proven-optimal",
        nodes=len(memo) - 1,
    )
