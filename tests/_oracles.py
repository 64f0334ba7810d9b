"""Independent brute-force oracles used by the test suite.

Everything here is written straight from the definitions with the dumbest
possible enumeration, sharing no code path with tilekit: existence of
expanding/swapping sets by trying all injections, regularity by walking
subset pairs with Fraction arithmetic (by size, and in mask order for the
witness), copy catalogues by trying every vertex subset in lexicographic
order, the maximum tiling, with or without the lexicographic overlap
objective, by recursion over an explicit copy list, the dense hosts by
listing every vertex pair that their defining rule joins, the parts of a
complete multipartite graph by checking that non-adjacency is an equivalence
relation, and a degree sequence against a bound line one index at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence

from tilekit.graphs import Graph, Tiling, VertexOrdering


def _copy_classes(tiling: Tiling) -> list[list[tuple[int, ...]]]:
    out = []
    for emb in tiling.embeddings:
        assert emb.pattern_classes is not None
        out.append([tuple(emb.image[p] for p in cls) for cls in emb.pattern_classes])
    return out


def expanding_set_exists(G: Graph, T: Tiling, size: int) -> bool:
    """Try every choice of vertices and every injection into copies."""
    classes = _copy_classes(T)
    outside = [v for v in range(G.n) if v not in T.covered]

    def eligible(z: int, ci: int) -> bool:
        return all(
            any(G.has_edge(z, w) for w in wc) for wc in classes[ci][1:]
        )

    for zs in combinations(outside, size):
        for cs in permutations(range(len(classes)), size):
            if all(eligible(z, c) for z, c in zip(zs, cs)):
                return True
    return False


def swapping_set_exists(
    G: Graph, T: Tiling, ordering: VertexOrdering, k: int, size: int, m: int = 1
) -> bool:
    """Existence of a k-swapping set, straight from the pair definition."""
    classes = _copy_classes(T)
    outside = [v for v in range(G.n) if v not in T.covered]

    def pair_ok(z: int, ci: int) -> bool:
        cimg = classes[ci]
        sigma = len(cimg[0]) // m
        omega = len(cimg[1]) // m if len(cimg) > 1 else sigma
        if sum(G.has_edge(z, w) for w in cimg[0]) < sigma:
            return False
        for j, wc in enumerate(cimg[1:]):
            for y in wc:
                if ordering.position(y) < ordering.position(z) + k:
                    continue
                if all(
                    sum(G.has_edge(z, w) for w in other) >= omega
                    for jo, other in enumerate(cimg[1:])
                    if jo != j
                ):
                    return True
        return False

    for zs in combinations(outside, size):
        for cs in permutations(range(len(classes)), size):
            if all(pair_ok(z, c) for z, c in zip(zs, cs)):
                return True
    return False


def regularity_violation(
    a_side: Sequence[int], b_side: Sequence[int], G: Graph, epsilon: Fraction
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """First violating (X, Y) by subset size then lexicographic order, or None."""
    A, B = sorted(a_side), sorted(b_side)
    if not A or not B:
        return None
    edges = sum(G.has_edge(u, v) for u in A for v in B)
    density = Fraction(edges, len(A) * len(B))
    for sx in range(1, len(A) + 1):
        if Fraction(sx) <= epsilon * len(A):
            continue
        for X in combinations(A, sx):
            for sy in range(1, len(B) + 1):
                if Fraction(sy) <= epsilon * len(B):
                    continue
                for Y in combinations(B, sy):
                    inner = sum(G.has_edge(u, v) for u in X for v in Y)
                    if abs(Fraction(inner, sx * sy) - density) >= epsilon:
                        return X, Y
    return None


def regularity_mask_order(
    a_side: Sequence[int], b_side: Sequence[int], G: Graph, epsilon: Fraction
) -> tuple[Fraction, Optional[tuple[tuple[int, ...], tuple[int, ...], Fraction]]]:
    """(density, first violating (X, Y, gap) in mask order or None).

    Mask order: subsets of A outermost, each side's subsets as ascending
    bitmasks over the sorted side (bit i stands for the i-th smallest vertex).
    """
    A, B = sorted(a_side), sorted(b_side)
    if not A or not B:
        return Fraction(0), None
    edges = sum(G.has_edge(u, v) for u in A for v in B)
    density = Fraction(edges, len(A) * len(B))
    for xmask in range(1, 1 << len(A)):
        X = tuple(u for i, u in enumerate(A) if xmask >> i & 1)
        if Fraction(len(X)) <= epsilon * len(A):
            continue
        for ymask in range(1, 1 << len(B)):
            Y = tuple(v for j, v in enumerate(B) if ymask >> j & 1)
            if Fraction(len(Y)) <= epsilon * len(B):
                continue
            inner = sum(G.has_edge(u, v) for u in X for v in Y)
            gap = abs(Fraction(inner, len(X) * len(Y)) - density)
            if gap >= epsilon:
                return density, (X, Y, gap)
    return density, None


def _copy_masks(G: Graph, patterns: Sequence[Graph]) -> list[int]:
    """Vertex masks of the subsets holding a copy of some pattern, ascending,
    found by raw permutation testing."""
    copy_masks: set[int] = set()
    for pattern in patterns:
        pedges = list(pattern.edges())
        if pattern.n > G.n:
            continue
        for subset in combinations(range(G.n), pattern.n):
            for perm in permutations(subset):
                if all(G.has_edge(perm[a], perm[b]) for a, b in pedges):
                    mask = 0
                    for v in subset:
                        mask |= 1 << v
                    copy_masks.add(mask)
                    break
    return sorted(copy_masks)


def assignment_max_cover(G: Graph, patterns: Sequence[Graph]) -> int:
    """Maximum covered vertices over all families of disjoint copies.

    Exponential subset recursion over an explicit copy list found by raw
    permutation testing; only for small hosts.
    """
    masks = _copy_masks(G, patterns)

    def rec(idx: int, used: int) -> int:
        if idx == len(masks):
            return 0
        best = rec(idx + 1, used)
        if masks[idx] & used == 0:
            best = max(
                best, masks[idx].bit_count() + rec(idx + 1, used | masks[idx])
            )
        return best

    return rec(0, 0)


def assignment_max_cover_overlap(
    G: Graph, patterns: Sequence[Graph], overlap: Sequence[int]
) -> tuple[int, int]:
    """Lexicographic maximum of (covered, |covered & overlap|) over all
    families of disjoint copies, by the same recursion over the copy list,
    comparing pairs as tuples."""
    masks = _copy_masks(G, patterns)
    target = frozenset(overlap)

    def rec(idx: int, used: int) -> tuple[int, int]:
        if idx == len(masks):
            return (0, 0)
        best = rec(idx + 1, used)
        if masks[idx] & used == 0:
            covered, hit = rec(idx + 1, used | masks[idx])
            placed = [v for v in range(G.n) if masks[idx] >> v & 1]
            best = max(
                best,
                (covered + len(placed), hit + sum(v in target for v in placed)),
            )
        return best

    return rec(0, 0)


def _embed_into(
    host: Graph, pattern: Graph, subset: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """First bijection pattern -> subset preserving pattern edges.

    Pattern vertices are placed by descending degree, ties by index, and
    host candidates are tried in ascending order.
    """
    h = pattern.n
    smask = 0
    for v in subset:
        smask |= 1 << v
    order = sorted(range(h), key=lambda v: (-pattern.degree(v), v))
    image = [-1] * h
    used = 0

    def rec(i: int) -> bool:
        nonlocal used
        if i == h:
            return True
        u = order[i]
        cand = smask & ~used
        for w in range(h):
            if pattern.has_edge(u, w) and image[w] >= 0:
                cand &= host.rows[image[w]]
        for x in sorted(subset):
            if not cand >> x & 1:
                continue
            image[u] = x
            used |= 1 << x
            if rec(i + 1):
                return True
            used &= ~(1 << x)
            image[u] = -1
        return False

    return tuple(image) if rec(0) else None


def reference_copies(
    host: Graph,
    pattern: Graph,
    cap: Optional[int] = None,
    within: Optional[Sequence[int]] = None,
    touching: Optional[Sequence[int]] = None,
) -> tuple[list[tuple[int, ...]], bool]:
    """(witness images, truncated) by trying every subset of the pool.

    Subsets come in lexicographic order; the cap is hit when a copy beyond
    the first `cap` turns up.
    """
    pool = sorted(set(within)) if within is not None else list(range(host.n))
    touch = frozenset(touching) if touching is not None else None
    images: list[tuple[int, ...]] = []
    for subset in combinations(pool, pattern.n):
        if touch is not None and touch.isdisjoint(subset):
            continue
        image = _embed_into(host, pattern, subset)
        if image is None:
            continue
        if cap is not None and len(images) >= cap:
            return images, True
        images.append(image)
    return images, False


def degree_line_check(
    degrees: Sequence[int],
    intercept: Fraction,
    slope: Fraction,
    cutoff: Fraction,
    slack: Fraction,
) -> tuple[bool, Optional[int], Optional[int], Optional[int]]:
    """(ok, index, degree, required) of the first 1-based i with i <= cutoff*n
    and sorted degree d_i < ceil((intercept + slack)*n + slope*i), n the
    number of degrees: one Fraction per index, in index order."""
    n = len(degrees)
    ascending = sorted(degrees)
    for i in range(1, n + 1):
        if i > cutoff * n:
            break
        required = math.ceil((intercept + slack) * n + slope * i)
        if ascending[i - 1] < required:
            return False, i, ascending[i - 1], required
    return True, None, None, None


def _host_from_rule(sizes: Sequence[int], joined):
    """(graph, classes) on consecutive classes of these sizes, with an edge
    u < v exactly when joined(u, v, class of u, class of v)."""
    where = [i for i, s in enumerate(sizes) for _ in range(s)]
    classes = tuple(
        tuple(v for v in range(len(where)) if where[v] == i) for i in range(len(sizes))
    )
    pairs = [
        (u, v)
        for u, v in combinations(range(len(where)), 2)
        if joined(u, v, where[u], where[v])
    ]
    return Graph(len(where), pairs), classes


def reference_complete_multipartite(sizes: Sequence[int]):
    """Every two vertices of different classes are joined."""
    return _host_from_rule(sizes, lambda u, v, cu, cv: cu != cv)


def reference_multipartite_classes(g: Graph):
    """Parts of g, sorted by (size, least vertex), if g is complete
    multipartite; otherwise None (also for the empty graph).

    Two vertices share a part exactly when they are equal or not adjacent,
    so that relation must be transitive, and its classes are the parts.
    """
    if g.n == 0:
        return None

    def same(u: int, v: int) -> bool:
        return u == v or not g.has_edge(u, v)

    for u, v, w in permutations(range(g.n), 3):
        if same(u, v) and same(v, w) and not same(u, w):
            return None
    parts = {tuple(v for v in range(g.n) if same(u, v)) for u in range(g.n)}
    return sorted(parts, key=lambda c: (len(c), c[0]))


def reference_blow_up(g: Graph, t: int):
    """Vertex x*t + i is clone i of x; clones of adjacent vertices are joined."""
    return _host_from_rule([t] * g.n, lambda u, v, cu, cv: g.has_edge(cu, cv))


def reference_extremal_one(r: int, sigma: int, omega: int, n: int, eta: Fraction, k: int):
    """The staircase host of ex1, pair by pair from its definition.

    V_1 (sigma*n/b vertices a_1, a_2, ...) is a clique joined to V_3..V_r;
    V_2..V_r (omega*n/b each) are joined to each other; row c_i of V_2 sees
    a_j for j <= ceil(sigma*i/omega), except in the deletion rectangle
    k < i <= k + 2*eta*n, ceil(sigma*k/omega) < j <= ceil(sigma*(k + 2*eta*n)/omega).
    """
    b = sigma + (r - 1) * omega
    neck, width = sigma * n // b, omega * n // b
    window = int(2 * eta * n)

    def ceil_div(a: int, d: int) -> int:
        return -(-a // d)

    def joined(u: int, v: int, cu: int, cv: int) -> bool:
        if (cu, cv) == (0, 1):
            j, i = u + 1, v - neck + 1
            deleted = (
                k < i <= k + window
                and ceil_div(sigma * k, omega) < j <= ceil_div(sigma * (k + window), omega)
            )
            return j <= ceil_div(sigma * i, omega) and not deleted
        if cu == cv:
            return cu == 0
        return True

    return _host_from_rule([neck] + [width] * (r - 1), joined)


def reference_extremal_two(h: int, r: int, sigma: int, n: int, eta: Fraction):
    """The dip host of ex2 for a pattern with h vertices, chromatic number r
    and smallest colour class sigma, or None where a class size would be
    fractional or below 1.

    Classes sigma*n/h + d, omega*n/h - d and r - 2 of omega*n/h, where
    omega = (h - sigma)/(r - 1) and d = floor(eta*n) + 1; every two classes
    are joined, except V' (the first d vertices) and the second class.
    """
    omega = Fraction(h - sigma, r - 1)
    d = int(eta * n) + 1
    width = omega * n / h
    if n % h or width.denominator != 1 or width - d < 1:
        return None
    sizes = [sigma * n // h + d, int(width) - d] + [int(width)] * (r - 2)
    return _host_from_rule(
        sizes, lambda u, v, cu, cv: cu != cv and not (u < d and cv == 1)
    )
