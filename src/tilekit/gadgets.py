"""Combinatorial gadgets for growing and rotating bottle-graph tilings.

Expanding sets push a tiling past its current size; swapping sets rotate
which vertices stay uncovered so a later expansion can succeed.  Both
finders are exact: eligibility is decided per (vertex, copy) pair straight
from the definition, and realizability of a full set reduces to maximum
bipartite matching, so `none` really means no such set exists.

The remaining gadgets are the greedy clique extraction, which takes the
bottle shape (r, sigma, omega) and the slack eta as plain arguments, and
the exact epsilon-regularity check on small sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Optional, Sequence, Union

from .graphs import (
    Embedding,
    Graph,
    Tiling,
    ValidationReport,
    VertexOrdering,
    bottle_shape,
    iter_bits,
)

__all__ = [
    "ExpandingSet",
    "GreedyFailure",
    "RegularityResult",
    "RegularityWitness",
    "SwappingSet",
    "check_expanding_set",
    "check_swapping_set",
    "epsilon_regular_check",
    "find_expanding_set",
    "find_swapping_set",
    "greedy_kr",
]

Rational = Union[int, Fraction]

REGULARITY_MAX_SIDE = 10


# ---------------------------------------------------------------------------
# expanding sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpandingSet:
    """Vertices outside a tiling, injectively assigned to copies.

    assignment[i] is the copy receiving vertices[i]; the defining property
    is a neighbour in every width class of that copy.
    """

    vertices: tuple[int, ...]
    assignment: tuple[Embedding, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.assignment):
            raise ValueError("vertices and assignment must align")

    def __len__(self) -> int:
        return len(self.vertices)


def _class_images(emb: Embedding) -> list[tuple[int, ...]]:
    # class 0 is the neck; the rest are width classes
    if emb.pattern_classes is None:
        raise ValueError("tiling copy lacks class structure")
    return [tuple(emb.image[p] for p in cls) for cls in emb.pattern_classes]


def _max_bipartite_matching(
    adj: Sequence[Sequence[int]], n_right: int
) -> list[Optional[int]]:
    """Kuhn augmenting paths; adj[i] lists right-neighbours of left i.

    Left vertices are processed in index order and right candidates in the
    order given, so the matching is deterministic.
    """
    match_left: list[Optional[int]] = [None] * len(adj)
    match_right: list[Optional[int]] = [None] * n_right

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            owner = match_right[j]
            if owner is None or augment(owner, seen):
                match_left[i] = j
                match_right[j] = i
                return True
        return False

    for i in range(len(adj)):
        augment(i, set())
    return match_left


def find_expanding_set(G: Graph, T: Tiling, size: int) -> Optional[ExpandingSet]:
    """Expanding set of exactly `size` vertices for T in G, or None.

    A vertex is eligible for a copy iff it has a neighbour in every width
    class of that copy; a maximum matching between outside vertices and
    copies then decides existence exactly.  None means the matching number
    is below `size`, so no expanding set of that size exists at all.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    copies = T.embeddings
    widths = [_class_images(emb)[1:] for emb in copies]
    covered = T.covered
    outside = [v for v in range(G.n) if v not in covered]
    adj = []
    for z in outside:
        row = G.rows[z]
        adj.append(
            [
                ci
                for ci, wcs in enumerate(widths)
                if all(any(row >> w & 1 for w in wc) for wc in wcs)
            ]
        )
    match_left = _max_bipartite_matching(adj, len(copies))
    matched = [(z, j) for z, j in zip(outside, match_left) if j is not None]
    if len(matched) < size:
        return None
    chosen = matched[:size]
    return ExpandingSet(
        vertices=tuple(z for z, _ in chosen),
        assignment=tuple(copies[j] for _, j in chosen),
    )


def check_expanding_set(G: Graph, T: Tiling, es: ExpandingSet) -> ValidationReport:
    """Re-check the defining properties of an expanding set."""
    if len(set(es.vertices)) != len(es.vertices):
        return ValidationReport(False, "repeated vertex")
    covered = T.covered
    pool = list(T.embeddings)
    for z, emb in zip(es.vertices, es.assignment):
        if z in covered:
            return ValidationReport(False, f"vertex {z} lies inside the tiling")
        if emb not in pool:
            return ValidationReport(False, "assigned copy not in tiling (or reused)")
        pool.remove(emb)  # injectivity: each copy spent once
        for wc in _class_images(emb)[1:]:
            if not any(G.has_edge(z, w) for w in wc):
                return ValidationReport(
                    False, f"vertex {z} misses width class {wc} of its copy"
                )
    return ValidationReport(True, None)


# ---------------------------------------------------------------------------
# swapping sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwappingSet:
    """Pairs (z, y) forming k-swapping pairs into pairwise-distinct copies.

    z is uncovered; y sits in a width class of its copy; z sees at least
    sigma neck vertices and at least omega vertices of every other width
    class of that copy; and y follows z in the ordering by at least
    `offset` positions.  Class sizes are sigma*m and omega*m, so the
    adjacency thresholds are the class sizes divided by m.
    """

    ordering: VertexOrdering
    offset: int
    pairs: tuple[tuple[int, int], ...]
    m: int = 1

    def __len__(self) -> int:
        return len(self.pairs)


def _swap_witness(
    G: Graph,
    z: int,
    class_images: Sequence[tuple[int, ...]],
    sigma: int,
    omega: int,
    ordering: VertexOrdering,
    k: int,
) -> Optional[int]:
    """Smallest-label y in this copy making (z, y) a k-swapping pair."""
    row = G.rows[z]
    if sum(row >> w & 1 for w in class_images[0]) < sigma:
        return None
    counts = [sum(row >> w & 1 for w in wc) for wc in class_images[1:]]
    shy = [j for j, c in enumerate(counts) if c < omega]
    if len(shy) > 1:
        return None
    # y may live in any width class whose removal fixes every shortfall
    host_classes = shy if shy else range(len(counts))
    cut = ordering.position(z) + k
    best = None
    for j in host_classes:
        for y in class_images[1 + j]:
            if ordering.position(y) >= cut and (best is None or y < best):
                best = y
    return best


def find_swapping_set(
    G: Graph,
    T: Tiling,
    ordering: VertexOrdering,
    k: int,
    size: int,
    *,
    m: int = 1,
) -> Optional[SwappingSet]:
    """k-swapping set of exactly `size` vertices for T in G, or None.

    Exact via bipartite matching between uncovered vertices and copies; a
    pair (z, copy) is admissible iff some y in the copy's width classes
    completes a k-swapping pair, and the matched copy's recorded witness is
    the smallest-label such y.  Copy distinctness is the matching itself.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    copies = T.embeddings
    images = [_class_images(emb) for emb in copies]
    # neck sigma*m, widths omega*m -> adjacency thresholds (sigma, omega)
    thresholds = [bottle_shape([len(c) for c in cimg], m)[1:] for cimg in images]
    covered = T.covered
    outside = [v for v in range(G.n) if v not in covered]
    witness: dict[tuple[int, int], int] = {}
    adj = []
    for z in outside:
        row = []
        for ci, (cimg, (sigma, omega)) in enumerate(zip(images, thresholds)):
            y = _swap_witness(G, z, cimg, sigma, omega, ordering, k)
            if y is not None:
                witness[z, ci] = y
                row.append(ci)
        adj.append(row)
    match_left = _max_bipartite_matching(adj, len(copies))
    matched = [(z, j) for z, j in zip(outside, match_left) if j is not None]
    if len(matched) < size:
        return None
    pairs = tuple((z, witness[z, j]) for z, j in matched[:size])
    return SwappingSet(ordering=ordering, offset=k, pairs=pairs, m=m)


def check_swapping_set(G: Graph, T: Tiling, ss: SwappingSet) -> ValidationReport:
    """Re-check every condition of a swapping set against its tiling."""
    zs = [z for z, _ in ss.pairs]
    if len(set(zs)) != len(zs):
        return ValidationReport(False, "repeated uncovered vertex")
    covered = T.covered
    seen_copies = []
    for z, y in ss.pairs:
        if z in covered:
            return ValidationReport(False, f"vertex {z} lies inside the tiling")
        copy = next((emb for emb in T.embeddings if y in emb.image), None)
        cimg = _class_images(copy) if copy is not None else []
        if not any(y in wc for wc in cimg[1:]):
            return ValidationReport(False, f"witness {y} is not a width-class vertex")
        if any(copy is c for c in seen_copies):
            return ValidationReport(False, "two pairs share a copy")
        seen_copies.append(copy)
        _, sigma, omega = bottle_shape([len(c) for c in cimg], ss.m)
        if sum(G.has_edge(z, w) for w in cimg[0]) < sigma:
            return ValidationReport(False, f"vertex {z} sees too little of the neck")
        for wc in cimg[1:]:
            if y in wc:
                continue
            if sum(G.has_edge(z, w) for w in wc) < omega:
                return ValidationReport(
                    False, f"vertex {z} sees too little of width class {wc}"
                )
        if ss.ordering.position(y) < ss.ordering.position(z) + ss.offset:
            return ValidationReport(False, f"pair ({z}, {y}) violates the index gap")
    return ValidationReport(True, None)


# ---------------------------------------------------------------------------
# greedy clique extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GreedyFailure:
    step: int
    neighborhood_size: int


def greedy_kr(
    R: Graph, r: int, sigma: int, omega: int, eta: Rational
) -> Union[Embedding, GreedyFailure]:
    """Greedy K_r in R: high-degree picks inside a shrinking neighborhood.

    Steps 1..r-1 pick a vertex of the running common neighborhood with
    degree at least k - (omega/b) k + eta k / 3 (k = |R|, b = sigma +
    (r-1) omega), preferring higher degree and breaking ties toward smaller
    labels; step r takes any remaining common neighbour.  Failure reports
    the first step whose qualifying set is empty, with the neighborhood size
    at that moment.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if not 1 <= sigma <= omega:
        raise ValueError("need 1 <= sigma <= omega")
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    k = R.n
    floor_val = k - Fraction(omega, sigma + (r - 1) * omega) * k + eta * k / 3
    common = set(range(k))
    picks = []
    for step in range(1, r + 1):
        if step < r:
            cands = [v for v in common if R.degree(v) >= floor_val]
        else:
            cands = list(common)
        if not cands:
            return GreedyFailure(step=step, neighborhood_size=len(common))
        x = max(cands, key=lambda v: (R.degree(v), -v))
        picks.append(x)
        common &= set(iter_bits(R.rows[x]))
    kr = Graph(r, list(combinations(range(r), 2)))
    return Embedding(kr, tuple(picks))


# ---------------------------------------------------------------------------
# brute-force regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityWitness:
    X: tuple[int, ...]
    Y: tuple[int, ...]
    gap: Fraction


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    epsilon: Fraction
    density: Fraction
    witness: Optional[RegularityWitness] = None

    def __bool__(self) -> bool:
        return self.regular


def epsilon_regular_check(
    a_side: Sequence[int], b_side: Sequence[int], G: Graph, epsilon: Rational
) -> RegularityResult:
    """Exact epsilon-regularity check of the pair (A, B) in G.

    Compares densities exactly over every subset pair (X, Y) with
    |X| > eps |A| and |Y| > eps |B|; the first violating pair in mask order
    (subsets of A outermost, both sides enumerated as ascending bitmasks
    over the sorted side) is returned as the witness.

    Each X is first decided from its degree profile: with d_X(y) the number
    of neighbours of y in X, e(X, Y) over |Y| = s ranges between the sums of
    the s smallest and the s largest d_X values, and the violation test only
    gets easier as e(X, Y) moves away from density * |X| * s.  So some Y
    violates with X exactly when one of those two extreme sums does; every
    other X is skipped, and the Y-masks are walked only for the first X
    with a violating extreme, which keeps the witness the one a walk over
    every X would find.
    """
    A, B = sorted(a_side), sorted(b_side)
    if len(A) > REGULARITY_MAX_SIDE or len(B) > REGULARITY_MAX_SIDE:
        raise ValueError(f"sides must have at most {REGULARITY_MAX_SIDE} vertices")
    for v in A + B:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} is not in the graph ({G.n} vertices)")
    if len(set(A)) < len(A) or len(set(B)) < len(B):
        raise ValueError("a side repeats a vertex")
    if set(A) & set(B):
        raise ValueError("sides must be disjoint")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if not A or not B:
        return RegularityResult(regular=True, epsilon=eps, density=Fraction(0))

    # cols[j]: the neighbours of B[j] in A, as a bitmask over A
    cols = [sum(1 << i for i, v in enumerate(A) if G.has_edge(v, w)) for w in B]
    e_ab = sum(mask.bit_count() for mask in cols)
    density = Fraction(e_ab, len(A) * len(B))

    # integer form of |e/(sx sy) - P/Q| >= E/F with all denominators cleared
    P, Q = density.numerator, density.denominator
    E, F = eps.numerator, eps.denominator
    nb = len(B)
    sizes_y = range(E * nb // F + 1, nb + 1)  # the sy with sy F > E nb
    for xmask in range(1, 1 << len(A)):
        sx = xmask.bit_count()
        if sx * F <= E * len(A):
            continue
        per_y = [(col & xmask).bit_count() for col in cols]  # d_X(B[j])
        # least[s] / total - least[nb - s]: the least / greatest e(X, Y), |Y| = s
        least = list(accumulate(sorted(per_y), initial=0))
        total = least[nb]
        if not any(
            abs(e * Q * F - P * sx * sy * F) >= E * sx * sy * Q
            for sy in sizes_y
            for e in (least[sy], total - least[nb - sy])
        ):
            continue
        # some Y violates: walk the Y-masks for the first one.
        # e(X, Y) for all Y at once: DP over Y-masks by lowest bit
        esum = [0] * (1 << nb)
        for ymask in range(1, 1 << nb):
            low = ymask & -ymask
            esum[ymask] = esum[ymask ^ low] + per_y[low.bit_length() - 1]
            sy = ymask.bit_count()
            if sy * F <= E * nb:
                continue
            if abs(esum[ymask] * Q * F - P * sx * sy * F) >= E * sx * sy * Q:
                X = tuple(A[i] for i in iter_bits(xmask))
                Y = tuple(B[j] for j in iter_bits(ymask))
                gap = abs(Fraction(esum[ymask], sx * sy) - density)
                return RegularityResult(
                    regular=False,
                    epsilon=eps,
                    density=density,
                    witness=RegularityWitness(X=X, Y=Y, gap=gap),
                )
    return RegularityResult(regular=True, epsilon=eps, density=density)
