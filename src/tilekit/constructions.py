"""Extremal host families and constructive tilings.

The three host families each defeat one aspect of the degree-sequence bounds
while satisfying the rest:

* :func:`extremal_one` flattens a small window of the sloped bound with a
  staircase between the neck class and one width class;
* :func:`extremal_two` lowers a few degrees to the exact start value by
  deleting the edges between a small slice of the neck and one width class;
* :func:`extremal_three` is the unbalanced complete multipartite host whose
  smallest class bottlenecks every proportional tiling.

The constructive half builds perfect (or exactly proportional) tilings by
explicit placement: blow-up slicing, rotated clique collections, the
relaxed-neck bottle graph that a pattern tiles perfectly, and the bottle
graph that a pattern tiles in exact proportion x.  Every copy is placed by
one routine, which puts pattern class i on the next fresh vertices of a
chosen host class; a construction is its list of target classes per copy.

Every constructor takes its parameters as plain arguments, named as the
``tilekit construct --params`` keys, validates its divisibility
preconditions eagerly and names the violated constraint, and checks the
host order against ``MAX_VERTICES`` before it builds a row; rounding only
happens where a ceiling or floor is part of the defining formula.  Hosts
are built row by row from class bitmasks, never from edge lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import (
    Embedding,
    Graph,
    PartitionedGraph,
    Tiling,
    _multipartite_rows,
    bottle_graph,
    bottle_shape,
    check_order,
    complete_multipartite,
    iter_bits,
)
from .thresholds import _sigma_classes, chromatic_data, chromatic_number

__all__ = [
    "ExtremalOneInstance",
    "ExtremalTwoInstance",
    "H1Result",
    "HStarResult",
    "Lemma62Result",
    "LEMMA62_TARGETS",
    "build_h1",
    "build_hstar",
    "dip_exclusion_witness",
    "extremal_one",
    "extremal_three",
    "extremal_two",
    "lemma62_perfect_tiling",
]

Rational = Union[int, Fraction]


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} = {value} is not an integer")
    return int(value)


# ---------------------------------------------------------------------------
# extremal family 1: the flattened staircase window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalOneInstance:
    host: PartitionedGraph
    A: tuple[int, ...]
    C: tuple[int, ...]


def extremal_one(
    r: int, sigma: int, omega: int, n: int, eta: Rational, k: int
) -> ExtremalOneInstance:
    """Host whose sorted degrees flatten on the window [k, k + 2*eta*n].

    Classes V_1 (size sigma*n/b), V_2 ... V_r (size omega*n/b each), where
    b = sigma + (r-1)*omega must divide n; V_1 is adjacent to everything
    outside V_2 (in particular V_1 is a clique); the classes V_2 ... V_r are
    completely joined to each other; between V_2 and V_1 runs the staircase
    c_i a_j for j <= ceil(sigma*i/omega), minus the deletion rectangle
    k+1 <= i <= k+2*eta*n,
    ceil(sigma*k/omega) < j <= ceil(sigma*(k+2*eta*n)/omega).  The window
    width 2*eta*n must be a positive integer, or ex1's required miss
    ceil(3 eta n / 2) is <= 0 and vacuous.

    Returns the host together with A (the V_1 vertices the staircase still
    joins to every window row) and C (the first k + 2*eta*n staircase rows).
    C is independent and has no edges to V_1 minus A, so every pattern copy
    meeting C must spend neck vertices inside A.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if not 1 <= sigma <= omega:
        raise ValueError("need 1 <= sigma <= omega")
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    b = sigma + (r - 1) * omega
    if n % b:
        raise ValueError(f"b = {b} must divide n = {n}")
    window = eta * n * 2
    if window.denominator != 1:
        raise ValueError(f"2*eta*n = {window} is not an integer")
    window = int(window)
    neck_size = sigma * n // b
    width_size = omega * n // b
    if not (1 <= k and k + window < width_size):
        raise ValueError(
            f"k must satisfy 1 <= k and k + 2*eta*n < omega*n/b = {width_size}"
        )
    check_order(n)

    # vertex layout: V_1 = [0, neck_size), V_2 the next width_size, and so
    # on; V_3 ... V_r keep their complete multipartite rows
    classes, masks, rows = _multipartite_rows([neck_size] + [width_size] * (r - 1))
    rest = ((1 << n) - 1) & ~masks[0] & ~masks[1]  # V_3 ... V_r
    # staircase row i (vertex neck_size + i - 1) sees the first lim of V_1;
    # reach[j] collects the rows with lim == j
    a_keep = math.ceil(Fraction(sigma * k, omega))
    reach = [0] * (neck_size + 1)
    for i in range(1, width_size + 1):
        lim = math.ceil(Fraction(sigma * i, omega))
        if k + 1 <= i <= k + window:
            lim = min(lim, a_keep)
        reach[lim] |= 1 << (neck_size + i - 1)
        rows[neck_size + i - 1] = rest | ((1 << lim) - 1)
    seen = 0
    for u in range(neck_size - 1, -1, -1):
        seen |= reach[u + 1]  # rows with lim > u see vertex u
        rows[u] = (masks[0] & ~(1 << u)) | rest | seen

    host = PartitionedGraph(Graph._from_rows(rows), classes)
    A = tuple(range(a_keep))
    C = tuple(range(neck_size, neck_size + k + window))
    return ExtremalOneInstance(host=host, A=A, C=C)


# ---------------------------------------------------------------------------
# extremal family 2: pinning the start value
# ---------------------------------------------------------------------------

def dip_exclusion_witness(pattern: Graph) -> Optional[int]:
    """First vertex whose neighborhood is (r-2)-colourable, r = chi(pattern).

    A vertex of V' in :func:`extremal_two` sees only classes 3..r, a complete
    (r-2)-partite graph, so a pattern copy can meet V' only at a vertex
    returned here.  None is the exclusion hypothesis: no copy meets V'.  A
    returned vertex makes such a copy possible, not certain; copy enumeration
    decides.  With r = 2, V' has no neighbours, and only an isolated vertex
    (empty neighborhood, chromatic number 0) is returned.
    """
    parts = chromatic_number(pattern) - 2
    for x in range(pattern.n):
        if chromatic_number(pattern.induced(iter_bits(pattern.rows[x]))[0]) <= parts:
            return x
    return None


@dataclass(frozen=True)
class ExtremalTwoInstance:
    host: PartitionedGraph
    v_prime: tuple[int, ...]


def extremal_two(pattern: Graph, n: int, eta: Rational) -> ExtremalTwoInstance:
    """Complete r-partite host with a degree dip of exact depth.

    Classes sigma*n/h + floor(eta*n) + 1, omega*n/h - floor(eta*n) - 1, and
    r-2 classes of omega*n/h; the edges between V' (the first
    floor(eta*n) + 1 vertices of class one) and class two are deleted.  The
    floor(eta*n) + 1 vertices of V' then have degree exactly
    (1 - (omega+sigma)/h) n and every other vertex has degree at least
    (1 - omega/h) n, for any pattern.

    V' sees only classes 3..r, so no pattern copy meets V' when no pattern
    vertex has an (r-2)-colourable neighborhood (the exclusion hypothesis,
    :func:`dip_exclusion_witness`).  The host is built whether or not the
    pattern meets it: C5 does not, and copies through V' exist at every n.
    """
    params = chromatic_data(pattern)
    if not params.sigma < params.omega:
        raise ValueError("need sigma < omega")
    h = params.h
    if n % h:
        raise ValueError(f"pattern order {h} must divide n = {n}")
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    dip = math.floor(eta * n) + 1
    neck_share = params.sigma * n // h
    width_share = _exact_int(params.omega * n / h, "omega*n/h")
    sizes = [neck_share + dip, width_share - dip] + [width_share] * (params.r - 2)
    if sizes[1] < 1:
        raise ValueError(f"omega*n/h - floor(eta*n) - 1 = {sizes[1]} must be >= 1")
    check_order(n)

    classes, masks, rows = _multipartite_rows(sizes)
    v_prime = classes[0][:dip]
    blocked = (1 << dip) - 1  # V' is the start of class one, at label 0
    for u in v_prime:
        rows[u] &= ~masks[1]
    for v in classes[1]:
        rows[v] &= ~blocked
    host = PartitionedGraph(Graph._from_rows(rows), classes)
    return ExtremalTwoInstance(host=host, v_prime=v_prime)


# ---------------------------------------------------------------------------
# extremal family 3: the proportional bottleneck
# ---------------------------------------------------------------------------

def extremal_three(pattern: Graph, n: int, x: Rational, eta: Rational) -> PartitionedGraph:
    """Complete r-partite host bottlenecking x-proportional tilings.

    Class sizes x*sigma*n/h - eta*n, (h - x*sigma)n/((r-1)h) + eta*n, and
    r-2 classes of (h - x*sigma)n/((r-1)h); they telescope to n.  Every
    pattern copy needs a vertex of the first class for each neck it embeds,
    so the first class caps the tiling.
    """
    params = chromatic_data(pattern)
    x = Fraction(x)
    eta = Fraction(eta)
    if not 0 < x < 1:
        raise ValueError("x must lie strictly inside (0, 1)")
    h, r, sigma = params.h, params.r, params.sigma
    first = x * sigma * n / h - eta * n
    rest = Fraction((h - x * sigma) * n, (r - 1) * h)
    sizes = [
        _exact_int(first, "x*sigma*n/h - eta*n"),
        _exact_int(rest + eta * n, "(h - x*sigma)n/((r-1)h) + eta*n"),
    ] + [_exact_int(rest, "(h - x*sigma)n/((r-1)h)")] * (r - 2)
    if any(s < 1 for s in sizes):
        raise ValueError(f"class sizes {sizes} must all be positive")
    assert sum(sizes) == n
    return complete_multipartite(sizes)


# ---------------------------------------------------------------------------
# placement plumbing shared by the constructive tilings
# ---------------------------------------------------------------------------

class _ClassAllocator:
    """Hands out consecutive fresh vertices from each class of a host."""

    def __init__(self, host: PartitionedGraph):
        self.classes = host.classes
        self.cursor = [0] * len(host.classes)

    def place(
        self,
        pattern: Graph,
        classes: Sequence[Sequence[int]],
        targets: Sequence[int],
        pattern_classes: Optional[tuple[tuple[int, ...], ...]] = None,
    ) -> Embedding:
        """Copy of pattern with its class i on fresh vertices of host class
        targets[i], taken in class order."""
        image = [0] * pattern.n
        for cls, target in zip(classes, targets):
            start = self.cursor[target]
            fresh = self.classes[target][start : start + len(cls)]
            if len(fresh) < len(cls):
                raise ValueError(
                    f"class {target} exhausted: wanted {len(cls)}, have {len(fresh)}"
                )
            self.cursor[target] = start + len(cls)
            for p, w in zip(cls, fresh):
                image[p] = w
        return Embedding(pattern, tuple(image), pattern_classes)

    def exhausted(self) -> bool:
        return all(c == len(cls) for c, cls in zip(self.cursor, self.classes))


# ---------------------------------------------------------------------------
# perfect tilings of the four blow-up targets
# ---------------------------------------------------------------------------

LEMMA62_TARGETS = ("B", "B*", "B'", "Kr")


@dataclass(frozen=True)
class Lemma62Result:
    host: PartitionedGraph
    tiling: Tiling
    copy_counts: dict


def lemma62_perfect_tiling(target: str, B: PartitionedGraph, m: int) -> Lemma62Result:
    """Perfect tiling of a blown-up target by copies of B(m).

    With B a bottle graph (neck sigma < width omega, b vertices) and
    t = (omega - sigma) b, each of the four targets blown up by mt admits a
    perfect tiling by B* = B(m):

    * B(mt) and B*(mt): slice every class into aligned B* copies.
    * K_r(mt): omega - sigma collections of r copies; inside a collection the
      neck rotates through the r host classes, so each class receives one
      neck slice and r-1 width slices, b*m vertices in total.
    * B'(mt) where B' has width omega - 1: first (omega-1-sigma) b copies
      aligned neck-into-neck, leaving exactly sigma*m*b vertices in every
      class; the leftovers form a balanced complete r-partite graph handled
      by sigma collections of the rotating pattern, sigma*r copies.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r, sigma, omega = bottle_shape(B.class_sizes())
    if sigma == omega:
        raise ValueError("neck equals width, so t = (omega - sigma) b = 0")
    b = sigma + (r - 1) * omega
    t = (omega - sigma) * b
    bstar = bottle_graph(r, sigma * m, omega * m)
    counts: dict = {}

    if target == "B":
        host = bottle_graph(r, sigma * m * t, omega * m * t)
    elif target == "B*":
        host = bottle_graph(r, sigma * m * m * t, omega * m * m * t)
    elif target == "B'":
        host = bottle_graph(r, sigma * m * t, (omega - 1) * m * t)
    elif target == "Kr":
        host = complete_multipartite([m * t] * r)
    else:
        raise ValueError(f"unknown target {target!r}; pick one of {LEMMA62_TARGETS}")

    alloc = _ClassAllocator(host)
    embeddings = []

    def place(targets: Sequence[int]) -> None:
        embeddings.append(alloc.place(bstar.graph, bstar.classes, targets, bstar.classes))

    def rotated_collection() -> None:
        # one copy per host class carrying the neck there
        for p in range(r):
            place([p] + [q for q in range(r) if q != p])

    if target in ("B", "B*"):
        aligned = len(host.classes[0]) // (sigma * m)
        for _ in range(aligned):
            place(range(r))
        counts["aligned"] = aligned
    elif target == "Kr":
        for _ in range(omega - sigma):
            rotated_collection()
        counts["rotated"] = (omega - sigma) * r
    else:  # B'
        aligned = (omega - 1 - sigma) * b
        for _ in range(aligned):
            place(range(r))
        # every class now holds exactly sigma*m*b uncovered vertices
        leftovers = [len(cls) - cur for cls, cur in zip(host.classes, alloc.cursor)]
        if leftovers != [sigma * m * b] * r:
            raise AssertionError(f"unexpected leftovers {leftovers}")
        for _ in range(sigma):
            rotated_collection()
        counts["aligned"] = aligned
        counts["rotated"] = sigma * r

    if not alloc.exhausted():
        raise AssertionError("tiling does not exhaust the host")
    return Lemma62Result(host=host, tiling=Tiling(tuple(embeddings)), copy_counts=counts)


# ---------------------------------------------------------------------------
# colourings used by the transfer constructions
# ---------------------------------------------------------------------------

def _coloring_with_sizes(g: Graph, sizes: Sequence[int]) -> Optional[list[list[int]]]:
    """Proper colouring with exact class sizes, as a list of classes, or None."""
    n = g.n
    if sum(sizes) != n:
        return None
    remaining = list(sizes)
    color = [-1] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        forbidden = 0
        for u in iter_bits(g.rows[v]):
            if color[u] >= 0:
                forbidden |= 1 << color[u]
        for c in range(len(sizes)):
            if remaining[c] == 0 or forbidden >> c & 1:
                continue
            color[v] = c
            remaining[c] -= 1
            if rec(v + 1):
                return True
            remaining[c] += 1
            color[v] = -1
        return False

    if not rec(0):
        return None
    classes: list[list[int]] = [[] for _ in sizes]
    for v, c in enumerate(color):
        classes[c].append(v)
    return classes


# ---------------------------------------------------------------------------
# the relaxed-neck bottle graph with its perfect pattern tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HStarResult:
    hstar: PartitionedGraph
    tiling: Tiling
    direct_count: int
    companion_count: int


def build_hstar(pattern: Graph, sigma_prime: Rational) -> HStarResult:
    """Bottle graph with neck sigma'*t that the pattern tiles perfectly.

    sigma(H) <= sigma' = a/b <= h/r, and the scale factor
    t = b (r-1) (omega(H) - sigma(H)) makes the bottle with neck sigma'*t
    and width omega'*t integral whenever omega(H) is an integer.

    Phase one places b(r-1)(omega - sigma') direct copies, each with its
    smallest colour class in the neck and one width-sized class per width
    class.  Phase two fills the remainder with b(sigma' - sigma) copies of
    the companion graph (one class of size (r-1)omega joined to r-1 classes
    of size (r-2)omega + sigma), each internally tiled by r-1 pattern copies
    and oriented with its large class in the neck.

    Requires a proper colouring of the pattern with classes
    (sigma, omega, ..., omega); patterns without one (in particular patterns
    with fractional omega) are rejected.
    """
    params = chromatic_data(pattern)
    h, r, sigma = params.h, params.r, params.sigma
    sp = Fraction(sigma_prime)
    if not sigma <= sp <= Fraction(h, r):
        raise ValueError(f"sigma' must lie in [{sigma}, {h}/{r}]")
    if params.omega == sigma:
        raise ValueError("balanced pattern: omega = sigma leaves t = 0")
    if params.omega.denominator != 1:
        raise ValueError(
            f"omega = {params.omega} is fractional, so no colouring has "
            f"classes (sigma, omega, ..., omega)"
        )
    omega = int(params.omega)
    b = sp.denominator
    t = b * (r - 1) * (omega - sigma)
    neck = _exact_int(sp * t, "sigma'*t")
    width = _exact_int((h - sp) * t / (r - 1), "omega'*t")
    hstar = bottle_graph(r, neck, width)

    bottle_classes = _coloring_with_sizes(pattern, [sigma] + [omega] * (r - 1))
    if bottle_classes is None:
        raise ValueError(
            f"pattern has no proper colouring with classes "
            f"({sigma}, {', '.join([str(omega)] * (r - 1))})"
        )

    direct_count = _exact_int(b * (r - 1) * (params.omega - sp), "direct copy count")
    companion_count = _exact_int(b * (sp - sigma), "companion copy count")

    alloc = _ClassAllocator(hstar)
    embeddings = [
        alloc.place(pattern, bottle_classes, range(r)) for _ in range(direct_count)
    ]
    # a companion block is r - 1 copies; copy i sends its i-th width class up
    # to the neck, its neck down to class i, and keeps every other width
    # class in its own class
    for _ in range(companion_count):
        for i in range(1, r):
            targets = [i] + [0 if j == i else j for j in range(1, r)]
            embeddings.append(alloc.place(pattern, bottle_classes, targets))

    if not alloc.exhausted():
        raise AssertionError("tiling does not exhaust the host")
    return HStarResult(
        hstar=hstar,
        tiling=Tiling(tuple(embeddings)),
        direct_count=direct_count,
        companion_count=companion_count,
    )


# ---------------------------------------------------------------------------
# the bottle graph carrying an exactly x-proportional tiling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class H1Result:
    h1: PartitionedGraph
    tiling: Tiling


def build_h1(pattern: Graph, x: Rational) -> H1Result:
    """Bottle graph with neck a(r-1)sigma, width bh - a*sigma, for x = a/b.

    Carries a(r-1) pattern copies covering exactly x |H_1| = a(r-1)h
    vertices: every copy parks its smallest colour class in the neck (filling
    it exactly), and the remaining colour classes rotate through the width
    classes so each width class receives a(h - sigma) <= width vertices.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("x must lie strictly inside (0, 1)")
    classes = _sigma_classes(pattern)
    h, r, sigma = pattern.n, len(classes), len(classes[0])
    a, b = x.numerator, x.denominator
    neck = a * (r - 1) * sigma
    width = b * h - a * sigma
    assert neck < width  # a*r*sigma <= a*h < b*h
    h1 = bottle_graph(r, neck, width)

    alloc = _ClassAllocator(h1)
    embeddings = []
    for _ in range(a):
        for shift in range(r - 1):
            # width class 1 + ((i - 1 + shift) mod (r - 1)) receives class i
            targets = [0] + [1 + (i + shift) % (r - 1) for i in range(r - 1)]
            embeddings.append(alloc.place(pattern, classes, targets))

    tiling = Tiling(tuple(embeddings))
    assert len(tiling.covered) == a * (r - 1) * h
    return H1Result(h1=h1, tiling=tiling)
