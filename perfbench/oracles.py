"""Independent checks of the outputs the benchmark times.

Written from the definitions with plain enumeration and no tilekit code
beyond reading a Graph's adjacency, so a fast path in the package cannot
hide a wrong answer by sharing it with its own check.  Each check returns
None when the output is right, or a short description of what is wrong.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence


def copy_problem(host, pattern, image: Sequence[int]) -> Optional[str]:
    """None if `image` maps `pattern` into `host` injectively along edges."""
    if len(image) != pattern.n or len(set(image)) != len(image):
        return f"image {list(image)} is not an injection of {pattern.n} vertices"
    if not all(0 <= w < host.n for w in image):
        return f"image {list(image)} leaves the host"
    for u in range(pattern.n):
        for v in range(u + 1, pattern.n):
            if pattern.rows[u] >> v & 1 and not host.rows[image[u]] >> image[v] & 1:
                return f"pattern edge ({u}, {v}) maps to a non-edge"
    return None


def catalogue_problem(host, pattern, images: Sequence[Sequence[int]]) -> Optional[str]:
    """Every listed copy is a copy, and no two share an image set."""
    seen = set()
    for image in images:
        bad = copy_problem(host, pattern, image)
        if bad:
            return bad
        key = frozenset(image)
        if key in seen:
            return f"image set {sorted(key)} listed twice"
        seen.add(key)
    return None


def tiling_problem(host, pattern, images: Sequence[Sequence[int]]) -> Optional[str]:
    """Copies of `pattern` that are pairwise vertex-disjoint."""
    used: set[int] = set()
    for image in images:
        bad = copy_problem(host, pattern, image)
        if bad:
            return bad
        if used & set(image):
            return f"copies overlap at {sorted(used & set(image))}"
        used |= set(image)
    return None


def has_independent_neighbourhood(pattern) -> bool:
    """Some vertex of `pattern` has no edge inside its neighbourhood."""
    for v in range(pattern.n):
        nbrs = [u for u in range(pattern.n) if pattern.rows[v] >> u & 1]
        if not any(pattern.rows[a] >> b & 1 for a in nbrs for b in nbrs):
            return True
    return False


# ---------------------------------------------------------------------------
# colourings
# ---------------------------------------------------------------------------

def colouring_data(g) -> tuple[int, int]:
    """(chromatic number, smallest colour class over optimal colourings).

    Walks every proper colouring with colours numbered by first use, for the
    smallest number of colours that admits one.
    """
    n = g.n
    nbrs = [[u for u in range(v) if g.rows[v] >> u & 1] for v in range(n)]
    for k in range(1, n + 1):
        colour = [0] * n
        sizes = [0] * k
        best = [n + 1]

        def rec(v: int, used: int) -> None:
            if v == n:
                if used == k:
                    best[0] = min(best[0], min(sizes))
                return
            for c in range(min(used + 1, k)):
                if any(colour[u] == c for u in nbrs[v]):
                    continue
                colour[v] = c
                sizes[c] += 1
                rec(v + 1, max(used, c + 1))
                sizes[c] -= 1

        rec(0, 0)
        if best[0] <= n:
            return k, best[0]
    raise AssertionError("every graph is n-colourable")


def degree_line_problem(g, intercept, slope, cutoff, slack) -> Optional[str]:
    """d_i >= ceil((intercept + slack) n + slope i) for 1 <= i <= cutoff n."""
    n = g.n
    degrees = sorted(row.bit_count() for row in g.rows)
    for i in range(1, math.floor(cutoff * n) + 1):
        need = math.ceil((intercept + slack) * n + slope * i)
        if degrees[i - 1] < need:
            return f"d_{i} = {degrees[i - 1]} < {need}"
    return None


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def _density(g, xs: Sequence[int], ys: Sequence[int]) -> Fraction:
    edges = sum(1 for x in xs for y in ys if g.rows[x] >> y & 1)
    return Fraction(edges, len(xs) * len(ys))


def regularity_problem(g, a_side, b_side, eps: Fraction, result, rng: random.Random,
                       samples: int = 200) -> Optional[str]:
    """Check a regularity verdict.

    An irregular verdict is checked exactly through its witness.  A regular
    verdict is spot-checked on `samples` random subset pairs large enough to
    count; a spot check can only refute it.
    """
    A, B = sorted(a_side), sorted(b_side)
    d = _density(g, A, B)
    if result.density != d:
        return f"density {result.density} != {d}"
    if not result.regular:
        w = result.witness
        if w is None:
            return "irregular verdict without a witness"
        if not (len(w.X) > eps * len(A) and len(w.Y) > eps * len(B)):
            return "witness sides too small"
        if not (set(w.X) <= set(A) and set(w.Y) <= set(B)):
            return "witness leaves the pair"
        gap = abs(_density(g, w.X, w.Y) - d)
        if gap != w.gap or gap < eps:
            return f"witness gap {gap} (reported {w.gap}) below epsilon {eps}"
        return None
    min_x = math.floor(eps * len(A)) + 1
    min_y = math.floor(eps * len(B)) + 1
    for _ in range(samples):
        xs = rng.sample(A, rng.randint(min_x, len(A)))
        ys = rng.sample(B, rng.randint(min_y, len(B)))
        if abs(_density(g, xs, ys) - d) >= eps:
            return f"regular verdict refuted by X={sorted(xs)}, Y={sorted(ys)}"
    return None


# ---------------------------------------------------------------------------
# maximum tilings
# ---------------------------------------------------------------------------

def copy_sets(host, pattern) -> list[int]:
    """Vertex sets (as bitmasks) of the host that carry a copy of `pattern`.

    Maps the pattern's vertices one at a time onto unused host vertices
    adjacent to the images of their earlier neighbours.
    """
    h = pattern.n
    earlier = [[u for u in range(v) if pattern.rows[v] >> u & 1] for v in range(h)]
    found: set[int] = set()
    image = [0] * h

    def extend(v: int, used: int) -> None:
        if v == h:
            found.add(used)
            return
        for w in range(host.n):
            if used >> w & 1:
                continue
            if all(host.rows[w] >> image[u] & 1 for u in earlier[v]):
                image[v] = w
                extend(v + 1, used | 1 << w)

    extend(0, 0)
    return sorted(found)


def max_cover(host, pattern) -> int:
    """Most vertices covered by vertex-disjoint copies of `pattern`.

    Branches on the lowest vertex not yet decided: a copy through it, or
    leaving it uncovered; prunes a branch that cannot beat the best found
    and stops at a cover of every vertex that copies can reach.
    """
    h, n = pattern.n, host.n
    masks = copy_sets(host, pattern)
    through = [[m for m in masks if m >> v & 1] for v in range(n)]
    ceiling = n - n % h
    best = [0]
    dead: set[tuple[int, int]] = set()

    def search(decided: int, covered: int) -> bool:
        """True once `ceiling` is reached."""
        free = n - decided.bit_count()
        if covered + free - free % h <= best[0] or (decided, covered) in dead:
            return False
        if free == 0:
            best[0] = covered
            return covered == ceiling
        v = (~decided & (decided + 1)).bit_length() - 1  # lowest undecided
        for m in through[v]:
            if not m & decided and search(decided | m, covered + h):
                return True
        if search(decided | 1 << v, covered):
            return True
        dead.add((decided, covered))
        return False

    search(0, 0)
    return best[0]
