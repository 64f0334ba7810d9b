"""Exact rational threshold arithmetic for degree-sequence tiling bounds.

Everything in this module is computed with ``fractions.Fraction``, or with
exact integers derived from those Fractions (a line's
:class:`IntegerLine` at one host order); no operation may introduce
floating point.  The central objects are

* :class:`TilingParams` -- the bundle (h, r, sigma, omega, chi_cr) attached
  to a pattern graph.  ``sigma`` is the smallest colour class achievable over
  all optimal proper colourings, ``omega = (h - sigma)/(r - 1)``, and
  ``chi_cr = (r - 1) h / (h - sigma)`` is the critical chromatic number.
* :class:`BoundLine` -- a lower bound on the ascending degree sequence of an
  n-vertex host of the form

      d_i >= intercept*n + slope*i + slack*n   for 1 <= i <= cutoff*n.

The three named lines are one line, the degree-sequence bound of the bottle
graph with neck s and widths (h - s)/(r - 1) (Komlos 2000), at three necks:
:func:`komlos_line` at s = sigma, :func:`x_line` at s = x sigma and
:func:`general_line` at a relaxed s = sigma'.  Its sloped part meets the flat
tiling threshold exactly at the cutoff index, asserted at construction time.

The colour classes behind r and sigma come from one place, the private
``_sigma_classes``: the parts of a complete multipartite pattern, or else the
witness of the first k >= the greedy clique size for which
:func:`sigma_coloring` finds a k-colouring.  :func:`chromatic_data`,
:func:`chromatic_number` and the H_1 construction all read it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import Graph, iter_bits, multipartite_classes

__all__ = [
    "BoundLine",
    "DegreeCheck",
    "IntegerLine",
    "TilingParams",
    "check_degree_sequence",
    "chromatic_data",
    "chromatic_number",
    "format_rational",
    "g_of_x",
    "general_line",
    "komlos_line",
    "parse_rational",
    "sigma_coloring",
    "smallest_color_class",
    "x_line",
]

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# rational plumbing
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Canonical "p/q" form, denominator always explicit ("0/1", "2/5")."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# parameter bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TilingParams:
    """Exact invariants of a pattern graph used by every bound line.

    h: number of pattern vertices.
    r: chromatic number (>= 2; edgeless patterns are rejected upstream).
    sigma: smallest colour class over all proper r-colourings.
    omega: (h - sigma)/(r - 1), the common size of the wide classes in the
        bottle graph that is extremal for the pattern.
    chi_cr: critical chromatic number (r - 1) h / (h - sigma).
    """

    h: int
    r: int
    sigma: int
    omega: Fraction
    chi_cr: Fraction

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("need chromatic number >= 2")
        if not 1 <= self.sigma * self.r <= self.h:
            raise ValueError("sigma must lie in [1, h/r]")
        if self.omega != Fraction(self.h - self.sigma, self.r - 1):
            raise ValueError("omega != (h - sigma)/(r - 1)")
        if self.chi_cr != Fraction((self.r - 1) * self.h, self.h - self.sigma):
            raise ValueError("chi_cr != (r - 1) h / (h - sigma)")
        if not self.r - 1 <= self.chi_cr <= self.r:
            raise ValueError("chi_cr outside [r - 1, r]")


# ---------------------------------------------------------------------------
# exact colouring search
# ---------------------------------------------------------------------------

def _greedy_clique_size(g: Graph) -> int:
    """Greedy clique extension from every vertex; lower bound for chi."""
    best = 1 if g.n else 0
    for start in range(g.n):
        size = 1
        common = g.rows[start]
        while common:
            v = max(iter_bits(common), key=lambda u: (g.degree(u), -u))
            size += 1
            common &= g.rows[v]
        best = max(best, size)
    return best


def chromatic_number(g: Graph) -> int:
    """Smallest k for which :func:`sigma_coloring` finds a proper k-colouring."""
    if g.n == 0:
        return 0
    if g.edge_count() == 0:
        return 1
    return len(_sigma_classes(g))


def _sigma_classes(g: Graph) -> list[tuple[int, ...]]:
    """Colour classes of a chi-colouring of g whose smallest class is sigma,
    sorted by (size, least vertex).  Raises ValueError unless g has an edge.

    A complete multipartite g answers with its parts, which are the colour
    classes of every optimal colouring.  Otherwise the first k from the
    greedy clique bound up at which :func:`sigma_coloring` succeeds is chi,
    and that search's witness gives the classes.
    """
    if g.n == 0:
        raise ValueError("empty pattern")
    if g.edge_count() == 0:
        raise ValueError("edgeless pattern: chromatic number 1 is unsupported")
    parts = multipartite_classes(g)
    if parts is not None:
        return parts
    for k in range(max(2, _greedy_clique_size(g)), g.n + 1):
        sigma, colors = sigma_coloring(g, k)
        if sigma <= g.n:
            classes = [[] for _ in range(k)]
            for v, c in enumerate(colors):
                classes[c].append(v)
            return sorted(map(tuple, classes), key=lambda c: (len(c), c[0]))
    raise AssertionError("unreachable: every graph is n-colorable")


def sigma_coloring(g: Graph, r: int) -> tuple[int, tuple[int, ...]]:
    """Smallest achievable class size over proper r-colourings, plus a witness.

    Only meaningful with r = chi(g): then every proper assignment uses all r
    colours, so every leaf of the search has r nonempty classes.  With
    r < chi(g) there is no leaf and the result is (n + 1, ()).  Classes only
    grow along a branch, hence the reachable final minimum is at least
    min_c max(size_c, 1), which is the pruning bound.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    color = [-1] * n
    sizes = [0] * r
    best = n + 1
    witness: tuple[int, ...] = ()

    def rec(idx: int, used: int) -> None:
        nonlocal best, witness
        if best == 1:
            return
        if min(s if s else 1 for s in sizes) >= best:
            return
        if idx == n:
            best = min(sizes)
            witness = tuple(color)
            return
        v = order[idx]
        forbidden = 0
        for u in iter_bits(g.rows[v]):
            if color[u] >= 0:
                forbidden |= 1 << color[u]
        for c in range(min(r - 1, used) + 1):
            if forbidden >> c & 1:
                continue
            color[v] = c
            sizes[c] += 1
            rec(idx + 1, max(used, c + 1))
            sizes[c] -= 1
            color[v] = -1

    rec(0, 0)
    return best, witness


def smallest_color_class(g: Graph, r: int) -> int:
    """Minimum over all proper r-colourings of the smallest class size."""
    return sigma_coloring(g, r)[0]


def chromatic_data(pattern: Graph) -> TilingParams:
    """Exact (h, r, sigma, omega, chi_cr) for a pattern with an edge.

    Edgeless patterns are rejected: chi = 1 degenerates every formula here
    (omega and chi_cr would divide by r - 1 = 0).

    r and sigma are the number and the smallest size of the classes that
    :func:`_sigma_classes` finds.
    """
    h = pattern.n
    classes = _sigma_classes(pattern)
    r, sigma = len(classes), len(classes[0])
    return TilingParams(
        h=h,
        r=r,
        sigma=sigma,
        omega=Fraction(h - sigma, r - 1),
        chi_cr=Fraction((r - 1) * h, h - sigma),
    )


# ---------------------------------------------------------------------------
# bound lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundLine:
    """Degree-sequence lower bound d_i >= (intercept + slack) n + slope * i.

    The bound applies for 1 <= i <= cutoff * n; above the cutoff the degree
    sequence is unconstrained by the line (callers wanting the flat
    continuation use :meth:`value_at_cutoff`).
    """

    intercept: Fraction
    slope: Fraction
    cutoff: Fraction
    slack: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for field in ("intercept", "slope", "cutoff", "slack"):
            object.__setattr__(self, field, Fraction(getattr(self, field)))
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if not 0 < self.cutoff <= 1:
            raise ValueError("cutoff must lie in (0, 1]")

    @property
    def value_at_cutoff(self) -> Fraction:
        """Coefficient of n where the sloped part meets its flat threshold."""
        return self.intercept + self.slope * self.cutoff + self.slack

    def integer_form(self, n: int) -> IntegerLine:
        """The line at host order n as integers: the exact bound
        (intercept + slack) n + slope i on d_i (i is 1-based) is
        (a + b i) / q for 1 <= i <= last = floor(cutoff n)."""
        c = self.intercept + self.slack
        q = math.lcm(c.denominator, self.slope.denominator)
        return IntegerLine(
            last=self.cutoff.numerator * n // self.cutoff.denominator,
            a=c.numerator * (q // c.denominator) * n,
            b=self.slope.numerator * (q // self.slope.denominator),
            q=q,
        )


@dataclass(frozen=True)
class IntegerLine:
    """A :class:`BoundLine` at one host order n: d_i >= ceil((a + b i) / q)
    for 1 <= i <= last, with q > 0 and b of the slope's sign."""

    last: int
    a: int
    b: int
    q: int

    def need(self, i: int) -> int:
        return -((-self.a - self.b * i) // self.q)


def g_of_x(params: TilingParams, x: Rational) -> Fraction:
    """Threshold proportion for tilings covering an x-fraction of the host.

    g(x) = x (1 - 1/chi_cr) + (1 - x)(1 - 1/(r - 1)); affine and increasing
    in x, with g(1) = 1 - omega/h.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError("x must lie in (0, 1]")
    return x * (1 - 1 / params.chi_cr) + (1 - x) * (1 - Fraction(1, params.r - 1))


def _neck_line(params: TilingParams, s: Rational, slack: Rational = 0) -> BoundLine:
    """Bound line of the bottle graph with neck s and widths (h - s)/(r - 1).

    With omega' = (h - s)/(r - 1): intercept 1 - (omega' + s)/h, slope
    s/omega', cutoff omega'/h.  At the cutoff index the sloped part meets
    the flat value 1 - omega'/h, asserted here.
    """
    h = params.h
    s = Fraction(s)
    omega = (h - s) / (params.r - 1)
    line = BoundLine(
        intercept=1 - (omega + s) / h,
        slope=s / omega,
        cutoff=omega / h,
        slack=slack,
    )
    if line.intercept + line.slope * line.cutoff != 1 - omega / h:
        raise AssertionError("sloped part misses the flat threshold")
    return line


def komlos_line(params: TilingParams, eta: Rational = 0) -> BoundLine:
    """The almost-perfect-tiling bound line: the neck line at s = sigma.

    intercept 1 - (omega + sigma)/h, slope sigma/omega, cutoff omega/h; at
    the cutoff index the value is (1 - 1/chi_cr) n, the flat threshold.
    """
    return _neck_line(params, params.sigma, slack=eta)


def x_line(params: TilingParams, x: Rational) -> BoundLine:
    """The x-proportional-tiling bound line, 0 < x < 1: the neck line at x sigma.

    intercept g(x) - x sigma/h, slope (r-1) x sigma / (h - x sigma), cutoff
    (h - x sigma) / ((r-1) h); the value at the cutoff index is g(x) n.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("x must lie strictly inside (0, 1)")
    line = _neck_line(params, x * params.sigma)
    if line.intercept + line.slope * line.cutoff != g_of_x(params, x):
        raise AssertionError("sloped part misses g(x)")
    return line


def general_line(pattern: Graph, sigma_prime: Rational) -> BoundLine:
    """Bound line for a relaxed neck sigma(H) <= s' <= h/r: the neck line at s'.

    At s' = sigma(H) this is exactly :func:`komlos_line`; at s' = h/r the
    slope is 1 and the cutoff 1/r.
    """
    params = chromatic_data(pattern)
    sigma_prime = Fraction(sigma_prime)
    if not params.sigma <= sigma_prime <= Fraction(params.h, params.r):
        raise ValueError(
            f"sigma' must lie in [{params.sigma}, {params.h}/{params.r}]"
        )
    return _neck_line(params, sigma_prime)


# ---------------------------------------------------------------------------
# checking hosts against a line
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeCheck:
    """Outcome of testing a host's sorted degrees against a bound line.

    On failure, ``index`` is the 1-based position of the first violation in
    the ascending degree order, ``degree`` the offending value and
    ``required`` the integer bound it missed.
    """

    ok: bool
    index: Optional[int] = None
    degree: Optional[int] = None
    required: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def check_degree_sequence(g: Graph, line: BoundLine) -> DegreeCheck:
    """Test d_i >= ceil((intercept + slack) n + slope i) up to the cutoff."""
    return _check_degrees(sorted(Counter(g.degrees()).items()), line)


def _check_degrees(blocks: Sequence[tuple[int, int]], line: BoundLine) -> DegreeCheck:
    """:func:`check_degree_sequence` for an n-vertex host whose ascending
    degree sequence is given as (degree, multiplicity) blocks, degrees
    ascending and multiplicities positive, n the sum of the multiplicities.

    The bound is monotone in i, so each block is tested once, where the
    bound is highest: at its last index up to the cutoff when the slope is
    >= 0, at its first when it is < 0.  In a failing block the first
    violating index is the least i with a + b i > q d, one floor division.
    """
    form = line.integer_form(sum(m for _, m in blocks))
    start = 1
    for d, m in blocks:
        if start > form.last:
            break
        top = start if form.b < 0 else min(start + m - 1, form.last)
        if form.need(top) > d:
            i = start if form.b <= 0 else max(start, (form.q * d - form.a) // form.b + 1)
            return DegreeCheck(False, index=i, degree=d, required=form.need(i))
        start += m
    return DegreeCheck(True)
