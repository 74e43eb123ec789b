"""Exact Gaussian moment oracles by Tutte's loop equations.

Multi-trace moments of complex rectangular Gaussian matrices (H = B B†, the
Laguerre/Wishart family) and GUE moments are sums over Wick contractions,
each weighted by the loops of matrix indices it closes.  The histogram of
loop counts over all contractions of a trace pattern comes from contracting
one matrix of its largest trace with every partner (Tutte 1962, "A census
of planar maps"; Eynard, *Counting Surfaces*, ch. 3): a partner in the same
trace splits it in two, a partner in another trace merges the two, and a
trace of length 0 is a closed loop.  Each histogram is memoized on the
sorted pattern, so a query costs one step per smaller pattern instead of
one per contraction, and each Wishart moment is memoized too; connected
moments come from them by the moment-cumulant recursion.  A moment is a
``MomentPoly``, the integer ``exact.Laurent`` ring in the dimension N, and
a matrix dimension is a string, "N", "N+k" or "N-k"; that arithmetic layer
is the only module imported.  No step uses the recursions, residues or
spectral curves, so these oracles are independent of every piece of
algebra they are used to check; tests/test_wick.py pins them to plain
enumerations of every bijection, pairing and set partition.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import Sequence

from .exact import Laurent

__all__ = [
    "DegreeLimitError",
    "GradingError",
    "MomentPoly",
    "WISHART_DEGREE_LIMIT",
    "GUE_DEGREE_LIMIT",
    "complex_wishart_moment",
    "connected_moments",
    "gue_moment",
    "genus_extract",
    "parse_dimension",
]

# Each limit is set so that its slowest query takes about 1 s or less in a
# fresh process (whole process, median of 5; 2-vCPU VM, Python 3.11.7):
# `hzlag oracle --mu 1,1,2,3,8,9`, the degree-24 pattern that reaches the
# most smaller patterns, 0.99 s, and --mu 24 0.80 s; gue_moment(44) 0.86 s
# (48: 2.1 s).  The Wishart limit alone bounds connected_moments: the slowest
# found over every partition of 24, 1,1,1,1,2,3,4,5,6 at cols N+1, 0.9-1.1 s.
WISHART_DEGREE_LIMIT = 24
GUE_DEGREE_LIMIT = 44


class DegreeLimitError(ValueError):
    """A moment query is over its degree limit."""


class GradingError(ValueError):
    """A moment exponent falls off the genus grading N^(2-2g-s)."""


class MomentPoly(Laurent):
    """Laurent polynomial in the dimension symbol N with int coefficients."""

    __slots__ = ()
    var = "N"

    @classmethod
    def symbol(cls) -> "MomentPoly":
        return cls({1: 1})


def parse_dimension(spec: str) -> MomentPoly:
    """Turn a dimension spec, "N", "N+k" or "N-k", into a polynomial in N."""
    m = re.fullmatch(r"\s*N\s*(?:([+-])\s*([0-9]+))?\s*", spec)
    if not m:
        raise ValueError(f"cannot parse dimension spec {spec!r}")
    k = int(m.group(2) or 0) * (-1 if m.group(1) == "-" else 1)
    return MomentPoly({1: 1, 0: k})


def _pattern(rest: list[int], *parts: int) -> tuple[int, ...]:
    """The sorted trace pattern of ``rest`` and the nonzero ``parts``."""
    return tuple(sorted(rest + [p for p in parts if p]))


@lru_cache(maxsize=None)
def _loop_counts(pattern: tuple[int, ...], d: int) -> tuple[tuple[int, int, int], ...]:
    """Histogram ((row loops, column loops, count), ...) over all Wick
    contractions of a sorted pattern of positive trace lengths: d = 1 for
    the Wishart traces t(a) = tr (B B†)^a, d = 2 for the GUE traces tr H^a,
    whose loops are all counted as rows.  For d = 1 a contraction is a
    bijection sigma of the m matrices; its row loops are the cycles of
    gamma∘sigma, gamma the product of the trace cycles, and its column loops
    the cycles of sigma.

    Contracting the first matrix of the largest trace t(a) with each partner
    gives Tutte's loop equation, with t_N(0) = N a row loop:
      d = 1:  <t(a) P> = sum_{l=1..a} <t_M(l-1) t_N(a-l) P>
                         + sum_i b_i <t(a+b_i-1) P / t(b_i)>,
              and t_M(0) = M a column loop;
      d = 2:  <t(a) P> = sum_{j=0..a-2} <t(j) t(a-2-j) P>
                         + sum_i b_i <t(a+b_i-2) P / t(b_i)>.
    A split leaves the same pattern as its mirror image, so the splits into
    two nonempty traces are taken in pairs.
    """
    if not pattern:
        return ((0, 0, 1),)
    *rest, a = pattern
    hist: dict[tuple[int, int], int] = {}

    def add(sub: tuple[int, ...], rows: int, cols: int, mult: int) -> None:
        for r, c, n in _loop_counts(sub, d):
            key = (r + rows, c + cols)
            hist[key] = hist.get(key, 0) + mult * n

    # a split leaves a left piece t_M(x) or t(x) and a right piece t_N(y) or
    # t(y), x + y = a - d; an empty right piece closes a row loop, an empty
    # left one a column loop (d = 1) or a row loop (d = 2)
    left_rows, left_cols = (0, 1) if d == 1 else (1, 0)
    if a == d:  # both pieces empty
        add(tuple(rest), 1 + left_rows, left_cols, 1)
    elif a > d:  # one piece empty
        sub = _pattern(rest, a - d)
        add(sub, 1, 0, 1)
        add(sub, left_rows, left_cols, 1)
    for x in range(1, (a - d) // 2 + 1):  # two nonempty pieces, x and its mirror
        add(_pattern(rest, x, a - d - x), 0, 0, 1 if 2 * x == a - d else 2)
    for i, b in enumerate(rest):
        if i == 0 or rest[i - 1] != b:  # the b * #{j: b_j = b} partners in traces of length b
            add(_pattern(rest[:i] + rest[i + 1:], a + b - d), int(a + b == d), 0,
                b * rest.count(b))
    return tuple((r, c, n) for (r, c), n in sorted(hist.items()))


def complex_wishart_moment(
    pattern: Sequence[int], rows: str = "N", cols: str = "N"
) -> MomentPoly:
    """Exact <prod_i tr (B B†)^{m_i}> for complex Gaussian B of shape rows x cols,
    each dimension "N", "N+k" or "N-k".

    Every entry has second moment 1/N; each of the m! Wick bijections
    contributes N^-m * rows^(#row loops) * cols^(#column loops).  The result
    is shared between calls with the same sorted pattern and dimensions,
    so it must not be changed.
    """
    pattern = tuple(sorted(int(p) for p in pattern))
    if any(p < 1 for p in pattern):
        raise ValueError("trace exponents must be positive")
    m = sum(pattern)
    if m > WISHART_DEGREE_LIMIT:
        raise DegreeLimitError(f"total degree {m} exceeds limit {WISHART_DEGREE_LIMIT}")
    return _wishart_moment(pattern, rows, cols)


# 256 entries hold one connected query, which reads every sub-pattern: at
# most 224 at degree <= 24 (1^6 2^3 3 4 5)
@lru_cache(maxsize=256)
def _wishart_moment(pattern: tuple[int, ...], rows: str, cols: str) -> MomentPoly:
    # sum of count * rows^r * cols^c by Horner's rule in cols for each r,
    # then in rows, one multiplication by a one- or two-term polynomial a step
    col_poly = parse_dimension(cols)
    by_rows = itertools.groupby(_loop_counts(pattern, 1), key=lambda t: t[0])
    total = _horner({r: _horner({c: n for _, c, n in hist}, col_poly) for r, hist in by_rows},
                    parse_dimension(rows))
    return total.shift_exponent(-sum(pattern))


def _horner(coefficients: dict, x: MomentPoly) -> MomentPoly:
    """sum over e of coefficients[e] * x^e, for e >= 0."""
    total = MomentPoly()
    for e in range(max(coefficients), -1, -1):
        total = total * x + coefficients.get(e, 0)
    return total


def connected_moments(
    pattern: Sequence[int], rows: str = "N", cols: str = "N"
) -> MomentPoly:
    """Connected (cumulant) moment <prod_i tr (B B†)^{m_i}>_c, by the
    moment-cumulant recursion k(S) = m(S) - sum_{B ∋ s, B ⊊ S} k(B) m(S - B)
    on a trace s of S, m the full moment, over the index subsets B holding s:
    a product of binomials counts those that give one sub-multiset B.  s has
    the fewest copies in S, which leaves the fewest B; k is memoized on
    sorted sub-multisets for the query."""
    pattern = tuple(sorted(int(p) for p in pattern))
    if not pattern:
        raise ValueError("a connected moment needs at least one trace")

    @lru_cache(maxsize=None)
    def cumulant(S: tuple[int, ...]) -> MomentPoly:
        values = sorted(set(S), key=lambda v: (S.count(v), v))  # s first
        n = [S.count(v) for v in values]
        total = complex_wishart_moment(S, rows, cols)
        # B holds b[i] copies of values[i]; the last b, n itself, is S
        for b in list(itertools.product(range(1, n[0] + 1), *(range(k + 1) for k in n[1:])))[:-1]:
            ways = math.comb(n[0] - 1, b[0] - 1) * math.prod(map(math.comb, n[1:], b[1:]))
            B = tuple(sorted(v for v, j in zip(values, b) for _ in range(j)))
            rest = [v for v, k, j in zip(values, n, b) for _ in range(k - j)]
            total = total - cumulant(B) * complex_wishart_moment(rest, rows, cols) * ways
        return total

    return cumulant(pattern)


@lru_cache(maxsize=None)
def gue_moment(m: int) -> MomentPoly:
    """Exact <tr H^m> for the GUE with E[H_ab H_cd] = delta_ad delta_bc / N.

    Each of the (m-1)!! pairings contributes N^(loops - m/2); the result is
    the genus polynomial sum_g eps_g(m) N^(1-2g).  Odd m gives zero.
    """
    if m % 2:
        return MomentPoly()
    if m > GUE_DEGREE_LIMIT:
        raise DegreeLimitError(f"degree {m} exceeds limit {GUE_DEGREE_LIMIT}")
    if m == 0:
        return MomentPoly.symbol()
    return MomentPoly({loops - m // 2: n for loops, _, n in _loop_counts((m,), 2)})


def genus_extract(p: MomentPoly, s: int) -> dict[int, int]:
    """Read off the genus expansion: g -> coefficient of N^(2-2g-s).

    Raises GradingError if any exponent sits off the grading (which would
    signal a normalization bug upstream).
    """
    out: dict[int, int] = {}
    for e, c in p.terms.items():
        num = 2 - s - e
        if num % 2 or num < 0:
            raise GradingError(f"exponent {e} off the N^(2-2g-{s}) grading")
        out[num // 2] = c
    return dict(sorted(out.items()))
