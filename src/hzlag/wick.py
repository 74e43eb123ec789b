"""Brute-force moment oracles via Wick pairing enumeration.

Multi-trace moments of complex rectangular Gaussian matrices (H = B B†, the
Laguerre/Wishart family) are summed over all m! contraction bijections; GUE
moments over all (m-1)!! pairings.  Loop counting is pure permutation cycle
traversal, so these oracles are independent of every piece of algebra they
are used to check.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

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

WISHART_DEGREE_LIMIT = 7
GUE_DEGREE_LIMIT = 16


class DegreeLimitError(ValueError):
    """Total trace degree exceeds the enumeration limit."""


class GradingError(ValueError):
    """A moment exponent falls off the genus grading N^(2-2g-s)."""


class MomentPoly:
    """Laurent polynomial in the dimension symbol N with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c) -> "MomentPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def symbol(cls) -> "MomentPoly":
        return cls({1: Fraction(1)})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentPoly.const(other)
        if not isinstance(other, MomentPoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return MomentPoly(t)

    __radd__ = __add__

    def __neg__(self):
        return MomentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MomentPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MomentPoly):
            return NotImplemented
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                t[e1 + e2] = t.get(e1 + e2, Fraction(0)) + c1 * c2
        return MomentPoly(t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = MomentPoly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def shift_exponent(self, d: int) -> "MomentPoly":
        """Multiply by N**d."""
        return MomentPoly({e + d: c for e, c in self.terms.items()})

    def coefficient(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentPoly.const(other)
        return isinstance(other, MomentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __call__(self, n_value) -> Fraction:
        return sum((c * Fraction(n_value) ** e for e, c in self.terms.items()), Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                mono = "N" if e == 1 else f"N^{e}"
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    @classmethod
    def parse(cls, text: str) -> "MomentPoly":
        """Inverse of str(); accepts e.g. "14*N + 10*N^-1"."""
        terms: dict = {}
        guarded = text.replace(" ", "").replace("^-", "^m")  # keep exponent signs intact
        for piece in re.findall(r"[+-]?[^+-]+", guarded):
            sign = -1 if piece.startswith("-") else 1
            piece = piece.lstrip("+-")
            if "N" in piece:
                coef, _, tail = piece.partition("N")
                coef = coef.rstrip("*") or "1"
                exp = int(tail.lstrip("^").replace("m", "-")) if tail else 1
            else:
                coef, exp = piece, 0
            terms[exp] = terms.get(exp, Fraction(0)) + sign * Fraction(coef)
        return cls(terms)

    def __repr__(self):
        return f"MomentPoly({self.terms!r})"


Dimension = Union[int, str, MomentPoly]


def parse_dimension(spec: Dimension) -> MomentPoly:
    """Turn a dimension spec ("N", "N+1", an int, a MomentPoly) into a polynomial in N."""
    if isinstance(spec, MomentPoly):
        return spec
    if isinstance(spec, int):
        return MomentPoly.const(spec)
    m = re.fullmatch(r"\s*N\s*(?:([+-])\s*(\d+))?\s*", spec)
    if not m:
        raise ValueError(f"cannot parse dimension spec {spec!r}")
    k = int(m.group(2) or 0) * (-1 if m.group(1) == "-" else 1)
    return MomentPoly({1: Fraction(1), 0: Fraction(k)}) if k else MomentPoly.symbol()


def _trace_successor(pattern: Sequence[int]) -> list[int]:
    """Cyclic successor within each trace block, positions 0..m-1 laid out contiguously."""
    succ = []
    start = 0
    for length in pattern:
        succ.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return succ


def _cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    n = 0
    for i in range(len(perm)):
        if not seen[i]:
            n += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return n


@lru_cache(maxsize=None)
def _wishart_loop_counts(pattern: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Histogram of (row-loops, column-loops) over all m! contraction bijections.

    Row loops are cycles of gamma∘sigma, column loops cycles of sigma, where
    gamma is the product of trace cycles and sigma the pairing bijection.
    """
    m = sum(pattern)
    gamma = _trace_successor(pattern)
    hist: dict[tuple[int, int], int] = {}
    for sigma in itertools.permutations(range(m)):
        rows = _cycle_count([gamma[sigma[t]] for t in range(m)])
        cols = _cycle_count(sigma)
        key = (rows, cols)
        hist[key] = hist.get(key, 0) + 1
    return tuple((r, c, n) for (r, c), n in sorted(hist.items()))


def complex_wishart_moment(
    pattern: Sequence[int], rows: Dimension = "N", cols: Dimension = "N"
) -> MomentPoly:
    """Exact <prod_i tr (B B†)^{m_i}> for complex Gaussian B of shape rows x cols.

    Every entry has second moment 1/N; each of the m! Wick bijections
    contributes N^-m * rows^(#row loops) * cols^(#column loops).
    """
    pattern = tuple(int(p) for p in pattern)
    if any(p < 1 for p in pattern):
        raise ValueError("trace exponents must be positive")
    m = sum(pattern)
    if m > WISHART_DEGREE_LIMIT:
        raise DegreeLimitError(f"total degree {m} exceeds limit {WISHART_DEGREE_LIMIT}")
    r_poly = parse_dimension(rows)
    c_poly = parse_dimension(cols)
    total = MomentPoly()
    for r, c, count in _wishart_loop_counts(tuple(sorted(pattern))):
        total = total + (r_poly**r) * (c_poly**c) * count
    if isinstance(rows, int):
        # numeric dimensions: the weight parameter N equals the row count
        return total * Fraction(1, rows**m)
    return total.shift_exponent(-m)


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def connected_moments(
    pattern: Sequence[int], rows: Dimension = "N", cols: Dimension = "N"
) -> MomentPoly:
    """Connected (cumulant) multi-trace moment via Moebius inversion over
    set partitions of the trace factors."""
    pattern = list(pattern)
    total = MomentPoly()
    for part in _set_partitions(list(range(len(pattern)))):
        sign = (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        prod = MomentPoly.const(sign)
        for block in part:
            prod = prod * complex_wishart_moment([pattern[i] for i in block], rows, cols)
        total = total + prod
    return total


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
    gamma = _trace_successor((m,))
    alpha = [0] * m  # the matching being built, as an involution
    counts = [0] * (m // 2 + 2)  # loops -> number of matchings

    def match(free: list[int]) -> None:
        if not free:
            counts[_cycle_count([gamma[b] for b in alpha])] += 1
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            alpha[a], alpha[b] = b, a
            match(free[1:i] + free[i + 1:])

    match(list(range(m)))
    return MomentPoly({loops - m // 2: c for loops, c in enumerate(counts)})


def genus_extract(p: MomentPoly, s: int) -> dict[int, Fraction]:
    """Read off the genus expansion: g -> coefficient of N^(2-2g-s).

    Raises GradingError if any exponent sits off the grading (which would
    signal a normalization bug upstream).
    """
    out: dict[int, Fraction] = {}
    for e, c in p.terms.items():
        num = 2 - s - e
        if num % 2 or num < 0:
            raise GradingError(f"exponent {e} off the N^(2-2g-{s}) grading")
        out[num // 2] = c
    return dict(sorted(out.items()))
