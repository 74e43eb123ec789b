"""Brute-force moment oracles via Wick pairing enumeration.

Multi-trace moments of complex rectangular Gaussian matrices (H = B B†, the
Laguerre/Wishart family) are summed over all m! contraction bijections; GUE
moments over all (m-1)!! pairings.  Every pairing and bijection is visited,
in place, by a depth-first walk that sets one contraction at a time; each
contraction links the loop permutation as chains (``_Chains``), a link that
returns to the start of its own chain closes a loop, and backtracking undoes
it, so each step counts loops in O(1).  The loop histogram of a pattern and
each Wishart moment are memoized.  No step uses the recursions, residues or
spectral curves, so these oracles are independent of every piece of algebra
they are used to check.
"""

from __future__ import annotations

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


def _exact(c) -> int | Fraction:
    """``c`` as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class MomentPoly:
    """Laurent polynomial in the dimension symbol N with exact coefficients:
    an int where the coefficient is integral, a Fraction elsewhere."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {e: _exact(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, c) -> "MomentPoly":
        return cls({0: c})

    @classmethod
    def symbol(cls) -> "MomentPoly":
        return cls({1: 1})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentPoly.const(other)
        if not isinstance(other, MomentPoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
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
                t[e1 + e2] = t.get(e1 + e2, 0) + c1 * c2
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

    def coefficient(self, e: int) -> int | Fraction:
        return self.terms.get(e, 0)

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
            terms[exp] = terms.get(exp, 0) + sign * Fraction(coef)
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
    return MomentPoly({1: 1, 0: k}) if k else MomentPoly.symbol()


def _trace_successor(pattern: Sequence[int]) -> list[int]:
    """Cyclic successor within each trace block, positions 0..m-1 laid out contiguously."""
    succ = []
    start = 0
    for length in pattern:
        succ.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return succ


class _Chains:
    """A permutation of 0..m-1 built one link at a time, counting its cycles.

    The links set so far split 0..m-1 into chains x -> phi(x) -> ...; for a
    chain from s to e, ``head[e] = s`` and ``tail[s] = e`` (entries of
    elements inside a chain are stale).  Setting phi(u) = v joins the chain
    ending at u to the chain starting at v, or closes one loop when v starts
    u's own chain.  Both are O(1), and ``unlink`` undoes the last link.
    """

    __slots__ = ("head", "tail", "undo")

    def __init__(self, m: int):
        self.head = list(range(m))
        self.tail = list(range(m))
        self.undo: list = []

    def link(self, u: int, v: int) -> int:
        """Set phi(u) = v, for u with no image and v with no preimage yet;
        return the number of loops this closes (0 or 1)."""
        s = self.head[u]
        if s == v:
            self.undo.append(None)
            return 1
        e = self.tail[v]
        self.tail[s] = e
        self.head[e] = s
        self.undo.append((s, u, e, v))
        return 0

    def unlink(self) -> None:
        joined = self.undo.pop()
        if joined is not None:
            s, u, e, v = joined
            self.tail[s] = u
            self.head[e] = v


@lru_cache(maxsize=None)
def _wishart_loop_counts(pattern: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Histogram of (row-loops, column-loops) over all m! contraction bijections.

    Row loops are cycles of gamma∘sigma, column loops cycles of sigma, where
    gamma is the product of trace cycles and sigma the pairing bijection.
    sigma is built position by position from the values still free.
    """
    m = sum(pattern)
    gamma = _trace_successor(pattern)
    row, col = _Chains(m), _Chains(m)
    free = list(range(m))  # free[t:] are the values sigma(0..t-1) has not taken
    hist: dict[tuple[int, int], int] = {}

    def place(t: int, rows: int, cols: int) -> None:
        if t == m:
            hist[rows, cols] = hist.get((rows, cols), 0) + 1
            return
        for i in range(t, m):
            v = free[i]
            free[i], free[t] = free[t], v
            place(t + 1, rows + row.link(t, gamma[v]), cols + col.link(t, v))
            row.unlink()
            col.unlink()
            free[t], free[i] = free[i], v

    place(0, 0, 0)
    return tuple((r, c, n) for (r, c), n in sorted(hist.items()))


def complex_wishart_moment(
    pattern: Sequence[int], rows: Dimension = "N", cols: Dimension = "N"
) -> MomentPoly:
    """Exact <prod_i tr (B B†)^{m_i}> for complex Gaussian B of shape rows x cols.

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


# typed: an int ``rows`` is a numeric dimension, so 3 and MomentPoly.const(3),
# which compare equal, must not share an entry; 128 entries hold every key a
# verify run uses (20 at the defaults) and bound what a dimension sweep keeps
@lru_cache(maxsize=128, typed=True)
def _wishart_moment(pattern: tuple[int, ...], rows: Dimension, cols: Dimension) -> MomentPoly:
    r_poly = parse_dimension(rows)
    c_poly = parse_dimension(cols)
    total = MomentPoly()
    for r, c, count in _wishart_loop_counts(pattern):
        total = total + (r_poly**r) * (c_poly**c) * count
    m = sum(pattern)
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
    faces = _Chains(m)  # gamma∘alpha, alpha the matching being built
    head = faces.head
    free = list(range(m))  # free[k:] are the points not matched yet
    counts = [0] * (m // 2 + 2)  # loops -> number of matchings

    def match(k: int, loops: int) -> None:
        a = free[k]
        if k == m - 2:
            # two open chains are left, ending at a and at b and starting at
            # gamma(a) and gamma(b): the pair (a, b) closes both when a's
            # starts at gamma(b), else it joins them into one loop
            counts[loops + (2 if head[a] == gamma[free[k + 1]] else 1)] += 1
            return
        for i in range(k + 1, m):
            b = free[i]
            free[i], free[k + 1] = free[k + 1], b
            match(k + 2, loops + faces.link(a, gamma[b]) + faces.link(b, gamma[a]))
            faces.unlink()
            faces.unlink()
            free[k + 1], free[i] = free[i], b

    match(0, 0)
    return MomentPoly({loops - m // 2: c for loops, c in enumerate(counts)})


def genus_extract(p: MomentPoly, s: int) -> dict[int, int | Fraction]:
    """Read off the genus expansion: g -> coefficient of N^(2-2g-s).

    Raises GradingError if any exponent sits off the grading (which would
    signal a normalization bug upstream).
    """
    out: dict[int, int | Fraction] = {}
    for e, c in p.terms.items():
        num = 2 - s - e
        if num % 2 or num < 0:
            raise GradingError(f"exponent {e} off the N^(2-2g-{s}) grading")
        out[num // 2] = c
    return dict(sorted(out.items()))
