"""Recursion engines for genus-graded moment tables.

The Laguerre three-term recursion ("3-t"), the Gaussian recursion
("recurrence"), the v_k recursion ("rec-v2", stored as A / 2^(8g+1)) and the
k = 1 eight-term recursion ("8-t") are int kernels: every entry is an exact
integer quotient, checked by _exact_div as it is made.  Also here: the n = 1
closed form ("C1g"), the operator-equation verifiers "int-2" and "W1",
which re-derive the tables independently of the table-filling code paths,
and half_binomial_series, the int kernel for (1-4t)^(s/2) that the Gaussian
genus reconstruction and the spectral bases share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .reports import CheckRecord, record
from .wick import MomentPoly, gue_moment

__all__ = [
    "ConstraintError",
    "IntegralityError",
    "LagCTable",
    "GaussBTable",
    "VTable",
    "HalfGenusTable",
    "do_norbury_table",
    "c1_closed_form",
    "gauss_hz_table",
    "vk_table",
    "glag_k1_table",
    "laguerre_ode_check",
    "glag_w1_ode_check",
    "lag_moment_from_table",
    "half_binomial_series",
    "gauss_genus_coefficients",
    "gauss_gue_check",
    "glag_moment_from_table",
    "glag_series_coefficient",
]


class ConstraintError(ValueError):
    """A hard postcondition (constraint family) failed on a computed table."""


class IntegralityError(ValueError):
    """A recursion produced a non-integer entry where integers are forced."""


def _exact_div(num: int, den: int, anchor: str, i: int, j: int) -> int:
    """The quotient num / den of entry (i, j) of `anchor`, or IntegralityError."""
    q, r = divmod(num, den)
    if r:
        raise IntegralityError(
            f"{anchor} entry ({i}, {j}) = {Fraction(num, den)} is not an integer")
    return q


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LagCTable:
    """Laguerre genus-graded moment coefficients (g, n) -> C_n^(g)."""

    gmax: int
    nmax: int
    entries: dict = field(default_factory=dict)

    def value(self, g: int, n: int) -> Fraction:
        if n < 0 or g < 0:
            return Fraction(0)
        if g > self.gmax or n > self.nmax:
            raise KeyError(f"(g={g}, n={n}) outside table bounds")
        return self.entries[(g, n)]

    def integrality_violations(self) -> list[tuple[int, int]]:
        """Entries with g >= 0, n >= 1 that are not positive integers."""
        return [
            (g, n)
            for (g, n), v in sorted(self.entries.items())
            if n >= 1 and (v.denominator != 1 or v <= 0)
        ]


@dataclass(frozen=True)
class GaussBTable:
    """Gaussian genus-graded coefficients (g, k) -> b_k^(g), 1 <= g, 0 <= k < g."""

    gmax: int
    entries: dict = field(default_factory=dict)

    def value(self, g: int, k: int) -> Fraction:
        if k < 0 or k >= g:
            return Fraction(0)
        if g < 1 or g > self.gmax:
            raise KeyError(f"(g={g}, k={k}) outside table bounds")
        return self.entries[(g, k)]

    def integrality_violations(self) -> list[tuple[int, int]]:
        return [
            (g, k)
            for (g, k), v in sorted(self.entries.items())
            if v.denominator != 1 or v <= 0
        ]


@dataclass(frozen=True)
class VTable:
    """v_k-basis coefficients (g, k) -> a_k^(g), -3g <= k <= g."""

    gmax: int
    entries: dict = field(default_factory=dict)

    def value(self, g: int, k: int) -> Fraction:
        if g < 0 or g > self.gmax:
            raise KeyError(f"g={g} outside table bounds")
        return self.entries.get((g, k), Fraction(0))

    def row(self, g: int) -> dict[int, Fraction]:
        if g < 0 or g > self.gmax:
            raise KeyError(f"g={g} outside table bounds")
        return {k: v for (gg, k), v in self.entries.items() if gg == g}


@dataclass(frozen=True)
class HalfGenusTable:
    """Fractional-genus coefficients (2r, n) -> C_n^(r) for the k = 1 ensemble.

    The first index is the doubled half-integer genus q = 2r.
    """

    r2max: int
    nmax: int
    entries: dict = field(default_factory=dict)

    def value(self, q: int, n: int) -> Fraction:
        if q < 0 or n < 0:
            return Fraction(0)
        if q > self.r2max or n > self.nmax:
            raise KeyError(f"(2r={q}, n={n}) outside table bounds")
        return self.entries[(q, n)]


# ---------------------------------------------------------------------------
# table builders
# ---------------------------------------------------------------------------


def do_norbury_table(gmax: int, nmax: int) -> LagCTable:
    """Fill C_n^(g) through (gmax, nmax) over int via "3-t":
    (n+2g+1) C_n^(g) = (n+2g-2)(n+2g-1)^2 C_n^(g-1) + 2(2n+4g-1) C_{n-1}^(g)
    with C_0^(0) = 1 and C_0^(g) = 0 for g >= 1.

    Row g = 0 is the Catalan recurrence (n+1) C_n = 2(2n-1) C_{n-1}, which is
    the relation with C^(-1) = 0.
    """
    if gmax < 0 or nmax < 0:
        raise ValueError("need gmax, nmax >= 0")
    entries: dict = {}
    prev = [0] * (nmax + 1)  # row g - 1; row -1 vanishes
    for g in range(gmax + 1):
        row = [1 if g == 0 else 0]
        for n in range(1, nmax + 1):
            s = n + 2 * g
            num = (s - 2) * (s - 1) ** 2 * prev[n] + 2 * (2 * s - 1) * row[n - 1]
            row.append(_exact_div(num, s + 1, "3-t", g, n))
        entries.update(((g, n), v) for n, v in enumerate(row))
        prev = row
    return LagCTable(gmax, nmax, entries)


def c1_closed_form(g: int) -> Fraction:
    """Closed form 2^g g! (2g-1)!! / (g+1) for the n = 1 column ("C1g")."""
    if g < 0:
        raise ValueError("need g >= 0")
    dfact = math.prod(range(1, 2 * g, 2))
    return Fraction(2**g * math.factorial(g) * dfact, g + 1)


def gauss_hz_table(gmax: int) -> GaussBTable:
    """Fill the Gaussian coefficients b_k^(g), 1 <= g <= gmax, over int ("recurrence").

    Seed b_k^(1) = delta_{k,0}; then
    (4g+2k+6) b_k^(g+1)
        = (4g+2k+1)(4g+2k+3) [(4g+2k+2) b_k^(g) + 4(4g+2k-1) b_{k-1}^(g)].
    Every entry is an exact integer quotient; IntegralityError otherwise,
    which would signal a wrong seed convention.
    """
    if gmax < 1:
        raise ValueError("need gmax >= 1")
    entries: dict = {(1, 0): 1}
    for g in range(1, gmax):
        for k in range(g + 1):
            s = 4 * g + 2 * k
            num = (s + 1) * (s + 3) * ((s + 2) * entries.get((g, k), 0)
                                       + 4 * (s - 1) * entries.get((g, k - 1), 0))
            entries[(g + 1, k)] = _exact_div(num, s + 6, "recurrence", g + 1, k)
    return GaussBTable(gmax, entries)


def _rec_v2_rhs(prev: dict[int, int], k: int) -> int:
    """32 times the right-hand side of the five-term relation "rec-v2" at
    index k, evaluated on the scaled genus-(g-1) row ``prev`` (missing
    indices are zero)."""
    return (
        (2 * k + 7) * (2 * k + 5) * (2 * k + 3) * prev.get(k + 3, 0)
        - 8 * (2 * k + 5) * (2 * k + 3) * (k + 1) * prev.get(k + 2, 0)
        + 6 * (2 * k + 3) * (2 * k + 1) ** 2 * prev.get(k + 1, 0)
        - 8 * (2 * k + 1) * k * (2 * k - 1) * prev.get(k, 0)
        + (2 * k - 1) ** 2 * (2 * k - 3) * prev.get(k - 1, 0)
    )


def consistency_form(row: dict) -> Fraction | int:
    """32 times the linear form of the "consistency" constraint on one a-row
    (or on a scaled row: the form vanishes on both or on neither)."""
    return 105 * row.get(3, 0) - 120 * row.get(2, 0) + 18 * row.get(1, 0) - 3 * row.get(-1, 0)


def asym_moments(row: dict, rmax: int) -> list:
    """The moments sum_k k^r a_k of one a-row ("asym-r") for r = 0..rmax,
    multiplying each coefficient by its k once per step."""
    vs = list(row.values())
    moments = [sum(vs)]
    for _ in range(rmax):
        vs = [k * v for k, v in zip(row, vs)]
        moments.append(sum(vs))
    return moments


def asym_first_nonzero(row: dict, rmax: int) -> int | None:
    """The least r <= rmax whose "asym-r" moment sum_k k^r a_k is nonzero,
    or None when all of them vanish; the same as the first nonzero index of
    asym_moments(row, rmax), with integer additions only.

    The moments vanish for all r <= R exactly when (x-1)^(R+1) divides the
    row polynomial sum_k a_k x^k, and the remainder of the j-th synthetic
    division by x - 1 is the first that is nonzero exactly when moment j is
    the first nonzero one.
    """
    cs = [row.get(k, 0) for k in range(max(row), min(row) - 1, -1)]  # descending powers
    for r in range(rmax + 1):
        if not cs:
            break  # the zero polynomial: every moment vanishes
        *cs, remainder = itertools.accumulate(cs)  # quotient and remainder by x - 1
        if remainder:
            return r
    return None


def vk_table(gmax: int) -> VTable:
    """Fill a_k^(g) for 0 <= g <= gmax via "rec-v2".

    Works over int on the rows A_k^(g) = 2^(8g+1) a_k^(g): seed A_0^(0) = -1;
    for g >= 1 and k != 0, A_k^(g) = 2 _rec_v2_rhs(row g-1, k) / k (exact);
    A_0^(g) comes from the "asymptotic" sum rule.  The "consistency" and
    "asym-r" constraint families are then asserted as hard postconditions
    (ConstraintError on violation).
    """
    if gmax < 0:
        raise ValueError("need gmax >= 0")
    entries: dict = {(0, 0): Fraction(-1, 2)}
    prev = {0: -1}
    for g in range(1, gmax + 1):
        row = {k: _exact_div(2 * _rec_v2_rhs(prev, k), k, "rec-v2", g, k)
               for k in range(-3 * g, g + 1) if k}
        row[0] = -sum(row.values())
        if consistency_form(row) != 0:
            raise ConstraintError(f"consistency form nonzero at g={g}")
        r = asym_first_nonzero(row, 2 * g + 1)
        if r is not None:
            raise ConstraintError(f"asym-r moment r={r} nonzero at g={g}")
        scale = 2 ** (8 * g + 1)
        entries.update(((g, k), Fraction(v, scale)) for k, v in row.items())
        prev = row
    return VTable(gmax, entries)


# inhomogeneity of "8-t" at (q, n); zero elsewhere
_8T_RHS = {(0, 0): 2, (1, 0): 1, (1, 1): 2, (2, 1): 2}


def glag_k1_table(r2max: int, nmax: int) -> HalfGenusTable:
    """Fill the fractional-genus table C_n^(r) (q = 2r) over int via the
    eight-term relation "8-t", solving in increasing q then increasing subscript m.

    The relation for row q references subscript m+1 of rows q-1..q-4, so row
    q is filled internally through nmax + (r2max - q) and trimmed afterwards.
    """
    if r2max < 0 or nmax < 0:
        raise ValueError("need r2max, nmax >= 0")
    full: dict = {}  # missing keys, including negative indices, are zero
    for q in range(r2max + 1):
        for m in range(nmax + (r2max - q) + 1):
            n = m + q  # the relation index; subscripts below are n - q = m
            known = (
                (n + 1) * full.get((q - 1, m + 1), 0)
                - 4 * (2 * n - 1) * (full.get((q, m - 1), 0) + full.get((q - 1, m), 0))
                - (n - 1) * (n - 2) * (n - 3)
                * (2 * full.get((q - 2, m), 0) + full.get((q - 3, m + 1), 0))
                - (n + 1) * (n - 1) * full.get((q - 2, m + 1), 0)
                + (n - 1) * (n - 2) * (n - 3) ** 2 * full.get((q - 4, m + 1), 0)
            )
            full[(q, m)] = _exact_div(
                _8T_RHS.get((q, n), 0) - known, 2 * (n + 1), "8-t", q, m)
    entries = {(q, m): v for (q, m), v in full.items() if q <= r2max and m <= nmax}
    return HalfGenusTable(r2max, nmax, entries)


# ---------------------------------------------------------------------------
# reconstructions used by the oracle cross-checks
# ---------------------------------------------------------------------------


def lag_moment_from_table(table: LagCTable, m: int) -> MomentPoly:
    """<tr H^m> for the square ensemble as sum_g C_{m-2g}^(g) N^(1-2g)."""
    terms: dict = {}
    for g in range(m // 2 + 1):
        if g > table.gmax or m - 2 * g > table.nmax:
            raise KeyError(f"moment {m} needs entries outside table bounds")
        terms[1 - 2 * g] = table.value(g, m - 2 * g)
    return MomentPoly(terms)


def half_binomial_series(s: int, n: int) -> list[int]:
    """[t^i] (1-4t)^(s/2) for i <= n and odd s: a power of sum_i C(2i, i) t^i
    or of its inverse 1 - 2 sum_i Catalan(i-1) t^i, so every coefficient is
    an integer and each step c_i = 2(2i-2-s) c_(i-1) / i is an exact
    division."""
    if s % 2 == 0:
        raise ValueError(f"s must be odd, got {s}")
    if n < 0:
        raise ValueError("n must be >= 0")
    c = [1]
    for i in range(1, n + 1):
        c.append(_exact_div(2 * (2 * i - 2 - s) * c[-1], i, "half-binomial", s, i))
    return c


def gauss_genus_coefficients(table: GaussBTable, g: int, mmax: int) -> dict[int, Fraction]:
    """x-series coefficients of sum_k b_k^(g) (x^2-4)^(-(4g+2k+1)/2).

    Returns {m: coefficient of x^(-m-1)} for m <= mmax; these are the
    genus-g coefficients of the Gaussian moments.
    """
    out = {m: 0 for m in range(mmax + 1)}
    for k in range(g):
        b = table.value(g, k)
        j = 4 * g + 2 * k + 1  # (x^2-4)^(-j/2) = x^-j (1 - 4/x^2)^(-j/2)
        if b == 0 or j > mmax + 1:
            continue
        for i, c in enumerate(half_binomial_series(-j, (mmax + 1 - j) // 2)):
            out[j + 2 * i - 1] += b * c
    return out


def gauss_gue_check(table: GaussBTable, mmax: int) -> list[CheckRecord]:
    """Compare the reconstructed x-series against the pairing-oracle GUE
    moments, genus by genus, for all even m <= mmax."""
    recs = []
    gtop = min(table.gmax, mmax // 2)
    for g in range(1, gtop + 1):
        series = gauss_genus_coefficients(table, g, mmax)
        ok, detail = True, ""
        for m in range(0, mmax + 1):
            want = gue_moment(m).coefficient(1 - 2 * g)
            if series[m] != want:
                ok, detail = False, f"m={m}: table {series[m]} oracle {want}"
                break
        recs.append(record(f"recurrence-gue[g={g}]", "recurrence", ok, detail))
    return recs


def glag_moment_from_table(table: HalfGenusTable, m: int) -> MomentPoly:
    """<tr H^m> for the k = 1 rectangular ensemble: sum_q C_{m-q}^(q/2) N^(1-q)."""
    terms: dict = {}
    for q in range(m + 1):
        if q > table.r2max or m - q > table.nmax:
            raise KeyError(f"moment {m} needs entries outside table bounds")
        v = table.value(q, m - q)
        if v:
            terms[1 - q] = v
    return MomentPoly(terms)


def glag_series_coefficient(table: HalfGenusTable, e: int) -> MomentPoly:
    """Coefficient of x^(-e) in the fractional-genus expansion, as a Laurent
    polynomial in N (exponent -q for the row q = 2r term)."""
    terms: dict = {}
    for q in range(min(e - 1, table.r2max) + 1):
        v = table.value(q, e - 1 - q)
        if v:
            terms[-q] = v
    return MomentPoly(terms)


# ---------------------------------------------------------------------------
# operator-equation verifiers
# ---------------------------------------------------------------------------


def laguerre_ode_check(table: LagCTable) -> list[CheckRecord]:
    """Apply the two operator blocks of "int-2" to the series
    W_1' = -sum N^(-2g) C_n^(g) (n+2g+1) x^(-2-2g-n) and assert every
    collected (N-power, x-power) coefficient that the table determines
    vanishes.  This re-derives "3-t" independently of the table filler.
    """
    acc: dict[tuple[int, int], Fraction] = {}

    def bump(key: tuple[int, int], v: Fraction) -> None:
        acc[key] = acc.get(key, Fraction(0)) + v

    for (g, n), cval in table.entries.items():
        c = -cval * (n + 2 * g + 1)
        if c == 0:
            continue
        e = 2 + 2 * g + n
        # -(1/N)[x^2 d^3 + 6x d^2 + 6 d] x^-e = e(e-1)(e-2) x^-(e+1) / N
        bump((-2 * g - 1, e + 1), c * e * (e - 1) * (e - 2))
        # N[x^2 d + 2x - 4x d - 6] x^-e = N[(2-e) x^-(e-1) + (4e-6) x^-e]
        bump((-2 * g + 1, e - 1), c * (2 - e))
        bump((-2 * g + 1, e), c * (4 * e - 6))

    recs = []
    for g in range(table.gmax + 1):
        p = -2 * g + 1
        for n in range(table.nmax + 1):
            e = 1 + 2 * g + n
            resid = acc.pop((p, e), Fraction(0))
            recs.append(
                record(f"int-2[g={g},n={n}]", "int-2", resid == 0, f"residual {resid}")
            )
    return recs


# operator blocks of "W1": N-power shift, x-exponent shift, coefficient as a
# function of the source exponent e (term x^-e); derived by applying each
# displayed differential operator to x^-e.
_W1_BLOCKS = (
    (-2, -1, lambda e: 2 * e),                           # N^2: -2x^2 d
    (-2, 0, lambda e: 4 - 8 * e),                        # N^2: 8x d + 4
    (-1, -1, lambda e: e),                               # N:   -x^2 d
    (-1, 0, lambda e: 4 - 8 * e),                        # N:   8x d + 4
    (0, 0, lambda e: 1 - e * e),                         # 1:   -x^2 d^2 - x d + 1
    (0, 1, lambda e: -2 * e * (e - 1) * (e - 2)),        # 1:   2x^2 d^3 + 12x d^2 + 12 d
    (1, 1, lambda e: -e * (e - 1) * (e - 2)),            # 1/N
    (2, 2, lambda e: e * (e + 1) * (e - 1) ** 2),        # 1/N^2
)

_W1_RHS = {(-2, 0): Fraction(2), (-1, 0): Fraction(1), (-1, 1): Fraction(2), (0, 1): Fraction(2)}


def glag_w1_ode_check(table: HalfGenusTable) -> list[CheckRecord]:
    """Apply the five N-graded operator blocks of "W1" to the double series
    W_1 = sum_q N^(-q) C_n^(q/2) x^(-1-q-n) and assert equality with the
    inhomogeneity 2N^2 + N + (2N+2)/x at every slot the table determines."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (q, n), cval in table.entries.items():
        if cval == 0:
            continue
        e = 1 + q + n
        for dq, de, coeff in _W1_BLOCKS:
            key = (q + dq, e + de)
            acc[key] = acc.get(key, Fraction(0)) + cval * coeff(e)

    def determined(Q: int, E: int) -> bool:
        # every in-range source feeding slot (Q, E) must lie inside the table
        for dq, de, _ in _W1_BLOCKS:
            q, e = Q - dq, E - de
            n = e - 1 - q
            if q >= 0 and n >= 0 and (q > table.r2max or n > table.nmax):
                return False
        return True

    recs = []
    for Q in range(-2, table.r2max + 1):
        for E in range(0, table.nmax + Q + 3):
            if not determined(Q, E):
                continue
            got = acc.pop((Q, E), Fraction(0))
            want = _W1_RHS.get((Q, E), Fraction(0))
            recs.append(
                record(
                    f"W1[q={Q},e={E}]", "W1", got == want,
                    f"collected {got} expected {want}",
                )
            )
    return recs
