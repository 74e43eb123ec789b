"""The recursion route: the values its table checks compare, and the
series of the spectral curve in the special times.

The four table engines ("3-t", "recurrence", "rec-v2" and "8-t") live in
hzlag.engines, which yields each table a row at a time; hzlag.tables
streams the rows into the gen JSON, and its load_table reads the table back
as its rows, {i: {j: value}}, which the checks here take.  Here: the
n = 1 closed form ("C1g"), the operator equations "int-2" and "W1", which
re-derive the tables independently of the table-filling code paths, the
Gaussian genus reconstruction, half_binomial_series, the int kernel for
(1-4t)^(s/2), and the series in 1/x built on it: the v_k and s_{k,beta}
bases, the a-row expansion and the basis side of "W30".  These return
values, not verdicts: the suites of hzlag.verify judge them and make the
check records, and compare the tables with the Wick oracles, which nothing
here reads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engines import _exact_div

__all__ = [
    "integrality_violations",
    "c1_closed_form",
    "int2_residuals",
    "w1_slots",
    "half_binomial_series",
    "gauss_genus_coefficients",
    "vk_series",
    "s_series",
    "s_pair_series",
    "a_row_series",
    "w30_basis_coefficient",
]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def integrality_violations(rows: dict) -> list[tuple[int, int]]:
    """The keys (i, j), sorted, of the rows {i: {j: value}} whose value is
    not a positive integer."""
    return sorted((i, j) for i, row in rows.items() for j, v in row.items()
                  if v.denominator != 1 or v <= 0)


def c1_closed_form(g: int) -> int:
    """Closed form 2^g g! (2g-1)!! / (g+1) for the n = 1 column ("C1g"): the
    count C_1^(g), so the division is exact."""
    if g < 0:
        raise ValueError("need g >= 0")
    dfact = math.prod(range(1, 2 * g, 2))
    return _exact_div(2**g * math.factorial(g) * dfact, g + 1, "C1g", g, 1)


def asym_moments(row: dict, rmax: int) -> list[Fraction]:
    """The moments sum_k k^r a_k of one a-row ("asym-r") for r = 0..rmax,
    multiplying each coefficient by its k once per step, over int on
    den * row, den the least common denominator."""
    den = math.lcm(*(v.denominator for v in row.values()))
    vs = [v.numerator * (den // v.denominator) for v in row.values()]
    moments = [sum(vs)]
    for _ in range(rmax):
        vs = [k * v for k, v in zip(row, vs)]
        moments.append(sum(vs))
    return [Fraction(s, den) for s in moments]


# ---------------------------------------------------------------------------
# the half-binomial kernel and the Gaussian genus reconstruction
# ---------------------------------------------------------------------------


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


def gauss_genus_coefficients(row: dict, g: int, mmax: int) -> dict[int, int]:
    """x-series coefficients of sum_k b_k^(g) (x^2-4)^(-(4g+2k+1)/2), row
    the genus-g row {k: b_k^(g)}.

    Returns {m: coefficient of x^(-m-1)} for m <= mmax; these are the
    genus-g coefficients of the Gaussian moments.
    """
    out = {m: 0 for m in range(mmax + 1)}
    for k, b in row.items():
        j = 4 * g + 2 * k + 1  # (x^2-4)^(-j/2) = x^-j (1 - 4/x^2)^(-j/2)
        if b == 0 or j > mmax + 1:
            continue
        for i, c in enumerate(half_binomial_series(-j, (mmax + 1 - j) // 2)):
            out[j + 2 * i - 1] += b * c
    return out


# ---------------------------------------------------------------------------
# special-times series, each the plain list of the coefficients of x^0, x^-1,
# .. x^-order.  Half-integer powers never need an algebraic extension: every
# basis is (1 - 4/x)^(s/2) for an odd s, times a power of x and possibly
# x - 2, so its coefficients are the integers of half_binomial_series, and
# the series here add coefficient lists and never multiply series.
# ---------------------------------------------------------------------------


def vk_series(k: int, order: int) -> list[int]:
    """The coefficients of x^0 .. x^-order of
    v_k = ((x-4)/x)^(k+1/2) = (1 - 4/x)^((2k+1)/2)."""
    return half_binomial_series(2 * k + 1, order)


def s_series(k: int, beta: int, order: int) -> list[int]:
    """The coefficients of x^0 .. x^-order of
    s_{k,beta} = (x-2)^beta (x^2-4x)^(-(2k+3)/2).

    (x^2-4x)^(-(2k+3)/2) = x^(-j) (1-4/x)^(-j/2) with j = 2k+3, whose
    coefficient of x^-(j+e) is c_e = [t^e] (1-4t)^(-j/2).  Times x - 2 the
    series starts one power higher, at x^-(j-1), with coefficients
    c_e - 2 c_(e-1); the coefficients above the leading term are zero.
    """
    if k < 0 or beta not in (0, 1):
        raise ValueError("need k >= 0 and beta in {0, 1}")
    lead = 2 * k + 3 - beta  # the exponent of 1/x of the leading term
    if order < lead:
        return [0] * (order + 1)
    c = half_binomial_series(-2 * k - 3, order - lead)
    if beta:
        c = [a - 2 * b for a, b in zip(c, [0, *c])]
    return [0] * lead + c


def s_pair_series(k: int, order: int) -> list[int]:
    """The coefficients of x^0 .. x^-order of s_{k,1} + 2 s_{k,0}, the
    s-basis form of "W11" (k = 1) and the one-variable factor of "W30"
    (k = 0)."""
    return [a + 2 * b for a, b in zip(s_series(k, 1, order), s_series(k, 0, order))]


def a_row_series(row: dict[int, Fraction], g: int, order: int) -> list[Fraction]:
    """The coefficients of x^0 .. x^-order of sum_k a_k v_k (plus the
    constant 1/2 when g = 0) for one a-row.

    For a true genus-g row those of x^0 .. x^(-2g) cancel, and C_n^(g) is
    the coefficient of x^(-1-2g-n).
    """
    # work over int on den * row, den the least common denominator
    den = math.lcm(2 if g == 0 else 1, *(a.denominator for a in row.values()))
    total = [den // 2 if g == 0 else 0] + [0] * order
    for k, a in sorted(row.items()):
        if a:
            scaled = a.numerator * (den // a.denominator)
            vk = half_binomial_series(2 * k + 1, order)
            total = [t + scaled * c for t, c in zip(total, vk)]
    return [Fraction(t, den) for t in total]


def w30_basis_coefficient(m1: int, m2: int, m3: int) -> int:
    """The coefficient of prod x_i^(-m_i-1) in prod (s_{0,1} + 2 s_{0,0}),
    the basis side of "W30".

    The basis product factorizes, so the product coefficient is a product
    of one-variable coefficients.  The Wick oracle's leading connected
    three-trace coefficient is exactly twice it (the crosscheck suite and
    the tests assert it).
    """
    if min(m1, m2, m3) < 1:
        raise ValueError("trace exponents must be positive")
    order = max(m1, m2, m3) + 1
    t = s_pair_series(0, order)
    return t[m1 + 1] * t[m2 + 1] * t[m3 + 1]


# ---------------------------------------------------------------------------
# operator equations
# ---------------------------------------------------------------------------


# An operator block is (q shift, e shift, coefficient as a function of e):
# applied to the term N^-q x^-e it gives coefficient(e) N^-(q + q shift)
# x^-(e + e shift); each is derived by applying the displayed differential
# operator to x^-e.
_INT2_BLOCKS = (
    (1, 1, lambda e: e * (e - 1) * (e - 2)),             # 1/N: -x^2 d^3 - 6x d^2 - 6 d
    (-1, -1, lambda e: 2 - e),                           # N:   x^2 d + 2x
    (-1, 0, lambda e: 4 * e - 6),                        # N:   -4x d - 6
)

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

_W1_RHS = {(-2, 0): 2, (-1, 0): 1, (-1, 1): 2, (0, 1): 2}


def _collect(terms, blocks) -> dict[tuple[int, int], int]:
    """{(q, e): coefficient of N^-q x^-e} of the blocks applied to the
    terms (q, e, coefficient), summed over int."""
    acc: dict[tuple[int, int], int] = {}
    for q, e, c in terms:
        for dq, de, coeff in blocks:
            key = (q + dq, e + de)
            acc[key] = acc.get(key, 0) + c * coeff(e)
    return acc


def int2_residuals(rows: dict) -> dict[tuple[int, int], int]:
    """{(g, n): residual} at each key of the rows {g: {n: C_n^(g)}}: the collected
    coefficient of N^(1-2g) x^-(1+2g+n) of the two operator blocks of
    "int-2" applied to the series W_1' = -sum N^(-2g) C_n^(g) (n+2g+1)
    x^(-2-2g-n).  Each vanishes when the table satisfies the equation; this
    re-derives "3-t" independently of the table filler.
    """
    acc = _collect(((2 * g, 2 + 2 * g + n, -cval * (n + 2 * g + 1))
                    for g, row in rows.items() for n, cval in row.items()), _INT2_BLOCKS)
    return {(g, n): acc.get((2 * g - 1, 1 + 2 * g + n), 0) for g, row in rows.items() for n in row}


def w1_slots(rows: dict) -> dict[tuple[int, int], tuple[int, int]]:
    """{(Q, E): (collected, expected)} of the five N-graded operator blocks
    of "W1" applied to the double series W_1 = sum_q N^(-q) C_n^(q/2)
    x^(-1-q-n), rows {q: {n: C_n^(q/2)}} from q = 0 and n = 0, against the
    inhomogeneity 2N^2 + N + (2N+2)/x, at every slot (N^-Q, x^-E) that the
    rows determine."""
    acc = _collect(((q, 1 + q + n, cval) for q, row in rows.items() for n, cval in row.items()),
                   _W1_BLOCKS)
    r2max, nmax = max(rows), max(rows[0])

    def determined(Q: int, E: int) -> bool:
        # every in-range source feeding slot (Q, E) must lie inside the table
        for dq, de, _ in _W1_BLOCKS:
            q, e = Q - dq, E - de
            n = e - 1 - q
            if q >= 0 and n >= 0 and n not in rows.get(q, ()):
                return False
        return True

    return {(Q, E): (acc.get((Q, E), 0), _W1_RHS.get((Q, E), 0))
            for Q in range(-2, r2max + 1) for E in range(0, nmax + Q + 3) if determined(Q, E)}
