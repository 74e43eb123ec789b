"""Change-of-variable series on the spectral curve side.

Everything here is a series in 1/x with exact coefficients, held as the
plain list of the coefficients of x^0, x^-1, .. x^-order: the v_k basis
((x-4)/x)^(k+1/2), the s_{k,beta} basis (x-2)^beta (x^2-4x)^(-(2k+3)/2),
the conversion from a_k^(g) rows to C_n^(g) coefficients, the closed-form
checks "W11" and "consistency", and the basis side of "W30", whose oracle
side the crosscheck suite of hzlag.cli supplies.  Half-integer powers
never require algebraic extensions: every object handled is
x^(-a) (x-4)^(-b) with a+b an integer, hence a genuine Laurent series in
1/x.  Each basis series is (1 - 4/x)^(s/2) for an odd s, times a power of x
and possibly x - 2, so its coefficients are the integers of
recursions.half_binomial_series; the checks add coefficient lists and never
multiply series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engines import consistency_form
from .reports import CheckRecord, record
from .recursions import Table, half_binomial_series

__all__ = [
    "NonCancellationError",
    "vk_series",
    "s_series",
    "a_to_C",
    "w11_check",
    "w30_basis_coefficient",
    "consistency_identity_check",
]

class NonCancellationError(ValueError):
    """A non-negative power of x failed to cancel in an a-row expansion."""


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


def a_to_C(row: dict[int, Fraction], g: int, order: int) -> list[Fraction]:
    """Convert one a-row to [C_0^(g), ..., C_order^(g)].

    Expands sum_k a_k v_k (plus the constant 1/2 when g = 0); the
    coefficients of x^0 .. x^(-2g) must cancel, and C_n^(g) is the
    coefficient of x^(-1-2g-n).
    """
    top = 1 + 2 * g + order
    # work over int on den * row, den the least common denominator
    den = math.lcm(2 if g == 0 else 1, *(a.denominator for a in row.values()))
    total = [den // 2 if g == 0 else 0] + [0] * top
    for k, a in sorted(row.items()):
        if a:
            scaled = a.numerator * (den // a.denominator)
            vk = half_binomial_series(2 * k + 1, top)
            total = [t + scaled * c for t, c in zip(total, vk)]
    for j in range(2 * g + 1):
        if total[j] != 0:
            raise NonCancellationError(
                f"coefficient of x^-{j} is {Fraction(total[j], den)}, expected 0")
    return [Fraction(t, den) for t in total[1 + 2 * g:]]


def _s_pair_sum(k: int, order: int) -> list[int]:
    """The coefficients of x^0 .. x^-order of s_{k,1} + 2 s_{k,0}."""
    return [a + 2 * b for a, b in zip(s_series(k, 1, order), s_series(k, 0, order))]


def w11_check(row: dict[int, Fraction], order: int) -> list[CheckRecord]:
    """Assert the three encodings of the genus-1 one-loop mean agree
    through x^-order: s_{1,1} + 2 s_{1,0}, the closed form
    x^(-3/2)(x-4)^(-5/2), and the expansion of row, the g = 1 a-row.  A
    row whose expansion does not cancel fails "W11[arow-vs-closed]" with
    the NonCancellationError's text as its detail."""
    if order < 4:
        raise ValueError("need order >= 4 (the series starts at x^-4)")
    s_form = _s_pair_sum(1, order)
    # x^-4 (1 - 4/x)^(-5/2)
    closed = [0] * 4 + half_binomial_series(-5, order - 4)
    recs = [
        record("W11[s-vs-closed]", "W11", s_form == closed,
               f"s-basis {s_form[4:]} closed {closed[4:]}")
    ]
    try:
        c_row = a_to_C(row, 1, order - 3)
    except NonCancellationError as e:
        arow_ok, detail = False, str(e)
    else:
        # C_n^(1) is the coefficient of x^-(3+n)
        arow_ok = all(closed[3 + n] == c_row[n] for n in range(order - 2))
        detail = f"a-row gave {c_row}"
    recs.append(record("W11[arow-vs-closed]", "W11", arow_ok, detail))
    return recs


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
    t = _s_pair_sum(0, order)
    return t[m1 + 1] * t[m2 + 1] * t[m3 + 1]


def consistency_identity_check(table: Table, gmax: int) -> list[CheckRecord]:
    """Assert the "consistency" linear form vanishes on every a-row
    through gmax (the coefficient-wise content of the exact contour
    identity on the one-loop mean, order by order in 1/N)."""
    if gmax > table.bounds[0]:
        raise ValueError("table does not reach the requested gmax")
    recs = []
    for g in range(gmax + 1):
        v = consistency_form(table.row(g))
        recs.append(record(f"consistency[g={g}]", "consistency", v == 0, f"form = {v}"))
    return recs
