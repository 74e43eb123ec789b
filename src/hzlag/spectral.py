"""Change-of-variable series on the spectral curve side.

Everything here is a series in 1/x with exact coefficients, held as the
plain list of the coefficients of x^0, x^-1, .. x^-order: the v_k basis
((x-4)/x)^(k+1/2), the s_{k,beta} basis (x-2)^beta (x^2-4x)^(-(2k+3)/2),
the expansion of an a_k^(g) row in the v_k basis, whose coefficients are
the C_n^(g), and the basis side of "W30".  The checks that read these
series ("a-to-C", "W11" and "W30") are comparisons of hzlag.verify's suites.
Half-integer powers never require algebraic extensions: every object
handled is x^(-a) (x-4)^(-b) with a+b an integer, hence a genuine Laurent
series in 1/x.  Each basis series is (1 - 4/x)^(s/2) for an odd s, times a
power of x and possibly x - 2, so its coefficients are the integers of
recursions.half_binomial_series; the series here add coefficient lists and
never multiply series.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .recursions import half_binomial_series

__all__ = ["vk_series", "s_series", "s_pair_series", "a_row_series", "w30_basis_coefficient"]


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
