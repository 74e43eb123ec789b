"""Change-of-variable series on the spectral curve side.

Everything here is a series in 1/x with exact coefficients, held as the
plain list of the coefficients of x^0, x^-1, .. x^-order: the v_k basis
((x-4)/x)^(k+1/2), the s_{k,beta} basis (x-2)^beta (x^2-4x)^(-(2k+3)/2),
the conversion from a_k^(g) rows to C_n^(g) coefficients, and the
closed-form checks "W11", "W30", and "consistency".  Half-integer powers
never require algebraic extensions: every object handled is
x^(-a) (x-4)^(-b) with a+b an integer, hence a genuine Laurent series in
1/x.  Each basis series is (1 - 4/x)^(s/2) for an odd s, times a power of x
and possibly x - 2, so its coefficients are the integers of
recursions.half_binomial_series; the checks add coefficient lists and never
multiply series.
"""

from __future__ import annotations

from fractions import Fraction

from .reports import CheckRecord, record
from .recursions import VTable, consistency_form, half_binomial_series
from .wick import connected_moments

__all__ = [
    "NonCancellationError",
    "vk_series",
    "s_series",
    "a_to_C",
    "w11_check",
    "w30_planar_check",
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
    total = [Fraction(1, 2) if g == 0 else Fraction(0)] + [Fraction(0)] * top
    for k, a in sorted(row.items()):
        if a:
            for m, c in enumerate(half_binomial_series(2 * k + 1, top)):
                total[m] += a * c
    for j in range(2 * g + 1):
        if total[j] != 0:
            raise NonCancellationError(f"coefficient of x^-{j} is {total[j]}, expected 0")
    return total[1 + 2 * g:]


def _s_pair_sum(k: int, order: int) -> list[int]:
    """The coefficients of x^0 .. x^-order of s_{k,1} + 2 s_{k,0}."""
    return [a + 2 * b for a, b in zip(s_series(k, 1, order), s_series(k, 0, order))]


def w11_check(order: int) -> list[CheckRecord]:
    """Assert the three encodings of the genus-1 one-loop mean agree
    through x^-order: s_{1,1} + 2 s_{1,0}, the closed form
    x^(-3/2)(x-4)^(-5/2), and the expansion of the g = 1 a-row."""
    if order < 4:
        raise ValueError("need order >= 4 (the series starts at x^-4)")
    s_form = _s_pair_sum(1, order)
    # x^-4 (1 - 4/x)^(-5/2)
    closed = [0] * 4 + half_binomial_series(-5, order - 4)
    from .recursions import vk_table

    c_row = a_to_C(vk_table(1).row(1), 1, order - 3)
    recs = [
        record("W11[s-vs-closed]", "W11", s_form == closed,
               f"s-basis {s_form[4:]} closed {closed[4:]}")
    ]
    # C_n^(1) is the coefficient of x^-(3+n)
    arow_ok = all(closed[3 + n] == c_row[n] for n in range(order - 2))
    recs.append(
        record("W11[arow-vs-closed]", "W11", arow_ok, f"a-row gave {c_row}")
    )
    return recs


def w30_planar_check(m1: int, m2: int, m3: int) -> Fraction:
    """Ratio of the Wick-oracle leading connected three-trace coefficient to
    the coefficient of prod x_i^(-m_i-1) in prod (s_{0,1} + 2 s_{0,0}).

    The basis product factorizes, so the product coefficient is a product
    of one-variable coefficients.  With this normalization the ratio is
    exactly 2 (the crosscheck suite and the tests assert it).
    """
    if min(m1, m2, m3) < 1:
        raise ValueError("trace exponents must be positive")
    order = max(m1, m2, m3) + 1
    t = _s_pair_sum(0, order)
    prod = t[m1 + 1] * t[m2 + 1] * t[m3 + 1]
    if prod == 0:
        raise ZeroDivisionError("product coefficient vanishes")
    oracle = connected_moments((m1, m2, m3)).coefficient(-1)
    return oracle / prod


def consistency_identity_check(table: VTable, gmax: int) -> list[CheckRecord]:
    """Assert the "consistency" linear form vanishes on every a-row
    through gmax (the coefficient-wise content of the exact contour
    identity on the one-loop mean, order by order in 1/N)."""
    if gmax > table.gmax:
        raise ValueError("table does not reach the requested gmax")
    recs = []
    for g in range(gmax + 1):
        v = consistency_form(table.row(g))
        recs.append(record(f"consistency[g={g}]", "consistency", v == 0, f"form = {v}"))
    return recs
