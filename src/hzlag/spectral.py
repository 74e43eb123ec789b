"""Change-of-variable series on the spectral curve side.

Everything here is a truncated Laurent series in 1/x with exact rational
coefficients: the v_k basis ((x-4)/x)^(k+1/2), the s_{k,beta} basis
(x-2)^beta (x^2-4x)^(-(2k+3)/2), the conversion from a_k^(g) rows to
C_n^(g) coefficients, and the closed-form checks "W11", "W30", and
"consistency".  Half-integer powers never require algebraic extensions:
every object handled is x^(-a) (x-4)^(-b) with a+b an integer, hence a
genuine Laurent series in 1/x.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import TruncSeries, binom_series
from .reports import CheckRecord, record
from .recursions import VTable, consistency_form
from .wick import connected_moments

__all__ = [
    "NonCancellationError",
    "INVX",
    "binom_at_minus4_over_x",
    "vk_series",
    "s_series",
    "a_to_C",
    "w11_check",
    "w30_planar_check",
    "consistency_identity_check",
]

INVX = "1/x"  # series variable: exponent m means the coefficient of x^(-m)


class NonCancellationError(ValueError):
    """A non-negative power of x failed to cancel in an a-row expansion."""


def vk_series(k: int, order: int) -> TruncSeries:
    """v_k = ((x-4)/x)^(k+1/2) through x^-order: binom_series(k+1/2)
    evaluated at t = -4/x."""
    return binom_at_minus4_over_x(Fraction(2 * k + 1, 2), order)


def binom_at_minus4_over_x(alpha: Fraction, order: int) -> TruncSeries:
    """(1 - 4/x)^alpha as a series in 1/x through x^-order."""
    coeffs = binom_series(alpha, order).coeffs
    return TruncSeries(INVX, [c * (-4) ** m for m, c in enumerate(coeffs)])


def s_series(k: int, beta: int, order: int) -> TruncSeries:
    """s_{k,beta} = (x-2)^beta (x^2-4x)^(-(2k+3)/2) through x^-order.

    (x^2-4x)^(-(2k+3)/2) = x^(-(2k+3)) (1-4/x)^(-(2k+3)/2); the beta = 1
    variant multiplies by (x - 2).
    """
    if k < 0 or beta not in (0, 1):
        raise ValueError("need k >= 0 and beta in {0, 1}")
    j = 2 * k + 3
    if beta == 0:
        return binom_at_minus4_over_x(Fraction(-j, 2), order).shift_exp(j).truncate(order)
    core = binom_at_minus4_over_x(Fraction(-j, 2), order + 1).shift_exp(j)
    # times x is a shift by one exponent of 1/x: no dense product is needed
    return (core.shift_exp(-1) - core * 2).truncate(order)


def a_to_C(row: dict[int, Fraction], g: int, order: int) -> list[Fraction]:
    """Convert one a-row to [C_0^(g), ..., C_order^(g)].

    Expands sum_k a_k v_k (plus the constant 1/2 when g = 0); the
    coefficients of x^0 .. x^(-2g) must cancel, and C_n^(g) is the
    coefficient of x^(-1-2g-n).
    """
    top = 1 + 2 * g + order
    const = Fraction(1, 2) if g == 0 else Fraction(0)
    total = TruncSeries(INVX, [const] + [Fraction(0)] * top)
    for k, a in sorted(row.items()):
        if a:
            total = total + vk_series(k, top).scale(a)
    for j in range(2 * g + 1):
        if total.coefficient(j) != 0:
            raise NonCancellationError(
                f"coefficient of x^-{j} is {total.coefficient(j)}, expected 0"
            )
    return [total.coefficient(1 + 2 * g + n) for n in range(order + 1)]


def w11_check(order: int) -> list[CheckRecord]:
    """Assert the three encodings of the genus-1 one-loop mean agree
    through x^-order: s_{1,1} + 2 s_{1,0}, the closed form
    x^(-3/2)(x-4)^(-5/2), and the expansion of the g = 1 a-row."""
    if order < 4:
        raise ValueError("need order >= 4 (the series starts at x^-4)")
    s_form = s_series(1, 1, order) + s_series(1, 0, order).scale(2)
    closed = binom_at_minus4_over_x(Fraction(-5, 2), order).shift_exp(4).truncate(order)
    from .recursions import vk_table

    c_row = a_to_C(vk_table(1).row(1), 1, order - 3)
    recs = [
        record(
            "W11[s-vs-closed]", "W11", s_form.eq_through(closed, order),
            f"s-basis {list(s_form.coeffs)} closed {list(closed.coeffs)}",
        )
    ]
    # C_n^(1) is the coefficient of x^-(3+n)
    arow_ok = all(closed.coefficient(3 + n) == c_row[n] for n in range(order - 2))
    recs.append(
        record("W11[arow-vs-closed]", "W11", arow_ok, f"a-row gave {c_row}")
    )
    return recs


def w30_planar_check(m1: int, m2: int, m3: int) -> Fraction:
    """Ratio of the Wick-oracle leading connected three-trace coefficient to
    the coefficient of prod x_i^(-m_i-1) in prod (s_{0,1} + 2 s_{0,0}).

    The basis product factorizes, so the product coefficient is a product
    of one-variable coefficients.  Per the open normalization question the
    ratio is returned, not asserted.
    """
    if min(m1, m2, m3) < 1:
        raise ValueError("trace exponents must be positive")
    order = max(m1, m2, m3) + 1
    t = s_series(0, 1, order) + s_series(0, 0, order).scale(2)
    prod = t.coefficient(m1 + 1) * t.coefficient(m2 + 1) * t.coefficient(m3 + 1)
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
