"""The four table engines behind ``hzlag gen``: the Laguerre three-term
recursion ("3-t"), the Gaussian recursion ("recurrence"), the v_k recursion
("rec-v2", stored as A / 2^(8g+1)) and the k = 1 eight-term recursion
("8-t").

Each engine yields its table a row at a time, as ``(i, j0, values)``: the
entries (i, j0), (i, j0 + 1), ... in sorted key order.  Every entry is an
exact integer quotient, checked by _exact_div as it is made.  Each engine
fixes its own number type.  "3-t" and "recurrence" run over exact
decimal.Decimal, whose entries are made in base-10 limbs: a laguerre or
gauss entry runs to a thousand digits and more, and str() of a Decimal is
linear in its digits where str() of an int is quadratic.  They make each row
in the context _EXACT, where an operation that would round raises.  "8-t"
runs over int (its entries are shorter), and "rec-v2" over int on the
scaled rows, yielding Fractions.  "3-t", "recurrence" and "8-t" compute
their relation's coefficients once per call, in the number type they run
over, so no entry converts an int to a Decimal.

This module imports only ``decimal`` (``fractions`` inside the functions
that need it), so a process that only generates tables loads none of the
verifiers and oracles that ``hzlag.recursions`` holds.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

__all__ = [
    "ConstraintError",
    "IntegralityError",
    "do_norbury_items",
    "gauss_hz_items",
    "vk_items",
    "glag_k1_items",
    "consistency_form",
    "asym_first_nonzero",
]


class ConstraintError(ValueError):
    """A hard postcondition (constraint family) failed on a computed table."""


class IntegralityError(ValueError):
    """A recursion produced a non-integer entry where integers are forced."""


def _exact_div(num, den, anchor: str, i: int, j: int):
    """The quotient num / den of entry (i, j) of `anchor`, or IntegralityError;
    num and den are ints or integral Decimals, and the quotient is of num's
    type."""
    q, r = divmod(num, den)
    if r:
        from fractions import Fraction

        raise IntegralityError(
            f"{anchor} entry ({i}, {j}) = {Fraction(num) / Fraction(den)} is not an integer")
    return q


# the context a "3-t" or "recurrence" row is made in: every digit of an
# entry is kept (MAX_PREC digits), and an operation that would round or fail
# raises instead, so a Decimal entry is exact or is not made
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
                                decimal.DivisionByZero])
_ONE, _ZERO = Decimal(1), Decimal(0)


def do_norbury_items(gmax: int, nmax: int):
    """Yield the rows (g, 0, [C_0^(g), .., C_nmax^(g)]) for g = 0..gmax, as
    exact Decimals, via "3-t":
    (n+2g+1) C_n^(g) = (n+2g-2)(n+2g-1)^2 C_n^(g-1) + 2(2n+4g-1) C_{n-1}^(g)
    with C_0^(0) = 1 and C_0^(g) = 0 for g >= 1.

    Row g = 0 is the Catalan recurrence (n+1) C_n = 2(2n-1) C_{n-1}, which is
    the relation with C^(-1) = 0.  Only row g - 1 is held while row g is made.
    Each row is made in the context _EXACT and yielded after it is left, so
    the caller's decimal context is the current one between yields.
    """
    if gmax < 0 or nmax < 0:
        raise ValueError("need gmax, nmax >= 0")
    # the relation's coefficients at s = n + 2g
    s_top = range(nmax + 2 * gmax + 1)
    ca = [Decimal((s - 2) * (s - 1) ** 2) for s in s_top]
    cb = [Decimal(2 * (2 * s - 1)) for s in s_top]
    cd = [Decimal(s + 1) for s in s_top]
    prev = [_ZERO] * (nmax + 1)  # row g - 1; row -1 vanishes
    for g in range(gmax + 1):
        with decimal.localcontext(_EXACT):
            c = _ONE if g == 0 else _ZERO  # the row's previous entry
            row = [c]
            s = 2 * g + 1
            for n, p, a, b, d in zip(range(1, nmax + 1), prev[1:], ca[s:], cb[s:], cd[s:]):
                c = _exact_div(a * p + b * c, d, "3-t", g, n)
                row.append(c)
        yield g, 0, row
        prev = row


def gauss_hz_items(gmax: int):
    """Yield the rows (g, 0, [b_0^(g), .., b_(g-1)^(g)]) for g = 1..gmax, as
    exact Decimals ("recurrence").

    Seed b_k^(1) = delta_{k,0}; then
    (4g+2k+6) b_k^(g+1)
        = (4g+2k+1)(4g+2k+3) [(4g+2k+2) b_k^(g) + 4(4g+2k-1) b_{k-1}^(g)].
    Every entry is an exact integer quotient; IntegralityError otherwise,
    which would signal a wrong seed convention.  Only row g is held while
    row g + 1 is made, in the context _EXACT, as in do_norbury_items.
    """
    if gmax < 1:
        raise ValueError("need gmax >= 1")
    # the relation's coefficients at s = 4g + 2k, indexed by s / 2
    s_top = range(0, 6 * gmax + 1, 2)
    ca = [Decimal((s + 1) * (s + 3) * (s + 2)) for s in s_top]
    cb = [Decimal(4 * (s + 1) * (s + 3) * (s - 1)) for s in s_top]
    cd = [Decimal(s + 6) for s in s_top]
    row = [_ONE]  # row g = 1
    yield 1, 0, row
    for g in range(1, gmax):
        prev, row = row, []
        with decimal.localcontext(_EXACT):
            left = _ZERO  # b_(k-1)^(g), from b_(-1)^(g) = 0
            # b_g^(g) = 0 ends the previous row
            for k, right, a, b, d in zip(range(g + 1), [*prev, _ZERO], ca[2 * g:], cb[2 * g:],
                                         cd[2 * g:]):
                row.append(_exact_div(a * right + b * left, d, "recurrence", g + 1, k))
                left = right
        yield g + 1, 0, row


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


def consistency_form(row: dict):
    """32 times the linear form of the "consistency" constraint on one a-row
    (or on a scaled row: the form vanishes on both or on neither)."""
    return 105 * row.get(3, 0) - 120 * row.get(2, 0) + 18 * row.get(1, 0) - 3 * row.get(-1, 0)


def asym_first_nonzero(row: dict, rmax: int) -> int | None:
    """The least r <= rmax whose "asym-r" moment sum_k k^r a_k is nonzero,
    or None when all of them vanish; the same as the first nonzero index of
    recursions.asym_moments(row, rmax), with integer additions only.

    The moments vanish for all r <= R exactly when (x-1)^(R+1) divides the
    row polynomial sum_k a_k x^k, and the remainder of the j-th synthetic
    division by x - 1 is the first that is nonzero exactly when moment j is
    the first nonzero one.
    """
    from itertools import accumulate

    cs = [row.get(k, 0) for k in range(max(row), min(row) - 1, -1)]  # descending powers
    for r in range(rmax + 1):
        if not cs:
            break  # the zero polynomial: every moment vanishes
        *cs, remainder = accumulate(cs)  # quotient and remainder by x - 1
        if remainder:
            return r
    return None


def vk_items(gmax: int):
    """Yield the rows (g, -3g, [a_(-3g)^(g), .., a_g^(g)]) for 0 <= g <=
    gmax, via "rec-v2".

    Works over int on the rows A_k^(g) = 2^(8g+1) a_k^(g): seed A_0^(0) = -1;
    for g >= 1 and k != 0, A_k^(g) = 2 _rec_v2_rhs(row g-1, k) / k (exact);
    A_0^(g) comes from the "asymptotic" sum rule.  The "consistency" and
    "asym-r" constraint families are asserted on each row before it is
    yielded, as hard postconditions (ConstraintError on violation).  Only
    row g - 1 is held while row g is made.
    """
    from fractions import Fraction

    if gmax < 0:
        raise ValueError("need gmax >= 0")
    yield 0, 0, [Fraction(-1, 2)]
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
        yield g, -3 * g, [Fraction(row[k], scale) for k in range(-3 * g, g + 1)]
        prev = row


# inhomogeneity of "8-t" at (q, n); zero elsewhere
_8T_RHS = {(0, 0): 2, (1, 0): 1, (1, 1): 2, (2, 1): 2}


def glag_k1_items(r2max: int, nmax: int):
    """Yield the rows (q, 0, [C_0^(r), .., C_nmax^(r)]) (q = 2r) for q =
    0..r2max, over int via the eight-term relation "8-t", solving in
    increasing q then increasing subscript m.

    The relation for row q references subscript m+1 of rows q-1..q-4, so row
    q is filled through nmax + (r2max - q) and yielded trimmed to nmax; only
    rows q-4..q-1 are held while row q is made.
    """
    if r2max < 0 or nmax < 0:
        raise ValueError("need r2max, nmax >= 0")
    # the relation's coefficients at n = m + q, the relation index
    n_top = range(nmax + r2max + 1)
    c1 = [n + 1 for n in n_top]
    c2 = [4 * (2 * n - 1) for n in n_top]
    c3 = [(n - 1) * (n - 2) * (n - 3) for n in n_top]
    c4 = [(n + 1) * (n - 1) for n in n_top]
    c5 = [(n - 1) * (n - 2) * (n - 3) ** 2 for n in n_top]
    cd = [2 * (n + 1) for n in n_top]
    # rows q-4..q-1; the rows q < 0 vanish and are read through m = nmax + r2max + 1
    rows = [[0] * (nmax + r2max + 2) for _ in range(4)]
    for q in range(r2max + 1):
        r4, r3, r2, r1 = rows
        width = nmax + (r2max - q) + 1
        rhs = [0] * width  # the inhomogeneity of row q, by m
        for (qq, n), v in _8T_RHS.items():
            if qq == q and 0 <= n - q < width:
                rhs[n - q] = v
        c = 0  # the row's previous entry; subscript -1 vanishes
        row = []
        for m in range(width):
            n = m + q
            known = (
                c1[n] * r1[m + 1]
                - c2[n] * (c + r1[m])
                - c3[n] * (2 * r2[m] + r3[m + 1])
                - c4[n] * r2[m + 1]
                + c5[n] * r4[m + 1]
            )
            c = _exact_div(rhs[m] - known, cd[n], "8-t", q, m)
            row.append(c)
        yield q, 0, row[:nmax + 1]
        rows = [r3, r2, r1, row]
