"""Property tests for the exact-arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hzlag.exact import WLaurent, rat_str_explicit

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


# -- rational string forms --------------------------------------------------


@given(rationals)
def test_rat_str_round_trip(q):
    assert Fraction(rat_str_explicit(q)) == q
    assert "/" in rat_str_explicit(q)


def test_rat_str_forms():
    assert rat_str_explicit(Fraction(10)) == "10/1"
    assert rat_str_explicit(Fraction(-3, 4)) == "-3/4"


# -- Laurent polynomials in w = u - 1 ---------------------------------------


def w_laurents():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=3), st.integers(min_value=-20, max_value=20),
        max_size=5,
    ).map(WLaurent)


def at(f: WLaurent, x: Fraction) -> Fraction:
    """f at the point u = x, summed term by term (the reference evaluation)."""
    return sum((c * (x - 1) ** e for e, c in f.terms.items()), Fraction(0))


def convolve(a, b) -> list:
    """The coefficient list of the product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# a point u = x is also used for f(1/u), so neither x nor 1/x is the pole 1
POINTS = (Fraction(-3), Fraction(1, 2), Fraction(5, 3), Fraction(-2, 7))


@given(w_laurents(), w_laurents())
def test_w_laurent_matches_rational_function(f, g):
    # the reference is exact Fraction evaluation at rational points u
    for x in POINTS:
        assert f(x) == at(f, x)
        assert (f + g)(x) == at(f, x) + at(g, x)
        assert (f * g)(x) == at(f, x) * at(g, x)
        assert (f - 3)(x) == at(f, x) - 3
        if max(f.terms, default=0) <= 0:
            assert f.compose_inverse()(x) == at(f, 1 / x)
    assert f.is_zero == all(at(f, x) == 0 for x in POINTS)
    # d/du is fixed by linearity, the product rule and d/du w = 1
    w = WLaurent({1: 1})
    assert w.derivative() == 1
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
    # series_at_zero is a ring map into the u-series, fixed by the images of
    # the generators w = -1 + u and 1/w = -(1 + u + u^2 + ...)
    assert w.series_at_zero(3) == [-1, 1, 0, 0]
    assert WLaurent({-1: 1}).series_at_zero(3) == [-1, -1, -1, -1]
    fs, gs = f.series_at_zero(5), g.series_at_zero(5)
    assert (f + g).series_at_zero(5) == [a + b for a, b in zip(fs, gs)]
    assert (f * g).series_at_zero(5) == convolve(fs, gs)[:6]


# str(f) for mixed-sign exponents: reduced num/den in u, den = (u - 1)^d
W_LAURENT_STR = [
    ({}, "0"),
    ({0: 3}, "3"),
    ({0: -1}, "-1"),
    ({-1: 1}, "(1) / (u - 1)"),
    ({-1: -2, 0: 1}, "(u - 3) / (u - 1)"),
    ({1: 1}, "u - 1"),
    ({-2: 5, 2: -3}, "(-3*u^4 + 12*u^3 - 18*u^2 + 12*u + 2) / (u^2 - 2*u + 1)"),
    ({-3: 1, 0: -7, 1: 2},
     "(2*u^4 - 15*u^3 + 33*u^2 - 29*u + 10) / (u^3 - 3*u^2 + 3*u - 1)"),
    ({-4: 2, -1: -1, 3: 1},
     "(u^7 - 7*u^6 + 21*u^5 - 35*u^4 + 34*u^3 - 18*u^2 + 4*u + 2)"
     " / (u^4 - 4*u^3 + 6*u^2 - 4*u + 1)"),
    ({-2: 1, 2: 1}, "(u^4 - 4*u^3 + 6*u^2 - 4*u + 2) / (u^2 - 2*u + 1)"),
    ({-1: 4, 1: -1}, "(-u^2 + 2*u + 3) / (u - 1)"),
    ({-1: 3, 0: 5, 2: 1}, "(u^3 - 3*u^2 + 8*u - 3) / (u - 1)"),
    ({-1: 1, 0: -1, 1: 1}, "(u^2 - 3*u + 3) / (u - 1)"),
    ({-3: 6, 0: 0, 3: -2},
     "(-2*u^6 + 12*u^5 - 30*u^4 + 40*u^3 - 30*u^2 + 12*u + 4) / (u^3 - 3*u^2 + 3*u - 1)"),
    ({-1: Fraction(1, 2), 1: Fraction(-3, 4)}, "(-3/4*u^2 + 3/2*u - 1/4) / (u - 1)"),
    ({0: Fraction(5, 3)}, "5/3"),
    ({-2: Fraction(-1, 3), 0: Fraction(2)}, "(2*u^2 - 4*u + 5/3) / (u^2 - 2*u + 1)"),
]


def test_w_laurent_str():
    for terms, want in W_LAURENT_STR:
        assert str(WLaurent(terms)) == want, terms


def test_w_laurent_series_is_exact():
    # w^-3 = -(1 - u)^-3 = -(1 + 3u + 6u^2 + ...), with no float rounding
    c = 10**30 + 1
    assert WLaurent({-3: c}).series_at_zero(2) == [-c, -3 * c, -6 * c]


@given(st.dictionaries(st.integers(min_value=-40, max_value=40),
                       st.one_of(st.integers(-10**30, 10**30), small_rationals),
                       max_size=12),
       st.fractions(max_denominator=10**20))
def test_w_laurent_call_matches_termwise_sum(terms, x):
    # Horner's rule over integers against the sum of Fraction terms: sparse
    # and negative exponents, int and Fraction coefficients, the zero
    # polynomial, and u = 1 (the pole, unless no exponent is negative)
    f = WLaurent(terms)
    for u in (x, Fraction(1), Fraction(0), x + 1):
        if u == 1 and min(f.terms, default=0) < 0:
            with pytest.raises(ZeroDivisionError):
                f(u)
        else:
            got = f(u)
            assert type(got) is Fraction and got == at(f, u)
    assert WLaurent({})(x) == 0


def test_w_laurent_pole_at_one():
    f = WLaurent({-2: 1, 0: 3})
    with pytest.raises(ZeroDivisionError):
        f(1)
    assert WLaurent({0: 3, 1: 2})(1) == 3
    with pytest.raises(ValueError):
        WLaurent({1: 1}).compose_inverse()
