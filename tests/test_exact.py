"""Property tests for the exact-arithmetic layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzlag.exact import (
    PoleAtExpansionPoint,
    RationalFunction,
    TruncSeries,
    UniPoly,
    WLaurent,
    binom_series,
    gen_binom,
    rat_str,
    rat_str_explicit,
    series_of_rational,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def polys(max_deg=5):
    return st.lists(small_rationals, min_size=0, max_size=max_deg + 1).map(
        lambda cs: UniPoly("u", cs)
    )


# -- rational string forms --------------------------------------------------


@given(rationals)
def test_rat_str_round_trip(q):
    assert Fraction(rat_str(q)) == q
    assert Fraction(rat_str_explicit(q)) == q
    assert "/" in rat_str_explicit(q)


def test_rat_str_forms():
    assert rat_str(Fraction(10)) == "10"
    assert rat_str_explicit(Fraction(10)) == "10/1"
    assert rat_str(Fraction(-3, 4)) == "-3/4"


# -- generalized binomials --------------------------------------------------


@given(small_rationals, st.integers(min_value=1, max_value=8))
def test_gen_binom_pascal(alpha, m):
    assert gen_binom(alpha, m) == gen_binom(alpha - 1, m) + gen_binom(alpha - 1, m - 1)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_gen_binom_integer_case(n, m):
    assert gen_binom(Fraction(n), m) == math.comb(n, m)


# -- polynomial ring --------------------------------------------------------


@given(polys(), polys(), polys())
def test_unipoly_distributive(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys(), polys(4))
def test_unipoly_divmod(p, q):
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    f, r = divmod(p, q)
    assert f * q + r == p
    assert r.is_zero or r.degree < q.degree


@given(polys(), polys())
def test_unipoly_gcd_divides(p, q):
    g = UniPoly.gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
        return
    assert (p % g).is_zero and (q % g).is_zero


@given(polys(), polys())
def test_unipoly_derivative_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(polys(), small_rationals)
def test_unipoly_shift_evaluates(p, c):
    for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)):
        assert p.shift(c)(x) == p(x + c)


# -- rational functions -----------------------------------------------------


def rationals_fns():
    return st.tuples(polys(4), polys(4)).filter(lambda t: not t[1].is_zero).map(
        lambda t: RationalFunction(t[0], t[1])
    )


@given(rationals_fns())
def test_rational_canonical_form(f):
    # reduced fraction with a monic denominator
    assert f.den.leading == 1
    assert UniPoly.gcd(f.num, f.den).degree <= 0


@given(rationals_fns())
def test_rational_mul_inverse(f):
    if f.is_zero:
        return
    one = RationalFunction.const("u", 1)
    assert f * (one / f) == one


@given(rationals_fns(), rationals_fns())
def test_rational_derivative_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(rationals_fns())
def test_rational_compose_inverse_pointwise(f):
    g = f.compose_inverse()
    for x in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5)):
        try:
            lhs = g(x)
            rhs = f(1 / x)
        except ZeroDivisionError:
            continue
        assert lhs == rhs


# -- Laurent polynomials in w = u - 1 ---------------------------------------


def w_laurents():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=3), st.integers(min_value=-20, max_value=20),
        max_size=5,
    ).map(WLaurent)


def as_rational(f: WLaurent) -> RationalFunction:
    return RationalFunction(*f.num_den())


@given(w_laurents(), w_laurents())
def test_w_laurent_matches_rational_function(f, g):
    # the reference is RationalFunction, which reduces by a gcd
    rf, rg = as_rational(f), as_rational(g)
    assert (rf.num, rf.den) == f.num_den()  # num_den is already reduced
    assert str(f) == str(rf)
    assert f.is_zero == rf.is_zero
    assert as_rational(f + g) == rf + rg
    assert as_rational(f * g) == rf * rg
    assert as_rational(f - 3) == rf - 3
    assert as_rational(f.derivative()) == rf.derivative()
    for x in (Fraction(-3), Fraction(1, 2), Fraction(5, 3)):
        assert f(x) == rf(x)
    if max(f.terms, default=0) <= 0:
        assert as_rational(f.compose_inverse()) == rf.compose_inverse()
    s = f.series_at_zero(5)
    assert s.eq_through(series_of_rational(rf, 0, 5), 5)


def test_w_laurent_series_is_exact():
    # w^-3 = -(1 - u)^-3 = -(1 + 3u + 6u^2 + ...), with no float rounding
    c = 10**30 + 1
    assert list(WLaurent({-3: c}).series_at_zero(2).coeffs) == [-c, -3 * c, -6 * c]


def test_w_laurent_pole_at_one():
    f = WLaurent({-2: 1, 0: 3})
    with pytest.raises(ZeroDivisionError):
        f(1)
    assert WLaurent({0: 3, 1: 2})(1) == 3
    with pytest.raises(ValueError):
        WLaurent({1: 1}).compose_inverse()


def test_rational_negative_power():
    u = RationalFunction.from_poly(UniPoly.ident("u"))
    assert (u ** -2) * (u ** 2) == RationalFunction.const("u", 1)


# -- truncated series -------------------------------------------------------


def test_trunc_series_basics():
    s = TruncSeries("t", [1, 2, 3], offset=-1)  # t^-1 + 2 + 3t
    assert s.order == 1
    assert s.coefficient(-1) == 1
    assert s.coefficient(-5) == 0
    with pytest.raises(IndexError):
        s.coefficient(2)
    assert s.shift_exp(2).coefficient(1) == 1
    with pytest.raises(ValueError):
        s.truncate(5)


@given(st.lists(small_rationals, min_size=1, max_size=6),
       st.lists(small_rationals, min_size=1, max_size=6))
def test_trunc_series_mul_matches_poly_product(a, b):
    sa = TruncSeries("t", a)
    sb = TruncSeries("t", b)
    prod = sa * sb
    pa, pb = UniPoly("t", a), UniPoly("t", b)
    pp = pa * pb
    for e in range(prod.order + 1):
        assert prod.coefficient(e) == pp.coefficient(e)


@given(small_rationals, small_rationals, st.integers(min_value=1, max_value=8))
def test_binom_series_addition_law(a, b, order):
    lhs = binom_series(a, order) * binom_series(b, order)
    rhs = binom_series(a + b, order)
    assert lhs.eq_through(rhs, order)


@settings(max_examples=40)
@given(polys(4), st.integers(min_value=1, max_value=8))
def test_series_of_rational_back_substitution(p, order):
    if p.is_zero or p.coefficient(0) == 0:
        return
    f = RationalFunction(UniPoly.const("u", 1), p)
    s = series_of_rational(f, 0, order)
    ps = TruncSeries("u", [p.coefficient(k) for k in range(order + 1)])
    back = ps * s
    assert back.coefficient(0) == 1
    assert all(back.coefficient(e) == 0 for e in range(1, back.order + 1))


def test_series_of_rational_pole_detection():
    u = UniPoly.ident("u")
    f = RationalFunction(UniPoly.const("u", 1), u ** 2)
    with pytest.raises(PoleAtExpansionPoint) as exc:
        series_of_rational(f, 0, 3)
    assert exc.value.pole_order == 2


def test_series_of_rational_at_infinity():
    # u / (u - 1) = 1 + 1/u + 1/u^2 + ... in the 1/u variable
    u = UniPoly.ident("u")
    f = RationalFunction(u, u - UniPoly.const("u", 1))
    s = series_of_rational(f, "infinity", 4)
    assert [s.coefficient(k) for k in range(5)] == [1, 1, 1, 1, 1]
