"""Tests for the brute-force pairing/bijection oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hzlag.wick import (
    DegreeLimitError,
    GradingError,
    MomentPoly,
    complex_wishart_moment,
    connected_moments,
    genus_extract,
    gue_moment,
    parse_dimension,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


# -- MomentPoly algebra and string round trip -------------------------------


def moment_polys():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-99, max_value=99, max_denominator=7).filter(
            lambda q: q != 0
        ),
        max_size=5,
    ).map(MomentPoly)


@given(moment_polys())
def test_moment_poly_str_parse_round_trip(p):
    assert MomentPoly.parse(str(p)) == p


@given(moment_polys(), moment_polys(), moment_polys())
def test_moment_poly_distributive(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(moment_polys(), st.integers(min_value=1, max_value=10))
def test_moment_poly_evaluation_homomorphism(p, n):
    q = p * p - p
    assert q(n) == p(n) * p(n) - p(n)


def test_parse_dimension():
    assert parse_dimension("N")(3) == 3
    assert parse_dimension("N+1")(3) == 4
    assert parse_dimension(5)(3) == 5
    with pytest.raises(ValueError):
        parse_dimension("M+1")


# -- GUE pairing oracle ------------------------------------------------------


def test_gue_moment_small_values():
    assert gue_moment(0) == MomentPoly.parse("N")
    assert gue_moment(1).is_zero
    assert gue_moment(3).is_zero
    assert gue_moment(2) == MomentPoly.parse("N")
    assert gue_moment(4) == MomentPoly.parse("2*N + N^-1")
    assert gue_moment(6) == MomentPoly.parse("5*N + 10*N^-1")
    assert gue_moment(8) == MomentPoly.parse("14*N + 70*N^-1 + 21*N^-3")
    assert gue_moment(10) == MomentPoly.parse("42*N + 420*N^-1 + 483*N^-3")
    assert gue_moment(12) == MomentPoly.parse("132*N + 2310*N^-1 + 6468*N^-3 + 1485*N^-5")


def test_gue_moment_planar_part_is_catalan():
    for m in range(1, 8):
        assert gue_moment(2 * m).coefficient(1) == CATALAN[m]


def test_gue_moment_total_count():
    # at N = 1 every pairing contributes 1: (2m-1)!!
    for m in range(1, 8):
        assert gue_moment(2 * m)(1) == math.prod(range(1, 2 * m, 2))


def test_gue_degree_limit():
    with pytest.raises(DegreeLimitError):
        gue_moment(18)


# -- complex Wishart bijection oracle ----------------------------------------


def test_wishart_square_small_values():
    assert complex_wishart_moment((1,), "N", "N") == MomentPoly.parse("N")
    assert complex_wishart_moment((2,), "N", "N") == MomentPoly.parse("2*N")
    assert complex_wishart_moment((3,), "N", "N") == MomentPoly.parse("5*N + N^-1")
    assert complex_wishart_moment((4,), "N", "N") == MomentPoly.parse("14*N + 10*N^-1")


def test_wishart_gamma_collapse():
    # at rows = cols = 1 the trace moment is m!
    for m in range(1, 7):
        assert complex_wishart_moment((m,), 1, 1) == MomentPoly.const(
            Fraction(math.factorial(m))
        )


def test_wishart_planar_catalan():
    for m in range(1, 8):
        assert complex_wishart_moment((m,), "N", "N").coefficient(1) == CATALAN[m]


def test_wishart_rectangular():
    got = complex_wishart_moment((3,), "N", "N+1")
    assert got == MomentPoly.parse("5*N + 10 + 7*N^-1 + 2*N^-2")
    assert got(1) == 24  # Gamma(3 + 1 + 1) / Gamma(2) at N = 1, cols = 2


def test_wishart_degree_limit():
    with pytest.raises(DegreeLimitError):
        complex_wishart_moment((8,), "N", "N")
    with pytest.raises(DegreeLimitError):
        complex_wishart_moment((4, 4), "N", "N")


def test_wishart_numeric_rows_match_symbolic():
    for m in range(1, 6):
        sym = complex_wishart_moment((m,), "N", "N")
        for n in (1, 2, 3):
            assert complex_wishart_moment((m,), n, n) == MomentPoly.const(sym(n))


# -- connected moments --------------------------------------------------------


def test_connected_single_trace_is_full_moment():
    for m in range(1, 6):
        assert connected_moments((m,)) == complex_wishart_moment((m,), "N", "N")


def test_connected_small_values():
    assert connected_moments((1, 1)) == MomentPoly.const(Fraction(1))
    assert connected_moments((1, 1, 1)) == MomentPoly.parse("2*N^-1")


def test_connected_cumulant_identity_two_traces():
    # <AB> = <AB>_c + <A><B>
    for m1 in range(1, 4):
        for m2 in range(1, 4):
            full = complex_wishart_moment((m1, m2), "N", "N")
            conn = connected_moments((m1, m2))
            prod = (
                complex_wishart_moment((m1,), "N", "N")
                * complex_wishart_moment((m2,), "N", "N")
            )
            assert full == conn + prod


# -- genus grading ------------------------------------------------------------


def test_genus_extract_gue():
    assert genus_extract(gue_moment(8), 1) == {0: Fraction(14), 1: Fraction(70), 2: Fraction(21)}


def test_genus_extract_rejects_wrong_parity():
    with pytest.raises(GradingError):
        genus_extract(MomentPoly.parse("N + 1"), 1)
