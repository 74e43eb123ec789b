"""Tests for the spectral-curve series and the closed forms they are checked against."""

from fractions import Fraction

import pytest

from hzlag.tables import load_table
from hzlag.engines import consistency_form
from hzlag.recursions import half_binomial_series
from hzlag.spectral import a_row_series, s_series, vk_series, w30_basis_coefficient
from hzlag.wick import connected_moments

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_vk_series_v0():
    # (1 - 4/x)^(1/2)
    assert vk_series(0, 4) == [1, -2, -2, -4, -10]


def test_vk_series_element_metadata():
    s = vk_series(2, 3)
    assert len(s) == 4
    assert s[0] == 1
    assert s[1] == -2 * (2 * 2 + 1)  # -4 * (k + 1/2)


def test_s_series_beta0():
    # x^-3 (1 - 4/x)^(-3/2): 1, 6, 30, 140 at x^-3..x^-6
    assert s_series(0, 0, 6) == [0, 0, 0, 1, 6, 30, 140]
    assert s_series(0, 0, 2) == [0, 0, 0]  # truncated above the leading term


def test_s_series_beta1_matches_product():
    # s_{k,1} = (x - 2) s_{k,0} coefficientwise
    for k in (0, 1):
        s0 = s_series(k, 0, 9)
        s1 = s_series(k, 1, 8)
        for e in range(1, 9):
            assert s1[e] == s0[e + 1] - 2 * s0[e]


def test_s_series_input_validation():
    with pytest.raises(ValueError):
        s_series(-1, 0, 5)
    with pytest.raises(ValueError):
        s_series(0, 2, 5)


def test_a_to_C_genus_zero_gives_catalan():
    # 1/2 + a-row of g = 0: the coefficient of x^-(1+n) is Catalan(n)
    row = load_table("vk", {"gmax": 0}, use_cache=False)[0]
    assert a_row_series(row, 0, 8) == [0] + [Fraction(c) for c in CATALAN]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_to_C_matches_three_term_table(g):
    # x^0 .. x^-2g cancel, and C_n^(g) is the coefficient of x^(-1-2g-n)
    table = load_table("vk", {"gmax": g}, use_cache=False)
    dn = load_table("laguerre", {"gmax": g, "nmax": 12}, use_cache=False)
    got = a_row_series(table[g], g, 13 + 2 * g)
    assert got == [0] * (2 * g + 1) + [dn[g][n] for n in range(13)]


def test_a_to_C_detects_non_cancellation():
    row = dict(load_table("vk", {"gmax": 1}, use_cache=False)[1])
    row[0] += Fraction(1, 512)
    assert a_row_series(row, 1, 5)[:3] != [0, 0, 0]


# s_{1,1} + 2 s_{1,0} and x^-4 (1 - 4/x)^(-5/2), the two sides of "W11", through x^-7
def _w11_sides():
    s_form = [a + 2 * b for a, b in zip(s_series(1, 1, 7), s_series(1, 0, 7))]
    return s_form, [0] * 4 + half_binomial_series(-5, 3)


def test_w11_check_passes():
    s_form, closed = _w11_sides()
    assert s_form == closed
    assert a_row_series(load_table("vk", {"gmax": 1}, use_cache=False)[1], 1, 7) == closed
    # the closed form expands to 1, 10, 70, 420 at x^-4 .. x^-7
    assert closed == [0, 0, 0, 0, 1, 10, 70, 420]


def test_w11_check_fails_a_wrong_row():
    # a row that expands, but to the wrong series, and one whose expansion
    # does not cancel: a_{-3}^(1) = 1/256 as 7/8 leaves 223/256 at x^0
    _, closed = _w11_sides()
    row = dict(load_table("vk", {"gmax": 1}, use_cache=False)[1])
    scaled = {k: 2 * a for k, a in row.items()}
    assert a_row_series(scaled, 1, 7) == [2 * c for c in closed] != closed
    row[-3] = Fraction(7, 8)
    assert a_row_series(row, 1, 7)[0] == Fraction(223, 256)


def test_w30_ratio_is_constant():
    # the normalization of w30_basis_coefficient: the Wick oracle's leading
    # connected three-trace coefficient is exactly twice it, and it is an
    # int (so the crosscheck suite's ratio is an exact Fraction)
    triples = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (3, 3, 1),
               (4, 2, 1), (5, 1, 1)]
    for t in triples:
        basis = w30_basis_coefficient(*t)
        assert type(basis) is int, (t, basis)
        assert connected_moments(t).coefficient(-1) == 2 * basis, (t, basis)


def test_w30_input_validation():
    with pytest.raises(ValueError):
        w30_basis_coefficient(0, 1, 1)


def test_consistency_identity_check():
    # the "consistency" form vanishes on every a-row through g = 6, and not
    # on a row with one coefficient changed
    table = load_table("vk", {"gmax": 6}, use_cache=False)
    assert all(consistency_form(table[g]) == 0 for g in range(7))
    row = dict(table[3])
    row[3] += 1
    assert consistency_form(row) == 105
