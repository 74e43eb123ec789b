"""Tests for the spectral-curve series bridges and closed-form checks."""

from fractions import Fraction

import pytest

from hzlag.recursions import do_norbury_table, half_binomial_series, vk_table
from hzlag.spectral import (
    NonCancellationError,
    a_to_C,
    consistency_identity_check,
    s_series,
    vk_series,
    w11_check,
    w30_basis_coefficient,
)
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
    row = vk_table(0).row(0)
    assert a_to_C(row, 0, 7) == [Fraction(c) for c in CATALAN]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_to_C_matches_three_term_table(g):
    table = vk_table(g)
    dn = do_norbury_table(g, 12)
    got = a_to_C(table.row(g), g, 12)
    assert got == [dn.value(g, n) for n in range(13)]


def test_a_to_C_detects_non_cancellation():
    row = dict(vk_table(1).row(1))
    row[0] += Fraction(1, 512)
    with pytest.raises(NonCancellationError):
        a_to_C(row, 1, 5)


def test_w11_check_passes():
    recs = w11_check(vk_table(1).row(1), 7)
    assert len(recs) == 2
    assert all(r.ok for r in recs)
    # the closed form expands to 1, 10, 70, 420 at x^-4 .. x^-7
    assert half_binomial_series(-5, 3) == [1, 10, 70, 420]


def test_w11_check_fails_a_wrong_row():
    # a row that expands, but to the wrong series, and one whose expansion
    # does not cancel, which fails with the NonCancellationError's text
    row = dict(vk_table(1).row(1))
    scaled = {k: 2 * a for k, a in row.items()}
    s_rec, a_rec = w11_check(scaled, 7)
    assert s_rec.ok and not a_rec.ok
    assert a_rec.detail == f"a-row gave {[2 * c for c in a_to_C(row, 1, 4)]}"
    row[-3] = Fraction(7, 8)
    s_rec, a_rec = w11_check(row, 7)
    assert s_rec.ok and not a_rec.ok
    assert a_rec.detail == "coefficient of x^-0 is 223/256, expected 0"


def test_w11_check_input_validation():
    with pytest.raises(ValueError):
        w11_check(vk_table(1).row(1), 3)


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
    recs = consistency_identity_check(vk_table(6), 6)
    assert len(recs) == 7
    assert all(r.ok for r in recs)
    with pytest.raises(ValueError):
        consistency_identity_check(vk_table(2), 3)
