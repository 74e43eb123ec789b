"""Tests for the spectral-curve series bridges and closed-form checks."""

from fractions import Fraction

import pytest

from hzlag.recursions import do_norbury_table, vk_table
from hzlag.spectral import (
    NonCancellationError,
    a_to_C,
    binom_at_minus4_over_x,
    consistency_identity_check,
    s_series,
    vk_series,
    w11_check,
    w30_planar_check,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def test_vk_series_v0():
    # (1 - 4/x)^(1/2)
    s = vk_series(0, 4)
    assert [s.coefficient(m) for m in range(5)] == [1, -2, -2, -4, -10]


def test_vk_series_element_metadata():
    s = vk_series(2, 3)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == -2 * (2 * 2 + 1)  # -4 * (k + 1/2)


def test_s_series_beta0():
    # x^-3 (1 - 4/x)^(-3/2): 1, 6, 30, 140 at x^-3..x^-6
    s = s_series(0, 0, 6)
    assert s.coefficient(2) == 0
    assert [s.coefficient(3 + m) for m in range(4)] == [1, 6, 30, 140]


def test_s_series_beta1_matches_product():
    # s_{k,1} = (x - 2) s_{k,0} coefficientwise
    for k in (0, 1):
        s0 = s_series(k, 0, 9)
        s1 = s_series(k, 1, 8)
        for e in range(1, 9):
            assert s1.coefficient(e) == s0.coefficient(e + 1) - 2 * s0.coefficient(e)


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
    recs = w11_check(7)
    assert len(recs) == 2
    assert all(r.ok for r in recs)
    # the closed form expands to 1, 10, 70, 420 at x^-4 .. x^-7
    closed = binom_at_minus4_over_x(Fraction(-5, 2), 3)
    assert [closed.coefficient(m) for m in range(4)] == [1, 10, 70, 420]


def test_w11_check_input_validation():
    with pytest.raises(ValueError):
        w11_check(3)


def test_w30_ratio_is_constant():
    ratios = {
        w30_planar_check(1, 1, 1),
        w30_planar_check(2, 1, 1),
        w30_planar_check(2, 2, 1),
    }
    assert len(ratios) == 1
    assert ratios.pop() == 2


def test_w30_input_validation():
    with pytest.raises(ValueError):
        w30_planar_check(0, 1, 1)


def test_consistency_identity_check():
    recs = consistency_identity_check(vk_table(6), 6)
    assert len(recs) == 7
    assert all(r.ok for r in recs)
    with pytest.raises(ValueError):
        consistency_identity_check(vk_table(2), 3)
