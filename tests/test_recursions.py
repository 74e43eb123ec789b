"""Tests for the four recursion engines and their operator-equation verifiers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzlag import recursions
from hzlag.recursions import (
    ConstraintError,
    GaussBTable,
    HalfGenusTable,
    IntegralityError,
    LagCTable,
    asym_first_nonzero,
    asym_moments,
    c1_closed_form,
    consistency_form,
    do_norbury_items,
    do_norbury_table,
    gauss_genus_coefficients,
    gauss_gue_check,
    gauss_hz_items,
    gauss_hz_table,
    glag_k1_items,
    glag_k1_table,
    glag_moment_from_table,
    glag_series_coefficient,
    glag_w1_ode_check,
    lag_moment_from_table,
    laguerre_ode_check,
    vk_items,
    vk_table,
)
from hzlag.wick import complex_wishart_moment, genus_extract, gue_moment

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


@pytest.fixture(scope="module")
def dn():
    return do_norbury_table(8, 30)


@pytest.fixture(scope="module")
def gauss():
    return gauss_hz_table(8)


@pytest.fixture(scope="module")
def vk():
    return vk_table(6)


@pytest.fixture(scope="module")
def glag():
    return glag_k1_table(8, 12)


# -- engines: rows yielded in sorted key order -------------------------------


@pytest.mark.parametrize("items,table,bounds", [
    (do_norbury_items, do_norbury_table, [(0, 0), (0, 7), (5, 0), (6, 11), (11, 4)]),
    (gauss_hz_items, gauss_hz_table, [(1,), (2,), (9,)]),
    (vk_items, vk_table, [(0,), (1,), (7,)]),
    (glag_k1_items, glag_k1_table, [(0, 0), (0, 6), (5, 0), (3, 2), (9, 12)]),
], ids=["3-t", "recurrence", "rec-v2", "8-t"])
def test_engine_yields_its_table_in_sorted_key_order(items, table, bounds):
    for b in bounds:
        keys = [k for k, _ in items(*b)]
        assert all(a < c for a, c in zip(keys, keys[1:])), b  # strictly increasing
        assert dict(items(*b)) == table(*b).entries, b


# -- integer engines ("3-t", "recurrence", "8-t") ----------------------------


def test_integer_engines_build_ints(dn, gauss, glag):
    for table in (dn, gauss, glag):
        assert table.entries
        assert all(type(v) is int for v in table.entries.values())


def test_8t_wrong_seed_raises_integrality_error(monkeypatch):
    monkeypatch.setitem(recursions._8T_RHS, (0, 0), 3)  # true seed 2
    with pytest.raises(IntegralityError, match=r"^8-t entry \(0, 0\) = 3/2 "):
        glag_k1_table(2, 3)


def test_rec_v2_perturbed_relation_raises_integrality_error(monkeypatch):
    true_rhs = recursions._rec_v2_rhs
    monkeypatch.setattr(recursions, "_rec_v2_rhs", lambda prev, k: true_rhs(prev, k) + 1)
    with pytest.raises(IntegralityError, match=r"^rec-v2 entry \(1, "):
        vk_table(2)


def test_vk_asym_violation_names_first_nonzero_moment(monkeypatch):
    # adding k to the relation adds 2 to every A_k with k != 0; A_0 keeps the
    # row sum at zero, so moment r = 1 is the first that fails
    true_rhs = recursions._rec_v2_rhs
    monkeypatch.setattr(recursions, "_rec_v2_rhs", lambda prev, k: true_rhs(prev, k) + k)
    monkeypatch.setattr(recursions, "consistency_form", lambda row: 0)
    with pytest.raises(ConstraintError, match=r"^asym-r moment r=1 nonzero at g=1$"):
        vk_table(2)


def test_vk_denominators_divide_scale():
    for (g, _), v in vk_table(12).entries.items():
        assert 2 ** (8 * g + 1) % v.denominator == 0


# -- Laguerre table (anchor "3-t") -------------------------------------------


def test_dn_genus_zero_is_catalan(dn):
    for n in range(10):
        assert dn.value(0, n) == CATALAN[n]


def test_dn_known_genus_one_values(dn):
    assert dn.value(1, 0) == 0
    assert dn.value(1, 1) == 1
    assert dn.value(1, 2) == 10
    assert dn.value(1, 3) == 70
    assert dn.value(1, 4) == 420


def test_dn_c0_vanishes_positive_genus(dn):
    for g in range(1, 9):
        assert dn.value(g, 0) == 0


def test_dn_c1_closed_form():
    table = do_norbury_table(12, 1)
    for g in range(13):
        assert table.value(g, 1) == c1_closed_form(g)
    assert c1_closed_form(0) == 1
    assert c1_closed_form(1) == 1
    assert c1_closed_form(2) == 8
    assert c1_closed_form(3) == 180


def test_dn_positive_integers(dn):
    assert dn.integrality_violations() == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30))
def test_dn_three_term_relation(g, n):
    t = do_norbury_table(8, 30)
    lhs = (n + 2 * g + 1) * t.value(g, n)
    rhs = (n + 2 * g - 2) * (n + 2 * g - 1) ** 2 * t.value(g - 1, n)
    rhs += 2 * (2 * n + 4 * g - 1) * t.value(g, n - 1)
    assert lhs == rhs


def test_dn_index_conventions(dn):
    assert dn.value(3, -1) == 0
    with pytest.raises(KeyError):
        dn.value(9, 0)
    with pytest.raises(KeyError):
        dn.value(0, 31)


def test_lag_moments_match_wick(dn):
    for m in range(1, 7):
        assert lag_moment_from_table(dn, m) == complex_wishart_moment((m,), "N", "N")


def test_lag_genus_extract_matches_table(dn):
    for m in range(1, 7):
        ge = genus_extract(complex_wishart_moment((m,), "N", "N"), 1)
        for g, c in ge.items():
            assert dn.value(g, m - 2 * g) == c


def test_laguerre_ode_check_passes(dn):
    recs = laguerre_ode_check(dn)
    assert recs
    assert all(r.ok for r in recs)


def test_laguerre_ode_check_detects_corruption(dn):
    bad = dict(dn.entries)
    bad[(1, 2)] = Fraction(11)  # true value 10
    recs = laguerre_ode_check(LagCTable(dn.gmax, dn.nmax, bad))
    assert any(not r.ok for r in recs)


def test_integrality_violations_surface():
    t = LagCTable(1, 2, {(0, 0): Fraction(1), (0, 1): Fraction(1),
                         (0, 2): Fraction(2), (1, 0): Fraction(0),
                         (1, 1): Fraction(1), (1, 2): Fraction(21, 2)})
    assert t.integrality_violations() == [(1, 2)]


# -- Gaussian table (anchor "recurrence") -------------------------------------


def test_gauss_known_rows(gauss):
    assert gauss.value(1, 0) == 1
    assert [gauss.value(2, k) for k in range(2)] == [21, 105]
    assert [gauss.value(3, k) for k in range(3)] == [1485, 18018, 50050]
    assert [gauss.value(4, k) for k in range(4)] == [
        225225, 4660227, 29099070, 56581525
    ]


def test_gauss_top_entry_g6():
    t = gauss_hz_table(6)
    assert t.value(6, 5) == 386078943500250


def test_gauss_value_conventions(gauss):
    assert gauss.value(3, -1) == 0
    assert gauss.value(3, 3) == 0  # k >= g vanishes
    assert gauss.integrality_violations() == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=7))
def test_gauss_five_factor_relation(g, k):
    t = gauss_hz_table(8)
    if k > g:
        return
    s = 4 * g + 2 * k
    lhs = (s + 6) * t.value(g + 1, k)
    rhs = (s + 1) * (s + 3) * ((s + 2) * t.value(g, k) + 4 * (s - 1) * t.value(g, k - 1))
    assert lhs == rhs


def test_gauss_gue_check_passes(gauss):
    recs = gauss_gue_check(gauss, 12)
    assert recs
    assert all(r.ok for r in recs)


def test_gauss_gue_check_detects_corruption(gauss):
    bad = dict(gauss.entries)
    bad[(2, 1)] = Fraction(147)
    recs = gauss_gue_check(GaussBTable(gauss.gmax, bad), 12)
    assert any(not r.ok for r in recs)


def test_gauss_binomial_series_is_exact():
    # the integer kernel shared by gauss_genus_coefficients (s < 0) and the
    # v_k basis (s > 0) against the binomial series in Fraction arithmetic:
    # [t^i] (1-4t)^(s/2) = C(s/2, i) (-4)^i, C(a, i) = a(a-1)...(a-i+1) / i!
    for s in range(-41, 42, 2):
        want = [math.prod(Fraction(s, 2) - m for m in range(i)) / math.factorial(i) * (-4) ** i
                for i in range(31)]
        assert recursions.half_binomial_series(s, 30) == want, s
    for s in (-2, 0, 4):
        with pytest.raises(ValueError):
            recursions.half_binomial_series(s, 3)


def test_gauss_genus_coefficients_match_pairings(gauss):
    for m in (8, 10, 12):
        ge = genus_extract(gue_moment(m), 1)
        for g in range(2, m // 2 + 1):
            if g in ge:
                got = gauss_genus_coefficients(gauss, g, m)
                assert got.get(m, Fraction(0)) == ge[g]


# -- v_k-basis table (anchors "rec-v2", "asym", "consistency") ----------------


def test_vk_known_rows(vk):
    assert vk.row(0) == {0: Fraction(-1, 2)}
    assert vk.row(1) == {
        -3: Fraction(1, 256), -2: Fraction(-1, 64), -1: Fraction(3, 128),
        0: Fraction(-1, 64), 1: Fraction(1, 256),
    }
    want2 = [105, -616, 1500, -1944, 1430, -600, 156, -40, 9]
    assert vk.row(2) == {
        k: Fraction(c, 65536) for k, c in zip(range(-6, 3), want2)
    }


def test_vk_row_bounds(vk):
    for g in range(7):
        ks = sorted(vk.row(g).keys())
        assert min(ks) >= -3 * g and max(ks) <= g
    with pytest.raises(KeyError):
        vk.row(7)


def test_vk_consistency_form(vk):
    for g in range(7):
        assert consistency_form(vk.row(g)) == 0


def test_vk_asym_sums_vanish(vk):
    for g in range(1, 7):
        row = vk.row(g)
        for r in range(2 * g + 2):
            assert sum(Fraction(k) ** r * a if k or r == 0 else Fraction(0)
                       for k, a in row.items()) == 0, (g, r)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-99, 99), min_size=1, max_size=8),
       st.integers(-6, 2), st.integers(0, 6))
def test_asym_first_nonzero_matches_moments(p, low, rmax):
    # rows P (x-1)^j, k running up from low: asym_first_nonzero names the
    # first nonzero moment of asym_moments, which is j when P(1) != 0
    coeffs = p
    for j in range(rmax + 2):
        row = {low + i: c for i, c in enumerate(coeffs)}
        moments = asym_moments(row, rmax)
        want = next((r for r, m in enumerate(moments) if m), None)
        assert asym_first_nonzero(row, rmax) == want, (j, row)
        if sum(p) and j <= rmax:
            assert want == j
        coeffs = [a - b for a, b in zip([0, *coeffs], [*coeffs, 0])]  # times x - 1


def test_vk_row_sum_zero_positive_genus(vk):
    for g in range(1, 7):
        assert sum(vk.row(g).values()) == 0


# -- fractional-genus table (anchor "8-t") ------------------------------------


def test_glag_moments_match_rectangular_wick(glag):
    for m in range(1, 6):
        assert glag_moment_from_table(glag, m) == complex_wishart_moment(
            (m,), "N", "N+1"
        )


def test_glag_series_x5_coefficient(glag):
    c = glag_series_coefficient(glag, 5)
    assert {q: c.coefficient(-q) for q in range(5)} == {
        0: Fraction(14), 1: Fraction(35), 2: Fraction(40),
        3: Fraction(25), 4: Fraction(6),
    }
    assert c(1) == 120  # N = 1 collapse: Gamma(5)


def test_glag_series_matches_moments(glag):
    # coefficient of x^-e, times N, is the (e-1)-th trace moment
    for e in range(1, 7):
        c = glag_series_coefficient(glag, e)
        m = glag_moment_from_table(glag, e - 1)
        for n in (1, 2, 3, 5):
            assert n * c(n) == m(n)


def test_glag_value_conventions(glag):
    assert glag.value(0, -1) == 0
    assert glag.value(-1, 0) == 0


def test_glag_w1_ode_check_passes(glag):
    recs = glag_w1_ode_check(glag)
    assert recs
    assert all(r.ok for r in recs)


def test_glag_w1_ode_check_detects_corruption(glag):
    bad = dict(glag.entries)
    key = (2, 1)
    assert key in bad
    bad[key] = bad[key] + 1
    recs = glag_w1_ode_check(HalfGenusTable(glag.r2max, glag.nmax, bad))
    assert any(not r.ok for r in recs)
