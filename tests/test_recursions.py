"""Tests for the four recursion engines and their operator-equation verifiers."""

import decimal
import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzlag import engines, recursions, tables
from hzlag.engines import (
    ConstraintError,
    IntegralityError,
    asym_first_nonzero,
    consistency_form,
    do_norbury_items,
    gauss_hz_items,
    glag_k1_items,
    vk_items,
)
from hzlag.recursions import (
    asym_moments,
    c1_closed_form,
    gauss_genus_coefficients,
    int2_residuals,
    integrality_violations,
    w1_slots,
)
from hzlag.wick import MomentPoly, complex_wishart_moment, genus_extract, gue_moment

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def _flat(rows):
    """The ((i, j), value) items of an engine's rows (i, j0, values), in order."""
    return [((i, j), v) for i, j0, values in rows for j, v in enumerate(values, j0)]


def _table(ensemble: str, *bounds) -> dict:
    """The rows {i: {j: value}} that verify reads: the ensemble's gen JSON at
    these bound values, in ENSEMBLES order, read back with the cache off."""
    spec = tables.ENSEMBLES[ensemble]
    return tables.load_table(ensemble, dict(zip(spec.bounds, bounds)), use_cache=False)


@pytest.fixture(scope="module")
def dn():
    return _table("laguerre", 8, 30)


@pytest.fixture(scope="module")
def gauss():
    return _table("gauss", 8)


@pytest.fixture(scope="module")
def vk():
    return _table("vk", 6)


@pytest.fixture(scope="module")
def glag():
    return _table("glag-k1", 8, 12)


# -- engines: rows yielded in sorted key order -------------------------------


def _in_narrow_context(items, *bounds):
    """The rows of items(*bounds), each drawn under a caller context of 5
    digits with no traps."""
    with decimal.localcontext(decimal.Context(prec=5, traps=[])):
        yield from items(*bounds)


@pytest.mark.parametrize("items,ensemble,bounds", [
    (do_norbury_items, "laguerre", [(0, 0), (0, 7), (5, 0), (6, 11), (11, 4)]),
    (gauss_hz_items, "gauss", [(1,), (2,), (9,)]),
    (vk_items, "vk", [(0,), (1,), (7,)]),
    (glag_k1_items, "glag-k1", [(0, 0), (0, 6), (5, 0), (3, 2), (9, 12)]),
    # the Decimal engines again, under a caller context of 5 digits and no
    # traps: their entries are exact whatever context the caller holds
    (partial(_in_narrow_context, do_norbury_items), "laguerre",
     [(0, 0), (0, 7), (5, 0), (6, 11), (11, 4)]),
    (partial(_in_narrow_context, gauss_hz_items), "gauss", [(1,), (2,), (9,)]),
], ids=["3-t", "recurrence", "rec-v2", "8-t", "3-t-Decimal", "recurrence-Decimal"])
def test_engine_yields_its_table_in_sorted_key_order(items, ensemble, bounds):
    for b in bounds:
        rows = list(items(*b))
        # one nonempty list per row, the rows in increasing order
        assert all(type(values) is list and values for _, _, values in rows), b
        assert [i for i, _, _ in rows] == sorted({i for i, _, _ in rows}), b
        keys = [k for k, _ in _flat(rows)]
        assert all(a < c for a, c in zip(keys, keys[1:])), b  # strictly increasing
        assert {i: dict(enumerate(values, j0)) for i, j0, values in rows} == \
            _table(ensemble, *b), b


def test_engine_rows_start_at_their_least_second_index():
    # "3-t" and "8-t" rows start at n = 0, "recurrence" rows at k = 0 and
    # "rec-v2" row g at k = -3g
    assert [(i, j0, len(v)) for i, j0, v in do_norbury_items(2, 3)] == [(0, 0, 4), (1, 0, 4),
                                                                       (2, 0, 4)]
    assert [(i, j0, len(v)) for i, j0, v in gauss_hz_items(3)] == [(1, 0, 1), (2, 0, 2), (3, 0, 3)]
    assert [(i, j0, len(v)) for i, j0, v in vk_items(2)] == [(0, 0, 1), (1, -3, 5), (2, -6, 9)]
    assert [(i, j0, len(v)) for i, j0, v in glag_k1_items(1, 2)] == [(0, 0, 3), (1, 0, 3)]


# -- integer engines ("3-t", "recurrence", "8-t") ----------------------------


def test_integer_engines_build_ints(dn, gauss, glag):
    # verify reads them with int values, whatever number type the engine runs over
    for table in (dn, gauss, glag):
        assert table
        assert all(type(v) is int for row in table.values() for v in row.values())


# what str() of an int gives: no exponent, no signed zero
_INT_TEXT = re.compile("0|-?[1-9][0-9]*")


def _assert_written_as_ints(rows):
    """Every value of the rows is a Decimal whose str(), which gen writes,
    is the text of an int."""
    for key, v in _flat(rows):
        assert type(v) is Decimal and _INT_TEXT.fullmatch(str(v)), (key, v)


@pytest.mark.parametrize("nmax", [0, 1, 5, 40])
@pytest.mark.parametrize("gmax", [0, 1, 2, 7])
def test_3t_decimal_run_matches_int_run(gmax, nmax):
    _assert_written_as_ints(do_norbury_items(gmax, nmax))


def test_recurrence_decimal_run_matches_int_run():
    for gmax in range(1, 41):
        _assert_written_as_ints(gauss_hz_items(gmax))


@pytest.mark.parametrize("items,bounds", [(do_norbury_items, (4, 6)), (gauss_hz_items, (6,))],
                         ids=["3-t-Decimal", "recurrence-Decimal"])
def test_engine_leaves_the_callers_context_current_between_rows(items, bounds):
    with decimal.localcontext(decimal.Context(prec=5, traps=[])) as caller:
        rows = items(*bounds)
        for _ in rows:
            assert decimal.getcontext() is caller
            assert caller.prec == 5 and not any(caller.traps.values())


def test_3t_decimal_run_names_a_non_integer_entry(monkeypatch):
    # one more than the true numerator of C_3^(2), whose divisor is n + 2g + 1 = 8
    want = Fraction(8 * _table("laguerre", 2, 3)[2][3] + 1, 8)
    true_div = engines._exact_div
    monkeypatch.setattr(engines, "_exact_div", lambda num, den, anchor, i, j:
                        true_div(num + ((i, j) == (2, 3)), den, anchor, i, j))
    with pytest.raises(IntegralityError,
                       match=rf"^3-t entry \(2, 3\) = {want} is not an integer$"):
        list(do_norbury_items(2, 3))


def test_8t_wrong_seed_raises_integrality_error(monkeypatch):
    monkeypatch.setitem(engines._8T_RHS, (0, 0), 3)  # true seed 2
    with pytest.raises(IntegralityError, match=r"^8-t entry \(0, 0\) = 3/2 "):
        list(glag_k1_items(2, 3))


def test_rec_v2_perturbed_relation_raises_integrality_error(monkeypatch):
    true_rhs = engines._rec_v2_rhs
    monkeypatch.setattr(engines, "_rec_v2_rhs", lambda prev, k: true_rhs(prev, k) + 1)
    with pytest.raises(IntegralityError, match=r"^rec-v2 entry \(1, "):
        list(vk_items(2))


def test_vk_asym_violation_names_first_nonzero_moment(monkeypatch):
    # adding k to the relation adds 2 to every A_k with k != 0; A_0 keeps the
    # row sum at zero, so moment r = 1 is the first that fails
    true_rhs = engines._rec_v2_rhs
    monkeypatch.setattr(engines, "_rec_v2_rhs", lambda prev, k: true_rhs(prev, k) + k)
    monkeypatch.setattr(engines, "consistency_form", lambda row: 0)
    with pytest.raises(ConstraintError, match=r"^asym-r moment r=1 nonzero at g=1$"):
        list(vk_items(2))


def test_vk_denominators_divide_scale():
    for (g, _), v in _flat(vk_items(12)):
        assert 2 ** (8 * g + 1) % v.denominator == 0


# -- Laguerre table (anchor "3-t") -------------------------------------------


def test_dn_genus_zero_is_catalan(dn):
    for n in range(10):
        assert dn[0][n] == CATALAN[n]


def test_dn_known_genus_one_values(dn):
    assert dn[1][0] == 0
    assert dn[1][1] == 1
    assert dn[1][2] == 10
    assert dn[1][3] == 70
    assert dn[1][4] == 420


def test_dn_c0_vanishes_positive_genus(dn):
    for g in range(1, 9):
        assert dn[g][0] == 0


def test_dn_c1_closed_form():
    table = _table("laguerre", 12, 1)
    for g in range(13):
        assert table[g][1] == c1_closed_form(g)
    assert type(c1_closed_form(40)) is int
    assert c1_closed_form(0) == 1
    assert c1_closed_form(1) == 1
    assert c1_closed_form(2) == 8
    assert c1_closed_form(3) == 180


def test_dn_positive_integers(dn):
    # the n = 0 column is the seed (1, 0, 0, ...)
    assert [k for k in integrality_violations(dn) if k[1] >= 1] == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=30))
def test_dn_three_term_relation(dn, g, n):
    lhs = (n + 2 * g + 1) * dn[g][n]
    rhs = (n + 2 * g - 2) * (n + 2 * g - 1) ** 2 * dn[g - 1][n]
    rhs += 2 * (2 * n + 4 * g - 1) * dn[g][n - 1]
    assert lhs == rhs


def test_lag_moments_match_wick(dn):
    # <tr H^m> = sum_g C_{m-2g}^(g) N^(1-2g)
    for m in range(1, 7):
        table = MomentPoly({1 - 2 * g: dn[g][m - 2 * g] for g in range(m // 2 + 1)})
        assert table == complex_wishart_moment((m,), "N", "N")


def test_lag_genus_extract_matches_table(dn):
    for m in range(1, 7):
        ge = genus_extract(complex_wishart_moment((m,), "N", "N"), 1)
        for g, c in ge.items():
            assert dn[g][m - 2 * g] == c


def test_laguerre_ode_check_passes(dn):
    residuals = int2_residuals(dn)
    assert set(residuals) == {(g, n) for g in range(9) for n in range(31)}  # the bounds 8/30
    assert all(r == 0 for r in residuals.values())


def test_laguerre_ode_check_detects_corruption(dn):
    bad = {g: dict(row) for g, row in dn.items()}
    bad[1][2] = Fraction(11)  # true value 10
    residuals = int2_residuals(bad)
    assert any(r != 0 for r in residuals.values())


def test_integrality_violations_surface():
    rows = {0: {0: Fraction(1), 1: Fraction(1), 2: Fraction(2)},
            1: {0: Fraction(0), 1: Fraction(0), 2: Fraction(21, 2)}}
    assert integrality_violations(rows) == [(1, 0), (1, 1), (1, 2)]
    # as the constraints suite reads a laguerre table: the seed column n = 0 is exempt
    assert [k for k in integrality_violations(rows) if k[1] >= 1] == [(1, 1), (1, 2)]


# -- Gaussian table (anchor "recurrence") -------------------------------------


def test_gauss_known_rows(gauss):
    assert gauss[1][0] == 1
    assert [gauss[2][k] for k in range(2)] == [21, 105]
    assert [gauss[3][k] for k in range(3)] == [1485, 18018, 50050]
    assert [gauss[4][k] for k in range(4)] == [
        225225, 4660227, 29099070, 56581525
    ]


def test_gauss_top_entry_g6():
    t = _table("gauss", 6)
    assert t[6][5] == 386078943500250


def test_gauss_positive_integers(gauss):
    assert integrality_violations(gauss) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=7))
def test_gauss_five_factor_relation(gauss, g, k):
    if k > g:
        return
    s = 4 * g + 2 * k
    # b_k^(g) is 0 outside the row's 0 <= k < g
    lhs = (s + 6) * gauss[g + 1][k]
    rhs = (s + 1) * (s + 3) * ((s + 2) * gauss[g].get(k, 0)
                               + 4 * (s - 1) * gauss[g].get(k - 1, 0))
    assert lhs == rhs


def _gue_mismatches(table: dict, gmax: int, mmax: int) -> list[tuple[int, int]]:
    """The (g, m) whose genus-g reconstruction from the table differs from
    the pairing oracle's coefficient of N^(1-2g) in <tr H^m>."""
    return [(g, m) for g in range(1, gmax + 1)
            for m, c in gauss_genus_coefficients(table[g], g, mmax).items()
            if c != gue_moment(m).coefficient(1 - 2 * g)]


def test_gauss_genus_coefficients_match_gue(gauss):
    assert _gue_mismatches(gauss, 6, 12) == []


def test_gauss_genus_coefficients_see_corruption(gauss):
    # b_1^(2) = 105 feeds x^-(4g+2k+1) = x^-11 and below, the coefficients
    # x^-(m+1) of m = 10 and 12
    bad = {g: dict(row) for g, row in gauss.items()}
    bad[2][1] = Fraction(147)
    assert _gue_mismatches(bad, 6, 12) == [(2, 10), (2, 12)]


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
                got = gauss_genus_coefficients(gauss[g], g, m)
                assert got.get(m, Fraction(0)) == ge[g]


# -- v_k-basis table (anchors "rec-v2", "asym", "consistency") ----------------


def test_vk_known_rows(vk):
    assert vk[0] == {0: Fraction(-1, 2)}
    assert vk[1] == {
        -3: Fraction(1, 256), -2: Fraction(-1, 64), -1: Fraction(3, 128),
        0: Fraction(-1, 64), 1: Fraction(1, 256),
    }
    want2 = [105, -616, 1500, -1944, 1430, -600, 156, -40, 9]
    assert vk[2] == {
        k: Fraction(c, 65536) for k, c in zip(range(-6, 3), want2)
    }


def test_vk_row_bounds(vk):
    for g in range(7):
        ks = sorted(vk[g].keys())
        assert min(ks) >= -3 * g and max(ks) <= g


def test_vk_consistency_form(vk):
    for g in range(7):
        assert consistency_form(vk[g]) == 0


def test_vk_asym_sums_vanish(vk):
    for g in range(1, 7):
        row = vk[g]
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
        assert sum(vk[g].values()) == 0


# -- fractional-genus table (anchor "8-t") ------------------------------------


def test_glag_moments_match_rectangular_wick(glag):
    # <tr H^m> = sum_q C_{m-q}^(q/2) N^(1-q)
    for m in range(1, 6):
        table = MomentPoly({1 - q: glag[q][m - q] for q in range(m + 1)})
        assert table == complex_wishart_moment((m,), "N", "N+1")


def test_glag_series_x5_coefficient(glag):
    # the coefficient of x^-5 N^-q is C_{4-q}^(q/2)
    c = {q: glag[q][4 - q] for q in range(5)}
    assert c == {0: 14, 1: 35, 2: 40, 3: 25, 4: 6}
    assert sum(c.values()) == 120  # N = 1 collapse: Gamma(5)


def test_glag_w1_ode_check_passes(glag):
    slots = w1_slots(glag)
    assert slots
    assert all(got == want for got, want in slots.values())


def test_glag_w1_ode_check_detects_corruption(glag):
    bad = {q: dict(row) for q, row in glag.items()}
    assert 1 in bad[2]
    bad[2][1] += 1
    slots = w1_slots(bad)
    assert any(got != want for got, want in slots.values())
