"""Tests for the loop-equation Wick oracles, against plain enumerations of
every bijection and pairing where those are feasible and against independent
closed forms and recursions up to the degree limits above that."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hzlag.cli import load_table
from hzlag.wick import (
    GUE_DEGREE_LIMIT,
    WISHART_DEGREE_LIMIT,
    DegreeLimitError,
    GradingError,
    MomentPoly,
    complex_wishart_moment,
    connected_moments,
    genus_extract,
    gue_moment,
    parse_dimension,
)
from hzlag.wick import _loop_counts


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# -- MomentPoly algebra ------------------------------------------------------


def moment_polys():
    return st.dictionaries(
        st.integers(min_value=-4, max_value=4), st.integers(min_value=-99, max_value=99),
        max_size=5,
    ).map(MomentPoly)


@given(moment_polys(), moment_polys(), moment_polys())
def test_moment_poly_distributive(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(moment_polys(), st.integers(min_value=1, max_value=10))
def test_moment_poly_evaluation_homomorphism(p, n):
    q = p * p - p
    assert q(n) == p(n) * p(n) - p(n)


def test_coefficients_are_int_unless_fractional():
    p = MomentPoly({2: 2, 1: 0, 0: 5})
    assert p.terms == {2: 2, 0: 5}
    assert p.coefficient(-7) == 0 and type(p.coefficient(-7)) is int
    assert all(type(c) is int for c in (gue_moment(8) * MomentPoly({1: 1, 0: -3})).terms.values())
    # a coefficient is kept as given, so a fractional table entry (a
    # corrupt one) makes a moment that differs from the oracle's
    q = MomentPoly({1: Fraction(7, 8)})
    assert type(q.coefficient(1)) is Fraction and q != MomentPoly.symbol()


def test_constant_hashes_like_its_value():
    # equal objects hash equal, so a constant and its number are one key
    assert len({MomentPoly({0: 3}), 3}) == 1
    assert MomentPoly({0: 3}) in {3: 1}
    assert hash(MomentPoly()) == hash(0) and MomentPoly() in {0}


def test_parse_dimension():
    assert parse_dimension("N")(3) == 3
    assert parse_dimension("N+1")(3) == 4
    assert parse_dimension(" N - 2 ")(3) == 1
    with pytest.raises(ValueError):
        parse_dimension("M+1")


# -- reference enumerators: plain cycle traversal ---------------------------


def _trace_successor(pattern) -> list[int]:
    """Cyclic successor within each trace block, positions 0..m-1 laid out contiguously."""
    succ = []
    start = 0
    for length in pattern:
        succ.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return succ


def cycle_count(perm) -> int:
    seen = [False] * len(perm)
    n = 0
    for i in range(len(perm)):
        if not seen[i]:
            n += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return n


def reference_wishart_counts(pattern) -> tuple:
    """(row loops, column loops, count) over every bijection sigma, by
    counting the cycles of gamma∘sigma and of sigma afresh for each one."""
    gamma = _trace_successor(pattern)
    hist = {}
    for sigma in itertools.permutations(range(sum(pattern))):
        key = (cycle_count([gamma[s] for s in sigma]), cycle_count(sigma))
        hist[key] = hist.get(key, 0) + 1
    return tuple((r, c, n) for (r, c), n in sorted(hist.items()))


def reference_gue_moment(m: int) -> MomentPoly:
    """sum over every pairing alpha of N^(cycles of gamma∘alpha - m/2)."""
    gamma = _trace_successor((m,))
    hist = {}

    def match(free, alpha):
        if not free:
            loops = cycle_count([gamma[alpha[a]] for a in range(m)])
            hist[loops - m // 2] = hist.get(loops - m // 2, 0) + 1
            return
        for b in free[1:]:
            match([x for x in free[1:] if x != b], {**alpha, free[0]: b, b: free[0]})

    match(list(range(m)), {})
    return MomentPoly(hist)


def partitions(n: int, largest: int | None = None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


@pytest.mark.parametrize("pattern", [tuple(sorted(p)) for d in range(1, 8) for p in partitions(d)],
                         ids=str)
def test_wishart_loop_counts_match_cycle_traversal(pattern):
    assert _loop_counts(pattern, 1) == reference_wishart_counts(pattern)


SMALL_PATTERNS = [tuple(sorted(p)) for d in range(1, 13) for p in partitions(d)]


@pytest.mark.parametrize("patterns", [
    SMALL_PATTERNS,
    [(1, 1, 2, 3, 8, 9), (12, 12), (24,), (1, 1, 1, 1, 2, 3, 4, 5, 6)],
], ids=["degree-1-12", "degree-24"])
def test_wishart_loop_counts_are_symmetric_in_rows_and_columns(patterns):
    # sum over sigma of x^c(sigma) y^c(gamma sigma) is symmetric in x and y
    # (its character formula is), while Tutte's equation closes row and
    # column loops by different terms, so the symmetry checks the recursion
    for pattern in patterns:
        hist = _loop_counts(pattern, 1)
        assert sorted((c, r, n) for r, c, n in hist) == list(hist), pattern


# -- reference: the Frobenius / Jucys-Murphy character formula ------------
#
# sum over sigma of x^c(sigma) y^c(gamma sigma)
#   = (1/m!) sum over lambda |- m of f_lambda chi^lambda(mu)
#            prod over the cells of lambda of (x + content) (y + content),
# gamma of cycle type mu (Hanlon-Stanley-Stembridge 1992, Jackson 1988,
# Zagier 1995).  It is representation theory, so it shares nothing with
# Tutte's equation.


@lru_cache(maxsize=None)
def _standard_tableaux(shape) -> int:
    """f_lambda, by the hook length formula."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(r - j + cols[j] - i - 1 for i, r in enumerate(shape) for j in range(r))
    return math.factorial(sum(shape)) // hooks


@lru_cache(maxsize=None)
def _character(beads: tuple, mu: tuple) -> int:
    """chi^lambda(mu) by Murnaghan-Nakayama, lambda given by its bead set
    (lambda_i + k - 1 - i over its k parts) and mu sorted: removing a rim
    hook of length r moves a bead b to the free position b - r >= 0, with
    the sign (-1)^(beads strictly between them)."""
    if not mu:
        return 1
    *rest, r = mu
    total = 0
    for b in beads:
        if b >= r and b - r not in beads:
            sign = (-1) ** sum(1 for c in beads if b - r < c < b)
            moved = tuple(sorted([c for c in beads if c != b] + [b - r]))
            total += sign * _character(moved, tuple(rest))
    return total


@lru_cache(maxsize=None)
def _content_polynomial(shape) -> list[int]:
    """The coefficients, lowest first, of the product over the cells (i, j)
    of the shape of (x + j - i)."""
    poly = [1]
    for i, r in enumerate(shape):
        for j in range(r):
            poly = [(j - i) * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def frobenius_wishart_counts(pattern) -> dict:
    """{(row loops, column loops): count} over every bijection sigma, by the
    character formula: column loops are the power of x, row loops of y."""
    m = sum(pattern)
    mu = tuple(sorted(pattern))
    acc = [[0] * (m + 1) for _ in range(m + 1)]  # acc[rows][cols], times m!
    for shape in partitions(m):
        k = len(shape)
        weight = _standard_tableaux(shape) * _character(
            tuple(sorted(r + k - 1 - i for i, r in enumerate(shape))), mu)
        if weight:
            poly = [(e, a) for e, a in enumerate(_content_polynomial(shape)) if a]
            for c, a in poly:
                for r, b in poly:
                    acc[r][c] += weight * a * b
    counts = {}
    for r, row in enumerate(acc):
        for c, v in enumerate(row):
            n, rem = divmod(v, math.factorial(m))
            assert rem == 0, (pattern, r, c)
            if n:
                counts[r, c] = n
    return counts


def test_character_formula_by_hand():
    # mu = (2): sigma = id has 2 column loops and 1 row loop, the
    # transposition 1 and 2: x^2 y + x y^2; mu = (1, 1): (xy)^2 + xy
    assert frobenius_wishart_counts((2,)) == {(1, 2): 1, (2, 1): 1}
    assert frobenius_wishart_counts((1, 1)) == {(2, 2): 1, (1, 1): 1}
    assert [_character((1, 2), mu) for mu in ((1, 1), (2,))] == [1, -1]  # lambda = (1, 1)


@pytest.mark.parametrize("patterns", [
    SMALL_PATTERNS,
    [(1, 1, 2, 3, 8, 9), (12, 12), (24,)],
], ids=["degree-1-12", "degree-24"])
def test_wishart_loop_counts_match_the_character_formula(patterns):
    for pattern in patterns:
        hist = {(r, c): n for r, c, n in _loop_counts(pattern, 1)}
        assert hist == frobenius_wishart_counts(pattern), pattern


@pytest.mark.parametrize("m", range(2, 15, 2))
def test_gue_moment_matches_cycle_traversal(m):
    assert gue_moment(m) == reference_gue_moment(m)


# -- GUE pairing oracle ------------------------------------------------------


def test_gue_moment_small_values():
    assert gue_moment(0) == MomentPoly({1: 1})
    assert gue_moment(1) == 0
    assert gue_moment(3) == 0
    assert gue_moment(2) == MomentPoly({1: 1})
    assert gue_moment(4) == MomentPoly({1: 2, -1: 1})
    assert gue_moment(6) == MomentPoly({1: 5, -1: 10})
    assert gue_moment(8) == MomentPoly({1: 14, -1: 70, -3: 21})
    assert gue_moment(10) == MomentPoly({1: 42, -1: 420, -3: 483})
    assert gue_moment(12) == MomentPoly({1: 132, -1: 2310, -3: 6468, -5: 1485})


def test_gue_moment_planar_part_is_catalan():
    for m in range(1, GUE_DEGREE_LIMIT // 2 + 1):
        assert gue_moment(2 * m).coefficient(1) == catalan(m)


def test_gue_moment_total_count():
    # at N = 1 every pairing contributes 1: (2m-1)!!
    for m in range(1, GUE_DEGREE_LIMIT // 2 + 1):
        assert gue_moment(2 * m)(1) == math.prod(range(1, 2 * m, 2))


def test_gue_moment_14():
    assert gue_moment(14) == MomentPoly({1: 429, -1: 12012, -3: 66066, -5: 56628})


def test_gue_moment_matches_harer_zagier_to_the_limit():
    # gue_moment(2n) = sum_g eps_g(n) N^(1-2g), where
    # (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2)
    eps = {(0, 0): 1}
    for n in range(1, GUE_DEGREE_LIMIT // 2 + 1):
        for g in range(n // 2 + 1):
            rhs = 2 * (2 * n - 1) * eps.get((g, n - 1), 0)
            rhs += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps.get((g - 1, n - 2), 0)
            assert rhs % (n + 1) == 0
            eps[g, n] = rhs // (n + 1)
        want = MomentPoly({1 - 2 * g: eps[g, n] for g in range(n // 2 + 1)})
        assert gue_moment(2 * n) == want, n


def test_gue_degree_limit():
    assert gue_moment(GUE_DEGREE_LIMIT + 1) == 0  # odd: zero at any degree
    with pytest.raises(DegreeLimitError):
        gue_moment(GUE_DEGREE_LIMIT + 2)


# -- complex Wishart oracle --------------------------------------------------


def test_wishart_square_small_values():
    assert complex_wishart_moment((1,), "N", "N") == MomentPoly({1: 1})
    assert complex_wishart_moment((2,), "N", "N") == MomentPoly({1: 2})
    assert complex_wishart_moment((3,), "N", "N") == MomentPoly({1: 5, -1: 1})
    assert complex_wishart_moment((4,), "N", "N") == MomentPoly({1: 14, -1: 10})


def test_wishart_gamma_collapse():
    # at rows = cols = N = 1 the trace moment is m!
    for m in range(1, WISHART_DEGREE_LIMIT + 1):
        assert complex_wishart_moment((m,), "N", "N")(1) == math.factorial(m)


def test_wishart_planar_catalan():
    for m in range(1, WISHART_DEGREE_LIMIT + 1):
        assert complex_wishart_moment((m,), "N", "N").coefficient(1) == catalan(m)


def test_wishart_matches_recursion_tables_to_the_limit():
    # square: the "3-t" table, <tr H^m> = sum_g C_{m-2g}^(g) N^(1-2g);
    # N x (N+1): the "8-t" table, <tr H^m> = sum_q C_{m-q}^(q/2) N^(1-q)
    m_top = WISHART_DEGREE_LIMIT
    dn = load_table("laguerre", {"gmax": m_top // 2, "nmax": m_top}, use_cache=False)
    glag = load_table("glag-k1", {"rmax2": m_top, "nmax": m_top}, use_cache=False)
    for m in range(1, m_top + 1):
        square = MomentPoly({1 - 2 * g: dn[g][m - 2 * g] for g in range(m // 2 + 1)})
        rectangular = MomentPoly({1 - q: glag[q][m - q] for q in range(m + 1)})
        assert complex_wishart_moment((m,), "N", "N") == square, m
        assert complex_wishart_moment((m,), "N", "N+1") == rectangular, m


def test_wishart_rectangular():
    got = complex_wishart_moment((3,), "N", "N+1")
    assert got == MomentPoly({1: 5, 0: 10, -1: 7, -2: 2})
    assert got(1) == 24  # Gamma(3 + 1 + 1) / Gamma(2) at N = 1, cols = 2


def test_wishart_degree_limit():
    with pytest.raises(DegreeLimitError):
        complex_wishart_moment((WISHART_DEGREE_LIMIT + 1,), "N", "N")
    with pytest.raises(DegreeLimitError):
        complex_wishart_moment((4, WISHART_DEGREE_LIMIT - 3), "N", "N")


def test_wishart_memo():
    assert complex_wishart_moment((2, 1)) == complex_wishart_moment((1, 2))
    assert complex_wishart_moment([1, 2]) is complex_wishart_moment((2, 1))


def test_wishart_memo_result_is_not_changed_by_later_calls():
    p = complex_wishart_moment((2, 1), "N", "N+1")
    before = str(p), dict(p.terms)
    p * p + p - 3
    connected_moments((2, 1), "N", "N+1")
    complex_wishart_moment((1, 2), "N", "N+1").shift_exponent(2)
    assert (str(p), p.terms) == before
    assert complex_wishart_moment((2, 1), "N", "N+1") == MomentPoly(before[1])


# -- connected moments --------------------------------------------------------


def test_connected_single_trace_is_full_moment():
    for m in range(1, 6):
        assert connected_moments((m,)) == complex_wishart_moment((m,), "N", "N")


def test_connected_ones_are_exponential_cumulants():
    # at rows = cols = 1, tr(B B†) = |b|^2 is exponential with mean 1, whose
    # n-th cumulant is (n-1)!; no trace-count cap stops n = 24
    for n in range(1, WISHART_DEGREE_LIMIT + 1):
        assert connected_moments((1,) * n)(1) == math.factorial(n - 1), n
    with pytest.raises(DegreeLimitError):
        connected_moments((1,) * (WISHART_DEGREE_LIMIT + 1))
    with pytest.raises(ValueError):
        connected_moments(())


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def reference_connected_moments(pattern, rows, cols) -> MomentPoly:
    """Moebius inversion over the set partitions of the trace factors:
    sum over partitions P of (-1)^(|P|-1) (|P|-1)! prod_{blocks} <block>."""
    total = MomentPoly()
    for part in _set_partitions(list(range(len(pattern)))):
        prod = (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        for block in part:
            prod = prod * complex_wishart_moment([pattern[i] for i in block], rows, cols)
        total = total + prod
    return total


@pytest.mark.parametrize("rows,cols", [("N", "N"), ("N", "N+1"), ("N", "N-1"),
                                       ("N+1", "N+1"), ("N-1", "N+2"), ("N+3", "N-2")],
                         ids=str)
def test_connected_matches_moebius_sum(rows, cols):
    for pattern in SMALL_PATTERNS:
        if len(pattern) <= 7:
            got = connected_moments(pattern, rows, cols)
            assert got == reference_connected_moments(pattern, rows, cols), pattern


@pytest.mark.parametrize("pattern", [
    *SMALL_PATTERNS,
    # degree 24, 8 to 14 traces; 1^6 2^3 3 4 5 has the most sub-patterns
    (1, 1, 2, 2, 3, 4, 5, 6), (1, 1, 1, 2, 2, 3, 3, 5, 6), (1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5),
    (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4), (1,) * 10 + (2, 3, 4, 5),
], ids=str)
def test_connected_moments_lie_on_the_genus_grading(pattern):
    # at rows = cols = N a connected moment of s traces is a sum over
    # connected surfaces, so it lies on N^(2-2g-s) with g >= 0
    assert genus_extract(connected_moments(pattern), len(pattern))


def test_connected_small_values():
    assert connected_moments((1, 1)) == 1
    assert connected_moments((1, 1, 1)) == MomentPoly({-1: 2})


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
    assert genus_extract(gue_moment(8), 1) == {0: 14, 1: 70, 2: 21}


def test_genus_extract_rejects_wrong_parity():
    with pytest.raises(GradingError):
        genus_extract(MomentPoly({1: 1, 0: 1}), 1)
