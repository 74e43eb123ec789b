"""Tests for the contour-residue route: f_{A,B}, moments, two-point data,
identity/ODE verifiers."""

import math
from fractions import Fraction

import pytest

import hzlag.residues as residues
from hzlag.exact import WLaurent
from hzlag.residues import (
    AB_IDENTITIES,
    N_IDENTITIES,
    ODES,
    exp_mean_moments,
    fab,
    fab_generalized,
    t1_residual,
    two_point_series,
    weighted_residue,
)
from hzlag.wick import complex_wishart_moment, connected_moments


def test_fab_trivial_cases():
    assert fab(0, 0) == 0
    assert fab(3, 0) == 0  # no pole at z = 0 without the B factor
    assert fab(2, 2)(Fraction(1, 2)) == 6
    with pytest.raises(ZeroDivisionError):
        fab(2, 2)(1)  # the only pole of f_{A,B} is at u = 1


def test_fab_symmetric_small():
    # f_{1,1}(u) = -u/(u-1): residue of (1 - 1/z)(1 + 1/(u+z-1)) at z = 0
    f = fab(1, 1)
    for x in (Fraction(2), Fraction(3), Fraction(-1)):
        assert f(x) == -x / (x - 1)


def test_exp_mean_series_scaling():
    # m! * [u^(m+1)] f_{N,N} = E tr W^m = N^m <tr H^m>, W = B B† = N H
    N = 3
    s = fab(N, N).series_at_zero(6)
    moms = exp_mean_moments(N, 5)
    assert s[0] == 0
    assert moms == [math.factorial(m) * s[m + 1] for m in range(6)]
    assert moms[1:] == [N**m * complex_wishart_moment((m,), "N", "N")(N) for m in range(1, 6)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_moments_match_wick_oracle(N):
    moms = exp_mean_moments(N, 6)
    assert moms[0] == N
    for m in range(1, 7):
        assert moms[m] == complex_wishart_moment((m,), "N", "N").shift_exponent(m)(N)


def test_moments_gamma_collapse():
    assert exp_mean_moments(1, 6) == [math.factorial(m) for m in range(7)]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_residue_route_returns_ints(N):
    # E tr W^m and the two-point coefficients are integers, held as int
    assert all(type(v) is int for v in exp_mean_moments(N, 6))
    tp = two_point_series(N, 5)
    assert sorted(tp) == [(m1, m2) for m1 in range(6) for m2 in range(6 - m1)]
    assert all(type(v) is int for v in tp.values())


@pytest.mark.parametrize("N", [1, 2, 3])
def test_two_point_matches_connected_wick(N):
    tp = two_point_series(N, 5)
    for m1 in range(6):
        for m2 in range(6 - m1):
            if m1 == 0 and m2 == 0:
                continue
            got = math.factorial(m1) * math.factorial(m2) * tp[m1, m2]
            if min(m1, m2) == 0:
                assert got == 0  # connected part against tr(1) vanishes
            else:
                assert got == connected_moments((m1, m2)).shift_exponent(m1 + m2)(N)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_two_point_u1u2_universal(N):
    # the connected E (tr W)^2 is the variance N^2 of a sum of N^2 unit exponentials
    assert two_point_series(N, 2)[1, 1] == N * N


def test_two_point_truncation_guard():
    tp = two_point_series(2, 3)
    with pytest.raises(KeyError):
        tp[2, 2]


def _identity_residuals(tag: str, top: int) -> list:
    """(indices, residual) of one registered identity, as the identities
    suite walks it: A and B from the identity's least up to top, or N from 1
    to top."""
    if tag in AB_IDENTITIES:
        low, residuals = AB_IDENTITIES[tag]
        return [((A, B, suffix), r) for A in range(low, top + 1) for B in range(low, top + 1)
                for suffix, r in residuals(A, B)]
    return [(N, N_IDENTITIES[tag](N)) for N in range(1, top + 1)]


@pytest.mark.parametrize("tag", [*AB_IDENTITIES, *N_IDENTITIES])
def test_identities_small_window(tag):
    residuals = _identity_residuals(tag, 12)
    assert residuals, tag
    bad = [(where, str(r)) for where, r in residuals if r != 0]
    assert not bad, bad


@pytest.mark.parametrize("which,nmax", [("DN", 5), ("K1", 5), ("K2", 4)])
def test_odes_structurally_zero(which, nmax):
    for N in range(1, nmax + 1):
        res = ODES[which](N)
        assert res == 0, (N, str(res))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_t1_rectangular_reflection(N, k):
    res = t1_residual(N, k)
    assert res == 0, str(res)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_fab_generalized_matches_rectangular_wick(N, k):
    # the coefficient of u^(m+1) is (-1)^(N+k) E tr (B B†)^m / m!, and the
    # oracle's moments are those of H = B B† / N
    s = fab_generalized(N, k).series_at_zero(5)
    assert s[0] == 0
    cols = "N" if k == 0 else f"N+{k}"
    sign = (-1) ** (N + k)
    for m in range(5):
        want = complex_wishart_moment((m,), "N", cols)(N) if m else Fraction(N)
        got = sign * math.factorial(m) * s[m + 1] / Fraction(N) ** m
        assert got == want


# -- the closed form against residues read off z-series --------------------
#
# At a rational point u != 1 every factor of the integrand is a power series
# in z with Fraction coefficients, so the residue can be read off by series
# arithmetic alone, without the binomial closed form.

POINTS = [Fraction(-3), Fraction(1, 2), Fraction(5, 3), Fraction(7)]


def _mul(p, q, n):
    """Product of two z-series (coefficient lists) through z^(n-1)."""
    out = [Fraction(0)] * n
    for i, a in enumerate(p[:n]):
        for j, b in enumerate(q[: n - i]):
            out[i + j] += a * b
    return out


def _pow(p, e, n):
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(e):
        out = _mul(out, p, n)
    return out


def _inv(p, n):
    """1/p through z^(n-1) by long division; p[0] != 0."""
    out = []
    for m in range(n):
        s = Fraction(m == 0) - sum(p[i] * out[m - i] for i in range(1, min(m, len(p) - 1) + 1))
        out.append(s / p[0])
    return out


def _residue_at(u, A, B, k=0):
    """Res_{z=0} z^k (1 + 1/(u+z-1))^A (1 - 1/z)^B at the point u.

    (1 - 1/z)^B = z^-B (z - 1)^B, so this is the z^(B-1-k) coefficient of
    (1 + 1/(u-1+z))^A (z - 1)^B.
    """
    n = B - k
    if n <= 0:
        return Fraction(0)
    g = _inv([u - 1, Fraction(1)], n)
    g[0] += 1
    return _mul(_pow(g, A, n), _pow([Fraction(-1), Fraction(1)], B, n), n)[n - 1]


def _generalized_at(u, N, k):
    """Res_{z=0} (1-z)^{N+k} (z+u)^N / ((z+u-1)^{N+k} z^N) at the point u."""
    num = _mul(_pow([Fraction(1), Fraction(-1)], N + k, N), _pow([u, Fraction(1)], N, N), N)
    den = _pow([u - 1, Fraction(1)], N + k, N)
    return _mul(num, _inv(den, N), N)[N - 1]


@pytest.mark.parametrize("u", POINTS)
def test_fab_matches_direct_residue(u):
    for A in range(9):
        for B in range(9):
            assert fab(A, B)(u) == _residue_at(u, A, B), (A, B)
            for k in (1, 2):
                assert weighted_residue(A, B, k)(u) == _residue_at(u, A, B, k), (A, B, k)
    for N in range(1, 5):
        for k in range(3):
            assert fab_generalized(N, k)(u) == _generalized_at(u, N, k), (N, k)


def test_mutated_fab_fails_every_check(monkeypatch):
    # an extra w^-1 term in f_{3,1}, f_{3,2} and f_{3,3} must be caught by
    # every identity, ODE and reflection that reads one of them
    real = residues.fab
    bad = {(3, 1), (3, 2), (3, 3)}

    def mutated(A, B):
        f = real(A, B)
        return f + WLaurent({-1: 1}) if (A, B) in bad else f

    monkeypatch.setattr(residues, "fab", mutated)

    for tag in [*AB_IDENTITIES, *N_IDENTITIES]:
        assert any(r != 0 for _, r in _identity_residuals(tag, 4)), tag
    for res in (ODES["DN"](3), ODES["K1"](2), ODES["K2"](1),
                t1_residual(3, 0), t1_residual(2, 1), t1_residual(1, 2)):
        assert res != 0


def test_exp_mean_moments_needs_f_to_vanish_at_zero(monkeypatch):
    # the same extra w^-1 term gives f_{3,3} the constant term -1 at u = 0
    real = residues.fab

    def mutated(A, B):
        f = real(A, B)
        return f + WLaurent({-1: 1}) if (A, B) == (3, 3) else f

    want = exp_mean_moments(2, 4)
    monkeypatch.setattr(residues, "fab", mutated)
    assert exp_mean_moments(2, 4) == want
    with pytest.raises(ValueError, match="vanish at u = 0"):
        exp_mean_moments(3, 4)
