"""Tests for the contour-residue route: f_{A,B}, moments, two-point data,
identity/ODE verifiers."""

import math
from fractions import Fraction

import pytest

import hzlag.residues as residues
from hzlag.exact import WLaurent
from hzlag.residues import (
    IDENTITY_TAGS,
    FabValue,
    exp_mean_moments,
    exp_mean_series,
    fab,
    fab_generalized,
    two_point_series,
    verify_identity,
    verify_ode,
    verify_t1,
    weighted_residue,
)
from hzlag.wick import complex_wishart_moment, connected_moments


def test_fab_trivial_cases():
    assert fab(0, 0).value.is_zero
    assert fab(3, 0).value.is_zero  # no pole at z = 0 without the B factor
    assert fab(2, 2).value(Fraction(1, 2)) == 6
    with pytest.raises(ZeroDivisionError):
        fab(2, 2).value(1)  # the only pole of f_{A,B} is at u = 1


def test_fab_symmetric_small():
    # f_{1,1}(u) = -u/(u-1): residue of (1 - 1/z)(1 + 1/(u+z-1)) at z = 0
    f = fab(1, 1).value
    for x in (Fraction(2), Fraction(3), Fraction(-1)):
        assert f(x) == -x / (x - 1)


def test_exp_mean_series_scaling():
    # the raw u-coefficient carries N^m: m! * c_m = N^m <tr H^m>
    N = 3
    s = exp_mean_series(N, 5)
    moms = exp_mean_moments(N, 5)
    for m in range(6):
        assert math.factorial(m) * s.coefficient(m) == Fraction(N) ** m * moms[m]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_moments_match_wick_oracle(N):
    moms = exp_mean_moments(N, 6)
    assert moms[0] == N
    for m in range(1, 7):
        assert moms[m] == complex_wishart_moment((m,), "N", "N")(N)


def test_moments_gamma_collapse():
    moms = exp_mean_moments(1, 6)
    assert moms == [Fraction(math.factorial(m)) for m in range(7)]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_two_point_matches_connected_wick(N):
    tp = two_point_series(N, 5)
    for m1 in range(6):
        for m2 in range(6 - m1):
            if m1 == 0 and m2 == 0:
                continue
            got = tp.coefficient(m1, m2)
            if min(m1, m2) == 0:
                assert got == 0  # connected part against tr(1) vanishes
            else:
                want = connected_moments((m1, m2))(N)
                want /= math.factorial(m1) * math.factorial(m2)
                assert got == want


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_two_point_u1u2_universal(N):
    assert two_point_series(N, 2).coefficient(1, 1) == 1


def test_two_point_truncation_guard():
    tp = two_point_series(2, 3)
    with pytest.raises(IndexError):
        tp.coefficient(2, 2)


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_identities_small_window(tag):
    recs = verify_identity(tag, amax=12, bmax=12, nmax=12)
    assert recs, tag
    bad = [r for r in recs if not r.ok]
    assert not bad, bad


@pytest.mark.parametrize("which,nmax", [("DN", 5), ("K1", 5), ("K2", 4)])
def test_odes_structurally_zero(which, nmax):
    for N in range(1, nmax + 1):
        rec = verify_ode(which, N)
        assert rec.ok, rec.detail


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_t1_rectangular_reflection(N, k):
    rec = verify_t1(N, k)
    assert rec.ok, rec.detail


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_fab_generalized_matches_rectangular_wick(N, k):
    # the u-series of u <tr e^{uH}> encodes the rectangular moments one
    # power of u up, and up to the overall sign (-1)^(N+k) carried by the
    # residue normalization
    s = fab_generalized(N, k).series_at_zero(5)
    assert s.coefficient(0) == 0
    cols = "N" if k == 0 else f"N+{k}"
    sign = (-1) ** (N + k)
    for m in range(5):
        want = complex_wishart_moment((m,), "N", cols)(N) if m else Fraction(N)
        got = sign * math.factorial(m) * s.coefficient(m + 1) / Fraction(N) ** m
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
            assert fab(A, B).value(u) == _residue_at(u, A, B), (A, B)
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
        return FabValue(A, B, f.value + WLaurent({-1: 1})) if (A, B) in bad else f

    monkeypatch.setattr(residues, "fab", mutated)

    def caught(rec):
        return rec.status == "fail" and rec.detail not in ("", "0")

    for tag in IDENTITY_TAGS:
        recs = verify_identity(tag, amax=4, bmax=4, nmax=4)
        assert any(caught(r) for r in recs), tag
        assert all(caught(r) for r in recs if not r.ok), tag
    for rec in (verify_ode("DN", 3), verify_ode("K1", 2), verify_ode("K2", 1),
                verify_t1(3, 0), verify_t1(2, 1), verify_t1(1, 2)):
        assert caught(rec), rec.id
