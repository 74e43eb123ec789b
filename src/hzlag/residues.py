"""Exact contour-integral building blocks for the Laguerre ensemble.

The central object is

    f_{A,B}(u) = residue at z=0 of (1 + 1/(u+z-1))^A (1 - 1/z)^B.

Its only pole is at u = 1, so it is an integer Laurent polynomial in
w = u - 1, and expanding both factors binomially gives its coefficients in
closed form (``weighted_residue``, which also carries a weight z^k).  The
rectangular-ensemble integral is expanded the same way.  The identity, ODE
and reflection residuals are multiplied through by their known denominators,
so every residual is again a Laurent polynomial in w, zero exactly when it
has no terms: no step takes a polynomial gcd.  This module returns the
residuals, in registries keyed by tag; the identities and odes suites of
hzlag.cli walk them, judge each residual and name its check.  ``fab``
returns that Laurent polynomial itself, and the moments are read off its
Taylor coefficients at u = 0.  The iterated two-point residues are expanded
as integer double series.  The contour variables couple to W = B B† = N H,
so the moments and the two-point coefficients are those of W: integers,
never divided by N^m.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import WLaurent

__all__ = [
    "fab",
    "fab_generalized",
    "weighted_residue",
    "two_point_series",
    "exp_mean_moments",
    "t1_residual",
    "AB_IDENTITIES",
    "N_IDENTITIES",
    "ODES",
]

_W = WLaurent({1: 1})  # w = u - 1
_U = _W + 1  # u


def weighted_residue(A: int, B: int, k: int = 0) -> WLaurent:
    """Res_{z=0} z^k (1 + 1/(u+z-1))^A (1 - 1/z)^B for A, B, k >= 0.

    With w = u - 1, (1 + 1/(w+z))^A = sum_i C(A,i) (w+z)^-i, where
    (w+z)^-i = sum_m (-1)^m C(i+m-1, m) w^-(i+m) z^m for i >= 1, and
    (1 - 1/z)^B = sum_j C(B,j) (-1)^j z^-j.  The z^-1 coefficient pairs
    m = j - k - 1, which gives the integer Laurent polynomial

        (-1)^(k+1) [C(B,k+1) + sum_{j>k} sum_{i>=1}
                    C(B,j) C(A,i) C(i+j-k-2, j-k-1) w^-(i+j-k-1)].
    """
    if A < 0 or B < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    sign = (-1) ** (k + 1)
    terms = {0: sign * math.comb(B, k + 1)}
    for j in range(k + 1, B + 1):
        m = j - k - 1
        cb = sign * math.comb(B, j)
        for i in range(1, A + 1):
            terms[-i - m] = terms.get(-i - m, 0) + cb * math.comb(A, i) * math.comb(i + m - 1, m)
    return WLaurent(terms)


@lru_cache(maxsize=None)
def fab(A: int, B: int) -> WLaurent:
    """Exact f_{A,B}(u) for nonnegative integers A, B, as a Laurent
    polynomial in w = u - 1."""
    return weighted_residue(A, B)


def fab_generalized(N: int, k: int) -> WLaurent:
    """(-1)^(N+k) u <tr e^{u B B†}> for B of shape N x (N+k) with independent
    unit-variance complex Gaussian entries, exactly, as a Laurent polynomial
    in w = u - 1: the coefficient of u^(p+1) is (-1)^(N+k) E tr (B B†)^p / p!.

    It is the residue at z=0 of (1-z)^{N+k} (z+u)^N / ((z+u-1)^{N+k} z^N);
    the pole has order exactly N, so only z-orders up to N-1 are needed.
    The coefficient of z^{N-1} pairs (1-z)^{N+k} at z^i1, (z+w+1)^N at z^i2
    (coefficient C(N,i2) (w+1)^{N-i2}) and (w+z)^-(N+k) at z^i3
    (coefficient (-1)^i3 C(N+k+i3-1, i3) w^-(N+k+i3)).
    """
    if N < 1 or k < 0:
        raise ValueError("need N >= 1, k >= 0")
    terms: dict[int, int] = {}
    for i1 in range(N):
        for i2 in range(N - i1):
            i3 = N - 1 - i1 - i2
            c = (-1) ** (i1 + i3) * math.comb(N + k, i1) * math.comb(N, i2) \
                * math.comb(N + k + i3 - 1, i3)
            p = N - i2
            for t in range(p + 1):
                e = t - (N + k + i3)
                terms[e] = terms.get(e, 0) + c * math.comb(p, t)
    return WLaurent(terms)


def exp_mean_moments(N: int, mmax: int) -> list[int]:
    """Exact E tr W^m for m = 0..mmax, W = B B† with B square N x N.

    The coefficient of u^(m+1) in f_{N,N}(u) is E tr W^m / m!; its
    constant term must vanish.
    """
    s = fab(N, N).series_at_zero(mmax + 1)
    if s[0] != 0:
        raise ValueError(f"f_{{{N},{N}}} does not vanish at u = 0")
    return [math.factorial(m) * s[m + 1] for m in range(mmax + 1)]


def two_point_series(N: int, order: int) -> dict[tuple[int, int], int]:
    """Connected E tr e^{u1 W} tr e^{u2 W} through total (u1,u2)-order `order`.

    The double contour term is evaluated by iterated residues at z2=0 then
    z1=0 (nested contours, |z1| > |z2|); the cross factor
    1/((z1-z2+u1)(z1-z2-u2)) is expanded with u1, u2 formal, all its poles
    kept outside the contours.  With this convention the double residue by
    itself is the connected correlator; no compensator term is needed.  The
    result maps every (m1, m2) with m1 + m2 <= order to the coefficient of
    u1^m1 u2^m2, E tr W^m1 tr W^m2 (connected) / (m1! m2!), an integer; a
    key beyond the truncation is a KeyError.
    """
    if N < 1 or order < 1:
        raise ValueError("need N >= 1, order >= 1")
    imax = 2 * N + order

    # p[(i, a)] = [z^i u^a] (1-z)^N ((z+u)/(z+u-1))^N, analytic at z=0:
    # ((z+u)/(z+u-1))^N = sum_j C(N-1+j, j) (z+u)^(N+j) * (-1)^N * (-1)^N
    q: dict[tuple[int, int], int] = {}
    for i in range(imax + 1):
        for a in range(order + 1):
            j = i + a - N
            if j >= 0:
                q[(i, a)] = math.comb(N - 1 + j, j) * math.comb(N + j, a)
    p: dict[tuple[int, int], int] = {}
    for (i, a), v in q.items():
        for t in range(min(N, imax - i) + 1):
            c = math.comb(N, t) * (-1) ** t
            p[(i + t, a)] = p.get((i + t, a), 0) + c * v

    data: dict[tuple[int, int], int] = {}
    for a1 in range(order + 1):
        for a2 in range(order + 1 - a1):
            total = 0
            for m1 in range(a1 + 1):
                for m2 in range(a2 + 1):
                    big_m = m1 + m2 + 2
                    for j in range(N):
                        inner = p.get((N - 1 - j, a2 - m2), 0)
                        if inner == 0:
                            continue
                        outer = p.get((N - 1 + big_m + j, a1 - m1), 0)
                        if outer == 0:
                            continue
                        total += (-1) ** m1 * math.comb(big_m - 1 + j, j) * inner * outer
            data[(a1, a2)] = total
    return data


# ---------------------------------------------------------------------------
# identity and ODE residuals
# ---------------------------------------------------------------------------


# The registries that the identities and odes suites of hzlag.cli walk:
# AB_IDENTITIES maps a tag to the least A and B and to the residuals at
# (A, B), each with the suffix of its check id; N_IDENTITIES and ODES map a
# tag to the residual at N.  A residual is its identity or ODE multiplied
# through by a known denominator (a product of u, u + 1, u - 1, 2 and
# (N+1) u - 1), which a comment names where it is not 1.


def _fab_der(A: int, B: int):
    d = fab(A, B).derivative()
    return ((",side=A", d + A * (fab(A - 1, B) - 2 * fab(A, B) + fab(A + 1, B))),
            (",side=B", d + B * (fab(A, B - 1) - 2 * fab(A, B) + fab(A, B + 1))))


def _fab_der_der(A: int, B: int):
    u, w = _U, _W
    d2 = fab(A, B).derivative().derivative()
    nine = (
        fab(A - 1, B - 1) + fab(A - 1, B + 1) + fab(A + 1, B - 1) + fab(A + 1, B + 1)
        - 2 * fab(A - 1, B) - 2 * fab(A, B - 1) - 2 * fab(A + 1, B) - 2 * fab(A, B + 1)
        + 4 * fab(A, B)
    )
    # times u (u + 1) (u - 1)
    frac = (
        w * (fab(A - 1, B) + fab(A, B - 1))
        + (u + 1) * (fab(A + 1, B) + fab(A, B + 1))
        - 4 * u * fab(A, B)
    )
    return ((",form=9term", d2 - A * B * nine),
            (",form=rational", u * (u + 1) * w * d2 - A * B * frac))


AB_IDENTITIES = {
    "feat-1": (0, lambda A, B: (("", fab(A, B) - fab(B, A) - (A - B)),)),
    "fAB-der": (1, _fab_der),
    "fAB-der-der": (1, _fab_der_der),
    # times u - 1
    "fAB-quad": (1, lambda A, B: (("", _W * fab(A, B) + (_U + 1) * fab(A - 1, B - 1)
                                       - _U * (fab(A - 1, B) + fab(A, B - 1))),)),
}


def _k2_second_derivative(N: int) -> WLaurent:
    # times u (u + 1) (u - 1)
    u, w = _U, _W
    f = fab(N + 2, N)
    return u * (u + 1) * w * f.derivative().derivative() \
        - 2 * N * (N + 2) * (fab(N + 2, N + 1) - fab(N + 1, N)) \
        + (2 * (N + 1) * u - 2) * f.derivative()


N_IDENTITIES = {
    # times u (u + 1) (u - 1)
    "der-3": lambda N: _U * (_U + 1) * _W * fab(N, N).derivative().derivative() - N * N * (
        _W * (2 * fab(N, N - 1) - 1) + (_U + 1) * (2 * fab(N, N + 1) + 1) - 4 * _U * fab(N, N)),
    # residue of ((u+z)/(u+z-1))^N (1-1/z)^N (u - 1 + 2z)
    "id": lambda N: _W * fab(N, N) + 2 * weighted_residue(N, N, 1) + _U * N,
    # times 2
    "feat-2": lambda N: 2 * N * (fab(N, N) - fab(N, N - 1))
        + _W * fab(N, N).derivative() - fab(N, N) + N,
    "T-5a": lambda N: ((N + 1) * _U - 1) * ((_U + 1) * fab(N, N) - 2 * _U * fab(N + 1, N))
        + (N + 1) * _U * _W * fab(N + 2, N) + N * _U,
    "T-5b": lambda N: ((N + 1) * _U - 1) * (_W * fab(N + 2, N + 2) - 2 * _U * fab(N + 2, N + 1))
        + (N + 1) * _U * (_U + 1) * fab(N + 2, N) - (N + 2) * _U,
    "k2-second-derivative": _k2_second_derivative,
}


def _ode_dn(N: int) -> WLaurent:
    # times u (u^2 - 1)
    u, w = _U, _W
    f = fab(N, N)
    f1, f2 = f.derivative(), f.derivative().derivative()
    return u * (u + 1) * w * f2 + 4 * N * u * f1 - 2 * N * f


def _ode_k1(N: int) -> WLaurent:
    # times 2 u (u^2 - 1) (u - 1)
    u, w = _U, _W
    f = fab(N + 1, N)
    f1, f2 = f.derivative(), f.derivative().derivative()
    lhs = (2 * u * N + w) * u * (u + 1) * w * f2
    rhs = (
        (-8 * u * u * N * N + (-8 * u * u + 4 * u) * N - w * w) * f1
        + 4 * N * (N + 1) * u * f
        - 2 * N * (N + 1) * u
    )
    return lhs - rhs


def _ode_k2(N: int) -> WLaurent:
    # times u^3 (u^2 - 1)^2 ((N+1) u - 1)
    u, w = _U, _W
    f = fab(N + 2, N)
    f1 = f.derivative()
    f2 = f1.derivative()
    f3 = f2.derivative()
    f4 = f3.derivative()
    n1 = N + 1
    u2m1 = (u + 1) * w
    return (
        u**3 * u2m1**2 * (n1 * u - 1) * f4
        + 2 * (3 * u**3 + 2 * n1 * u**2 - u + n1) * u * u2m1 * (n1 * u - 1) * f3
        + 2 * (
            3 * u**5 + 2 * n1 * u**4 - 2 * n1 * n1 * u**3 + 3 * n1 * u**2
            + (6 * n1 * n1 - 3) * u - 3 * n1
        ) * (n1 * u - 1) * f2
        - 2 * n1 * (4 * n1 * u**2 + 8 * N * (N + 2) * u - 10 * n1) * (n1 * u - 1) * f1
        + 4 * N * n1 * (N + 2) * (u + 2 * n1) * u * (f - 1)
    )


ODES = {"DN": _ode_dn, "K1": _ode_k1, "K2": _ode_k2}


def t1_residual(N: int, k: int) -> WLaurent:
    """The rectangular-ensemble residue minus (-1)^(N+k-1) f_{N+k,N}(1/u),
    both multiplied by u: zero exactly when the reflection "T-1" holds."""
    return fab_generalized(N, k) - (-1) ** (N + k - 1) * _U * fab(N + k, N).compose_inverse()
