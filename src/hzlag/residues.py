"""Exact contour-integral building blocks for the Laguerre ensemble.

The central object is

    f_{A,B}(u) = residue at z=0 of (1 + 1/(u+z-1))^A (1 - 1/z)^B.

Its only pole is at u = 1, so it is an integer Laurent polynomial in
w = u - 1, and expanding both factors binomially gives its coefficients in
closed form (``weighted_residue``, which also carries a weight z^k).  The
rectangular-ensemble integral is expanded the same way.  The identity, ODE
and reflection checks multiply through by their known denominators, so every
residual is again a Laurent polynomial in w, zero exactly when it has no
terms: no step takes a polynomial gcd.  The iterated two-point residues are
expanded as integer double series, divided by N^(m1+m2) once per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import PoleAtExpansionPoint, TruncSeries, WLaurent
from .reports import CheckRecord, record

__all__ = [
    "FabValue",
    "TwoPointValue",
    "fab",
    "fab_generalized",
    "weighted_residue",
    "two_point_series",
    "exp_mean_series",
    "exp_mean_moments",
    "verify_identity",
    "verify_ode",
    "verify_t1",
    "IDENTITY_TAGS",
    "ODE_TAGS",
]

VAR = "u"

IDENTITY_TAGS = (
    "feat-1",
    "fAB-der",
    "fAB-der-der",
    "fAB-quad",
    "der-3",
    "id",
    "feat-2",
    "T-5a",
    "T-5b",
    "k2-second-derivative",
)
ODE_TAGS = ("DN", "K1", "K2")

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


@dataclass(frozen=True)
class FabValue:
    """f_{A,B}(u), exactly, as a Laurent polynomial in w = u - 1."""

    A: int
    B: int
    value: WLaurent


@lru_cache(maxsize=None)
def fab(A: int, B: int) -> FabValue:
    """Exact f_{A,B}(u) for nonnegative integers A, B."""
    return FabValue(A, B, weighted_residue(A, B))


def fab_generalized(N: int, k: int) -> WLaurent:
    """u <tr e^{uH}> for H = B B† with B of shape N x (N+k), exactly, as a
    Laurent polynomial in w = u - 1.

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


def exp_mean_series(N: int, order: int) -> TruncSeries:
    """u-series of f_{N,N}(u)/u through u^order.

    The contour variable couples to N*H, so the coefficient of u^m is
    N^m <tr H^m> / m!.
    """
    s = fab(N, N).value.series_at_zero(order + 1)
    if s.coefficient(0) != 0:
        raise PoleAtExpansionPoint(1)
    return TruncSeries(VAR, s.coeffs[1:])


def exp_mean_moments(N: int, mmax: int) -> list[Fraction]:
    """Exact <tr H^m> for m = 0..mmax: m! / N^m times the m-th coefficient
    of f_{N,N}(u)/u."""
    s = exp_mean_series(N, mmax)
    return [math.factorial(m) * s.coefficient(m) / Fraction(N) ** m for m in range(mmax + 1)]


@dataclass(frozen=True)
class TwoPointValue:
    """Connected <tr e^{u1 H} tr e^{u2 H}> as a bivariate series, truncated
    at the given total order in (u1, u2)."""

    N: int
    total_order: int
    value: dict  # (m1, m2) -> nonzero coefficient of u1^m1 u2^m2

    def coefficient(self, m1: int, m2: int) -> Fraction:
        if m1 + m2 > self.total_order:
            raise IndexError(f"total degree {m1 + m2} beyond truncation {self.total_order}")
        return self.value.get((m1, m2), Fraction(0))


def two_point_series(N: int, order: int) -> TwoPointValue:
    """Connected two-trace exponential mean through total (u1,u2)-order `order`.

    The double contour term is evaluated by iterated residues at z2=0 then
    z1=0 (nested contours, |z1| > |z2|); the cross factor
    1/((z1-z2+u1)(z1-z2-u2)) is expanded with u1, u2 formal, all its poles
    kept outside the contours.  With this convention the double residue by
    itself is the connected correlator; no compensator term is needed.  The
    contour variables couple to N*H, so the raw coefficient of u1^m1 u2^m2
    is divided by N^(m1+m2) to give <tr H^m1 tr H^m2>_conn / (m1! m2!).
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

    data: dict[tuple[int, int], Fraction] = {}
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
            if total:
                data[(a1, a2)] = Fraction(total, N ** (a1 + a2))

    return TwoPointValue(N, order, data)


# ---------------------------------------------------------------------------
# identity and ODE verification
# ---------------------------------------------------------------------------


def _f(A: int, B: int) -> WLaurent:
    return fab(A, B).value


def _residual_record(check_id: str, anchor: str, residual: WLaurent) -> CheckRecord:
    return record(check_id, anchor, residual.is_zero, detail=str(residual))


def verify_identity(
    which: str, amax: int = 10, bmax: int = 10, nmax: int = 10
) -> list[CheckRecord]:
    """Verify one of the f_{A,B} identities over a range of small indices.

    Every check multiplies its identity through by the identity's known
    denominator (a product of u, u + 1, u - 1 and 2), so the residual is a
    Laurent polynomial in w = u - 1, and asserts that it is structurally
    zero; no numerical tolerance is involved anywhere.  A failing check
    reports that multiplied-through residual.
    """
    u, w = _U, _W
    recs: list[CheckRecord] = []

    def rr(tag: str, idx: str, residual: WLaurent) -> None:
        recs.append(_residual_record(f"{tag}[{idx}]", tag, residual))

    if which == "feat-1":
        for A in range(amax + 1):
            for B in range(bmax + 1):
                rr(which, f"A={A},B={B}", _f(A, B) - _f(B, A) - (A - B))
    elif which == "fAB-der":
        for A in range(1, amax + 1):
            for B in range(1, bmax + 1):
                d = _f(A, B).derivative()
                rr(which, f"A={A},B={B},side=A",
                   d + A * (_f(A - 1, B) - 2 * _f(A, B) + _f(A + 1, B)))
                rr(which, f"A={A},B={B},side=B",
                   d + B * (_f(A, B - 1) - 2 * _f(A, B) + _f(A, B + 1)))
    elif which == "fAB-der-der":
        for A in range(1, amax + 1):
            for B in range(1, bmax + 1):
                d2 = _f(A, B).derivative().derivative()
                nine = (
                    _f(A - 1, B - 1) + _f(A - 1, B + 1) + _f(A + 1, B - 1) + _f(A + 1, B + 1)
                    - 2 * _f(A - 1, B) - 2 * _f(A, B - 1) - 2 * _f(A + 1, B) - 2 * _f(A, B + 1)
                    + 4 * _f(A, B)
                )
                rr(which, f"A={A},B={B},form=9term", d2 - A * B * nine)
                # times u (u + 1) (u - 1)
                frac = (
                    w * (_f(A - 1, B) + _f(A, B - 1))
                    + (u + 1) * (_f(A + 1, B) + _f(A, B + 1))
                    - 4 * u * _f(A, B)
                )
                rr(which, f"A={A},B={B},form=rational", u * (u + 1) * w * d2 - A * B * frac)
    elif which == "fAB-quad":
        for A in range(1, amax + 1):
            for B in range(1, bmax + 1):
                # times u - 1
                rr(which, f"A={A},B={B}",
                   w * _f(A, B) + (u + 1) * _f(A - 1, B - 1)
                   - u * (_f(A - 1, B) + _f(A, B - 1)))
    elif which == "der-3":
        for N in range(1, nmax + 1):
            # times u (u + 1) (u - 1)
            d2 = _f(N, N).derivative().derivative()
            rhs = N * N * (
                w * (2 * _f(N, N - 1) - 1)
                + (u + 1) * (2 * _f(N, N + 1) + 1)
                - 4 * u * _f(N, N)
            )
            rr(which, f"N={N}", u * (u + 1) * w * d2 - rhs)
    elif which == "id":
        for N in range(1, nmax + 1):
            # residue of ((u+z)/(u+z-1))^N (1-1/z)^N (u - 1 + 2z)
            res = w * _f(N, N) + 2 * weighted_residue(N, N, 1)
            rr(which, f"N={N}", res + u * N)
    elif which == "feat-2":
        for N in range(1, nmax + 1):
            # times 2
            lhs = 2 * N * (_f(N, N) - _f(N, N - 1))
            rhs = -w * _f(N, N).derivative() + _f(N, N) - N
            rr(which, f"N={N}", lhs - rhs)
    elif which == "T-5a":
        for N in range(1, nmax + 1):
            res = ((N + 1) * u - 1) * ((u + 1) * _f(N, N) - 2 * u * _f(N + 1, N)) \
                + (N + 1) * u * w * _f(N + 2, N) + N * u
            rr(which, f"N={N}", res)
    elif which == "T-5b":
        for N in range(1, nmax + 1):
            res = ((N + 1) * u - 1) * (w * _f(N + 2, N + 2) - 2 * u * _f(N + 2, N + 1)) \
                + (N + 1) * u * (u + 1) * _f(N + 2, N) - (N + 2) * u
            rr(which, f"N={N}", res)
    elif which == "k2-second-derivative":
        for N in range(1, nmax + 1):
            # times u (u + 1) (u - 1)
            f = _f(N + 2, N)
            res = u * (u + 1) * w * f.derivative().derivative() \
                - 2 * N * (N + 2) * (_f(N + 2, N + 1) - _f(N + 1, N)) \
                + (2 * (N + 1) * u - 2) * f.derivative()
            rr(which, f"N={N}", res)
    else:
        raise ValueError(f"unknown identity tag {which!r}")
    return recs


def verify_ode(which: str, N: int) -> CheckRecord:
    """Substitute an exact f_{A,B} with its derivatives into one of the three
    ODEs, multiplied through by its known denominator (a product of u,
    u + 1, u - 1, 2 and (N+1) u - 1), and assert the residual is
    structurally zero."""
    u, w = _U, _W
    if which == "DN":
        # times u (u^2 - 1)
        f = _f(N, N)
        f1, f2 = f.derivative(), f.derivative().derivative()
        res = u * (u + 1) * w * f2 + 4 * N * u * f1 - 2 * N * f
    elif which == "K1":
        # times 2 u (u^2 - 1) (u - 1)
        f = _f(N + 1, N)
        f1, f2 = f.derivative(), f.derivative().derivative()
        lhs = (2 * u * N + w) * u * (u + 1) * w * f2
        rhs = (
            (-8 * u * u * N * N + (-8 * u * u + 4 * u) * N - w * w) * f1
            + 4 * N * (N + 1) * u * f
            - 2 * N * (N + 1) * u
        )
        res = lhs - rhs
    elif which == "K2":
        # times u^3 (u^2 - 1)^2 ((N+1) u - 1)
        f = _f(N + 2, N)
        f1 = f.derivative()
        f2 = f1.derivative()
        f3 = f2.derivative()
        f4 = f3.derivative()
        n1 = N + 1
        u2m1 = (u + 1) * w
        res = (
            u**3 * u2m1**2 * (n1 * u - 1) * f4
            + 2 * (3 * u**3 + 2 * n1 * u**2 - u + n1) * u * u2m1 * (n1 * u - 1) * f3
            + 2 * (
                3 * u**5 + 2 * n1 * u**4 - 2 * n1 * n1 * u**3 + 3 * n1 * u**2
                + (6 * n1 * n1 - 3) * u - 3 * n1
            ) * (n1 * u - 1) * f2
            - 2 * n1 * (4 * n1 * u**2 + 8 * N * (N + 2) * u - 10 * n1) * (n1 * u - 1) * f1
            + 4 * N * n1 * (N + 2) * (u + 2 * n1) * u * (f - 1)
        )
    else:
        raise ValueError(f"unknown ODE tag {which!r}")
    return _residual_record(f"ode-{which}[N={N}]", which, res)


def verify_t1(N: int, k: int) -> CheckRecord:
    """Check that the rectangular-ensemble residue equals
    (-1)^(N+k-1) f_{N+k,N}(1/u), both multiplied by u."""
    lhs = fab_generalized(N, k)
    rhs = (-1) ** (N + k - 1) * _U * fab(N + k, N).value.compose_inverse()
    return _residual_record(f"T-1[N={N},k={k}]", "T-1", lhs - rhs)
