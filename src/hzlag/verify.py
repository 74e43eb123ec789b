"""The verify suites: each makes one list of comparisons of the routes'
values from the parsed ``verify`` options, which judge turns into check
records.  A suite imports its route modules when it runs."""

from __future__ import annotations

import math
from collections import namedtuple

from .tables import load_table


class CheckRecord(namedtuple("CheckRecord", "id anchor status detail", defaults=("",))):
    """Outcome of a single verification check.

    ``anchor`` is the short tag of the identity / recursion being checked
    (e.g. "feat-1", "3-t"); ``status`` is "pass" or "fail"; ``detail``
    names the first differing cell when the check fails, as a string.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def judge(comparisons) -> list[CheckRecord]:
    """The check record of each comparison of a suite, in order.

    A comparison is ``(check id, anchor, (route, reference), cells)``, a
    cell ``(where, route value, reference value)``.  It passes when every
    cell agrees; otherwise its detail is the first differing cell, ``where:
    route X reference Y``, without ``where: `` when where is empty.  Cells
    are lists: a generator would bind the suite's loop variables late.  The
    route modules return values, and only this loop judges them."""
    checks = []
    for check_id, anchor, (route, reference), cells in comparisons:
        bad = [f"{where}{': ' if where else ''}{route} {got} {reference} {want}"
               for where, got, want in cells if got != want]
        checks.append(CheckRecord(check_id, anchor, "fail" if bad else "pass", *bad[:1]))
    return checks


def _zero(check_id: str, anchor: str, what: str, value):
    """The comparison of one value, named what, with 0."""
    return check_id, anchor, (what, "expected"), [("", value, 0)]


def suite_identities(args) -> list[CheckRecord]:
    from .residues import AB_IDENTITIES, N_IDENTITIES

    return judge([_zero(f"{tag}[A={A},B={B}{suffix}]", tag, "residual", res)
                  for tag, (low, residuals) in AB_IDENTITIES.items()
                  for A in range(low, args.amax + 1) for B in range(low, args.bmax + 1)
                  for suffix, res in residuals(A, B)]
                 + [_zero(f"{tag}[N={N}]", tag, "residual", residual(N))
                    for tag, residual in N_IDENTITIES.items() for N in range(1, args.nmax + 1)])


def suite_odes(args) -> list[CheckRecord]:
    from .residues import ODES, t1_residual

    ns = range(1, args.nmax + 1)
    return judge([_zero(f"ode-{tag}[N={N}]", tag, "residual", ode(N))
                  for N in ns for tag, ode in ODES.items()]
                 + [_zero(f"T-1[N={N},k={k}]", "T-1", "residual", t1_residual(N, k))
                    for N in ns for k in range(3)])


def suite_crosscheck(args) -> list[CheckRecord]:
    """Where the routes meet: one list of comparisons (see judge)."""
    from .recursions import (a_row_series, gauss_genus_coefficients, half_binomial_series,
                             s_pair_series, w30_basis_coefficient)
    from .residues import exp_mean_moments, two_point_series
    from .wick import (MomentPoly, complex_wishart_moment, connected_moments, genus_extract,
                       gue_moment)

    mmax, fact = args.mmax, math.factorial
    wick = {m: complex_wishart_moment((m,)) for m in range(1, mmax + 1)}
    # one point: residue route vs Wick oracle, as E tr W^m for W = B B† = N H
    comparisons = [
        (f"rep-N-wick[N={N},m={m}]", "rep-N", ("residue", "wick"),
         [("", mom[m], wick[m].shift_exponent(m)(N) if m else N)])
        for N in range(1, 6) for mom in [exp_mean_moments(N, mmax)] for m in range(mmax + 1)]
    # genus grading of the symbolic oracle vs the recursion table
    dn = load_table("laguerre", {"gmax": 3, "nmax": mmax}, args.cache)
    for m in range(1, mmax + 1):
        comparisons += [
            (f"3-t-wick[m={m}]", "3-t", ("table", "wick"),
             [(f"g={g}", dn[g][m - 2 * g], c) for g, c in genus_extract(wick[m], 1).items()]),
            (f"gamma-collapse[m={m}]", "rep-N", ("sum", "m!"),
             [("", sum(dn[g][m - 2 * g] for g in range(m // 2 + 1)), fact(m))])]
    # two-point: residue route vs connected Wick oracle, as the connected
    # E tr W^m1 tr W^m2 (0 where an m is 0)
    pairs = [(m1, m2) for m1 in range(6) for m2 in range(6 - m1) if m1 or m2]
    comparisons += [
        (f"W2-wick[N={N}]", "W2", ("residue", "wick"),
         [(f"m1={m1},m2={m2}", fact(m1) * fact(m2) * tp[m1, m2],
           connected_moments((m1, m2)).shift_exponent(m1 + m2)(N) if m1 and m2 else 0)
          for m1, m2 in pairs])
        for N in range(1, 4) for tp in [two_point_series(N, 5)]]
    # Gaussian branch vs pairing oracle, genus by genus, for m <= 12
    gt = load_table("gauss", {"gmax": 3}, args.cache)
    comparisons += [
        (f"recurrence-gue[g={g}]", "recurrence", ("table", "oracle"),
         [(f"m={m}", series[m], gue_moment(m).coefficient(1 - 2 * g)) for m in range(13)])
        for g in range(1, 4) for series in [gauss_genus_coefficients(gt[g], g, 12)]]
    # rectangular k = 1 branch vs Wick oracle: <tr H^m> = sum_q C_{m-q}^(q/2) N^(1-q)
    ht = load_table("glag-k1", {"rmax2": 5, "nmax": 8}, args.cache)
    comparisons += [
        (f"8-t-wick[m={m}]", "8-t", ("table", "wick"),
         [("", MomentPoly({1 - q: ht[q][m - q] for q in range(m + 1)}),
           complex_wishart_moment((m,), "N", "N+1"))])
        for m in range(1, 6)]
    # W30: the oracle's leading connected three-trace coefficient is twice the basis product's
    comparisons.append(
        ("W30[constant-ratio]", "W30", ("oracle", "2*basis"),
         [(f"m={t}", connected_moments(t).coefficient(-1), 2 * w30_basis_coefficient(*t))
          for t in ((1, 1, 1), (2, 1, 1), (2, 2, 1))]))
    # W11: s_{1,1} + 2 s_{1,0} and the expansion of the g = 1 a-row, through
    # x^-7, vs the closed form x^-4 (1 - 4/x)^(-5/2)
    closed = [0] * 4 + half_binomial_series(-5, 3)
    a_row = a_row_series(load_table("vk", {"gmax": 1}, args.cache)[1], 1, 7)
    comparisons += [
        (f"W11[{name}-vs-closed]", "W11", (route, "closed"),
         [(f"x^-{e}", v, c) for e, (v, c) in enumerate(zip(series, closed))])
        for name, route, series in (("s", "s-basis", s_pair_series(1, 7)),
                                    ("arow", "a-row", a_row))]
    return judge(comparisons)


def suite_constraints(args) -> list[CheckRecord]:
    from .engines import consistency_form
    from .recursions import (a_row_series, asym_moments, int2_residuals, integrality_violations,
                             w1_slots)

    vt = load_table("vk", {"gmax": args.gmax}, args.cache)
    comparisons = [_zero(f"consistency[g={g}]", "consistency", "form", consistency_form(vt[g]))
                   for g in range(args.gmax + 1)]
    comparisons += [_zero(f"asym-r[g={g},r={r}]", "asym-r", "moment", s)
                    for g in range(1, args.gmax + 1)
                    for r, s in enumerate(asym_moments(vt[g], 2 * g + 1))]
    # a-row expansion vs three-term recursion table: the coefficients of x^0
    # .. x^-2g cancel, and C_n^(g) is that of x^(-1-2g-n)
    dn = load_table("laguerre", {"gmax": 5, "nmax": 20}, args.cache)
    comparisons += [
        (f"a-to-C[g={g}]", "rec-v2", ("a-row", "table"),
         [(f"x^-{e}", v, dn[g][e - 1 - 2 * g] if e > 2 * g else 0)
          for e, v in enumerate(a_row_series(vt[g], g, 21 + 2 * g))])
        for g in range(min(args.gmax, 5) + 1)]
    # operator equations
    int2 = int2_residuals(load_table("laguerre", {"gmax": 3, "nmax": 10}, args.cache))
    comparisons += [_zero(f"int-2[g={g},n={n}]", "int-2", "residual", r)
                    for (g, n), r in int2.items()]
    w1 = w1_slots(load_table("glag-k1", {"rmax2": 4, "nmax": 8}, args.cache))
    comparisons += [(f"W1[q={q},e={e}]", "W1", ("collected", "expected"), [("", got, want)])
                    for (q, e), (got, want) in w1.items()]
    # integrality expectations
    for name, violations in (
        # the n = 0 column is the seed C_0^(g) = (1, 0, 0, ...), not a count, so it is exempt
        ("laguerre", [key for key in integrality_violations(dn) if key[1] >= 1]),
        ("gauss", integrality_violations(load_table("gauss", {"gmax": args.gmax}, args.cache))),
    ):
        comparisons.append((f"integrality[{name}]", "C1g", ("violations", "expected"),
                            [("", violations[:5], [])]))
    return judge(comparisons)
