"""Acceptance gate: one test per top-level criterion, exact equality
throughout, with a wall-clock budget for each.  Every test prints a single
pass/fail line tagged with the check anchors it certifies."""

import io
import math
import pathlib
import time
from fractions import Fraction

from hzlag.tables import load_table, payload_to_json, table_payload
from hzlag.engines import consistency_form
from hzlag.recursions import (
    a_row_series,
    c1_closed_form,
    gauss_genus_coefficients,
    half_binomial_series,
    s_series,
    w1_slots,
    w30_basis_coefficient,
)
from hzlag.residues import (
    AB_IDENTITIES,
    N_IDENTITIES,
    ODES,
    exp_mean_moments,
    t1_residual,
    two_point_series,
)
from hzlag.wick import (
    MomentPoly,
    complex_wishart_moment,
    connected_moments,
    genus_extract,
    gue_moment,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "vk_gmax2.json"


def _gate(name: str, budget: float, work):
    """Run one criterion, print its pass/fail line, enforce its time budget."""
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        work()
    except AssertionError as e:
        ok, detail = False, f" ({e})"
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"{name}: {status} [{elapsed:.2f}s / budget {budget:.0f}s]{detail}")
    assert ok, f"{name}{detail}"
    assert in_budget, f"{name} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_vk_table_golden():
    def work():
        buf = io.BytesIO()
        payload_to_json(table_payload("vk", {"gmax": 2}), buf)
        data = buf.getvalue()
        assert data == GOLDEN.read_bytes(), "vk gmax=2 output differs from golden"

    _gate("criterion-01 [rec-v2]", 1.0, work)


def test_criterion_02_laguerre_table_structure():
    def work():
        table = load_table("laguerre", {"gmax": 12, "nmax": 30}, use_cache=False)
        for g in range(13):
            assert table[g][1] == c1_closed_form(g), f"C1g at g={g}"
        for g in range(9):
            for n in range(1, 31):
                v = table[g][n]
                assert v.denominator == 1 and v > 0, f"({g},{n}) -> {v}"

    _gate("criterion-02 [3-t, C1g]", 5.0, work)


def test_criterion_03_fab_identities():
    def work():
        # (tag, [(indices, residual)]): A, B up to 10 from the least, N up to 10
        walks = [(tag, [((A, B, suffix), r) for A in range(low, 11) for B in range(low, 11)
                        for suffix, r in residuals(A, B)])
                 for tag, (low, residuals) in AB_IDENTITIES.items()]
        walks += [(tag, [(N, residual(N)) for N in range(1, 11)])
                  for tag, residual in N_IDENTITIES.items()]
        for tag, residuals in walks:
            bad = [where for where, r in residuals if r != 0]
            assert residuals and not bad, f"{tag}: {bad[:3]}"

    _gate("criterion-03 [feat-1 .. k2-second-derivative]", 60.0, work)


def test_criterion_04_odes_and_reflection():
    def work():
        for which, top in (("DN", 10), ("K1", 8), ("K2", 6)):
            for N in range(1, top + 1):
                res = ODES[which](N)
                assert res == 0, f"{which} N={N}: {res}"
        for N in range(1, 7):
            for k in range(3):
                res = t1_residual(N, k)
                assert res == 0, f"T-1 N={N} k={k}: {res}"

    _gate("criterion-04 [DN, K1, K2, T-1]", 120.0, work)


def test_criterion_05_one_point_oracle_equivalence():
    def work():
        dn = load_table("laguerre", {"gmax": 3, "nmax": 6}, use_cache=False)
        for N in range(1, 6):
            moms = exp_mean_moments(N, 6)  # E tr W^m, W = B B† = N H
            assert moms[0] == N
            for m in range(1, 7):
                oracle = complex_wishart_moment((m,), "N", "N")
                assert moms[m] == oracle.shift_exponent(m)(N), f"N={N} m={m}"
                if N == 1:
                    assert moms[m] == math.factorial(m), f"collapse m={m}"
                ge = genus_extract(oracle, 1)
                for g, c in ge.items():
                    assert dn[g][m - 2 * g] == c, f"genus m={m} g={g}"
                # <tr H^m> = sum_g C_{m-2g}^(g) N^(1-2g)
                table = MomentPoly({1 - 2 * g: dn[g][m - 2 * g]
                                    for g in range(m // 2 + 1)})
                assert table == oracle, f"table m={m}"

    _gate("criterion-05 [rep-N, 3-t]", 60.0, work)


def test_criterion_06_two_point_oracle_equivalence():
    def work():
        for N in (1, 2, 3):
            tp = two_point_series(N, 5)
            assert tp[1, 1] == N * N, f"u1u2 at N={N}"
            for m1 in range(6):
                for m2 in range(6 - m1):
                    if m1 == 0 and m2 == 0:
                        continue
                    got = math.factorial(m1) * math.factorial(m2) * tp[m1, m2]
                    if min(m1, m2) == 0:
                        assert got == 0, f"boundary ({m1},{m2}) N={N}: {got}"
                        continue
                    want = connected_moments((m1, m2)).shift_exponent(m1 + m2)(N)
                    assert got == want, f"({m1},{m2}) N={N}: {got} != {want}"

    _gate("criterion-06 [W2]", 120.0, work)


def test_criterion_07_fractional_genus_branch():
    def work():
        table = load_table("glag-k1", {"rmax2": 8, "nmax": 12}, use_cache=False)
        expected = {
            2: {0: 1, 1: 1},
            3: {0: 2, 1: 3, 2: 1},
            4: {0: 5, 1: 10, 2: 7, 3: 2},
            5: {0: 14, 1: 35, 2: 40, 3: 25, 4: 6},
        }
        # the coefficient of x^-e N^-q is C_{e-1-q}^(q/2), and 0 where e - 1 - q < 0
        for e, coeffs in expected.items():
            got = [table[q].get(e - 1 - q, 0) for q in range(6)]
            assert got == [coeffs.get(q, 0) for q in range(6)], f"x^-{e}"
            assert sum(got) == math.factorial(e), f"x^-{e} at N=1"
        # <tr H^m> = sum_q C_{m-q}^(q/2) N^(1-q)
        for m in range(1, 6):
            assert MomentPoly({1 - q: table[q][m - q] for q in range(m + 1)}) == (
                complex_wishart_moment((m,), "N", "N+1")), f"moment m={m}"
        slots = w1_slots(table)
        bad = [slot for slot, (got, want) in slots.items() if got != want]
        assert slots and not bad, f"W1: {bad[:3]}"

    _gate("criterion-07 [8-t, W1]", 60.0, work)


def test_criterion_08_gaussian_branch():
    def work():
        table = load_table("gauss", {"gmax": 6}, use_cache=False)
        assert [table[2][k] for k in range(2)] == [21, 105], "genus-2 row"
        assert genus_extract(gue_moment(8), 1)[2] == 21, "eps_2(8)"
        for g in range(1, 7):
            series = gauss_genus_coefficients(table[g], g, 12)
            for m in range(13):
                want = gue_moment(m).coefficient(1 - 2 * g)
                assert series[m] == want, f"recurrence-gue g={g} m={m}"

    _gate("criterion-08 [recurrence]", 30.0, work)


def test_criterion_09_constraint_families():
    def work():
        table = load_table("vk", {"gmax": 6}, use_cache=False)
        for g in range(7):
            assert consistency_form(table[g]) == 0, f"consistency at g={g}"
        for g in range(1, 7):
            row = table[g]
            for r in range(2 * g + 2):
                s = sum(Fraction(k**r if k or r == 0 else 0) * a
                        for k, a in row.items())
                assert s == 0, f"asym-{r} at g={g}: {s}"
        dn = load_table("laguerre", {"gmax": 5, "nmax": 20}, use_cache=False)
        for g in range(6):
            # x^0 .. x^-2g cancel, and C_n^(g) is the coefficient of x^(-1-2g-n)
            got = a_row_series(table[g], g, 21 + 2 * g)
            want = [0] * (2 * g + 1) + [dn[g][n] for n in range(21)]
            assert got == want, f"a-to-C at g={g}"

    _gate("criterion-09 [asym, consistency, a-to-C]", 30.0, work)


def test_criterion_10_closed_form_checks():
    def work():
        ratios = {
            Fraction(connected_moments(t).coefficient(-1), w30_basis_coefficient(*t))
            for t in ((1, 1, 1), (2, 1, 1), (2, 2, 1))
        }
        assert len(ratios) == 1, f"W30 ratios differ: {sorted(ratios)}"
        # s_{1,1} + 2 s_{1,0} and the g = 1 a-row's expansion equal
        # x^-4 (1 - 4/x)^(-5/2) through x^-7
        closed = [0] * 4 + half_binomial_series(-5, 3)
        s_form = [a + 2 * b for a, b in zip(s_series(1, 1, 7), s_series(1, 0, 7))]
        assert s_form == closed, f"W11[s-vs-closed]: {s_form}"
        a_row = a_row_series(load_table("vk", {"gmax": 1}, use_cache=False)[1], 1, 7)
        assert a_row == closed, f"W11[arow-vs-closed]: {a_row}"

    _gate("criterion-10 [W30, W11]", 30.0, work)


def test_performance_gate_large_tables():
    def work():
        t0 = time.perf_counter()
        dn = load_table("laguerre", {"gmax": 200, "nmax": 30}, use_cache=False)
        dt_dn = time.perf_counter() - t0
        assert dn[0][2] == 2 and dn[200][0] == 0
        assert dt_dn < 10.0, f"3-t table g<=200 took {dt_dn:.2f}s"
        t0 = time.perf_counter()
        gb = load_table("gauss", {"gmax": 200}, use_cache=False)
        dt_g = time.perf_counter() - t0
        assert gb[2][1] == 105
        assert dt_g < 10.0, f"recurrence table g<=200 took {dt_g:.2f}s"

    _gate("performance [3-t, recurrence @ g<=200]", 25.0, work)
