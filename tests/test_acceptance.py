"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The whole module
takes several minutes; the heavy sweeps are marked ``slow``.
"""

import itertools
import statistics

import numpy as np
import pytest

from residuevc.field import (ZeroConvention, character_table, log2_floor,
                             make_field, squares_table)
from residuevc.montecarlo import interface_scan
from residuevc.primes import primes_in_range
from residuevc.search import longest_shattered_ap, vc_dimension, vc_sweep
from residuevc.shatter import fold_patterns, is_shattered, pattern_counts
from residuevc.weil import (fourier_probability, fuzzy_coset_probability,
                            verify_equidistribution,
                            verify_shattering_theorem, verify_weil)

from oracles import naive_vc

CONVS = list(ZeroConvention)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. VC dimension for primes up to 300
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_vcdim_range():
    results = list(vc_sweep(5, 300, ZeroConvention.ZERO_IN))
    in_band = all(r.vcdim in (log2_floor(r.q) - 1, log2_floor(r.q))
                  for r in results)
    near = sum(1 for r in results if r.vcdim == log2_floor(r.q) - 1)
    frac = near / len(results)
    ok = in_band and abs(frac - 0.57) <= 0.10
    report(1, ok, f"{len(results)} primes, all within band: {in_band}, "
                  f"fraction at floor(log2 q)-1: {frac:.3f}")


# ---------------------------------------------------------------------------
# 2. Early-exit sweep to 512
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_early_exit_512():
    shortfalls = []
    for r in vc_sweep(5, 512, ZeroConvention.ZERO_IN, early_exit=True):
        if r.vcdim < log2_floor(r.q) - 1:
            shortfalls.append(r.q)
    ok = not shortfalls
    report(2, ok, f"shattered set of size floor(log2 q)-1 found for every "
                  f"prime up to 512; shortfalls: {shortfalls}")


# ---------------------------------------------------------------------------
# 3. Longest shattered progression to 20000
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_progressions():
    ratios = []
    out_of_band = []
    for q in primes_in_range(5, 20000):
        r = longest_shattered_ap(q, ZeroConvention.ZERO_IN)
        lo = log2_floor(q) // 2 - 1
        if not lo <= r.longest <= log2_floor(q):
            out_of_band.append(q)
        ratios.append(r.ratio)
    med = statistics.median(ratios)
    ok = not out_of_band and 0.65 <= med <= 0.85
    report(3, ok, f"{len(ratios)} primes, out of band: {out_of_band[:5]}, "
                  f"median ratio {med:.3f}")


# ---------------------------------------------------------------------------
# 4. Interface shape at n = 8
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_interface_shape():
    points = interface_scan(8, density=100, trials=1000, seed=42,
                            conv=ZeroConvention.ZERO_IN)
    low = [p for p in points if p.ratio <= 0.72]
    high = [p for p in points if p.ratio >= 0.83]
    low_bad = sum(1 for p in low if not p.p_hat > 0.5)
    high_bad = sum(1 for p in high if not p.p_hat < 0.5)
    ok = (len(low) > 0 and len(high) > 0
          and low_bad <= 0.05 * len(low) and high_bad <= 0.05 * len(high))
    report(4, ok, f"{len(points)} points; ratio<=0.72: {len(low)} "
                  f"({low_bad} not above 1/2); ratio>=0.83: {len(high)} "
                  f"({high_bad} not below 1/2)")


# ---------------------------------------------------------------------------
# 5. Weil bound suite
# ---------------------------------------------------------------------------

def test_criterion_5_weil_bound():
    total = violations = 0
    worst = 0.0
    for q in primes_in_range(5, 101):
        F = make_field(q)
        for r in (2, 3):
            if (q - 1) % r:
                continue
            rep = verify_weil(F, character_table(F, r), 3, samples=500, seed=0)
            total += rep.instances
            violations += rep.violations
            worst = max(worst, rep.max_ratio)
    ok = violations == 0
    report(5, ok, f"{total} instances over q<=101, r in {{2,3}}, n<=2 "
                  f"exhaustive plus sampled n=3; violations: {violations}; "
                  f"max |sum|/((n-1)sqrt q): {worst:.4f}")


# ---------------------------------------------------------------------------
# 6. Equidistribution suite
# ---------------------------------------------------------------------------

def test_criterion_6_equidistribution():
    total = violations = 0
    worst = 0.0
    for q in (101, 499, 997):
        rep = verify_equidistribution(make_field(q), 2, 4, samples=500, seed=0)
        total += rep.instances
        violations += rep.violations
        worst = max(worst, rep.max_normalized)
    ok = violations == 0
    report(6, ok, f"{total} sampled (Y, t) instances at q in "
                  f"{{101, 499, 997}}; violations: {violations}; "
                  f"max |P - 2^-n| / (n/sqrt q + n/q): {worst:.4f}")


# ---------------------------------------------------------------------------
# 7. Fourier identity under fuzzy weights
# ---------------------------------------------------------------------------

def test_criterion_7_fourier_identity():
    rng = np.random.default_rng(0)
    checked = 0
    max_gap = 0.0
    for q in primes_in_range(5, 101):
        F = make_field(q)
        rs = [r for r in (2, 3) if (q - 1) % r == 0]
        for r in rs:
            C = character_table(F, r)
            for n in (1, 2, 3):
                if n > q:
                    continue
                for _ in range(4):
                    Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                    t = [int(v) for v in rng.integers(1, q, size=n)]
                    lhs = float(fuzzy_coset_probability(F, C, Y, t))
                    rhs = fourier_probability(F, C, Y, t)
                    max_gap = max(max_gap, abs(lhs - rhs.real), abs(rhs.imag))
                    checked += 1
    ok = max_gap <= 1e-6
    report(7, ok, f"{checked} identities checked for q<=101, n<=3; "
                  f"max gap {max_gap:.2e}")


# ---------------------------------------------------------------------------
# 8. Pruned search equals naive enumeration; parallel equals sequential
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_oracle_equivalence():
    mismatches = []
    for conv in CONVS:
        par = {r.q: r.vcdim for r in vc_sweep(5, 61, conv, jobs=2)}
        for q in primes_in_range(5, 61):
            T = squares_table(make_field(q), conv)
            want = naive_vc(q, T.member, conv)
            seq = vc_dimension(q, conv).vcdim
            if not (seq == par.get(q) == want):
                mismatches.append((q, conv.value, want, seq, par.get(q)))
    ok = not mismatches
    report(8, ok, f"pruned == naive == parallel for all primes q <= 61 under "
                  f"every convention; mismatches: {mismatches}")


# ---------------------------------------------------------------------------
# 9. Invariance suite and fold correctness
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_invariance_and_fold():
    rng = np.random.default_rng(1)
    bad = []
    for q in primes_in_range(5, 61):
        subsets = []
        for n in (1, 2, 3, 4):
            for _ in range(4):
                subsets.append(sorted(rng.choice(q, size=min(n, q - 1),
                                                 replace=False).tolist()))
        for conv in CONVS:
            T = squares_table(make_field(q), conv)
            for Y in subsets:
                base = is_shattered(Y, T)
                for b in range(q):  # every translation
                    if is_shattered(sorted((y + b) % q for y in Y), T) != base:
                        bad.append(("translate", q, conv.value, tuple(Y), b))
        T = squares_table(make_field(q), ZeroConvention.STRICT)
        for Y in subsets:
            base = is_shattered(Y, T)
            for a in range(1, q):  # every dilation
                if is_shattered(sorted(a * y % q for y in Y), T) != base:
                    bad.append(("dilate", q, tuple(Y), a))
    fold_bad = []
    for q in primes_in_range(5, 101):
        for conv in (ZeroConvention.ZERO_IN, ZeroConvention.ZERO_OUT):
            T = squares_table(make_field(q), conv)
            n = log2_floor(q)
            folded = fold_patterns(pattern_counts(range(n), T) > 0)
            direct = pattern_counts(range(n - 1), T) > 0
            if not np.array_equal(folded, direct):
                fold_bad.append((q, conv.value))
    ok = not bad and not fold_bad
    report(9, ok, f"translation (all conventions) and dilation (strict) "
                  f"invariance exhaustive in the transform for q <= 61; "
                  f"fold equals direct prefix for q <= 101; "
                  f"failures: {bad[:3] + fold_bad[:3]}")


# ---------------------------------------------------------------------------
# 10. Shattering theorem check over 100 <= q <= 2000
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_shattering_theorem():
    failures = []
    checked = 0
    for q in primes_in_range(100, 2000):
        rep = verify_shattering_theorem(make_field(q), 2, 0.1)
        checked += rep.checked
        if not rep.passed:
            failures.append(q)
    ok = not failures
    report(10, ok, f"{checked} canonical subsets verified shattered over "
                   f"primes 100..2000 (n* up to 4); failures: {failures}")
