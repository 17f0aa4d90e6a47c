import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import residuevc
from residuevc import montecarlo, shatter
from residuevc.errors import NotPrime
from residuevc.field import ZeroConvention, make_field, squares_table
from residuevc.montecarlo import (estimate_p, interface_primes,
                                  interface_scan, point_seed, sample_subset,
                                  scan_primes)
from residuevc.primes import primes_in_range

from oracles import oracle_shattered


def test_pairs_certain_from_seven_up():
    for q in [7, 11, 29, 53]:
        p = estimate_p(q, 2, trials=200, seed=1)
        assert p.p_hat == 1.0


def test_pairs_not_certain_at_five():
    # exactly the 5 difference-1 pairs of the 10 are shattered
    p = estimate_p(5, 2, trials=2000, seed=3)
    assert abs(p.p_hat - 0.5) < 3 * np.sqrt(0.25 / 2000)


def test_oversized_subsets_never_shatter():
    p = estimate_p(13, 5, trials=50, seed=0)  # 2^5 > 13
    assert p.hits == 0 and p.p_hat == 0.0


def test_requires_prime():
    with pytest.raises(NotPrime):
        estimate_p(15, 3)


def test_pattern_table_bound():
    from residuevc.errors import NTooLarge
    with pytest.raises(NTooLarge):
        estimate_p(101, 64, trials=1)


def test_trials_must_be_positive():
    with pytest.raises(ValueError, match="trials"):
        estimate_p(13, 3, trials=0)
    with pytest.raises(ValueError, match="trials"):
        interface_primes(8, trials=0)


def test_deterministic_given_seed():
    a = estimate_p(101, 4, trials=300, seed=42)
    b = estimate_p(101, 4, trials=300, seed=42)
    assert (a.hits, a.p_hat) == (b.hits, b.p_hat)

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [sample_subset(rng, 101, 4) for _ in range(300)]

    assert draws(42) == draws(42)
    assert draws(42) != draws(43)


def test_strict_pigeonhole_tallies_nothing(monkeypatch):
    # q = 67, n = 6: 2^6 = 64 patterns, 61 translates under STRICT but 67
    # under ZERO_IN, which must still be tallied
    tallied = []
    real = montecarlo.row_counts

    def spy(rows, T):
        tallied.append(T.convention)
        return real(rows, T)

    monkeypatch.setattr(montecarlo, "row_counts", spy)
    assert estimate_p(67, 6, trials=100, seed=3,
                      conv=ZeroConvention.STRICT).hits == 0
    assert tallied == []
    est = estimate_p(67, 6, trials=100, seed=3, conv=ZeroConvention.ZERO_IN)
    assert tallied == [ZeroConvention.ZERO_IN]
    T = squares_table(make_field(67), ZeroConvention.ZERO_IN)
    rng = np.random.default_rng(3)
    assert est.hits == sum(oracle_shattered(sample_subset(rng, 67, 6),
                                            T.member, ZeroConvention.ZERO_IN)
                           for _ in range(100))


def test_per_sample_oracle_replay():
    q, n, trials, seed = 101, 4, 300, 42
    est = estimate_p(q, n, trials=trials, seed=seed)
    T = squares_table(make_field(q), ZeroConvention.ZERO_IN)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        Y = sample_subset(rng, q, n)
        if oracle_shattered(Y, T.member, ZeroConvention.ZERO_IN):
            hits += 1
    assert hits == est.hits


def _scalar_fisher_yates(rng, q, n):
    """Partial Fisher-Yates on an explicit pool, one scalar draw per step."""
    pool = {}
    for i in range(n):
        j = int(rng.integers(i, q))
        pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
    return sorted(pool.get(i, i) for i in range(n))


@pytest.mark.parametrize("q", [5, 101, 65537, 2**31 - 1, 2**40 + 15])
def test_sampler_matches_scalar_draws(q):
    for seed in (0, 1, 42):
        for n in (1, 2, 5, 8, 63):
            if n > q:
                continue
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            for _ in range(3):
                assert sample_subset(a, q, n) == _scalar_fisher_yates(b, q, n)
            # and the generators are left in the same state
            assert a.integers(0, 2**62) == b.integers(0, 2**62)


@pytest.mark.parametrize("q", [101, 65537, 2**40 + 15])
@pytest.mark.parametrize("n", [1, 2, 8, 20, 63])
def test_fisher_yates_rows_match_scalar_rows(q, n):
    # random rows, then rows whose swaps collide: j = i throughout, every
    # j the same, and j at positions below n that a later step reads
    rng = np.random.default_rng(n)
    k = np.arange(n)
    js = np.concatenate([
        rng.integers(np.tile(k, 200), q).reshape(200, n),
        k[None],
        np.full((1, n), q - 1),
        np.maximum(k, n - 1)[None],
        np.maximum(k, rng.integers(0, n, size=(50, n)))])
    got = montecarlo._fisher_yates_rows(js)
    assert got.shape == js.shape
    assert got.tolist() == [montecarlo._fisher_yates(row)
                            for row in js.tolist()]


@pytest.mark.parametrize("chunk", [montecarlo.DRAW_CHUNK, 11],
                         ids=["16384", "11"])
@pytest.mark.parametrize("conv", list(ZeroConvention))
def test_interface_scan_is_estimate_p_at_each_point(conv, chunk, monkeypatch):
    # one batch holds many points at the default chunk, and chunk 11 (2
    # trials a batch at n = 5) splits a point over batches; the window
    # at n = 6 holds q = 67, past the STRICT pigeonhole bound (64 > 61)
    monkeypatch.setattr(montecarlo, "DRAW_CHUNK", chunk)
    for n, lo, hi, trials in [(5, 0.7, 0.85, 7), (6, 0.95, 1.0, 9)]:
        seed = 3 + n
        points = interface_scan(n, lo, hi, density=1000, trials=trials,
                                seed=seed, conv=conv)
        assert len(points) > 1
        assert points == [estimate_p(p.q, n, trials, point_seed(seed, n, p.q),
                                     conv) for p in points]
        if n == 6 and conv is ZeroConvention.STRICT:
            assert [p.hits for p in points if p.q == 67] == [0]


@pytest.mark.parametrize("module, cap, value", [
    (montecarlo, "DRAW_CHUNK", montecarlo.DRAW_CHUNK),
    (montecarlo, "DRAW_CHUNK", 11),
    (shatter, "MAX_CELLS", 1000)], ids=["16384", "11", "cells-1000"])
def test_estimate_replays_scalar_sampler(module, cap, value, monkeypatch):
    # the batched draws of estimate_p give the subsets sample_subset gives
    # trial after trial, also across draw calls (chunk 11: 2 or 1 trials
    # a call, the last call short) and across tallies (1000 cells: 27 or
    # 3 rows a tally), and no tally holds more than the cells allowed
    monkeypatch.setattr(module, cap, value)
    shapes = []
    real = shatter._tally

    def spy(sig, rows, T):
        shapes.append(sig.shape)
        return real(sig, rows, T)

    monkeypatch.setattr(shatter, "_tally", spy)
    for q, n, seed in [(37, 4, 1), (263, 6, 8)]:
        for conv in ZeroConvention:
            T = squares_table(make_field(q), conv)
            rng = np.random.default_rng(seed)
            hits = sum(oracle_shattered(sample_subset(rng, q, n), T.member,
                                        conv) for _ in range(149))
            assert estimate_p(q, n, trials=149, seed=seed, conv=conv).hits == hits
    assert all(m * q <= max(q, shatter.MAX_CELLS) for m, q in shapes)
    if cap == "MAX_CELLS":
        assert len(shapes) == 3 * (6 + 50)  # ceil(149/27) + ceil(149/3)


# hits of estimate_p(q, n, trials=200, seed) under zero-in, zero-out and
# strict, as computed by the one-draw-per-call sampler
PINNED_HITS = {(13, 3, 6): (120, 119, 105), (37, 4, 1): (129, 148, 101),
               (61, 5, 2): (10, 12, 4), (101, 5, 4): (136, 132, 125),
               (1009, 8, 5): (5, 5, 5)}


@pytest.mark.parametrize("q, n, seed", sorted(PINNED_HITS))
def test_estimate_hits_pinned(q, n, seed):
    convs = (ZeroConvention.ZERO_IN, ZeroConvention.ZERO_OUT,
             ZeroConvention.STRICT)
    got = tuple(estimate_p(q, n, trials=200, seed=seed, conv=c).hits
                for c in convs)
    assert got == PINNED_HITS[q, n, seed]


def test_sampler_is_uniform_over_subsets():
    # every 2-subset of a 5-element pool equally likely
    rng = np.random.default_rng(7)
    counts = {}
    trials = 30000
    for _ in range(trials):
        key = tuple(sample_subset(rng, 5, 2))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(itertools.combinations(range(5), 2))
    expect = trials / 10
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < 27.88  # chi-square 0.999 quantile, 9 degrees of freedom


def test_inclusion_frequencies_uniform():
    q, n, trials = 11, 3, 4000
    rng = np.random.default_rng(11)
    incl = np.zeros(q)
    for _ in range(trials):
        for y in sample_subset(rng, q, n):
            incl[y] += 1
    p = n / q
    raw = float(((incl - trials * p) ** 2 / (trials * p)).sum())
    # fixed-size draws correlate inclusions; rescale to a chi-square(q-1)
    corrected = raw * (q - 1) / (q * (1 - p))
    assert corrected < 29.59  # chi-square 0.999 quantile, 10 degrees of freedom


def test_matches_exhaustive_fraction():
    for q, n in [(29, 3), (61, 3)]:
        T = squares_table(make_field(q), ZeroConvention.ZERO_IN)
        total = shattered = 0
        for Y in itertools.combinations(range(q), n):
            total += 1
            if oracle_shattered(list(Y), T.member, ZeroConvention.ZERO_IN):
                shattered += 1
        exact = shattered / total
        trials = 600
        est = estimate_p(q, n, trials=trials, seed=5)
        margin = 3 * np.sqrt(max(exact * (1 - exact), 1e-9) / trials)
        assert abs(est.p_hat - exact) <= max(margin, 1e-12)


def test_scan_prime_window_n5():
    qs = scan_primes(5, 0.7, 0.85)
    assert qs[0] >= 59 and qs[-1] <= 142
    assert all(0.7 <= 5 / np.log2(q) <= 0.85 for q in qs)


def test_scan_prime_window_n12_upper_end():
    hi = 2 ** (12 / 0.7)
    assert 144000 < hi < 145000  # the window's top end at n = 12


def test_interface_scan_empty_density():
    assert interface_scan(5, density=0, seed=1) == []


def test_interface_scan_deterministic():
    a = interface_scan(5, density=8, trials=40, seed=9)
    b = interface_scan(5, density=8, trials=40, seed=9)
    assert [(p.q, p.hits, p.seed) for p in a] == [(p.q, p.hits, p.seed) for p in b]
    assert all(0.7 <= p.ratio <= 0.85 for p in a)


def test_interface_scan_density_controls_count():
    pts = interface_scan(6, density=10, trials=5, seed=2)
    assert 0 < len(pts) <= len(scan_primes(6, 0.7, 0.85))


def test_point_seed_distinct_per_point():
    seeds = {point_seed(42, n, q) for n in (5, 6) for q in (61, 67, 71)}
    assert len(seeds) == 6


def test_primes_in_range_basics():
    assert primes_in_range(14, 16) == []
    assert primes_in_range(5, 11) == [5, 7, 11]


def test_primes_in_range_refuses_before_allocating():
    # In a child capped at 1 GiB of address space, so that a sieve of
    # 2^31 bytes fails with MemoryError instead of taking the memory.
    child = textwrap.dedent("""
        import resource, sys
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
        from residuevc.primes import primes_in_range
        try:
            primes_in_range(5, 1 << 31)
        except ValueError:
            sys.exit(3)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(residuevc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
