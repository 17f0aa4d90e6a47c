import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import residuevc
from residuevc.errors import EvenPrime, FieldTooLarge, IndexNotDividing, NotPrime
from residuevc.field import (ZERO_EXP, ZeroConvention, character_table,
                             coset_representatives, make_field, residue_table,
                             squares_table)
from residuevc.montecarlo import estimate_p
from residuevc.primes import is_prime, primes_in_range
from residuevc.search import longest_shattered_ap

from oracles import legendre, member_vector, powers_mod

SMALL_PRIMES = primes_in_range(3, 101)


# ---------------------------------------------------------------------------
# make_field
# ---------------------------------------------------------------------------

def test_primitive_root_q7():
    F = make_field(7)
    assert F.g in (3, 5)  # the primitive roots mod 7
    assert sorted(pow(F.g, k, 7) for k in range(6)) == [1, 2, 3, 4, 5, 6]


def test_primitive_root_q3():
    assert make_field(3).g == 2


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(NotPrime):
        make_field(1)


def test_q2_rejected():
    with pytest.raises(EvenPrime):
        make_field(2)


def _dlog_matches_powers(F, exponents):
    expected = np.array([pow(F.g, int(a), F.q) for a in exponents])
    return (np.array_equal(F.dlog[expected], exponents)
            and np.array_equal(F.powers[exponents], expected))


def test_dlog_table_inverts_powers():
    for q in primes_in_range(3, 1999):
        F = make_field(q)
        assert F.dlog.dtype == np.int64 and F.dlog.shape == (q,)
        assert F.dlog[0] == -1
        assert _dlog_matches_powers(F, np.arange(q - 1))


@pytest.mark.parametrize("q", [65537, 1_000_003])
def test_dlog_table_sampled_exponents(q):
    F = make_field(q)
    rng = np.random.default_rng(q)
    exponents = np.concatenate([np.arange(8), q - 2 - np.arange(8),
                                rng.integers(0, q - 1, 2000)])
    assert _dlog_matches_powers(F, exponents)
    assert F.dlog[0] == -1
    assert np.array_equal(np.sort(F.dlog[1:]), np.arange(q - 1))


def test_field_too_large_refused_before_allocating():
    q = 2_147_483_659  # the least prime above 2^31
    assert is_prime(q)
    tracemalloc.start()
    try:
        with pytest.raises(FieldTooLarge):
            make_field(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(FieldTooLarge):
        make_field(1 << 31)


def test_primes_in_range_sieves_only_its_window():
    def by_test(lo, hi):
        return [n for n in range(max(lo, 0), hi + 1) if is_prime(n)]

    for lo in range(-2, 30):
        for hi in range(-2, 60):
            assert primes_in_range(lo, hi) == by_test(lo, hi), (lo, hi)
    for lo, hi in [(5, 20000), (680, 2753), (9973, 10009),
                   ((1 << 31) - 200, (1 << 31) - 1)]:
        assert primes_in_range(lo, hi) == by_test(lo, hi), (lo, hi)
    lo, hi = 1 << 26, (1 << 26) + 200
    tracemalloc.start()
    try:
        primes = primes_in_range(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a sieve from 0 would take 64 MiB
    assert primes == by_test(lo, hi) and len(primes) == 10


def test_pinned_root_must_be_primitive():
    with pytest.raises(ValueError):
        make_field(7, root=2)  # 2 has order 3 mod 7
    assert make_field(7, root=5).g == 5


def _order(a, q):
    k, x = 1, a
    while x != 1:
        k, x = k + 1, x * a % q
    return k


def test_primitive_root_found_on_first_read():
    # make_field checks q and a pinned root only; g is the least element
    # of order q - 1, found when it is first read
    for q in primes_in_range(5, 2000):
        F = make_field(q)
        assert "g" not in vars(F)
        least = next(a for a in range(2, q) if _order(a, q) == q - 1)
        assert F.g == least and vars(F)["g"] == least
        pinned = pow(least, -1, q)  # a primitive root's inverse is one
        assert make_field(q, root=pinned).g == pinned
        for bad in (0, 1, least * least % q, q - 1, q):
            with pytest.raises(ValueError):
                make_field(q, root=bad)


def test_tables_immutable():
    F = make_field(11)
    with pytest.raises(ValueError):
        F.dlog[0] = 5
    with pytest.raises(ValueError):
        F.powers[0] = 5
    T = residue_table(F, 2, 1, ZeroConvention.ZERO_OUT)
    with pytest.raises(ValueError):
        T.member[0] = 1


# ---------------------------------------------------------------------------
# residue_table
# ---------------------------------------------------------------------------

def test_squares_q7():
    T = residue_table(make_field(7), 2, 1, ZeroConvention.ZERO_OUT)
    assert set(np.nonzero(T.member)[0]) == {1, 2, 4}


def test_nonresidue_coset_q7():
    T = residue_table(make_field(7), 2, 3, ZeroConvention.ZERO_OUT)
    assert set(np.nonzero(T.member)[0]) == {3, 5, 6}


def test_squares_q5_zero_in():
    T = residue_table(make_field(5), 2, 1, ZeroConvention.ZERO_IN)
    assert set(np.nonzero(T.member)[0]) == {0, 1, 4}


def test_index_must_divide():
    with pytest.raises(IndexNotDividing):
        residue_table(make_field(7), 4, 1, ZeroConvention.ZERO_OUT)


def test_coset_representative_must_be_nonzero():
    with pytest.raises(ValueError):
        residue_table(make_field(7), 2, t=7)


def test_zero_convention_parse():
    for conv in ZeroConvention:
        assert ZeroConvention.parse(conv.value) is conv
    with pytest.raises(ValueError, match="unknown zero convention"):
        ZeroConvention.parse("zero")


def test_member_counts_and_zero_flag():
    for q in SMALL_PRIMES:
        F = make_field(q)
        for r in (2, 3, 4, 5):
            if (q - 1) % r:
                continue
            for conv in ZeroConvention:
                T = residue_table(F, r, 1, conv)
                assert int(T.member[1:].sum()) == (q - 1) // r
                assert T.member[0] == (1 if conv is ZeroConvention.ZERO_IN else 0)


def test_tables_match_enumeration_oracle():
    for q in primes_in_range(5, 400):
        F = make_field(q)
        for r in [r for r in range(2, q) if (q - 1) % r == 0]:
            for t in coset_representatives(F, r) + [q - 1]:
                for conv in ZeroConvention:
                    T = residue_table(F, r, t, conv)
                    assert np.array_equal(T.member.astype(np.int64),
                                          member_vector(q, r, t, conv)), (q, r, t)


@pytest.mark.parametrize("r", [2, 3])
def test_tables_match_python_ints_past_2_to_32(r):
    # at q = 1000003 the products x * x, x^2 * x and x^r * t pass 2^32
    q = 1_000_003
    F = make_field(q)
    t = next(a for a in range(2, q) if pow(a, (q - 1) // r, q) != 1)
    for coset in (1, t):
        T = residue_table(F, r, coset, ZeroConvention.ZERO_OUT)
        want = member_vector(q, r, coset, ZeroConvention.ZERO_OUT)
        assert np.array_equal(T.member, want), coset


def test_residue_tables_build_no_log_tables(monkeypatch):
    # neither the progressions nor the interface scans read the primitive
    # root or a log table; this test's own fields read g for a coset
    from residuevc import montecarlo, search
    own, built = [], []

    def recording(q):
        built.append(make_field(q))
        return built[-1]

    monkeypatch.setattr(search, "make_field", recording)
    monkeypatch.setattr(montecarlo, "make_field", recording)
    for q in (101, 1009):
        for conv in ZeroConvention:
            F = make_field(q)
            squares_table(F, conv)
            residue_table(F, 2, F.g, conv)
            own.append(F)
            longest_shattered_ap(q, conv)
            estimate_p(q, 6, trials=20, seed=1, conv=conv)
    assert len(own) == 6 and len(built) == 12
    for F in own + built:
        assert "dlog" not in vars(F) and "powers" not in vars(F)
    assert all("g" in vars(F) for F in own)
    assert not any("g" in vars(F) for F in built)


def test_log_tables_read_after_residue_tables():
    for q in (5, 101, 1009, 65537):
        F = make_field(q)
        T = squares_table(F, ZeroConvention.STRICT)
        assert "dlog" not in vars(F)
        assert F.dlog.dtype == np.int64 and F.dlog.shape == (q,)
        assert F.dlog[0] == -1
        assert F.dlog is F.dlog and F.powers is F.powers
        assert _dlog_matches_powers(F, np.arange(q - 1))
        assert np.array_equal(np.sort(F.dlog[1:]), np.arange(q - 1))
        assert np.array_equal(T.member[1:], F.dlog[1:] % 2 == 0)
        with pytest.raises(ValueError):
            F.dlog[1] = 0
        with pytest.raises(ValueError):
            F.powers[1] = 0


def test_cosets_partition_units():
    for q in [13, 29, 97]:
        F = make_field(q)
        for r in (2, 4):
            if (q - 1) % r:
                continue
            union = np.zeros(q, dtype=np.int64)
            for t in coset_representatives(F, r):
                union += residue_table(F, r, t, ZeroConvention.ZERO_OUT).member
            assert union[0] == 0
            assert (union[1:] == 1).all()


# ---------------------------------------------------------------------------
# character_table
# ---------------------------------------------------------------------------

def test_quadratic_character_is_legendre():
    for q in SMALL_PRIMES:
        C = character_table(make_field(q), 2)
        vals = C.values()
        for x in range(q):
            assert vals[x] == pytest.approx(legendre(x, q))


def test_character_zero_marker():
    C = character_table(make_field(7), 2)
    assert C.exp_of[0] == ZERO_EXP
    assert C.values()[0] == 0


def test_trivial_power_is_all_ones():
    C = character_table(make_field(13), 3)
    assert (C.values(0) == 1).all()
    assert np.array_equal(C.values(3), C.values(0))


def test_cubic_character_constant_on_cosets_q13():
    C = character_table(make_field(13), 3)
    cubes = powers_mod(13, 3)
    exps = {}
    for x in range(1, 13):
        coset = min((x * c) % 13 for c in cubes)
        exps.setdefault(coset, set()).add(int(C.exp_of[x]))
    assert all(len(s) == 1 for s in exps.values())
    counts = np.bincount(C.exp_of[1:], minlength=3)
    assert list(counts) == [4, 4, 4]


def test_exponent_multiplicativity_exhaustive():
    for q in SMALL_PRIMES:
        F = make_field(q)
        for r in [r for r in (2, 3, 4, 5, 7) if (q - 1) % r == 0]:
            C = character_table(F, r)
            xs = np.arange(1, q, dtype=np.int64)
            prod = (xs[:, None] * xs[None, :]) % q
            lhs = C.exp_of[prod]
            rhs = (C.exp_of[xs][:, None] + C.exp_of[xs][None, :]) % r
            assert (lhs == rhs).all()


def test_character_has_exact_order():
    for q, r in [(13, 3), (13, 4), (29, 7), (31, 5)]:
        C = character_table(make_field(q), r)
        exps = C.exp_of[1:]
        for k in range(1, r):
            assert (exps * k % r != 0).any()
        assert (exps * r % r == 0).all()


def test_orthogonality_all_pairs():
    """(1/r)(1 + sum_k chi^k(x) conj(chi^k(t))) is the coset indicator."""
    for q in SMALL_PRIMES:
        F = make_field(q)
        for r in [r for r in (2, 3, 4, 6) if (q - 1) % r == 0]:
            C = character_table(F, r)
            acc = np.ones((q - 1, q - 1), dtype=complex)
            for k in range(1, r):
                v = C.values(k)[1:]
                acc += v[:, None] * np.conj(v)[None, :]
            acc /= r
            same_coset = (C.exp_of[1:, None] == C.exp_of[None, 1:])
            assert np.abs(acc - same_coset).max() < 1e-9


def test_character_invariant_under_root_choice():
    # Different primitive roots induce possibly different generators of
    # the dual group, but the coset partition they define is identical.
    q = 13
    roots = [g for g in range(2, q) if all(
        pow(g, (q - 1) // p, q) != 1 for p in (2, 3))]
    assert len(roots) > 1
    partitions = []
    for g in roots:
        C = character_table(make_field(q, root=g), 3)
        partitions.append(frozenset(
            frozenset(int(x) for x in np.nonzero(C.exp_of == e)[0])
            for e in range(3)))
    assert len(set(partitions)) == 1


def test_miller_rabin_agrees_with_trial_division():
    def slow(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in [*range(1000), 65_521, 65_536, 65_537, -7]:
        assert is_prime(n) == slow(n), n
    for n in [2**31 - 1, 10**12 + 39, 10**12 + 61]:
        assert is_prime(n)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_prime_table_is_built_on_first_call_not_at_import():
    child = ("import residuevc\n"
             "from residuevc import primes\n"
             "built = primes._prime_table.cache_info\n"
             "assert built().currsize == 0\n"
             "assert primes.is_prime(65_537) and built().currsize == 0\n"
             "assert primes.is_prime(65_521) and built().currsize == 1\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(residuevc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], env=env, timeout=60)
    assert proc.returncode == 0


def test_miller_rabin_agrees_with_a_sieve():
    # below 2^16 is_prime reads its own table, which this independent
    # sieve checks; from 2^16 to 3,215,031,751 only the witnesses 2, 3, 5
    # and 7 are tried
    limit = 10**6
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p :: p] = False
    assert [n for n in range(limit) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert not is_prime(25_326_001)  # 2251 * 11251, strong psp to 2, 3, 5
