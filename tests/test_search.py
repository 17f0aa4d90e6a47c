import itertools
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import residuevc
from residuevc import search
from residuevc.errors import NotPrime, TooSmall
from residuevc.field import ZeroConvention, log2_floor, make_field, squares_table
from residuevc.primes import primes_in_range
from residuevc.search import longest_shattered_ap, vc_dimension, vc_sweep
from residuevc.shatter import (ChildTally, is_shattered, pattern_counts,
                               shatter_report, signatures)

from oracles import (bitset_vc, legendre, member_vector, naive_all_shattered,
                     naive_vc, oracle_counts, oracle_shattered)

CONVS = list(ZeroConvention)


def member(q, conv):
    return squares_table(make_field(q), conv).member


# ---------------------------------------------------------------------------
# vc_dimension
# ---------------------------------------------------------------------------

def test_q5_zero_in():
    r = vc_dimension(5, ZeroConvention.ZERO_IN)
    assert r.vcdim == 2
    assert r.witness == (0, 1)
    assert r.exact


def test_q7_matches_plain_brute_force():
    for conv in CONVS:
        r = vc_dimension(7, conv)
        assert r.vcdim == naive_vc(7, member(7, conv), conv)


def test_rejects_bad_modulus():
    with pytest.raises(NotPrime):
        vc_dimension(15)
    with pytest.raises(TooSmall):
        vc_dimension(3)


def test_upper_bound_and_witness():
    for q in [11, 31, 61]:
        for conv in CONVS:
            r = vc_dimension(q, conv)
            assert r.vcdim <= log2_floor(q)
            assert len(r.witness) == r.vcdim
            T = squares_table(make_field(q), conv)
            assert r.vcdim == 0 or is_shattered(list(r.witness), T)
            assert r.alpha_q == pytest.approx(r.vcdim / np.log2(q))


def test_matches_naive_small_primes():
    for q in primes_in_range(5, 31):
        for conv in CONVS:
            got = vc_dimension(q, conv).vcdim
            assert got == naive_vc(q, member(q, conv), conv), (q, conv)


def test_zero_out_q5_needs_walk_b():
    # {0, 2} is shattered under zero-out and {0, 1} is not: only walk B,
    # over the zero-in table, finds {0, 1} there and maps it by g = 2
    r = vc_dimension(5, ZeroConvention.ZERO_OUT)
    assert (r.vcdim, r.witness, r.exact) == (2, (0, 2), True)


def test_zero_in_equals_zero_out():
    # a non-square dilation maps zero-in-shattered sets onto
    # zero-out-shattered ones and back
    for q in primes_in_range(5, 139):
        zin = vc_dimension(q, ZeroConvention.ZERO_IN)
        zout = vc_dimension(q, ZeroConvention.ZERO_OUT)
        assert zin.vcdim == zout.vcdim, q
        assert oracle_shattered(zout.witness, member(q, ZeroConvention.ZERO_OUT),
                                ZeroConvention.ZERO_OUT), q


@pytest.mark.slow
@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_matches_bitset_oracle_to_127(conv):
    # a second exact path: translations only, from {0}, on Python ints
    for q in primes_in_range(5, 127):
        r = vc_dimension(q, conv)
        assert r.exact, q
        assert r.vcdim == bitset_vc(q, member_vector(q, 2, 1, conv), conv), q


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_matches_bitset_oracle_past_127(conv):
    # the primes in 131-199 where the oracle takes under a second; 151
    # and 191 reach 7, where a sibling cut one child too short shows
    for q in (131, 137, 139, 149, 151, 191):
        r = vc_dimension(q, conv)
        assert r.exact, q
        assert r.vcdim == bitset_vc(q, member_vector(q, 2, 1, conv), conv), q


def test_strict_q5_is_one():
    r = vc_dimension(5, ZeroConvention.STRICT)
    assert r.vcdim == 1


def test_witness_recheck_failure_raises(monkeypatch):
    # the walks' root checks read (0, 1) as they are; every larger
    # witness reads unshattered on its re-check, which must raise out of
    # vc_dimension and, with no on_error, out of the sweep
    report = search.shatter_report
    monkeypatch.setattr(search, "shatter_report",
                        lambda Y, T: -1 if len(Y) > 2 else report(Y, T))
    with pytest.raises(RuntimeError, match="is not shattered"):
        vc_dimension(41)
    got = []
    with pytest.raises(RuntimeError, match="q=11"):
        for r in vc_sweep(5, 41):
            got.append(r.q)
    assert got == [5, 7]


def test_walks_own_their_roots():
    # {0} is shattered at every prime q >= 5 under every convention, so
    # the search needs no size-0 answer and takes size 1 as its floor
    for q in primes_in_range(5, 2000):
        F = make_field(q)
        for conv in CONVS:
            assert shatter_report((0,), squares_table(F, conv)) >= 0, (q, conv)
    # size 2 is the root of a rooted walk; an unrooted walk finds nothing
    # and decides no node at any size
    for q, conv in itertools.product(primes_in_range(5, 200), CONVS):
        for walk in search._walks(make_field(q), conv):
            T = walk.tally.T
            vec = member_vector(q, 2, 1, T.convention)
            if oracle_shattered((0, 1), vec, T.convention):
                assert walk.find(2) == walk.witness((0, 1)), (q, conv)
                continue
            for size in range(2, log2_floor(q) + 1):
                assert walk.find(size) is None, (q, conv, size)
            assert (sum(walk.nodes_by_depth), walk.cells,
                    walk.pair_cells) == (0, 0, 0), (q, conv)


def test_early_exit_finds_near_max_at_257():
    r = vc_dimension(257, ZeroConvention.ZERO_IN, early_exit=True)
    assert len(r.witness) >= 7


def test_early_exit_flags_lower_bound():
    # early exit looks for sizes from c = max(floor(log2 q) - 1, 2) down:
    # it returns min(vcdim, c), exact exactly when that is below c
    for q, conv in itertools.product(primes_in_range(5, 127), CONVS):
        c = max(log2_floor(q) - 1, 2)
        full = vc_dimension(q, conv)
        r = vc_dimension(q, conv, early_exit=True)
        assert full.exact, (q, conv)
        assert (r.vcdim, r.exact) == (min(full.vcdim, c), full.vcdim < c), \
            (q, conv)
        assert len(r.witness) == r.vcdim, (q, conv)
        assert oracle_shattered(r.witness, member(q, conv), conv), (q, conv)


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_find_matches_oracle_at_every_size(conv):
    # one fixed-size question per walk, at every size and not only at
    # the maximum: some walk from {0, 1} finds a set of exactly that
    # size when the independent oracle says one is shattered
    for q in primes_in_range(5, 89):
        F = make_field(q)
        vec = member_vector(q, 2, 1, conv)
        vc = bitset_vc(q, vec, conv)
        walks = [walk for walk in search._walks(F, conv)
                 if is_shattered([0, 1], walk.tally.T)]
        for size in range(3, log2_floor(q) + 1):
            found = [w for w in (walk.find(size) for walk in walks)
                     if w is not None]
            assert bool(found) == (size <= vc), (q, size)
            for w in found:
                assert len(set(w)) == len(w) == size, (q, size, w)
                assert oracle_shattered(w, vec, conv), (q, size, w)


# ---------------------------------------------------------------------------
# prune soundness
# ---------------------------------------------------------------------------

def test_shattering_index_bounds_supersets():
    rng = np.random.default_rng(31)
    for q in [61, 101]:
        T = squares_table(make_field(q), ZeroConvention.ZERO_IN)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            Y = sorted(rng.choice(q, size=n, replace=False).tolist())
            k = shatter_report(Y, T)
            if k < 0:
                continue
            pool = [v for v in range(q) if v not in Y]
            for _ in range(10):
                extra = rng.choice(len(pool), size=min(k + 1, len(pool)),
                                   replace=False)
                sup = sorted(Y + [pool[i] for i in extra])
                if len(sup) == n + k + 1:
                    assert not is_shattered(sup, T)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(q=st.sampled_from([29, 61, 101]), conv=st.sampled_from(CONVS),
       data=st.data())
def test_inherited_candidate_prune_is_sound(q, conv, data):
    # For Y in a shattered Z, every Y + {z} with z in Z - Y keeps a
    # minimum count of at least 2^(|Z| - |Y| - 1): looking for size s,
    # the walk drops only children below 2^(s - |Y| - 1), none of which
    # lies under a shattered s-set.
    vec = member(q, conv)
    Z = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=5,
                           unique=True), label="Z")
    if not oracle_shattered(Z, vec, conv):
        return
    Y = data.draw(st.lists(st.sampled_from(Z), max_size=len(Z) - 1,
                           unique=True), label="Y")
    for z in set(Z) - set(Y):
        low = oracle_counts(Y + [z], vec, conv).min()
        assert low >= 1 << (len(Z) - len(Y) - 1), (Y, z, Z)


def test_child_tally_children_match_oracle_two_levels():
    # A child's signature, built as the walk builds it from m's window
    # row, carries the STRICT sentinel at the translate m drops; the
    # grandchild block built on it must still count exactly.
    rng = np.random.default_rng(7)
    for q in [31, 61]:
        for conv in CONVS:
            T = squares_table(make_field(q), conv)
            tally = ChildTally(T)
            Y = [0, 1]
            sig = signatures(Y, T)
            ms = np.arange(2, q, dtype=np.int64)
            [counts] = tally.children(Y, sig, ms)
            for m, row in zip(ms.tolist(), counts):
                assert np.array_equal(row,
                                      oracle_counts(Y + [m], T.member, conv))
            for i in rng.choice(len(ms) - 1, size=5, replace=False).tolist():
                m = int(ms[i])
                child, later = Y + [m], ms[i + 1:]
                csig = ChildTally.shift(tally.window[q - m].copy(),
                                        len(Y)) + sig
                [gcounts] = tally.children(child, csig, later)
                for m, row in zip(later.tolist(), gcounts):
                    want = oracle_counts(child + [m], T.member, conv)
                    assert np.array_equal(row, want), (q, conv, child, m)


def _pair_images(Z, q, all_pairs):
    """Sorted images of Z, which holds 0 and 1, under x -> (x - a)/(z - a)
    for its ordered pairs (a, z) with z - a a square (any pair when
    ``all_pairs``), by direct modular arithmetic."""
    return {tuple(sorted((x - a) * pow(z - a, -1, q) % q for x in Z))
            for a, z in itertools.permutations(Z, 2)
            if all_pairs or legendre(z - a, q) == 1}


@pytest.mark.parametrize("q", [13, 17, 19, 29])
@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_orderly_walk_lemma(q, conv):
    # Over every k-set holding {0, 1}, k <= 5 (walk B: only those with
    # square differences), the walk's canonical test keeps exactly the
    # least member of each orbit, and a canonical set minus its largest
    # element is canonical, so the walk reaches every canonical set.
    F = make_field(q)
    strict = conv is ZeroConvention.STRICT
    for square_only in [False] + [True] * (q % 4 == 1 and not strict):
        canon = {(0, 1): True}
        for k in range(3, 6):
            for Y in [Z for Z in canon if len(Z) == k - 1]:
                ms = [m for m in range(Y[-1] + 1, q) if not square_only
                      or all(legendre(m - y, q) == 1 for y in Y)]
                got = search.canonical(F, list(Y),
                                       np.array(ms, dtype=np.int64), strict)
                canon.update({Y + (m,): bool(c) for m, c in zip(ms, got)})
        orbits = {}
        for Z in canon:
            images = _pair_images(Z, q, strict or square_only)
            assert canon[Z] == (Z == min(images)), Z
            orbits.setdefault(frozenset(images), []).append(Z)
            if canon[Z] and len(Z) > 2:
                assert canon[Z[:-1]], Z
        for members in orbits.values():
            assert sum(canon[Z] for Z in members) == 1, members


def test_generation_bound_is_exact():
    # the largest descendant of Y adds every element above max(Y)
    q = 31
    Y = [0, 1, 5]
    assert len(Y) + q - 1 - max(Y) == len(Y + list(range(6, q)))


# ---------------------------------------------------------------------------
# testing_dimension
# ---------------------------------------------------------------------------

def test_testing_dimension_pairs_zero_in():
    # q = 5 is the one small prime where a pair ({0,2}, a non-residue
    # dilation of {0,1}) fails, so m_5 = 1; from q = 7 on every pair works.
    assert search.testing_dimension(5, ZeroConvention.ZERO_IN, cap=2) == 1
    for q in primes_in_range(7, 61):
        assert search.testing_dimension(q, ZeroConvention.ZERO_IN, cap=2) == 2


def test_testing_dimension_q5():
    # no 3-subset fits anyway: 8 patterns but only 5 translates
    assert search.testing_dimension(5, ZeroConvention.ZERO_IN, cap=5) == 1
    assert search.testing_dimension(7, ZeroConvention.ZERO_IN, cap=5) == 2


def test_testing_dimension_matches_uncanonicalized_oracle():
    # 31 = 3 (mod 4) has no walk B; 29 and 101 = 1 (mod 4) need the dual.
    # The small primes take a cap past the pigeonhole bound: the rooted
    # tallies must reach the first failing level n without refusing its
    # bins (NTooLarge) and answer n - 1
    cases = ([(q, 3) for q in [29, 31, 101]]
             + [(q, log2_floor(q) + 2) for q in [5, 7, 11, 13, 17]])
    for (q, cap), conv in itertools.product(cases, CONVS):
        got = search.testing_dimension(q, conv, cap=cap)
        vec = member(q, conv)
        n = next((n for n in range(1, cap + 1)
                  if not naive_all_shattered(q, n, vec, conv)), cap + 1)
        assert got == n - 1, (q, conv)
        assert cap == 3 or n <= log2_floor(q) + 1, (q, conv)


def test_testing_dimension_respects_cap():
    assert search.testing_dimension(101, ZeroConvention.ZERO_IN, cap=2) == 2
    with pytest.raises(ValueError):
        search.testing_dimension(101, ZeroConvention.ZERO_IN, cap=-1)


def test_testing_dimension_requires_prime():
    with pytest.raises(NotPrime):
        search.testing_dimension(21, ZeroConvention.ZERO_IN, cap=2)
    with pytest.raises(NotPrime):
        longest_shattered_ap(21)


# ---------------------------------------------------------------------------
# longest_shattered_ap
# ---------------------------------------------------------------------------

def test_ap_q5():
    r = longest_shattered_ap(5, ZeroConvention.ZERO_IN)
    assert r.longest == 2
    assert r.ratio == pytest.approx(2 / np.log2(5))


def test_ap_fold_agrees_with_direct_checks():
    # 181, 191 and 349 (STRICT) are the primes below 2000 whose answer
    # the fold's STRICT mark changes
    cases = [(q, conv) for q in primes_in_range(5, 101) for conv in CONVS]
    for q, conv in cases + [(q, ZeroConvention.STRICT)
                            for q in (181, 191, 349)]:
        T = squares_table(make_field(q), conv)
        n = longest_shattered_ap(q, conv).longest
        assert 1 <= n <= log2_floor(q)
        assert is_shattered(list(range(n)), T)
        if n + 1 <= log2_floor(q):
            assert not is_shattered(list(range(n + 1)), T)


def test_ap_equals_brute_prefix_scan():
    for q in primes_in_range(5, 2000):
        for conv in CONVS if q <= 61 else [ZeroConvention.STRICT]:
            vec = member(q, conv)
            T = squares_table(make_field(q), conv)
            best = 0
            for n in range(1, log2_floor(q) + 1):
                if is_shattered(list(range(n)), T):
                    best = n
            # prefixes are monotone, so the scan and the fold agree
            assert longest_shattered_ap(q, conv).longest == best


# ---------------------------------------------------------------------------
# vc_sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_range():
    assert list(vc_sweep(14, 16)) == []


def test_sweep_order():
    res = list(vc_sweep(5, 31, ZeroConvention.ZERO_IN))
    assert [r.q for r in res] == primes_in_range(5, 31)


def test_sweep_maps_list_order_and_reports_errors():
    def solve(q):
        if q == 9:
            raise ValueError("not prime")
        return q * q

    seen = []
    res = list(search.sweep(solve, [13, 5, 9, 7],
                            on_error=lambda q, e: seen.append((q, str(e)))))
    assert res == [169, 25, 49]
    assert seen == [(9, "not prime")]


def test_sweep_records_errors():
    seen = []
    res = list(vc_sweep(2, 7, on_error=lambda q, e: seen.append(q)))
    assert [r.q for r in res] == [5, 7]
    assert seen == [2, 3]
    # without on_error the first failed prime raises
    with pytest.raises(TooSmall):
        list(vc_sweep(2, 7))


def test_sweep_parallel_matches_serial():
    serial = [(r.q, r.vcdim) for r in vc_sweep(5, 61)]
    parallel = [(r.q, r.vcdim) for r in vc_sweep(5, 61, jobs=3)]
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and each
    ``shutdown``, and runs each task at submit, so no process starts."""

    sizes = []
    shutdowns = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - raised by result()
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("jobs, cpus, want", [
    (5000, 64, [4]),  # no more workers than primes
    (5000, 3, [3]),   # nor than usable CPUs
    (2, 64, [2]),
    (1, 64, []),      # serial: no pool at all
    (5000, 1, []),
])
def test_sweep_bounds_pool_size(monkeypatch, jobs, cpus, want):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    got = [(r.q, r.vcdim) for r in vc_sweep(5, 13, jobs=jobs)]
    assert got == [(5, 2), (7, 2), (11, 3), (13, 3)]
    assert RecordingPool.sizes == want
    # one prime runs serially whatever jobs is
    assert [r.q for r in vc_sweep(13, 13, jobs=jobs)] == [13]
    assert RecordingPool.sizes == want


def test_interrupted_sweep_cancels_queued_primes(monkeypatch):
    # a KeyboardInterrupt in one prime's result must not wait for the
    # primes still queued: the pool is shut down once, cancelling them
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "shutdowns", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

    def solve(q):
        if q == 7:
            raise KeyboardInterrupt
        return q

    got = []
    with pytest.raises(KeyboardInterrupt):
        for r in search.sweep(solve, [5, 7, 11, 13], jobs=2):
            got.append(r)
    assert got == [5]
    assert RecordingPool.sizes == [2]
    assert RecordingPool.shutdowns == [(True, True)]
    # a consumer that stops early closes the sweep the same way
    sweep = search.sweep(abs, [5, 11, 13], jobs=2)
    assert next(sweep) == 5
    sweep.close()
    assert RecordingPool.shutdowns == [(True, True)] * 2


class CountingPool(ThreadPoolExecutor):
    """Stands in for ProcessPoolExecutor with threads: counts the tasks
    submitted and not yet finished, the most there ever were, and each
    ``shutdown``."""

    most = 0
    shutdowns = 0

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.lock = threading.Lock()
        self.unfinished = 0

    def submit(self, fn, *args):
        with self.lock:
            self.unfinished += 1
            CountingPool.most = max(CountingPool.most, self.unfinished)

        def run():
            try:
                return fn(*args)
            finally:
                with self.lock:
                    self.unfinished -= 1
        return super().submit(run)

    def shutdown(self, *args, **kwargs):
        CountingPool.shutdowns += 1
        super().shutdown(*args, **kwargs)


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_keeps_at_most_workers_primes_in_flight(monkeypatch, workers):
    # the pool's call queue takes every submitted task, where shutdown
    # cannot cancel it: the sweep submits the next prime only when one
    # finishes, and still yields in order, the slow first prime included
    monkeypatch.setattr(CountingPool, "most", 0)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
    qs = [5, 7, 11, 13, 17, 19, 23, 29]

    def solve(q):
        time.sleep(0.05 if q == 5 else 0.005)
        return q

    assert list(search.sweep(solve, qs, jobs=workers)) == qs
    assert CountingPool.most == workers


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_raises_a_failed_prime_without_on_error(monkeypatch, jobs):
    # without on_error a prime that raises ends the sweep: the primes
    # before it are yielded, and a pool, when there is one, is shut down
    monkeypatch.setattr(CountingPool, "shutdowns", 0)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)

    def solve(q):
        if q == 11:
            raise ValueError(f"failed at {q}")
        return q

    got = []
    with pytest.raises(ValueError, match="failed at 11"):
        for r in search.sweep(solve, [5, 7, 11, 13], jobs=jobs):
            got.append(r)
    assert got == [5, 7]
    assert CountingPool.shutdowns == (jobs > 1)


def test_import_leaves_the_process_pool_unloaded():
    # ``sweep`` imports the pool only when it starts one, so importing the
    # package and its CLI, and a serial sweep, load no multiprocessing
    # machinery
    child = ("import sys, residuevc, residuevc.cli; "
             "from residuevc.search import sweep; "
             "assert list(sweep(abs, [5, 7])) == [5, 7]; "
             "sys.exit('concurrent.futures.process' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(residuevc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# pinned results and work counters
# ---------------------------------------------------------------------------

# (vcdim, exact=True) per prime, recorded with the walk that expanded
# every child m > max(Y) before candidates were inherited.
PINNED = {
    ZeroConvention.ZERO_IN: {
        5: 2, 7: 2, 11: 3, 13: 3, 17: 3, 19: 3, 23: 4, 29: 4, 31: 4, 37: 5,
        41: 4, 43: 5, 47: 5, 53: 5, 59: 5, 61: 5, 67: 5, 71: 5, 73: 5, 79: 5,
        83: 5, 89: 5, 97: 6, 101: 5, 103: 6, 107: 6, 109: 6, 113: 6, 127: 6,
        131: 6, 137: 6, 139: 6, 149: 6, 151: 7, 157: 6, 163: 6, 167: 6,
        173: 6, 179: 6, 181: 6},
    ZeroConvention.STRICT: {
        5: 1, 7: 2, 11: 3, 13: 3, 17: 3, 19: 3, 23: 3, 29: 4, 31: 4, 37: 5,
        41: 4, 43: 5, 47: 4, 53: 5, 59: 5, 61: 5, 67: 5, 71: 5, 73: 5, 79: 5,
        83: 5, 89: 5, 97: 5, 101: 5, 103: 5, 107: 6, 109: 5, 113: 6, 127: 6,
        131: 6},
    ZeroConvention.ZERO_OUT: {
        5: 2, 7: 2, 11: 3, 13: 3, 17: 3, 19: 3, 23: 4, 29: 4, 31: 4, 37: 5,
        41: 4, 43: 5, 47: 5, 53: 5, 59: 5, 61: 5, 67: 5, 71: 5, 73: 5, 79: 5,
        83: 5, 89: 5, 97: 6, 101: 5, 103: 6},
}


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_pinned_results(conv):
    expect = PINNED[conv]
    assert list(expect) == primes_in_range(5, max(expect))
    got = {q: vc_dimension(q, conv) for q in expect}
    assert {q: (r.vcdim, r.exact) for q, r in got.items()} == \
        {q: (v, True) for q, v in expect.items()}


def test_pinned_early_exit():
    # early exit stops at the first set of the target size
    for q, want in {61: 4, 101: 5, 131: 6, 167: 6}.items():
        r = vc_dimension(q, ZeroConvention.ZERO_IN, early_exit=True)
        assert (r.vcdim, r.exact) == (want, False), q


# (nodes, cells) of vc_dimension over every size and walk it tries,
# recorded with the orderly fixed-size search from floor(log2 q) down,
# which expands one set per orbit; zero-in 181 and zero-out 97 include
# walk B, and zero-out 5 is settled by the roots.
PINNED_WORK = {
    ZeroConvention.ZERO_IN: {97: (26, 63_632), 151: (8, 57_380),
                             181: (3_381, 25_898_928)},
    ZeroConvention.STRICT: {47: (18, 22_372), 107: (47, 101_436),
                            131: (8, 81_220)},
    ZeroConvention.ZERO_OUT: {5: (0, 0), 97: (655, 1_492_345),
                              103: (111, 204_249)},
}


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_pinned_work_counters(conv):
    for q, work in PINNED_WORK[conv].items():
        r = vc_dimension(q, conv)
        assert (r.vcdim, r.exact) == (PINNED[conv][q], True), q
        assert (r.nodes, r.cells) == work, q
        T = squares_table(make_field(q), conv)
        assert oracle_shattered(r.witness, T.member, conv)


def test_work_counters_repeat():
    for conv in CONVS:
        a = vc_dimension(89, conv)
        b = vc_dimension(89, conv)
        assert (a.nodes, a.cells, a.nodes_by_depth) == \
            (b.nodes, b.cells, b.nodes_by_depth)
        assert a.nodes == sum(a.nodes_by_depth) > 0 and a.cells % 89 == 0


def test_pair_cells_repeat():
    # the pair tables' own work repeats like the walk's counters
    for conv in CONVS:
        a = vc_dimension(89, conv)
        b = vc_dimension(89, conv)
        assert a.pair_cells == b.pair_cells > 0, conv


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_pair_tables_and_child_blocks_walk_alike(monkeypatch, conv):
    # every node decided by one pair table, or every child by its own
    # block: the same answer, witness and counters at every prime
    def walk(min_cells):
        monkeypatch.setattr(search, "PAIR_MIN_CELLS", min_cells)
        return [vc_dimension(q, conv) for q in primes_in_range(5, 109)]

    tables, blocks = walk(0), walk(1 << 62)
    assert [r.pair_cells for r in blocks] == [0] * len(blocks)
    assert sum(r.pair_cells for r in tables) > 0
    for t, b in zip(tables, blocks):
        assert (t.vcdim, t.witness, t.nodes, t.cells, t.nodes_by_depth) == \
            (b.vcdim, b.witness, b.nodes, b.cells, b.nodes_by_depth), t.q


# Kernel cells of vc_dimension(167), expanding one set per orbit and
# looking for sizes 7, then 6.
CELLS_167 = 6_967_908


def test_cells_gate_167():
    assert vc_dimension(167).cells <= 1.1 * CELLS_167
