import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from residuevc import search, shatter
from residuevc.errors import EmptyFold, NTooLarge, WidthOverflow
from residuevc.field import ZeroConvention, make_field, residue_table, squares_table
from residuevc.primes import primes_in_range
from residuevc.search import _walks
from residuevc.shatter import (ChildTally, fold_patterns, is_shattered,
                               membership_matrix, pattern_counts,
                               prefix_counts, row_counts, shatter_report,
                               signatures)

from oracles import legendre, member_vector, oracle_counts, oracle_shattered

CONVS = list(ZeroConvention)


def table(q, conv=ZeroConvention.ZERO_IN):
    return squares_table(make_field(q), conv)


# ---------------------------------------------------------------------------
# one subset check
# ---------------------------------------------------------------------------

SINGLE = [membership_matrix, signatures, pattern_counts, shatter_report,
          is_shattered]


@pytest.mark.parametrize("Y, error", [
    ([1, 1, 2], ValueError),              # duplicate
    ([0, 11], ValueError),                # outside the field
    ([-1, 2], ValueError),                # negative
    (list(range(64)), WidthOverflow)],    # past the 63-bit signature
    ids=["duplicate", "outside", "negative", "width-64"])
def test_malformed_subset_refused_alike(Y, error):
    # a single-subset function refuses what row_counts refuses in a row,
    # by one check; at width 64 the check comes before the pigeonhole
    T = table(11) if len(Y) < 64 else table(101)
    with pytest.raises(error):
        row_counts(np.array([sorted(Y)]), T)
    for fn in SINGLE:
        with pytest.raises(error):
            fn(Y, T)


@pytest.mark.parametrize("conv", CONVS)
def test_any_form_of_a_subset_gives_one_result(conv):
    # each single-subset function sorts its subset first
    T = table(23, conv)
    forms = [[7, 1, 4], (1, 4, 7), np.array([7, 4, 1], dtype=np.int32),
             [np.int64(4), np.uint8(7), np.int16(1)], range(1, 8, 3)]
    for fn in SINGLE:
        want = fn([1, 4, 7], T)
        for Y in forms:
            assert np.array_equal(fn(Y, T), want), (fn.__name__, Y)


# ---------------------------------------------------------------------------
# translate columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("conv", CONVS)
def test_table_columns_are_translates(conv):
    for q in [5, 13, 31]:
        T = table(q, conv)
        vec = member_vector(q, 2, 1, conv)
        assert T.doubled.dtype == np.uint8 and T.doubled.shape == (2 * q,)
        with pytest.raises(ValueError):
            T.doubled[0] = 1
        xs = np.arange(q)
        for y in range(q):
            assert np.array_equal(T.doubled[q - y : 2 * q - y],
                                  vec[(y - xs) % q])
            assert np.array_equal(membership_matrix([y], T)[:, 0],
                                  vec[(y - xs) % q])


# ---------------------------------------------------------------------------
# membership_matrix
# ---------------------------------------------------------------------------

def test_matrix_column_is_reflected_set_q7():
    A = membership_matrix([0], table(7, ZeroConvention.ZERO_OUT))
    # column reads the reflected squares -{1,2,4} = {3,5,6}
    assert set(np.nonzero(A[:, 0])[0]) == {3, 5, 6}


def test_matrix_row_zero_q5():
    A = membership_matrix([0, 1], table(5, ZeroConvention.ZERO_IN))
    assert list(A[0]) == [1, 1]


def test_matrix_empty_subset():
    A = membership_matrix([], table(11))
    assert A.shape == (11, 0)


def test_matrix_matches_direct_indexing():
    for q in [13, 29]:
        for conv in CONVS:
            T = table(q, conv)
            Y = [0, 2, 7, q - 1]
            A = membership_matrix(Y, T)
            for x in range(q):
                for i, y in enumerate(Y):
                    assert A[x, i] == T.member[(y - x) % q]


# ---------------------------------------------------------------------------
# pattern_counts / is_shattered / shatter_report
# ---------------------------------------------------------------------------

def test_counts_q5_pair():
    P = pattern_counts([0, 1], table(5, ZeroConvention.ZERO_IN))
    assert int(P.sum()) == 5
    assert (P > 0).all()


def test_counts_empty_subset():
    for conv in CONVS:
        P = pattern_counts([], table(7, conv))
        assert list(P) == [7]


def test_pigeonhole_forces_gap():
    P = pattern_counts([0, 1, 2, 3], table(7, ZeroConvention.ZERO_IN))
    assert (P == 0).any()
    assert not is_shattered([0, 1, 2, 3], table(7))


def child_counts(T, n):
    """Kernel counts of {0, ..., n - 1} as the one child of {0, ..., n - 2}."""
    Y = list(range(n - 1))
    blocks = ChildTally(T).children(Y, signatures(Y, T),
                                    np.array([n - 1], dtype=np.int64))
    return next(blocks)[1][0]


def prefix_rows(n, m=3):
    """m copies of {0, ..., n - 1} as the rows of an array."""
    return np.tile(np.arange(n), (m, 1))


def test_tallies_refuse_bins_far_past_pigeonhole():
    T = table(101)
    # n = 30 would ask for 8 GB of bins; n = 20 (8 MB) shows the same
    # refusal without risking that allocation if the guard is lost
    with pytest.raises(NTooLarge):
        pattern_counts(range(20), T)
    with pytest.raises(NTooLarge):
        child_counts(T, 20)
    with pytest.raises(NTooLarge):
        next(row_counts(prefix_rows(20), T))
    with pytest.raises(NTooLarge):
        prefix_counts(20, T)
    # 2^9 bins exceed 4 per translate; 2^8 still fit, with some count zero
    with pytest.raises(NTooLarge):
        pattern_counts(range(9), T)
    with pytest.raises(NTooLarge):
        child_counts(T, 9)
    with pytest.raises(NTooLarge):
        next(row_counts(prefix_rows(9), T))
    with pytest.raises(NTooLarge):
        prefix_counts(9, T)
    assert (pattern_counts(range(8), T) == 0).any()
    assert (prefix_counts(8, T) == 0).any()
    assert child_counts(T, 8).min() == 0
    [counts] = row_counts(prefix_rows(8), T)
    assert (counts.min(axis=1) == 0).all()
    # where the tallies refuse, the index is known by pigeonhole
    assert shatter_report(range(20), T) == shatter_report(range(9), T) == -1


def test_counts_check_raises_outside_asserts(monkeypatch):
    short = shatter._signatures
    monkeypatch.setattr(shatter, "_signatures",
                        lambda rows, T: short(rows, T)[:, 1:])
    with pytest.raises(RuntimeError):
        pattern_counts([0, 1], table(11))


def test_signatures_hold_wide_subsets():
    # past 31 elements a signature needs 64 bits
    T = table(101)
    Y = list(range(0, 80, 2))
    expect = [sum(int(b) << i for i, b in enumerate(row))
              for row in membership_matrix(Y, T)]
    assert signatures(Y, T).tolist() == expect


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("conv", CONVS)
def test_tallies_match_oracle_across_the_16_bit_switch(conv, n):
    # below 16 elements signatures are 16-bit, STRICT's sentinel 2^15
    # included; from 16 on they are int64.  At q = 16411 the bins check
    # lets n = 16 through under every convention.
    q = 16411
    T = table(q, conv)
    rng = np.random.default_rng(n)
    rows = np.array([np.arange(n), np.arange(q - n, q),
                     np.sort(rng.choice(q, size=n, replace=False))])
    assert signatures(rows[0], T).dtype == (np.uint16 if n < 16 else np.int64)
    [counts] = row_counts(rows, T)
    for row, got in zip(rows.tolist(), counts):
        want = oracle_counts(row, T.member, conv)
        assert np.array_equal(got, want)
        assert np.array_equal(pattern_counts(row, T), want)


@pytest.mark.parametrize("conv", CONVS)
@pytest.mark.parametrize("qs", [primes_in_range(5, 200), [65537, 131071]],
                         ids=["5-200", "65537-131071"])
def test_prefix_counts_match_pattern_counts(qs, conv):
    # every prefix width the progressions read, 1 <= n <= floor(log2 q);
    # 65537 and 131071 reach n = 16, past the 16-bit switch
    for q in qs:
        T = table(q, conv)
        for n in range(1, q.bit_length()):
            got = prefix_counts(n, T)
            want = pattern_counts(range(n), T)
            assert got.dtype == want.dtype, (q, n)
            assert np.array_equal(got, want), (q, n)


def test_row_counts_check_raises_on_a_short_row(monkeypatch):
    real = shatter._signatures

    def lossy(rows, T):
        sig = real(rows, T)
        sig[1, 0] = 1 << rows.shape[1]  # the middle row's sentinel bin
        return sig

    monkeypatch.setattr(shatter, "_signatures", lossy)
    with pytest.raises(RuntimeError):
        list(row_counts(np.array([[0, 1], [2, 5], [3, 4]]), table(11)))


@pytest.mark.parametrize("rows, error", [
    ([[0, 1], [2, 11]], ValueError),      # outside the field
    ([[0, 1], [-1, 2]], ValueError),
    ([[0, 1], [3, 2]], ValueError),       # not increasing
    ([[0, 1], [2, 2]], ValueError),       # repeated
    ([0, 1, 2], ValueError),              # not a 2-d array
    ([[0.0, 1.0]], ValueError),           # not integers
    (np.arange(64)[None], WidthOverflow),
    (np.array([[0, 1], [3, 2]], dtype=np.uint8), ValueError)])  # 2 - 3 wraps
def test_row_counts_checks_every_row(rows, error):
    with pytest.raises(error):
        next(row_counts(np.array(rows), table(11)))


def test_counts_sum_is_allowed_translates():
    for q in [11, 23]:
        for conv in CONVS:
            T = table(q, conv)
            for Y in ([0], [0, 1], [1, 4, 6]):
                expect = q - len(Y) if conv is ZeroConvention.STRICT else q
                assert int(pattern_counts(Y, T).sum()) == expect


def test_counts_match_oracle():
    rng = np.random.default_rng(7)
    for q in [11, 19, 37]:
        for conv in CONVS:
            T = table(q, conv)
            for n in (1, 2, 3, 4):
                for _ in range(5):
                    Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                    assert np.array_equal(
                        pattern_counts(Y, T),
                        oracle_counts(Y, T.member, conv))


def test_pair_always_shattered_zero_in():
    for q in primes_in_range(5, 101):
        assert is_shattered([0, 1], table(q, ZeroConvention.ZERO_IN))


def test_shattering_index_values():
    assert shatter_report([], table(5)) == 2  # floor(log2 5)
    assert shatter_report([0, 1], table(5, ZeroConvention.ZERO_IN)) == 0
    assert shatter_report([0, 1, 2, 3], table(7)) == -1


def test_index_is_floor_log2_of_min():
    for q in [13, 31]:
        for conv in CONVS:
            T = table(q, conv)
            for Y in ([0], [0, 1], [0, 2, 5]):
                rep = shatter_report(Y, T)
                m = int(pattern_counts(Y, T).min())
                if m == 0:
                    assert rep == -1 and not is_shattered(Y, T)
                else:
                    assert is_shattered(Y, T) and rep == int(np.floor(np.log2(m)))


def test_strict_pair_q5_not_shattered():
    # only q - 2 = 3 translates remain for 4 patterns
    assert not is_shattered([0, 1], table(5, ZeroConvention.STRICT))


# ---------------------------------------------------------------------------
# fold_patterns
# ---------------------------------------------------------------------------

def test_fold_pairs_top_bit_siblings():
    R = np.zeros(64, dtype=bool)
    R[3] = True   # low-first bit-string 110000
    R[35] = True  # low-first bit-string 110001 (3 + 32)
    folded = fold_patterns(R)
    assert folded[3] and folded.sum() == 1


def test_fold_all_true():
    assert fold_patterns(np.ones(32, dtype=bool)).all()


def test_fold_rejects_width_zero():
    with pytest.raises(EmptyFold):
        fold_patterns(np.ones(1, dtype=bool))


def test_fold_equals_direct_prefix():
    # exact for conventions whose allowed translates ignore Y
    for q in primes_in_range(5, 101):
        for conv in (ZeroConvention.ZERO_IN, ZeroConvention.ZERO_OUT):
            T = table(q, conv)
            n = q.bit_length() - 1
            folded = fold_patterns(pattern_counts(range(n), T) > 0)
            direct = pattern_counts(range(n - 1), T) > 0
            assert np.array_equal(folded, direct)


def test_fold_conservative_under_strict():
    for q in primes_in_range(5, 61):
        T = table(q, ZeroConvention.STRICT)
        n = q.bit_length() - 1
        folded = fold_patterns(pattern_counts(range(n), T) > 0)
        direct = pattern_counts(range(n - 1), T) > 0
        assert not (folded & ~direct).any()


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def _sample_subsets(rng, q, count=12):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 5))
        out.append(sorted(rng.choice(q, size=min(n, q - 1), replace=False).tolist()))
    return out


def test_translation_invariance_exhaustive():
    rng = np.random.default_rng(11)
    for q in primes_in_range(5, 61):
        for conv in CONVS:
            T = table(q, conv)
            for Y in _sample_subsets(rng, q):
                base = is_shattered(Y, T)
                for b in range(q):
                    shifted = sorted((y + b) % q for y in Y)
                    assert is_shattered(shifted, T) == base


def test_residue_dilation_invariance():
    rng = np.random.default_rng(13)
    for q in primes_in_range(5, 61):
        residues = sorted({x * x % q for x in range(1, q)})
        for conv in CONVS:
            T = table(q, conv)
            for Y in _sample_subsets(rng, q, count=6):
                base = is_shattered(Y, T)
                for a in residues:
                    scaled = sorted(a * y % q for y in Y)
                    assert is_shattered(scaled, T) == base


def test_full_dilation_invariance_strict():
    rng = np.random.default_rng(17)
    for q in primes_in_range(5, 61):
        T = table(q, ZeroConvention.STRICT)
        for Y in _sample_subsets(rng, q, count=6):
            base = is_shattered(Y, T)
            for a in range(1, q):
                scaled = sorted(a * y % q for y in Y)
                assert is_shattered(scaled, T) == base


def test_nonresidue_dilation_can_break_zero_out():
    # The known q = 5 example: {0, 2} = 2 * {0, 1} with 2 a non-residue.
    T = table(5, ZeroConvention.ZERO_OUT)
    assert is_shattered([0, 2], T)
    assert not is_shattered([0, 1], T)


def test_zero_in_dilation_survey():
    # Measured, not asserted: a non-residue dilation maps ZERO_IN-shattered
    # sets onto ZERO_OUT-shattered ones (test_nonsquare_dilation_duality),
    # not onto ZERO_IN-shattered ones.  This scan reports where they differ.
    rng = np.random.default_rng(41)
    found = []
    for q in primes_in_range(5, 61):
        T = table(q, ZeroConvention.ZERO_IN)
        nonresidues = [a for a in range(1, q) if not T.member[a]]
        for Y in _sample_subsets(rng, q, count=6) + [[0, 1]]:
            base = is_shattered(Y, T)
            for a in nonresidues:
                scaled = sorted(a * y % q for y in Y)
                if is_shattered(scaled, T) != base:
                    found.append((q, tuple(Y), a))
    print(f"zero-in dilation counterexamples: {sorted(set(found))[:8]}")
    # the q = 5 pair case is the canonical instance; others exist (q = 11's
    # {2,3,9} for example), so this records rather than forbids them
    assert (5, (0, 1), 2) in found


def test_monotone_under_subsets():
    rng = np.random.default_rng(19)
    for q in primes_in_range(5, 61):
        for conv in CONVS:
            T = table(q, conv)
            for Y in _sample_subsets(rng, q, count=6):
                if not is_shattered(Y, T):
                    continue
                for drop in range(len(Y)):
                    sub = Y[:drop] + Y[drop + 1:]
                    assert is_shattered(sub, T)


SMALL_PRIMES = primes_in_range(5, 61)
DUAL = {ZeroConvention.ZERO_IN: ZeroConvention.ZERO_OUT,
        ZeroConvention.ZERO_OUT: ZeroConvention.ZERO_IN,
        ZeroConvention.STRICT: ZeroConvention.STRICT}


@st.composite
def prime_and_subset(draw, max_size=4):
    q = draw(st.sampled_from(SMALL_PRIMES))
    Y = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=max_size,
                      unique=True))
    return q, sorted(Y)


def scaled(Y, a, q):
    return sorted(a * y % q for y in Y)


@settings(max_examples=300, deadline=None)
@given(qY=prime_and_subset(), conv=st.sampled_from(CONVS), data=st.data())
def test_nonsquare_dilation_duality(qY, conv, data):
    # nu (S + {0}) is the complement of S for a non-square nu, so nu Y is
    # shattered under the dual convention exactly when Y is shattered, and
    # its pattern counts are those of Y permuted
    q, Y = qY
    nu = data.draw(st.sampled_from(
        [make_field(q).g] + [a for a in range(2, q) if legendre(a, q) < 0]))
    vec = member_vector(q, 2, 1, conv)
    dual_vec = member_vector(q, 2, 1, DUAL[conv])
    nuY = scaled(Y, nu, q)
    assert oracle_shattered(Y, vec, conv) == \
        oracle_shattered(nuY, dual_vec, DUAL[conv])
    assert sorted(oracle_counts(Y, vec, conv)) == \
        sorted(oracle_counts(nuY, dual_vec, DUAL[conv]))
    assert is_shattered(Y, table(q, conv)) == \
        is_shattered(nuY, table(q, DUAL[conv]))


@settings(max_examples=200, deadline=None)
@given(qY=prime_and_subset(), conv=st.sampled_from(CONVS),
       b=st.integers(0, 60))
def test_translation_invariance_property(qY, conv, b):
    q, Y = qY
    T = table(q, conv)
    assert is_shattered(sorted((y + b) % q for y in Y), T) == is_shattered(Y, T)


@settings(max_examples=200, deadline=None)
@given(qY=prime_and_subset(), conv=st.sampled_from(CONVS),
       x=st.integers(1, 60))
def test_square_dilation_invariance_property(qY, conv, x):
    q, Y = qY
    a = x * x % q
    if a == 0:
        return
    T = table(q, conv)
    assert is_shattered(scaled(Y, a, q), T) == is_shattered(Y, T)


@settings(max_examples=200, deadline=None)
@given(qY=prime_and_subset(), a=st.integers(1, 60))
def test_full_dilation_invariance_strict_property(qY, a):
    q, Y = qY
    if a % q == 0:
        return
    T = table(q, ZeroConvention.STRICT)
    assert is_shattered(scaled(Y, a, q), T) == is_shattered(Y, T)


@settings(max_examples=200, deadline=None)
@given(qY=prime_and_subset(max_size=5), conv=st.sampled_from(CONVS))
def test_monotone_under_subsets_property(qY, conv):
    q, Y = qY
    T = table(q, conv)
    if is_shattered(Y, T):
        for drop in range(len(Y)):
            assert is_shattered(Y[:drop] + Y[drop + 1:], T)


def test_partitioned_accumulation_merges():
    # counts accumulated over translate ranges merge by addition
    for conv in CONVS:
        T = table(23, conv)
        Y = [0, 3, 8]
        full = pattern_counts(Y, T)
        A = membership_matrix(Y, T)
        merged = np.zeros_like(full)
        weights = 1 << np.arange(len(Y))
        for lo, hi in ((0, 7), (7, 15), (15, 23)):
            for x in range(lo, hi):
                if conv is ZeroConvention.STRICT and x in Y:
                    continue
                merged[int(A[x] @ weights)] += 1
        assert np.array_equal(full, merged)


# ---------------------------------------------------------------------------
# batch oracle
# ---------------------------------------------------------------------------

def test_batch_matches_single():
    rng = np.random.default_rng(23)
    for q in [19, 43]:
        for conv in CONVS:
            T = table(q, conv)
            tally = ChildTally(T)
            for _ in range(10):
                Y = sorted(rng.choice(q - 1, size=2, replace=False).tolist())
                ms = np.arange(Y[-1] + 1, q, dtype=np.int64)
                [(got_ms, counts)] = tally.children(Y, signatures(Y, T), ms)
                assert np.array_equal(got_ms, ms)
                for m, row in zip(ms.tolist(), counts):
                    assert np.array_equal(row, pattern_counts(Y + [m], T))


@pytest.mark.parametrize("conv", CONVS)
def test_child_tally_across_its_16_bit_switch(conv):
    # blocks of 14-element nodes are summed in uint16 and those of
    # 15-element nodes in int64; 16411 is the least prime whose translates
    # let a 16-element child through the bins check
    q = 16411
    T = table(q, conv)
    member = member_vector(q, 2, 1, conv)
    tally = ChildTally(T)
    # one uint16 column serves both sides of the switch
    assert tally.marked.dtype == np.uint16 and tally.marked.shape == (2 * q,)
    Y = list(range(14))
    sig = signatures(Y, T)
    for dtype, ms in [(np.uint16, [100, 5000]), (np.int64, [6000, 16400])]:
        [(_, counts)] = tally.children(Y, sig, np.array(ms, dtype=np.int64))
        for m, row in zip(ms, counts):
            assert np.array_equal(row, oracle_counts(Y + [m], member, conv))
        # the first child's signature, built as the search walk builds
        # it, is the next node's
        sig = ChildTally.shift(tally.window[q - ms[0]].copy(), len(Y)) + sig
        assert sig.dtype == dtype
        Y = Y + [ms[0]]


def test_batch_chunking_boundary(monkeypatch):
    T = table(11, ZeroConvention.STRICT)
    Y, ms = [0, 1], np.arange(2, 11, dtype=np.int64)

    def blocks():
        return list(ChildTally(T).children(Y, signatures(Y, T), ms))

    whole = blocks()
    monkeypatch.setattr(shatter, "MAX_CELLS", 11)  # forces 1-row blocks
    split = blocks()
    assert len(whole) == 1 and len(split) == len(ms)
    for i, name in enumerate(("ms", "counts")):
        assert np.array_equal(whole[0][i],
                              np.concatenate([b[i] for b in split])), name


def pair_minima(Y, ms, member, conv):
    """Least pattern count of Y + {ms[i], ms[j]} for each i < j, by the
    oracle (0 elsewhere)."""
    low = np.zeros((len(ms), len(ms)), dtype=np.int64)
    for i, j in itertools.combinations(range(len(ms)), 2):
        low[i, j] = oracle_counts(sorted(Y + [ms[i], ms[j]]), member,
                                  conv).min()
    return low


def check_pairs(walk, Y, ms, needs=(1, 2, 3)):
    """``walk.pairs`` of Y over ``ms`` against the oracle, for the rows of
    every index but the last and for a sparse choice of rows."""
    T = walk.tally.T
    low = pair_minima(Y, ms, T.member, T.convention)
    ms = np.array(ms, dtype=np.int64)
    upper = np.triu(np.ones(low.shape, dtype=bool), 1)
    for need in needs:
        for rows in (np.arange(len(ms) - 1), np.arange(0, len(ms) - 1, 3)):
            got = walk.pairs(Y, signatures(Y, T), ms, rows, need)
            # only the entries j > i are answers
            assert np.array_equal(got & upper[rows],
                                  (low >= need)[rows] & upper[rows]), \
                (T.q, Y, need)


def walk_a(q, conv):
    """Walk A of the search at q under ``conv``, over ``table(q, conv)``."""
    return _walks(make_field(q), conv)[0]


@pytest.mark.parametrize("conv", CONVS, ids=lambda c: c.value)
def test_pairs_match_the_oracle_on_every_pair(conv):
    # both walks' tables: walk B's is the dual one, when q = 1 (mod 4)
    rng = np.random.default_rng(17)
    for q in [13, 17, 23, 29]:
        for walk in _walks(make_field(q), conv):
            for n in (1, 2, 3):
                Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                ms = [m for m in range(q) if m not in Y]
                check_pairs(walk, Y, ms)


def test_pairs_run_by_run(monkeypatch):
    # one row a run, each over the columns after it, gives the same table
    T = table(29, ZeroConvention.STRICT)
    Y, ms = [0, 1], np.arange(2, 29, dtype=np.int64)
    rows = np.arange(0, 26, 2)
    upper = np.arange(len(ms)) > rows[:, None]
    whole = walk_a(29, T.convention).pairs(Y, signatures(Y, T), ms, rows,
                                           1) & upper
    monkeypatch.setattr(search, "PAIR_CELLS", 1)
    walk = walk_a(29, T.convention)
    assert np.array_equal(
        walk.pairs(Y, signatures(Y, T), ms, rows, 1) & upper, whole)
    # 4 classes by the columns after each row
    assert walk.pair_cells == 4 * sum(len(ms) - 1 - r for r in rows)
    assert whole.any() and not whole[upper].all()
    monkeypatch.setattr(search, "PAIR_CELLS", 4 * 26 * 5)  # 5-row runs
    check_pairs(walk_a(29, T.convention), Y, ms.tolist(), needs=(1,))


def test_strict_pairs_drop_both_translates_from_one_cell():
    # x = i and x = j fall in one class of Y and both read 0 for the other
    # element: the pair's (0, 0) cell there loses two.  Some such pairs
    # pass with x = i and x = j counted and fail without them.
    q, Y = 37, [0, 1]
    T = table(q, ZeroConvention.STRICT)
    sig = signatures(Y, T)
    ms = list(range(2, q))
    low = pair_minima(Y, ms, T.member, T.convention)
    flipped = []
    for i, j in itertools.combinations(range(len(ms)), 2):
        a, b = ms[i], ms[j]
        if sig[a] != sig[b] or T.member[(b - a) % q] or T.member[(a - b) % q]:
            continue
        Z = sorted(Y + [a, b])
        # the counts with the translates a and b kept
        with_ij = np.bincount([sum(int(T.member[(z - x) % q]) << k
                                   for k, z in enumerate(Z))
                               for x in range(q) if x not in Y],
                              minlength=16)
        if with_ij.min() > low[i, j]:
            flipped.append((i, j, int(low[i, j])))
    assert flipped
    walk = walk_a(q, T.convention)
    msa = np.array(ms, dtype=np.int64)
    for i, j, true_min in flipped:
        for need in (true_min, true_min + 1):
            got = walk.pairs(Y, sig, msa, np.array([i]), need)[0, j]
            assert got == (need <= true_min), (ms[i], ms[j], need)


def test_row_counts_blocks_stay_under_the_cell_cap(monkeypatch):
    T = table(11, ZeroConvention.STRICT)
    rows = np.array([[0, 1, 5], [2, 3, 4], [1, 5, 9], [0, 5, 10], [3, 7, 8]])
    whole = list(row_counts(rows, T))
    monkeypatch.setattr(shatter, "MAX_CELLS", 25)  # 2 rows of 11 cells
    split = list(row_counts(rows, T))
    assert len(whole) == 1 and [len(b) for b in split] == [2, 2, 1]
    assert np.array_equal(whole[0], np.concatenate(split))


@st.composite
def prime_and_rows(draw):
    """A prime, q = 1 or 3 (mod 4), and 1-6 subsets of one size drawn from
    a small pool, so rows share elements and may repeat."""
    q = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.integers(0, 4))
    pool = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n + 2,
                         unique=True))
    rows = draw(st.lists(st.permutations(pool).map(lambda p: sorted(p[:n])),
                         min_size=1, max_size=6))
    return q, np.array(rows, dtype=np.int64).reshape(len(rows), n)


@settings(max_examples=200, deadline=None)
@given(qrows=prime_and_rows(), conv=st.sampled_from(CONVS))
def test_row_counts_match_oracle_row_by_row(qrows, conv):
    q, rows = qrows
    T = table(q, conv)
    # 16 bins are over 4 per allowed translate under STRICT at q = 5, 7
    assume(conv is not ZeroConvention.STRICT or q > 7 or rows.shape[1] < 4)
    [counts] = row_counts(rows, T)
    assert counts.shape == (rows.shape[0], 1 << rows.shape[1])
    for row, got in zip(rows.tolist(), counts):
        assert np.array_equal(got, oracle_counts(row, T.member, conv))
        assert np.array_equal(got, pattern_counts(row, T))


def test_oracle_consistency_random():
    rng = np.random.default_rng(29)
    for q in [17, 41]:
        for conv in CONVS:
            T = table(q, conv)
            for _ in range(25):
                n = int(rng.integers(1, 5))
                Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                assert is_shattered(Y, T) == oracle_shattered(Y, T.member, conv)
