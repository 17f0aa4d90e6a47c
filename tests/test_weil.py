import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuevc import search, weil
from residuevc.errors import Infeasible, LengthMismatch
from residuevc.field import (ZeroConvention, character_table, make_field,
                             residue_table, squares_table)
from residuevc.primes import primes_in_range
from residuevc.shatter import ChildTally, rooted_minima
from residuevc.weil import (PolySpec, char_sum,
                            coset_probability, fourier_probability,
                            fuzzy_coset_probability,
                            verify_equidistribution,
                            verify_shattering_theorem, verify_weil,
                            _all_quads_ok, _quad_words, _quads_complete,
                            _witness_tally)

from oracles import (char_sum_direct, legendre, member_vector,
                     oracle_counts, oracle_shattered, witnesses_complete)


def setup_fc(q, r):
    F = make_field(q)
    return F, character_table(F, r)


def table(q, r):
    return character_table(make_field(q), r)


# ---------------------------------------------------------------------------
# PolySpec / char_sum
# ---------------------------------------------------------------------------

def test_polyspec_validation():
    with pytest.raises(ValueError):
        PolySpec((0, 1), (0, 0))
    with pytest.raises(ValueError):
        PolySpec((1, 1), (1, 1))
    with pytest.raises(LengthMismatch):
        PolySpec((0, 1), (1,))
    assert PolySpec((0, 1, 4), (1, 0, 1)).distinct_roots == 2


def test_full_group_sum_vanishes():
    for q, r in [(7, 2), (13, 3), (29, 4)]:
        C = table(q, r)
        for y in (0, 1, q - 1):
            for k in range(1, r):
                s = char_sum(C, PolySpec((y,), (k,)))
                assert abs(s) < 1e-9


def test_char_sum_q7_pair():
    C = table(7, 2)
    s = char_sum(C, PolySpec((0, 1), (1, 1)))
    assert s == pytest.approx(-1)  # direct 7-term Legendre sum
    assert abs(s) <= math.sqrt(7) + 1e-6


def test_char_sum_matches_direct_oracle():
    rng = np.random.default_rng(3)
    for q, r in [(13, 3), (31, 5), (29, 2)]:
        F, C = setup_fc(q, r)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            roots = tuple(sorted(rng.choice(q, size=n, replace=False).tolist()))
            powers = tuple(int(v) for v in rng.integers(0, r, size=n))
            if not any(powers):
                continue
            got = char_sum(C, PolySpec(roots, powers))
            want = char_sum_direct(q, r, F.g, roots, powers)
            assert got == pytest.approx(want, abs=1e-9)


def test_char_sum_refuses_roots_equal_mod_q():
    C = table(13, 2)
    with pytest.raises(ValueError):
        char_sum(C, PolySpec((0, 13), (1, 1)))
    with pytest.raises(ValueError):
        char_sum(C, PolySpec((2, 5, -8), (1, 0, 1)))
    assert char_sum(C, PolySpec((0, 12), (1, 1))) == pytest.approx(-1)


def test_pair_sums_have_the_modulus_of_roots_0_1():
    # the affine substitution behind verify_weil's level 2, term by term
    for q in primes_in_range(5, 31):
        for r in (2, 3, 4):
            if (q - 1) % r:
                continue
            F, C = setup_fc(q, r)
            for ks in itertools.product(range(1, r), repeat=2):
                want = abs(char_sum(C, PolySpec((0, 1), ks)))
                for Y in itertools.combinations(range(q), 2):
                    got = abs(char_sum_direct(q, r, F.g, Y, ks))
                    assert got == pytest.approx(want, abs=1e-9), (q, r, Y, ks)


def test_zero_power_factor_is_dropped():
    C = table(13, 3)
    a = char_sum(C, PolySpec((2, 5), (1, 0)))
    b = char_sum(C, PolySpec((2,), (1,)))
    assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# verify_weil
# ---------------------------------------------------------------------------

def test_weil_clean_small():
    for q, r in [(13, 2), (13, 3), (61, 2)]:
        C = table(q, r)
        rep = verify_weil(C, 3, samples=100, seed=0)
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0 + 1e-9


def test_weil_single_roots_sum_to_zero():
    C = table(31, 3)
    rep = verify_weil(C, 1)
    assert rep.violations == 0
    assert rep.max_abs_sum < 1e-9
    assert rep.instances == 31 * 2


def test_weil_exhaustive_levels_match_brute_force():
    # every root and every root pair summed term by term by the oracle
    for q in (13, 29, 37):
        for r in (2, 3, 4):
            if (q - 1) % r:
                continue
            F, C = setup_fc(q, r)
            instances = violations = 0
            max_ratio = 0.0
            for n in (1, 2):
                bound = (n - 1) * math.sqrt(q)
                for Y in itertools.combinations(range(q), n):
                    for ks in itertools.product(range(1, r), repeat=n):
                        s = abs(char_sum_direct(q, r, F.g, Y, ks))
                        instances += 1
                        violations += s > bound + weil.WEIL_TOL
                        if bound:
                            max_ratio = max(max_ratio, s / bound)
            rep = verify_weil(C, 2)
            assert (rep.instances, rep.violations) == (instances, violations)
            assert rep.max_ratio == pytest.approx(max_ratio, abs=1e-9)


def test_weil_pair_level_runs_at_large_q():
    q = 2003
    rep = verify_weil(table(q, 2), 2)
    assert rep.violations == 0
    assert rep.instances == q + q * (q - 1) // 2


def test_weil_violations_are_counted_with_their_weights(monkeypatch):
    # a sum of modulus q exceeds (n - 1) sqrt(q) at every level n <= 3
    q, r, samples = 101, 2, 7
    C = table(q, r)
    monkeypatch.setattr(weil, "char_sum", lambda C, spec: complex(q))
    rep = verify_weil(C, 3, samples=samples)
    assert rep.instances == q + q * (q - 1) // 2 + samples
    assert rep.violations == rep.instances


def test_char_sum_invariant_when_character_coincides():
    # 11 = 2^7 mod 13 and 7 = 1 mod 3, so both roots induce the same
    # order-3 character and every sum matches exactly.
    Fa = make_field(13, root=2)
    Fb = make_field(13, root=11)
    Ca, Cb = character_table(Fa, 3), character_table(Fb, 3)
    assert np.array_equal(Ca.exp_of, Cb.exp_of)
    for spec in (PolySpec((0, 1), (1, 2)), PolySpec((2, 5, 7), (1, 1, 2))):
        assert char_sum(Ca, spec) == pytest.approx(char_sum(Cb, spec),
                                                       abs=1e-9)


def test_weil_conclusions_root_independent():
    q = 13
    roots = [g for g in range(2, q)
             if all(pow(g, 12 // p, q) != 1 for p in (2, 3))]
    reports = []
    for g in roots:
        F = make_field(q, root=g)
        C = character_table(F, 3)
        reports.append(verify_weil(C, 2))
    assert all(r.violations == 0 for r in reports)
    assert len({r.instances for r in reports}) == 1


# ---------------------------------------------------------------------------
# coset probabilities
# ---------------------------------------------------------------------------

def test_single_target_probability():
    C = table(101, 2)
    p = coset_probability(C, [3], [1], ZeroConvention.ZERO_OUT)
    assert p == Fraction(50, 101)
    p_in = coset_probability(C, [3], [1], ZeroConvention.ZERO_IN)
    assert p_in == Fraction(51, 101)  # the boundary x = 3 now counts


def test_empty_conjunction():
    C = table(13, 2)
    assert coset_probability(C, [], [], ZeroConvention.ZERO_OUT) == 1


def test_probability_matches_enumeration():
    C = table(31, 3)
    cubes = {pow(x, 3, 31) for x in range(1, 31)}
    Y, t = [0, 4, 9], [1, 2, 6]
    cosets = [{ti * c % 31 for c in cubes} for ti in t]
    direct = sum(1 for x in range(31)
                 if all((y - x) % 31 in s for y, s in zip(Y, cosets)))
    assert coset_probability(C, Y, t, ZeroConvention.ZERO_OUT) == Fraction(direct, 31)


def test_probability_concentrates():
    C = table(101, 2)
    rng = np.random.default_rng(5)
    for _ in range(25):
        Y = sorted(rng.choice(101, size=3, replace=False).tolist())
        t = [int(v) for v in rng.integers(1, 101, size=3)]
        p = coset_probability(C, Y, t, ZeroConvention.ZERO_OUT)
        assert abs(float(p) - 1 / 8) <= 3 / math.sqrt(101)


def test_target_sum_covers_nonroot_translates():
    # summing over all r^n target vectors counts each x avoiding Y once
    C = table(13, 2)
    Y = [1, 5]
    reps = [1, 2]  # one per coset: 2 is a non-residue mod 13
    total = sum(coset_probability(C, Y, (t1, t2), ZeroConvention.ZERO_OUT)
                for t1 in reps for t2 in reps)
    assert total == Fraction(13 - 2, 13)


PROBABILITIES = (coset_probability, fuzzy_coset_probability,
                 fourier_probability)


def test_length_mismatch():
    C = table(13, 2)
    for probability in PROBABILITIES:
        with pytest.raises(LengthMismatch):
            probability(C, [0, 1], [1])


@pytest.mark.parametrize("probability", PROBABILITIES,
                         ids=lambda f: f.__name__)
def test_foreign_table_and_repeated_element_refused(probability):
    C = table(13, 2)
    with pytest.raises(ValueError):  # 13 is 0 in F_13
        probability(C, [0, 13], [1, 1])


def test_zero_target_refused():
    # 0 and 13 are the zero of F_13, which lies in no coset of G_2
    C = table(13, 2)
    for t in ([0, 1], [1, 13]):
        for probability in PROBABILITIES:
            with pytest.raises(ValueError):
                probability(C, [0, 1], t)


# ---------------------------------------------------------------------------
# Fourier identity (fuzzy weights)
# ---------------------------------------------------------------------------

def test_fuzzy_boundary_weight():
    C = table(13, 2)
    # Y = {0}: translate x = 0 hits the boundary and weighs 1/2
    p = fuzzy_coset_probability(C, [0], [1])
    assert p == Fraction(6, 13) + Fraction(1, 26)


def test_fourier_identity_exact():
    rng = np.random.default_rng(7)
    for q, r in [(13, 2), (13, 3), (61, 2), (101, 2)]:
        C = table(q, r)
        for n in (1, 2, 3):
            for _ in range(6):
                Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                t = [int(v) for v in rng.integers(1, q, size=n)]
                lhs = float(fuzzy_coset_probability(C, Y, t))
                rhs = fourier_probability(C, Y, t)
                assert abs(rhs.imag) < 1e-9
                assert lhs == pytest.approx(rhs.real, abs=1e-6)


# ---------------------------------------------------------------------------
# equidistribution
# ---------------------------------------------------------------------------

def test_equidistribution_clean():
    rep = verify_equidistribution(table(101, 2), 3, samples=500, seed=1)
    assert rep.violations == 0
    assert rep.max_normalized <= 1.0


def test_equidistribution_violations_are_counted(monkeypatch):
    # P = 1 is further than n/sqrt(q) + n/q from 2^-n for n <= 3 at q = 101
    monkeypatch.setattr(weil, "coset_probability",
                        lambda *args: Fraction(1))
    rep = verify_equidistribution(table(101, 2), 3, samples=20, seed=1)
    assert rep.instances == 3 * 20
    assert rep.violations == rep.instances


def test_equidistribution_stops_at_q_elements():
    # no n-subset of F_q exists past n = q, so levels 6 and 7 are skipped
    rep = verify_equidistribution(table(5, 2), 7, samples=10, seed=3)
    assert (rep.n_max, rep.instances) == (7, 5 * 10)
    assert rep.violations == 0


def test_equidistribution_single_target_margin():
    # n = 1 count is exactly (q-1)/r, within 1/q of 1/r
    C = table(199, 2)
    for t in (1, 2, 198):
        p = coset_probability(C, [0], [t], ZeroConvention.ZERO_OUT)
        assert abs(float(p) - 0.5) <= 1 / 199


# ---------------------------------------------------------------------------
# shattering theorem
# ---------------------------------------------------------------------------

def test_theorem_q997():
    rep = verify_shattering_theorem(make_field(997), 2, 0.1)
    assert rep.n_star == 3 and rep.passed


def test_theorem_small_q_trivial():
    rep = verify_shattering_theorem(make_field(7), 2, 0.1)
    assert rep.n_star <= 1 and rep.passed


def test_theorem_q101_r4():
    rep = verify_shattering_theorem(make_field(101), 4, 0.1)
    assert rep.n_star == 1 and rep.passed


def test_constructive_verdicts_match_witness_oracle():
    # every canonical subset of sizes 1 to 3, one verdict each, and the
    # report at n* = 3, against witnesses found by direct enumeration
    verdicts = set()
    for r, qs in [(2, [13, 17, 29, 37]), (3, [13, 19, 31, 37]),
                  (4, [13, 17, 29, 37])]:
        for q in qs:
            F, C = setup_fc(q, r)
            t = next(x for x in range(2, q) if pow(x, (q - 1) // r, q) != 1)
            fixed = 2 if r == 2 else 1
            for n in (1, 2, 3):
                k = min(fixed, n)
                want = [witnesses_complete(q, r, t, tuple(range(k)) + c)
                        for c in itertools.combinations(range(k, q), n - k)]
                got = np.concatenate(list(rooted_minima(
                    _witness_tally(F, C, t), fixed, n))) > 0
                assert got.tolist() == want, (q, r, n)
                verdicts.update(want)
            rep = verify_shattering_theorem(F, r, 0.5 - 3.5 / math.log(q, r))
            assert (rep.n_star, rep.checked, rep.failures) == (
                3, len(want), want.count(False)), (q, r)
    assert verdicts == {False, True}


def test_theorem_budget_is_checked_before_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel called on an over-budget check")

    monkeypatch.setattr(ChildTally, "children", refuse)
    with pytest.raises(Infeasible):
        verify_shattering_theorem(make_field(3793), 3, 0.1)
    # n* = 3 at q = 103, r = 3, eps = -0.3: C(102, 2) = 5151 subsets,
    # refused exactly when they exceed OP_BUDGET // q
    monkeypatch.setattr(weil, "OP_BUDGET", 5151 * 103 - 1)
    with pytest.raises(Infeasible):
        verify_shattering_theorem(make_field(103), 3, -0.3)
    monkeypatch.undo()
    monkeypatch.setattr(weil, "OP_BUDGET", 5151 * 103)
    rep = verify_shattering_theorem(make_field(103), 3, -0.3)
    assert (rep.n_star, rep.checked) == (3, 5151)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_theorem_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError):
        verify_shattering_theorem(make_field(101), 2, epsilon)


def test_theorem_past_pigeonhole_fails_every_subset():
    # 2^n > q - n: no n-set has 2^n allowed translates for its witnesses
    rep = verify_shattering_theorem(make_field(5), 2, -2)
    assert (rep.n_star, rep.checked, rep.failures) == (5, 1, 1)
    assert not rep.passed
    # n* = 4 at q = 13, r = 3: 16 > 9, where the kernel still counts
    F, C = setup_fc(13, 3)
    rep = verify_shattering_theorem(F, 3, -1.5)
    assert (rep.n_star, rep.checked, rep.failures) == (4, 220, 220)
    t = weil._first_non_power(C)
    minima = list(rooted_minima(_witness_tally(F, C, t), 1, 4))
    assert not any(mins.any() for mins in minima)


def _quad_tally(q):
    """The r = 2 witness tally, the one ``_quads_complete`` reads."""
    F, C = setup_fc(q, 2)
    return _witness_tally(F, C, weil._first_non_power(C))


@functools.cache
def _generic_quad_verdict(q):
    """Whether every rooted quad at q is STRICT shattered, by the generic
    rooted-minima walk; at q = 7 the 16 patterns outnumber the 3
    translates."""
    F = make_field(q)
    strict = ChildTally(residue_table(F, 2, 1, ZeroConvention.STRICT))
    return 16 <= q - 4 and all(mins.all()
                               for mins in rooted_minima(strict, 2, 4))


def test_quad_fast_path_matches_generic():
    # every canonical quad through the kernel under STRICT, against the
    # orbit check; the answer is False at most primes below 101 and at 103
    answers = set()
    for q in primes_in_range(7, 251):
        generic = _generic_quad_verdict(q)
        assert _all_quads_ok(make_field(q), _quad_tally(q)) == generic, q
        answers.add(generic)
    assert answers == {False, True}


def test_quad_batches_split_triples_and_match_generic(monkeypatch):
    # batches of 37 rows, odd and fewer than most triples' quads: a batch
    # ends inside one triple's quads, and holds the end of one triple and
    # the start of the next; with one triple a chunk, that batch also
    # spans two chunks of ``_kept_quads``
    monkeypatch.setattr(weil, "QUAD_ROWS", 37)
    batches, triples = weil._batches, []

    def spy(rows):
        for k, v in batches(rows):
            triples.append(set(k.tolist()))
            yield k, v

    monkeypatch.setattr(weil, "_batches", spy)
    for chunk in (weil.QUAD_CHUNK, 1):
        monkeypatch.setattr(weil, "QUAD_CHUNK", chunk)
        spans = splits = False
        for q in primes_in_range(7, 251):
            triples.clear()
            assert _all_quads_ok(make_field(q), _quad_tally(q)) == (
                _generic_quad_verdict(q)), (q, chunk)
            spans |= any(len(ks) > 1 for ks in triples)
            splits |= any(a & b for a, b in zip(triples, triples[1:]))
        assert spans and splits, chunk


def test_r2_witness_tally_is_the_strict_squares_tally():
    # the quad check's premise: at r = 2 the witness rule forbids only the
    # difference 0, so its window is the STRICT squares tally's
    for q in primes_in_range(5, 400):
        got = _quad_tally(q).window
        want = ChildTally(squares_table(make_field(q),
                                        ZeroConvention.STRICT)).window
        assert got.shape == want.shape, q
        assert got.dtype == want.dtype and np.array_equal(got, want), q


@pytest.mark.parametrize("epsilon, q_max, cases",
                         [(0.1, 400, 75), (0, 400, 76), (-0.25, 101, 24),
                          (-0.5, 61, 16)])
def test_r2_theorem_check_is_strict_testing_dimension(epsilon, q_max, cases):
    # for r = 2 the theorem check decides STRICT shattering of every
    # n*-set, which testing_dimension decides by its own walk: the two
    # verdicts agree whenever n* >= 1, at n* = 4 through the quad kernel
    # and elsewhere through rooted_minima
    seen = 0
    for q in primes_in_range(5, q_max):
        report = verify_shattering_theorem(make_field(q), 2, epsilon)
        n = report.n_star
        if n >= 1:
            seen += 1
            assert report.passed == (
                search.testing_dimension(q, ZeroConvention.STRICT, n) >= n), q
    assert seen == cases


def _pattern_at(member, quad, x):
    q = member.shape[0]
    return sum(int(member[(y - x) % q]) << i for i, y in enumerate(quad))


def _word_bits(words, width):
    """The low ``width`` bits of each uint64 in ``words``, as a
    (len(words), width) 0/1 array, bit j in column j."""
    return (words[:, None] >> np.arange(width, dtype=np.uint64)) & 1


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 61])
def test_quad_window_rows_are_translate_columns(q):
    # word (c + lo - y) mod q of ``_quad_words``, cut to a block, holds
    # y's bit at the translates x = c + lo + j (mod q) in ``bits`` and
    # marks x = y in ``own``: the words the kernel reads, for y = 0, 1, u
    # and v and every block, also at primes below one block
    bits, own = _quad_words(_quad_tally(q))
    member = member_vector(q, 2, 1, ZeroConvention.ZERO_OUT)
    c = q // 2
    for y in range(q):
        for lo in range(0, q, weil.QUAD_BLOCK):
            width = min(weil.QUAD_BLOCK, q - lo)
            xs = (c + lo + np.arange(width)) % q
            row = np.array([(c + lo - y) % q])
            want = np.where(xs == y, 0, member[(y - xs) % q])
            assert np.array_equal(_word_bits(bits[row], width)[0], want), (
                y, lo)
            assert np.array_equal(_word_bits(own[row], width)[0],
                                  xs == y), (y, lo)


@pytest.mark.parametrize("q", [5, 7, 13, 61, 67, 127, 131])
def test_words_pack_the_window_rows(q):
    # bit j of word i is entry j of window row i, the element's bit in
    # ``bits`` and the sentinel in ``own``, for all q + 1 rows; below
    # q = 64 a row has q entries and the bits past them are 0
    tallies = [_quad_tally(q)] + [
        ChildTally(squares_table(make_field(q), conv))
        for conv in ZeroConvention]
    for tally in tallies:
        bits, own = _quad_words(tally)
        rows = tally.window[:, :64]
        assert bits.dtype == own.dtype == np.uint64
        assert bits.shape == own.shape == (q + 1,)
        assert np.array_equal(_word_bits(bits, 64)[:, :rows.shape[1]],
                              rows == 1)
        assert np.array_equal(_word_bits(own, 64)[:, :rows.shape[1]],
                              rows == 2)
        assert not (_word_bits(bits | own, 64)[:, rows.shape[1]:]).any()
        assert (own != 0).any() == (tally.forbidden.size > 0)


def _strict_quad_verdicts(q):
    """Whether {0, 1, u, v} is STRICT shattered, for every 2 <= u < v."""
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    return {(u, v): bool(oracle_counts((0, 1, u, v), member,
                                       ZeroConvention.STRICT).all())
            for u, v in itertools.combinations(range(2, q), 2)}


def _rows(vs):
    """The (k, v) rows of ``_quads_complete`` for the one triple us[0]
    and the v in ``vs``."""
    vs = np.asarray(vs, dtype=np.int64)
    return [(np.zeros(vs.size, dtype=np.intp), vs)]


def _one_quad_per_row(quads):
    """The ``_quads_complete`` arguments with one quad (u, v) per row, row
    k for us[k] = u."""
    return [u for u, _ in quads], [(np.arange(len(quads), dtype=np.intp),
                                    np.array([v for _, v in quads]))]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31, 73, 103])
def test_quad_verdict_matches_strict_oracle(q):
    # one quad at a time, so each verdict is that of {0, 1, u, v} alone;
    # at 73 and 103, past one block of translates, both verdicts occur,
    # and below one block the table still covers every translate
    block = weil.QUAD_BLOCK
    tally = _quad_tally(q)
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    c = q // 2  # the kernel scans x = c + k (mod q) for k = 0, 1, ...
    verdicts = {}
    v_steps, completes_late = [], False
    for u, v in itertools.combinations(range(2, q), 2):
        quad = (0, 1, u, v)
        missing = np.flatnonzero(oracle_counts(
            quad, member, ZeroConvention.STRICT) == 0).tolist()
        verdicts[u, v] = not missing
        got = _quads_complete(tally, [u], _rows([v]))
        assert got == verdicts[u, v], (q, u, v)
        # the scan steps of v in failing quads whose one missing pattern is
        # read at x = v only
        if missing == [_pattern_at(member, quad, v)]:
            v_steps.append((v - c) % q)
        # a shattered quad whose 16 patterns need translates past the first
        # block
        if not missing and not completes_late:
            first = {(c + k) % q for k in range(block)} - set(quad)
            completes_late = len({_pattern_at(member, quad, x)
                                  for x in first}) < 16
    if q > block:
        assert set(verdicts.values()) == {False, True}
    if q in (73, 103):
        assert v_steps and completes_late
    if q == 103:  # v = 48 with u = 47, excluded in the second block
        assert max(v_steps) >= block
    # every v of one u in one call, so rows retire at different blocks
    for u in range(2, q - 1):
        vs = np.arange(u + 1, q, dtype=np.int64)
        assert _quads_complete(tally, [u], _rows(vs)) == all(
            verdicts[u, int(v)] for v in vs), (q, u)


@pytest.mark.parametrize("rows", [4096, 37])
@pytest.mark.parametrize("q", [73, 103])
def test_one_call_over_many_triples_matches_strict_oracle(monkeypatch, q,
                                                          rows):
    # one call, one quad per row, the rows of every u shuffled together:
    # the shattered quads pass, and one failing quad anywhere among them
    # fails the call, also when batches of 37 rows split the call
    monkeypatch.setattr(weil, "QUAD_ROWS", rows)
    tally = _quad_tally(q)
    verdicts = _strict_quad_verdicts(q)
    rng = np.random.default_rng(q)
    good = [quad for quad, ok in verdicts.items() if ok]
    bad = [quad for quad, ok in verdicts.items() if not ok]
    good = [good[i] for i in rng.permutation(len(good))]
    assert len({u for u, _ in good[:37]}) > 1 and bad
    assert _quads_complete(tally, *_one_quad_per_row(good))
    for quad in bad:
        at = int(rng.integers(len(good) + 1))
        quads = good[:at] + [quad] + good[at:]
        assert not _quads_complete(tally, *_one_quad_per_row(quads)), quad


def test_quad_check_skips_translate_one():
    # {0, 1, 2, 3} at q = 31 misses exactly one pattern among the
    # translates outside it, the pattern of the translate x = 1
    q = 31
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    quad = [0, 1, 2, 3]
    missing = np.flatnonzero(oracle_counts(quad, member,
                                           ZeroConvention.STRICT) == 0)
    at_one = _pattern_at(member, quad, 1)
    assert missing.tolist() == [at_one]
    assert not _quads_complete(_quad_tally(q), [2], _rows([3]))


def _canonical(q, Z):
    """No map x -> (x - a) / (b - a) over the ordered pairs (a, b) of the
    sorted tuple Z (holding 0 and 1) gives a smaller sorted image."""
    return all(tuple(sorted((x - a) * pow(b - a, -1, q) % q for x in Z)) >= Z
               for a, b in itertools.permutations(Z, 2))


def _affine_orbit_key(q, quad):
    """Least sorted image of ``quad`` under every map x -> c x + e."""
    return min(tuple(sorted((c * y + e) % q for y in quad))
               for c in range(1, q) for e in range(q))


def _quads_sent(monkeypatch, q):
    """The (u, vs) of every triple the one ``_quads_complete`` call of
    ``_all_quads_ok`` at q gets, in order, answered True: vs lists the v
    of the rows (k, v) with us[k] = u, which arrive in u-then-v order."""
    calls = []

    def spy(tally, us, rows):
        ks, vs = (np.concatenate(a) for a in zip(*rows))
        assert np.array_equal(np.lexsort((vs, ks)), np.arange(ks.size))
        for k, u in enumerate(us.tolist()):
            calls.append((u, vs[ks == k].tolist()))
        return True

    monkeypatch.setattr(weil, "_quads_complete", spy)
    assert _all_quads_ok(make_field(q), _quad_tally(q))
    return calls


def _own_pair_drops(q, u):
    """The v that a pair map x -> (x - a)/(z - a) of {0, 1, u} sends to
    some t with 2 <= t < u, for the pairs (0, u), (u, 0), (1, u) and
    (u, 1): v = a + t (z - a) mod q."""
    return {(a + t * (z - a)) % q for a, z in ((0, u), (u, 0), (1, u), (u, 1))
            for t in range(2, u)}


@pytest.mark.parametrize("q", [7, 11, 13, 17, 19, 23, 29])
def test_quads_sent_cover_every_affine_orbit(monkeypatch, q):
    # the verdict rests on this coverage: each canonical triple's u gets
    # v = u + 1, ..., q + 1 - u but those its own pair maps send lower,
    # and the quads sent meet every orbit
    calls = _quads_sent(monkeypatch, q)
    assert [u for u, _ in calls] == [u for u in range(2, q)
                                     if _canonical(q, (0, 1, u))]
    assert all(vs == [v for v in range(u + 1, q + 2 - u)
                      if v not in _own_pair_drops(q, u)] for u, vs in calls)
    orbits = {_affine_orbit_key(q, (0, 1, u, v))
              for u, v in itertools.combinations(range(2, q), 2)}
    assert {_affine_orbit_key(q, (0, 1, u, v))
            for u, vs in calls for v in vs} == orbits


@pytest.mark.parametrize("q", primes_in_range(5, 400) + [1031, 1033, 1039,
                                                          1049])
def test_every_canonical_quad_is_sent(monkeypatch, q):
    # the filter is sound: every canonical quad {0, 1, u, v} is sent, so
    # every quad in u < v <= q + 1 - u that is not sent is non-canonical
    # (below q = 60 canonical is also decided by the brute-force
    # ``_canonical``)
    F = make_field(q)
    sent = {(u, v) for u, vs in _quads_sent(monkeypatch, q) for v in vs}
    assert all(u < v <= q + 1 - u for u, v in sent)
    canonical = set()
    for u in range(2, q - 1):
        vs = np.arange(u + 1, q, dtype=np.int64)
        kept = vs[search.canonical(F, [0, 1, u], vs, all_pairs=True)]
        canonical.update((u, v) for v in kept.tolist())
    if q < 60:
        assert canonical == {(u, v) for u, v in itertools.combinations(
            range(2, q), 2) if _canonical(q, (0, 1, u, v))}
    assert canonical <= sent


# quads sent to the kernel at the primes of the theorem-quads workload
SENT_QUADS = {1031: 90551, 1033: 90974, 1039: 89412, 1049: 91515}


@pytest.mark.parametrize("q", SENT_QUADS)
def test_quads_sent_count(monkeypatch, q):
    assert sum(len(vs) for _, vs in _quads_sent(monkeypatch, q)) == (
        SENT_QUADS[q])


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([11, 13, 29, 37, 53, 61, 101, 103]), data=st.data())
def test_strict_quad_verdict_is_affine_invariant(q, data):
    quad = data.draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4,
                              unique=True))
    c = data.draw(st.integers(1, q - 1))
    e = data.draw(st.integers(0, q - 1))
    nu = next(x for x in range(2, q) if legendre(x, q) == -1)
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    verdict = oracle_shattered(quad, member, ZeroConvention.STRICT)
    # c and c * nu: one multiplier is a square, the other is not
    for mult in (c, c * nu % q):
        image = [(mult * y + e) % q for y in quad]
        assert oracle_shattered(image, member,
                                ZeroConvention.STRICT) == verdict


def test_theorem_q1031_counts_every_canonical_quad():
    rep = verify_shattering_theorem(make_field(1031), 2, 0.1)
    assert (rep.n_star, rep.checked, rep.failures, rep.passed) == (
        4, 528906, 0, True)
