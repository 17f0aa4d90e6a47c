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
                            _all_quads_ok, _failing_quads, _quad_rows,
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
    """The r = 2 witness tally, the one ``_failing_quads`` reads."""
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


def test_quad_rounds_match_generic(monkeypatch):
    # rounds of 2 and 6 members a group: most triples need several rounds,
    # the groups run out inside a block, whose absent members must AND
    # nothing away, and a failure is decided only after the last round
    for blocks, bits in ((1, 2), (2, 3)):
        monkeypatch.setattr(weil, "QUAD_BLOCKS", blocks)
        monkeypatch.setattr(weil, "QUAD_BITS", bits)
        answers = set()
        for q in primes_in_range(7, 251):
            generic = _generic_quad_verdict(q)
            assert _all_quads_ok(make_field(q), _quad_tally(q)) == generic, (
                q, blocks, bits)
            answers.add(generic)
        assert answers == {False, True}, (blocks, bits)


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
    """The low ``width`` bits of the uint64 words in the last axis of
    ``words``, as 0/1 entries, bit v at bit v % 64 of word v // 64."""
    shifts = np.arange(64, dtype=np.uint64)
    bits = (words[..., None] >> shifts) & np.uint64(1)
    return bits.reshape(words.shape[:-1] + (-1,))[..., :width]


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 61])
def test_quad_window_rows_are_translate_columns(q):
    # row x of ``_quad_rows`` holds, over v, the translate x's column read
    # by v: polarity 0 the v with v - x a nonzero square, polarity 1 those
    # with v - x a non-square, both v = x
    R = _quad_rows(_quad_tally(q))
    member = member_vector(q, 2, 1, ZeroConvention.ZERO_OUT)
    v = np.arange(q)
    for x in range(q):
        square = member[(v - x) % q] == 1
        assert np.array_equal(_word_bits(R[x, 0], q), square | (v == x)), x
        assert np.array_equal(_word_bits(R[x, 1], q), ~square | (v == x)), x


@pytest.mark.parametrize("q", [5, 7, 13, 61, 67, 127, 131])
def test_words_pack_the_window_rows(q):
    # bit v of row x, polarity 0, is entry q - 1 - v of window row x + 1
    # (nonzero: the element's bit or the sentinel), bit v % 64 of word
    # v // 64; polarity 1 is its complement but for the sentinel; the
    # bits past q are 0 and the sentinel sits at v = x; row q, the absent
    # member, is all ones
    tally = _quad_tally(q)
    R = _quad_rows(tally)
    words = -(-q // 64)
    assert R.dtype == np.uint64 and R.shape == (q + 1, 2, words)
    assert (R[q] == np.uint64(2**64 - 1)).all()
    entries = tally.window[1:, ::-1]
    bits = _word_bits(R[:q], 64 * words)
    assert np.array_equal(bits[:, 0, :q], entries != 0)
    assert np.array_equal(bits[:, 1, :q], entries != 1)
    assert not bits[:, :, q:].any()
    assert (np.diagonal(bits[:, 0, :q]) == 1).all()
    assert (np.diagonal(bits[:, 1, :q]) == 1).all()


def _failing_vs(tally, u):
    """The v that ``_failing_quads`` reports for the one triple {0, 1, u}."""
    words = _failing_quads(tally, np.array([u], dtype=np.int64))[0]
    return set(np.flatnonzero(_word_bits(words, tally.q)).tolist())


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19, 23, 29, 31, 73, 103])
def test_quad_verdict_matches_strict_oracle(q):
    # one triple at a time: the v reported failing are exactly the v in
    # u < v <= q + 1 - u whose quad {0, 1, u, v} misses a pattern; below
    # q = 20 every quad fails (16 patterns, fewer translates), so the
    # report is the whole range; from q = 73 on both verdicts occur
    tally = _quad_tally(q)
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    verdicts = set()
    for u in range(2, q):
        want = set()
        for v in range(u + 1, q + 2 - u):
            ok = bool(oracle_counts((0, 1, u, v), member,
                                    ZeroConvention.STRICT).all())
            verdicts.add(ok)
            if not ok:
                want.add(v)
        assert _failing_vs(tally, u) == want, (q, u)
    if q < 20:
        assert verdicts == {False}
    if q >= 73:
        assert verdicts == {False, True}


@pytest.mark.parametrize("shape", [(6, 5), (2, 3)], ids=["6x5", "2x3"])
@pytest.mark.parametrize("q", [73, 103])
def test_one_call_over_many_triples_matches_strict_oracle(monkeypatch, q,
                                                          shape):
    # one call over every u, shuffled: row k holds the failing v of us[k]
    # alone, also when triples leave the rounds at different times and
    # the live ones are compacted; at (2, 3) most triples take several
    # rounds, at (6, 5) most take one
    monkeypatch.setattr(weil, "QUAD_BLOCKS", shape[0])
    monkeypatch.setattr(weil, "QUAD_BITS", shape[1])
    tally = _quad_tally(q)
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    us = np.random.default_rng(q).permutation(np.arange(2, q, dtype=np.int64))
    assert list(us) != sorted(us)
    failing = _failing_quads(tally, us)
    assert failing.shape == (q - 2, -(-q // 64))
    mixed = 0
    for k, u in enumerate(us.tolist()):
        want = {v for v in range(u + 1, q + 2 - u)
                if not oracle_counts((0, 1, u, v), member,
                                     ZeroConvention.STRICT).all()}
        got = set(np.flatnonzero(_word_bits(failing[k], q)).tolist())
        assert got == want, (q, u)
        mixed += 0 < len(want) < q + 1 - 2 * u
    # some triple has both a failing and a shattered quad
    assert mixed
    assert _failing_quads(tally, us[::-1]).tolist() == failing[::-1].tolist()


@pytest.mark.parametrize("q", [29, 31, 37, 41, 43])
def test_one_member_a_lookup_matches_strict_oracle(monkeypatch, q):
    # table shape (1, 1): each lookup ANDs the row of at most one member,
    # so an entry that ANDs a member other than the one it names, or one
    # of another class, shows against the per-quad oracle
    monkeypatch.setattr(weil, "QUAD_BLOCKS", 1)
    monkeypatch.setattr(weil, "QUAD_BITS", 1)
    member = member_vector(q, 2, 1, ZeroConvention.STRICT)
    tally = _quad_tally(q)
    for u in range(2, q):
        want = {v for v in range(u + 1, q + 2 - u)
                if not oracle_counts((0, 1, u, v), member,
                                     ZeroConvention.STRICT).all()}
        assert _failing_vs(tally, u) == want, (q, u)


@pytest.mark.parametrize("words", [1, 2, 3])
def test_low_bits_match_packed_booleans(words):
    # the word edges: no bit, a word but one, one word, one bit past it,
    # and every word
    ks = np.array([0, 1, 63, 64, 65, 127, 128, 129, 64 * words - 1,
                   64 * words], dtype=np.int64)
    got = weil._low_bits(ks, words)
    assert got.dtype == np.uint64 and got.shape == (ks.size, words)
    want = np.packbits(np.arange(64 * words) < ks[:, None], axis=1,
                       bitorder="little").view("<u8")
    assert got.tolist() == want.tolist()


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
    assert 3 in _failing_vs(_quad_tally(q), 2)


def test_quad_check_excludes_translate_v():
    # quads whose one missing pattern (p, b) is the one the translate
    # x = v, of class p of {0, 1, u}, would show if v's own entry read b:
    # x = v counts for neither polarity, so they fail; both b occur
    seen = set()
    for q, u in itertools.product((61, 73), range(2, 73)):
        if u >= q:
            continue
        member = member_vector(q, 2, 1, ZeroConvention.STRICT)
        tally = _quad_tally(q)
        failing = _failing_vs(tally, u)
        for v in range(u + 1, q + 2 - u):
            quad = (0, 1, u, v)
            missing = np.flatnonzero(oracle_counts(
                quad, member, ZeroConvention.STRICT) == 0).tolist()
            p = _pattern_at(member, quad[:3], v)
            for b in (0, 1):
                if missing == [p | b << 3]:
                    seen.add((q, b))
                    assert v in failing, (q, u, v)
    assert {b for _, b in seen} == {0, 1}


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
    """The (u, vs) of every triple that the one ``_failing_quads`` call of
    ``_all_quads_ok`` at q decides, in order, answered with no failure:
    vs lists its v, u < v <= q + 1 - u."""
    calls = []

    def spy(tally, us):
        calls.extend((u, list(range(u + 1, q + 2 - u))) for u in us.tolist())
        return np.zeros((us.size, 1), dtype=np.uint64)

    monkeypatch.setattr(weil, "_failing_quads", spy)
    assert _all_quads_ok(make_field(q), _quad_tally(q))
    return calls


@pytest.mark.parametrize("q", [7, 11, 13, 17, 19, 23, 29])
def test_quads_sent_cover_every_affine_orbit(monkeypatch, q):
    # the verdict rests on this coverage: the canonical triples, each
    # with v = u + 1, ..., q + 1 - u, meet every orbit
    calls = _quads_sent(monkeypatch, q)
    assert [u for u, _ in calls] == [u for u in range(2, q)
                                     if _canonical(q, (0, 1, u))]
    orbits = {_affine_orbit_key(q, (0, 1, u, v))
              for u, v in itertools.combinations(range(2, q), 2)}
    assert {_affine_orbit_key(q, (0, 1, u, v))
            for u, vs in calls for v in vs} == orbits


@pytest.mark.parametrize("q", primes_in_range(5, 400) + [1031, 1033, 1039,
                                                          1049])
def test_every_canonical_quad_is_sent(monkeypatch, q):
    # the triple filter and the v range are sound: every canonical quad
    # {0, 1, u, v} is decided
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


# quads decided by the kernel at the primes of the theorem-quads workload
SENT_QUADS = {1031: 133606, 1033: 136080, 1039: 134490, 1049: 136792}


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
