"""Numerical verification of the character-sum machinery at small scale.

Every character sum and coset probability reads one ``CharacterTable``
C, which carries q and r: C.exp_of[x] is the e with x in the coset
g^e * G_r, and ``ZERO_EXP`` at x = 0.  Three independent checks:

- ``verify_weil``: complete character sums over root products stay within
  (n-1) * sqrt(q) whenever the polynomial has n distinct roots and is not
  an rth power.  Each sum is computed in full by ``char_sum``.  The
  exhaustive levels n = 1 and 2 take one sum per exponent vector, by the
  translation and affine identities proved in the ``verify_weil``
  docstring.
- ``verify_equidistribution``: the fraction of translates x placing every
  y_j - x into a prescribed coset t_j * G_r is within n/sqrt(q) + n/q of
  r^(-n); the n/q slack absorbs the boundary elements y_j - x = 0 that
  integer counting resolves differently from the weight-1/r convention.
- ``verify_shattering_theorem``: every subset of size up to
  floor((1/2 - eps) * log_r(q)) is shattered, witnessed constructively by
  translates placing in-pattern elements into G_r and out-of-pattern
  elements into a fixed non-trivial coset t * G_r.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import Infeasible, LengthMismatch
from .field import (ZERO_EXP, CharacterTable, PrimeField, ZeroConvention,
                    character_table, residue_table)
from .montecarlo import sample_subset
from .search import canonical
from .shatter import ChildTally, _allowed_translates, rooted_minima

WEIL_TOL = 1e-6
OP_BUDGET = 10**9


@dataclass(frozen=True)
class PolySpec:
    """f(x) = prod_j (roots[j] - x) ** powers[j] with 0 <= powers[j] < r.

    Some power must be positive, so f is never an rth power and its
    distinct roots are the roots[j] with powers[j] >= 1.
    """

    roots: tuple[int, ...]
    powers: tuple[int, ...]

    def __post_init__(self):
        if len(self.roots) != len(self.powers):
            raise LengthMismatch("one power per root required")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("roots must be distinct")
        if not any(k >= 1 for k in self.powers):
            raise ValueError("at least one power must be >= 1")

    @property
    def distinct_roots(self) -> int:
        return sum(1 for k in self.powers if k >= 1)


def char_sum(C: CharacterTable, spec: PolySpec) -> complex:
    """Sum of chi_r(f(x)) over all x in F_q, with chi_r(0) = 0, for the
    q and r of ``C``.

    The sum is accumulated as a histogram of exponents mod r and turned
    into a complex number once, so there is no per-term rounding.  Raises
    ValueError when two roots are equal mod q, since ``spec`` then does
    not have the distinct roots it claims.
    """
    q, r = C.q, C.r
    if len({y % q for y in spec.roots}) != len(spec.roots):
        raise ValueError(f"roots must be distinct mod {q}")
    xs = np.arange(q, dtype=np.int64)
    total = np.zeros(q, dtype=np.int64)
    hit_root = np.zeros(q, dtype=bool)
    for y, k in zip(spec.roots, spec.powers):
        if k == 0:
            continue
        e = C.exp_of[(y - xs) % q]
        hit_root |= e == ZERO_EXP
        total += k * e
    hist = np.bincount(total[~hit_root] % r, minlength=r)
    phases = np.exp(2j * np.pi * np.arange(r) / r)
    return complex(hist @ phases)


@dataclass(frozen=True)
class WeilReport:
    q: int
    r: int
    n_max: int
    instances: int
    violations: int
    max_ratio: float
    max_abs_sum: float
    worst: tuple | None


def _weil_specs(q: int, r: int, n_max: int, samples: int,
                seed: int) -> Iterator[tuple[PolySpec, int]]:
    """The PolySpecs ``verify_weil`` sums, each with the number of
    instances it stands for: one per exponent at level 1, for all q
    roots; one per exponent pair at level 2, for all q(q-1)/2 root pairs;
    then ``samples`` random specs at each level 3..n_max (at most q)."""
    if n_max >= 1:
        for k in range(1, r):
            yield PolySpec((0,), (k,)), q
    if n_max >= 2:
        for k1 in range(1, r):
            for k2 in range(1, r):
                yield PolySpec((0, 1), (k1, k2)), q * (q - 1) // 2
    rng = np.random.default_rng(seed)
    for n in range(3, min(n_max, q) + 1):
        for _ in range(samples):
            Y = sample_subset(rng, q, n)
            ks = tuple(int(v) for v in rng.integers(1, r, size=n))
            yield PolySpec(tuple(Y), ks), 1


def verify_weil(C: CharacterTable, n_max: int, samples: int = 500,
                seed: int = 0) -> WeilReport:
    """Check |char_sum| <= (n-1)*sqrt(q) + tolerance over PolySpecs, for
    the q and r of ``C``.

    Levels n = 1 and n = 2 are exhaustive: every root subset and every
    exponent vector in [1, r-1]^n is counted in ``instances``.  Levels
    3..n_max are sampled.  Every level is summed by ``char_sum``, and the
    exhaustive levels need one sum per exponent vector, by two identities
    (all sums over x in F_q, with chi(0) = 0):

    - Translation: x -> x + y shows sum_x chi^k(y - x) = sum_x chi^k(-x),
      the sum for the root 0, for every y.
    - Affine substitution: for roots y1 < y2 let d = y2 - y1 != 0.  As t
      runs over F_q so does x = y1 - d*t, with y1 - x = d*t and
      y2 - x = d*(1 + t).  Since chi(d) != 0 and chi is multiplicative,
      sum_x chi^k1(y1 - x) chi^k2(y2 - x)
      = chi^(k1+k2)(d) * sum_t chi^k1(t) chi^k2(1 + t),
      and t -> -t turns the last sum into S(k1, k2), the sum for the
      roots (0, 1).  So every pair sum has the modulus |S(k1, k2)|.

    ``max_ratio`` is |sum| / ((n-1) sqrt(q)) at its largest over n >= 2,
    and ``worst`` is the (roots, powers) reaching it; a level-2 maximum is
    reported at the roots (0, 1).
    """
    q, r = C.q, C.r
    sqrt_q = math.sqrt(q)
    instances = violations = 0
    max_ratio = 0.0
    max_abs = 0.0
    worst = None
    for spec, weight in _weil_specs(q, r, n_max, samples, seed):
        s = abs(char_sum(C, spec))
        bound = (spec.distinct_roots - 1) * sqrt_q
        instances += weight
        if s > bound + WEIL_TOL:
            violations += weight
        max_abs = max(max_abs, s)
        if bound and s / bound > max_ratio:
            max_ratio = s / bound
            worst = (spec.roots, spec.powers)
    return WeilReport(q=q, r=r, n_max=n_max, instances=instances,
                      violations=violations, max_ratio=max_ratio,
                      max_abs_sum=max_abs, worst=worst)


def _targets(C: CharacterTable, Y: Sequence[int],
             t: Sequence[int]) -> tuple[int, ...]:
    """The exponents of the coset targets (t_1, ..., t_n) of Y, after
    checking the input every coset probability shares: there is one
    target per element, the elements of Y are distinct mod q and every
    target is nonzero."""
    q = C.q
    if len(t) != len(Y):
        raise LengthMismatch(f"|Y| = {len(Y)} but |t| = {len(t)}")
    if len({y % q for y in Y}) != len(Y):
        raise ValueError(f"elements of Y must be distinct mod {q}")
    if any(tj % q == 0 for tj in t):
        raise ValueError("coset targets must be nonzero")
    return tuple(int(C.exp_of[tj % q]) for tj in t)


def _coset_counts(C: CharacterTable, Y: Sequence[int],
                  t: Sequence[int]) -> tuple[int, int]:
    """Numbers of translates x with y_j - x in t_j * G_r for every j:
    ``inside`` those with no y_j - x = 0, ``boundary`` those with one
    y_i - x = 0 and every other y_j - x in its coset.  As Y is distinct,
    no translate hits two elements."""
    exps = np.array(_targets(C, Y, t), dtype=np.int64)
    q = C.q
    ys = np.array([y % q for y in Y], dtype=np.int64)
    e = C.exp_of[(ys[:, None] - np.arange(q, dtype=np.int64)) % q]
    hit = e == exps[:, None]
    zero = e == ZERO_EXP
    inside = int(hit.all(axis=0).sum())
    boundary = int(((hit | zero).all(axis=0) & zero.any(axis=0)).sum())
    return inside, boundary


def coset_probability(C: CharacterTable, Y: Sequence[int], t: Sequence[int],
                      conv: ZeroConvention = ZeroConvention.ZERO_OUT) -> Fraction:
    """Exact fraction of x in F_q with y_j - x in t_j * G_r for every j.

    Boundary translates (those with some y_j - x = 0) count as members of
    every coset under ZERO_IN and as non-members otherwise.  The
    denominator is always q.
    """
    inside, boundary = _coset_counts(C, Y, t)
    if conv is ZeroConvention.ZERO_IN:
        inside += boundary
    return Fraction(inside, C.q)


def fuzzy_coset_probability(C: CharacterTable, Y: Sequence[int],
                            t: Sequence[int]) -> Fraction:
    """Coset probability with boundary translates weighted 1/r.

    A translate x = y_j contributes weight 1/r times the product of the
    other factors; all other translates contribute 0 or 1.  This is the
    exact weighting under which the character expansion below is an
    identity.
    """
    inside, boundary = _coset_counts(C, Y, t)
    return (inside + Fraction(boundary, C.r)) / C.q


def fourier_probability(C: CharacterTable, Y: Sequence[int],
                        t: Sequence[int]) -> complex:
    """Character-expansion form of the fuzzy coset probability.

    r^(-n) * (1 + sum over nonzero exponent vectors k of
    conj(chi)(prod t_j^k_j) * (1/q) * char_sum(f_k)).
    """
    exps = _targets(C, Y, t)
    q, r = C.q, C.r
    n = len(Y)
    phases = np.exp(2j * np.pi * np.arange(r) / r)
    total = 1.0 + 0.0j
    for ks in itertools.product(range(r), repeat=n):
        if not any(ks):
            continue
        prod_exp = sum(k * e for k, e in zip(ks, exps)) % r
        b = phases[prod_exp].conjugate()
        s = char_sum(C, PolySpec(tuple(Y), ks))
        total += b * s / q
    return total / r**n


@dataclass(frozen=True)
class EquiReport:
    q: int
    r: int
    n_max: int
    samples: int
    instances: int
    violations: int
    max_normalized: float


def verify_equidistribution(C: CharacterTable, n_max: int,
                            samples: int = 500, seed: int = 0) -> EquiReport:
    """Sample (Y, t) pairs and check |P - r^(-n)| <= n/sqrt(q) + n/q, for
    the q and r of ``C``.

    Counts are integers (boundary translates are non-members, as under
    STRICT); the n/q term absorbs their gap from the weight-1/r
    idealization.
    """
    q, r = C.q, C.r
    rng = np.random.default_rng(seed)
    instances = violations = 0
    max_norm = 0.0
    for n in range(1, n_max + 1):
        if n > q:
            break
        for _ in range(samples):
            Y = sample_subset(rng, q, n)
            t = [int(v) for v in rng.integers(1, q, size=n)]
            p = coset_probability(C, Y, t, ZeroConvention.STRICT)
            bound = n / math.sqrt(q) + n / q
            gap = abs(float(p) - r ** -n)
            instances += 1
            if gap > bound:
                violations += 1
            max_norm = max(max_norm, gap / bound)
    return EquiReport(q=q, r=r, n_max=n_max, samples=samples,
                      instances=instances, violations=violations,
                      max_normalized=max_norm)


# ---------------------------------------------------------------------------
# Constructive shattering check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    q: int
    r: int
    epsilon: float
    n_star: int
    checked: int
    failures: int
    passed: bool


def _first_non_power(C: CharacterTable) -> int:
    """The least t in F_q outside G_r; one exists, as r >= 2 divides
    q - 1 (``character_table``)."""
    return int(np.flatnonzero(C.exp_of > 0)[0])


def _witness_tally(F: PrimeField, C: CharacterTable, t: int) -> ChildTally:
    """The kernel for the constructive witnesses: bit j is y_j - x in G_r;
    x is dropped when some y_j - x is outside G_r and t * G_r, or 0."""
    e = C.exp_of
    forbidden = np.flatnonzero((e != 0) & (e != e[t]))
    return ChildTally(residue_table(F, C.r, 1, ZeroConvention.ZERO_OUT),
                      forbidden)


#: The table of one round of the quad check: each of the four groups of
#: translates gets ``QUAD_BLOCKS`` blocks of ``QUAD_BITS`` members, and
#: each block 2^QUAD_BITS rows, the ANDs of its members' subsets.
QUAD_BLOCKS = 6
QUAD_BITS = 5
#: Entry n is the uint64 word with its n low bits set.
_LOW = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)


def _low_bits(k: np.ndarray, words: int) -> np.ndarray:
    """(len(k), words) uint64 rows, row i with the bits v < k[i] set, bit
    v at bit v % 64 of word v // 64."""
    return _LOW[np.clip(k[:, None] - 64 * np.arange(words), 0, 64)]


def _quad_rows(tally: ChildTally) -> np.ndarray:
    """(q + 1, 2, ceil(q / 64)) uint64 rows R of the r = 2 witness tally
    over F_q, bit v of a row at bit v % 64 of word v // 64.

    R[x, 0] holds the v with v - x a nonzero square and R[x, 1] those
    with v - x a non-square; both hold v = x, the tally's sentinel 2.
    Row q is all ones, a member that ANDs nothing away.  Entry v of
    R[x, pol] is c_pol[q - 1 - x + v] for the reversed column read as
    c_0 = marked[2q - 1 - i] != 0 and c_1 = marked[2q - 1 - i] != 1, so
    row x is the window of c_pol at offset s = q - 1 - x: words s // 64
    on of c_pol packed from bit s % 64.  The 64 packings of each c_pol
    shifted by 0-63 bits are made at once, and their word windows are
    copied in the order of s; R is that array reversed, with the bits
    past q cleared.
    """
    q = tally.q
    words = -(-q // 64)
    span = (q - 1) // 64 + words  # words of c_pol that a row's window reaches
    c = np.zeros((2, 64 * (span + 1)), dtype=bool)
    c[0, : 2 * q] = tally.marked[::-1] != 0
    c[1, : 2 * q] = tally.marked[::-1] != 1
    shifted = np.packbits(sliding_window_view(c, 64 * span, axis=1)[:, :64],
                          axis=2, bitorder="little").view("<u8")
    windows = sliding_window_view(shifted, words, axis=2)
    # row 1 + s is window s // 64 of shift s % 64, row 0 the all-ones row
    by_s = np.empty((1 + 64 * windows.shape[2], 2, words), dtype=np.uint64)
    by_s[1:].reshape(-1, 64, 2, words)[...] = windows.transpose(2, 1, 0, 3)
    by_s[:, :, -1] &= _LOW[q - 64 * (words - 1)]
    by_s[0] = _LOW[64]
    return by_s[q::-1]


def _failing_quads(tally: ChildTally, us: np.ndarray) -> np.ndarray:
    """(len(us), ceil(q / 64)) uint64 words, bit v of row k set when the
    quad {0, 1, us[k], v}, for u = us[k] < v <= q + 1 - u, misses one of
    the 16 patterns among the translates outside it.

    ``tally`` is the r = 2 witness tally (``_all_quads_ok``), read through
    its ``marked`` column and ``_quad_rows``.  Let X_p be the translates
    x outside {0, 1, u} at which {0, 1, u} shows the pattern p.  The quad
    shows the patterns (p, b) at the x of X_p other than v, where b is
    v's bit at x, 1 for v - x in S, the nonzero squares, and 0 for v - x
    in N, the non-squares; x = v, where v - x = 0, is the quad's own
    translate and shows nothing.  So the quad misses (p, 0) exactly when
    every x in X_p other than v has v - x in S, and (p, 1) exactly when
    every such x has v - x in N, an empty X_p - {v} missing both.  Row x
    of polarity 0 of ``_quad_rows`` holds the v with v - x in S and
    v = x, so their intersection over X_p is the set of v missing (p, 0),
    and polarity 1 gives (p, 1) from N alike.

    The bits of 0 and 1 at x do not depend on u, so the translates fall
    into four groups g = (bit of 0) + 2 (bit of 1) that every triple
    shares; x in {0, 1}, where one of them reads the sentinel 2, joins
    none.  For the triple u, X_p with p = (g, b) is the members of group
    g at which u's bit is b, and x = u, u's sentinel, is in neither.
    Each triple keeps one accumulator per (b, g), both polarities, each
    starting at the v in range.  The groups list their members in the
    scan order from x = q // 2 on, wrapping around, and each round takes
    the next ``QUAD_BLOCKS`` blocks of ``QUAD_BITS`` members of each
    group, the absent members past a group's end reading as row q, all
    ones.  A round builds one table, for all triples, of the AND of the
    rows of every subset of each block's members, by doubling; then
    accumulator (b, g) of each triple ANDs, for each block of group g,
    the entry of the subset of members at which u's bit is b.  AND does
    not depend on order or grouping, so after the last round an
    accumulator is the intersection over its class, and the triple's
    failing v are the union of its 16 rows.  A triple whose 16 rows are
    empty after a round has no failing v and leaves the rounds, which
    end once no triple is left.  A random quad sees all 16 patterns
    after about 16 H_16 = 54 translates, so one round of 4 x 30 members
    empties most of them: at the primes 1024-1049 about 112 of a
    prime's 173 triples are left for a second round, and none for a
    third.  The scan starts at q // 2 because the small translates are
    no random sample: the bits of 0 and 1 read the character at -x and
    1 - x, which multiplicativity ties to its values at small primes.
    """
    q = tally.q
    R = _quad_rows(tally)
    words = R.shape[-1]
    scan = (q // 2 + np.arange(q)) % q
    e0, e1 = tally.window[q, scan], tally.window[q - 1, scan]
    g = e0 + 2 * e1
    g[(e0 == 2) | (e1 == 2)] = 4
    groups = [scan[g == i] for i in range(4)]
    # round r, group g: QUAD_BLOCKS blocks of QUAD_BITS members, q if absent
    per_round = QUAD_BLOCKS * QUAD_BITS
    width = -(-max(map(len, groups)) // per_round) * per_round
    rounds = np.full((4, width), q)
    for i, xs in enumerate(groups):
        rounds[i, : xs.size] = xs
    rounds = rounds.reshape(4, -1, QUAD_BLOCKS, QUAD_BITS).swapaxes(0, 1)
    start = _low_bits(q + 2 - us, words) & ~_low_bits(us + 1, words)
    # accumulator (b, g) of triple k, both polarities
    acc = np.repeat(start, 16, axis=0).reshape(-1, 2, 4, 2, words)
    k = np.arange(us.size)
    bits = 1 << np.arange(QUAD_BITS)
    base = np.arange(4 * QUAD_BLOCKS).reshape(4, -1) << QUAD_BITS
    for members in rounds:
        table = np.empty((4, QUAD_BLOCKS, 1 << QUAD_BITS, 2, words),
                         dtype=np.uint64)
        table[:, :, 0] = _LOW[64]
        for j in range(QUAD_BITS):
            table[:, :, 1 << j : 2 << j] = (table[:, :, : 1 << j]
                                            & R[members[..., j], None])
        table = table.reshape(-1, 2, words)
        # u's entries at the members: 0, 1, or the sentinel 2 at x = u;
        # an absent member reads an entry of no consequence
        entries = tally.marked[(q - us[k])[:, None, None, None] + members]
        index = np.stack([entries == 0, entries == 1], axis=1) @ bits + base
        for b in range(QUAD_BLOCKS):
            acc &= table[index[..., b]]
        live = acc.any(axis=(1, 2, 3, 4))
        k, acc = k[live], acc[live]
        if not k.size:
            break
    failing = np.zeros(start.shape, dtype=np.uint64)
    failing[k] = np.bitwise_or.reduce(acc.reshape(k.size, 16, words), axis=1)
    return failing


def _all_quads_ok(F: PrimeField, tally: ChildTally) -> bool:
    """All quads {0, 1, u, v} pass the constructive check (r = 2).

    ``tally`` is ``_witness_tally`` at r = 2.  Every nonzero difference
    lies in G_2 or t * G_2, so its rule forbids only the difference 0, and
    its table is the ZERO_OUT squares: its window is that of
    ``ChildTally(squares_table(F, STRICT))``.  For r = 2 the constructive
    witness condition is exactly STRICT shattering of the squares S, every
    one of the 16 patterns Y & (S + x) appearing among the translates x
    outside Y.  Every affine map x -> c x + e (c != 0) keeps it: for x not
    in Y the differences y - x are nonzero and scale by c, so the patterns
    of the image are those of Y, each kept (c a square) or each
    complemented, and the full set of 16 maps onto itself.  So one quad
    per affine orbit decides every quad.

    The quads checked are {0, 1, u, v} for the u with {0, 1, u}
    ``search.canonical`` (all pairs valid) and u < v <= q + 1 - u, all
    decided together by one ``_failing_quads`` call.  They hold every
    orbit's canonical member {0, 1, u, v}: each affine orbit has exactly
    one (point 1 of the ``search`` docstring), its triple {0, 1, u} is
    canonical too (point 2), and the pair (1, 0) maps x -> 1 - x, sending
    (u, v) to (q + 1 - v, q + 1 - u), so a canonical quad has
    v <= q + 1 - u.  Every other quad checked holds {0, 1} too, so it
    fails only when some quad does and cannot change a true verdict.
    Over the primes 1024-1049 that is 540,968 quads (133,606 of 528,906
    at q = 1031) over 694 triples, of which 179,238 quads are canonical;
    the four checks took about 6 ms of CPU in all on a 2-vCPU machine
    (best of 30 in one process).
    """
    q = F.q
    us = np.arange(2, q, dtype=np.int64)
    us = us[canonical(F, [0, 1], us, all_pairs=True)]
    return not _failing_quads(tally, us).any()


def verify_shattering_theorem(F: PrimeField, r: int, epsilon: float) -> TheoremReport:
    """Check that every subset of size <= floor((1/2 - eps) * log_r q) has
    constructive shattering witnesses.

    The check always decides this constructive condition, which for r = 2
    is STRICT shattering (0 a non-member, translates inside the subset
    skipped); no zero convention applies to it.

    Rooting: every subset is translated onto one holding 0, and for r = 2
    mapped onto one holding {0, 1}, as the witness condition is kept by
    translations and, for r = 2, by every affine map (``_all_quads_ok``).
    So the check decides the rooted n-sets, those holding {0, ..., k - 1}
    with k = 2 for r = 2 and k = 1 otherwise, and ``checked`` counts
    them, C(q - k, n - k).  At r = 2 and n* = 4 ``_all_quads_ok`` decides
    quads that cover every affine orbit, all of them together, and
    answers whether some quad fails, so there ``failures`` is 0 or 1, not
    how many.  At every other size ``failures`` counts the failing
    rooted subsets.  Both read the window of one ``_witness_tally``,
    whose sentinel drops each element's own translate.

    Other sizes walk the rooted subsets with ``rooted_minima``, after
    checking their number against ``OP_BUDGET // q``, unless 2^n > q - n:
    an n-set then has fewer allowed translates, those outside it as under
    STRICT, than the 2^n witnesses it needs, so every one fails.  Raises
    ValueError for a non-finite ``epsilon``.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, not {epsilon}")
    C = character_table(F, r)
    q = F.q
    n_star = int((0.5 - epsilon) * math.log(q, r))
    t = _first_non_power(C)
    if n_star <= 0:
        return TheoremReport(q=q, r=r, epsilon=epsilon, n_star=n_star,
                             checked=0, failures=0, passed=True)
    # Constructive witnesses are monotone under restriction, so checking
    # the top size n_star covers all smaller subsets.
    n = min(n_star, q)
    k = min(2 if r == 2 else 1, n)  # the rooted sets hold 0, ..., k-1
    checked = math.comb(q - k, n - k)
    if r == 2 and n == 4:
        failures = 0 if _all_quads_ok(F, _witness_tally(F, C, t)) else 1
    elif checked > OP_BUDGET // q:
        raise Infeasible(f"enumerating the rooted subsets at q={q}, n*={n} "
                         f"exceeds the operation budget")
    elif (1 << n) > _allowed_translates(n, q, ZeroConvention.STRICT):
        # pigeonhole: every subset fails, and the count needs them all,
        # where ``_require_bins`` would refuse sizes far past the bound
        failures = checked
    else:
        minima = rooted_minima(_witness_tally(F, C, t), k, n)
        failures = sum(int((mins == 0).sum()) for mins in minima)
    return TheoremReport(q=q, r=r, epsilon=epsilon, n_star=n_star,
                         checked=checked, failures=failures,
                         passed=failures == 0)
