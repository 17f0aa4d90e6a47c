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
from typing import Iterable, Iterator, Sequence

import numpy as np

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


#: Translates ``_quads_complete`` scans per block before retiring rows:
#: one uint64 word of ``_quad_words``.
QUAD_BLOCK = 64
#: Most quads ``_quads_complete`` scans together, one batch.
QUAD_ROWS = 4096


def _quad_words(tally: ChildTally) -> tuple[np.ndarray, np.ndarray]:
    """The first 64 entries of each row of ``tally.window`` (all q below
    q = 64) packed into one uint64 word per row, entry j at bit j.
    ``bits`` marks the entries that are the element's bit, ``own`` the
    sentinels, the translates the rule drops; row q - m reads 64
    translates of m's column at once."""
    rows = tally.window[:, :64]
    packed = np.zeros((2, tally.q + 1, 8), dtype=np.uint8)
    for word, entry in zip(packed, (1, 2)):
        bytes_ = np.packbits(rows == entry, axis=1, bitorder="little")
        word[:, :bytes_.shape[1]] = bytes_
    bits, own = packed.view("<u8")[..., 0].astype(np.uint64)
    return bits, own


def _class_words(bits: np.ndarray, own: np.ndarray,
                 us: np.ndarray) -> np.ndarray:
    """(blocks, len(us), 8) uint64 class words of the triples {0, 1, u},
    from the q + 1 ``_quad_words`` ``bits`` and ``own`` of a tally over
    F_q.

    Word p of block b, for u = us[k], has bit j set when the translate
    x = c + 64 b + j (mod q), c = q // 2, gives {0, 1, u} the pattern p
    (bit 0 for 0, bit 1 for 1, bit 2 for u).  The 8 words of a block
    split its translates outside {0, 1, u}: the translates x in {0, 1, u}
    (the ``own`` bits of their three rows) and the bits past the block's
    width are cleared.
    """
    q = bits.shape[0] - 1
    los = np.arange(0, q, QUAD_BLOCK)
    # row (c + lo - y) mod q of y = 0, 1 and each u, for every block
    rows = (q // 2 + los)[:, None] - np.concatenate([[0, 1], us])
    rows %= q
    a0, a1, au = bits[rows[:, :1]], bits[rows[:, 1:2]], bits[rows[:, 2:]]
    o0, o1, ou = own[rows[:, :1]], own[rows[:, 1:2]], own[rows[:, 2:]]
    width = np.minimum(QUAD_BLOCK, q - los).astype(np.uint64)
    ones = np.uint64(2**64 - 1) >> (np.uint64(QUAD_BLOCK) - width)[:, None]
    word = ones & ~(o0 | o1 | ou)
    classes = np.empty((los.size, us.size, 8), dtype=np.uint64)
    for p in range(8):
        classes[:, :, p] = word
        for k, a in enumerate((a0, a1, au)):
            classes[:, :, p] &= a if p >> k & 1 else ~a
    return classes


#: Most quads, kept or not, one chunk of ``_kept_quads`` marks, unless a
#: single triple has more: a chunk holds max(1, QUAD_CHUNK // q)
#: consecutive triples, each with fewer than q quads.
QUAD_CHUNK = 1 << 14


def _kept_quads(q: int, us: np.ndarray
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(k, v) arrays of the quads {0, 1, us[k], v} that ``_all_quads_ok``
    sends, in u-then-v order: for each u = us[k], the v in
    u < v <= q + 1 - u outside the four progressions
    v = a + t (z - a) (mod q), 2 <= t < u, of the pairs (a, z) = (0, u),
    (u, 0), (1, u) and (u, 1).  With w = t u and w' = t (u - 1) mod q,
    these are v = w, u - w, 1 + w' and u - w' (mod q).  Their places
    among u's quads, v - u - 1, are w - u - 1, q - 1 - w, w' - u and
    q - 1 - w' whenever they lie in range: u - w and u - w' can only
    reach it as u - w + q and u - w' + q.

    Each chunk marks its quads in a keep mask of one byte a quad, a row
    per triple with one spare byte at its end, where every place out of
    range goes; its (k, v) arrays are built from the mask, so no array
    spans the prime's quads."""
    n = q + 1 - 2 * us  # >= 0: a canonical u is at most 1 - u = q + 1 - u
    steps = us - 2
    # where each triple's row, of n + 1 bytes, starts in one mask over
    # every triple, and where its t start in one array over every triple
    starts = np.concatenate(([0], np.cumsum(n + 1)))
    ts = np.concatenate(([0], np.cumsum(steps)))
    ds = np.stack((us, us - 1))
    per = max(1, QUAD_CHUNK // q)
    for i in range(0, us.size, per):
        j = min(i + per, us.size)
        bounds = starts[i : j + 1] - starts[i]
        first, s = bounds[:-1], steps[i:j]
        keep = np.ones(bounds[-1], dtype=bool)
        t = np.arange(ts[i], ts[j]) - np.repeat(ts[i:j] - 2, s)
        d = np.repeat(ds[:, i:j], s, axis=1)  # u and u - 1 at each t
        w = t * d % q
        nt, ft = np.repeat(n[i:j], s).view(np.uint64), np.repeat(first, s)
        for at in (w[0] - d[0] - 1, q - 1 - w[0], w[1] - d[0], q - 1 - w[1]):
            # a negative place reads as a huge uint64: both ends of the
            # range clamp to the spare byte
            np.minimum(at.view(np.uint64), nt, out=at.view(np.uint64))
            at += ft
            keep[at] = False
        keep[bounds[1:] - 1] = False
        v = np.flatnonzero(keep)
        ends = np.searchsorted(v, bounds)
        counts = ends[1:] - ends[:-1]
        v += np.repeat(us[i:j] + 1 - first, counts)
        yield np.repeat(np.arange(i, j), counts), v


def _batches(rows: Iterable[tuple[np.ndarray, np.ndarray]]
             ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(k, v) row arrays of ``QUAD_ROWS`` rows, the last one of at most
    that many: the rows of each (k, v) pair of ``rows``, in order.  A batch
    may span several pairs and several k; all are filled into the same
    two buffers."""
    ks = np.empty(QUAD_ROWS, dtype=np.intp)
    vs = np.empty(QUAD_ROWS, dtype=np.int64)
    m = 0
    for k, v in rows:
        while v.size:
            n = min(QUAD_ROWS - m, v.size)
            ks[m : m + n] = k[:n]
            vs[m : m + n] = v[:n]
            m, k, v = m + n, k[n:], v[n:]
            if m == QUAD_ROWS:
                yield ks, vs
                m = 0
    if m:
        yield ks[:m], vs[:m]


def _quads_complete(tally: ChildTally, us: Sequence[int],
                    rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> bool:
    """Every quad {0, 1, us[k], v}, for the (k, v) rows of the arrays in
    ``rows``, realizes all 16 patterns among the translates outside it.

    ``tally`` is the r = 2 witness tally, whose window is the STRICT
    squares' (``_all_quads_ok``).  The kernel packs its window once,
    ``_quad_words``: row (c + lo - y) mod q, with c = q // 2, holds y's
    bits at the translates x = c + lo + j (mod q), j < 64, and marks
    x = y in ``own``.  Translates are scanned from x = c on, wrapping
    around, in blocks of ``QUAD_BLOCK`` = 64, one word each.  ``_class_words``
    splits each block's translates outside {0, 1, u} into the 8 pattern
    classes of {0, 1, u}.  The quads run in batches of ``QUAD_ROWS`` rows
    (``_batches``), so one batch may hold the v of several u.  Per block,
    each row gathers v's bit word and its word of
    allowed 0s (neither bit nor own) and ANDs each with its 8 class
    words; byte p of the result, viewed as one uint64, is 1 when class p
    meets the word, and ORs into the flags f1 (v's bit 1 seen) or f0
    (v's bit 0 seen).  A row retires after the first block after which
    every byte of f1 & f0 is 1, all 16 patterns seen, and a row still
    open after the last block fails.  The per-block temporaries live in
    buffers allocated once per call: a (4096, 8) uint64 block is
    256 KB, above glibc's mmap threshold, and a fresh one page-faulted
    at every block.

    A random quad sees all 16 patterns after about 16 H_16 = 54
    translates, so a first block of 64 retires most rows.  The scan
    starts at q // 2 because the small translates are no random sample:
    the bits of 0 and 1 read the character at -x and 1 - x, which
    multiplicativity ties to its values at small primes.  Over the
    primes 1024-1049 ``_all_quads_ok`` sends it 362,452 quads in 91
    batches; they take 432,240 row-blocks (one row scanning one block)
    in 278 batch-blocks, and 69,220 rows enter a second block.
    """
    q = tally.q
    c = q // 2
    bits, own = _quad_words(tally)
    classes = _class_words(bits, own, np.asarray(us, dtype=np.int64))
    bits, zero = bits[:q], ~(bits | own)[:q]
    full = np.uint64(0x0101010101010101)  # all 8 class bytes hit
    idx = np.empty(QUAD_ROWS, dtype=np.int64)
    word = np.empty(QUAD_ROWS, dtype=np.uint64)
    cls = np.empty((QUAD_ROWS, 8), dtype=np.uint64)
    anded = np.empty((QUAD_ROWS, 8), dtype=np.uint64)
    hit = np.empty((QUAD_ROWS, 8), dtype=bool)
    for k, v in _batches(rows):
        m = v.shape[0]
        f1 = np.zeros(m, dtype=np.uint64)
        f0 = np.zeros(m, dtype=np.uint64)
        for b, lo in enumerate(range(0, q, QUAD_BLOCK)):
            np.subtract(c + lo, v, out=idx[:m])  # v's row, mod q by "wrap"
            np.take(classes[b], k, axis=0, out=cls[:m], mode="clip")
            for table, flags in ((bits, f1), (zero, f0)):
                np.take(table, idx[:m], out=word[:m], mode="wrap")
                np.bitwise_and(cls[:m], word[:m, None], out=anded[:m])
                np.not_equal(anded[:m], 0, out=hit[:m])
                flags |= hit[:m].view(np.uint64)[:, 0]
            keep = (f1 & f0) != full
            if not keep.any():
                break
            if not keep.all():
                k, v, f1, f0 = k[keep], v[keep], f1[keep], f0[keep]
                m = v.shape[0]
        else:
            return False
    return True


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
    ``search.canonical`` (all pairs valid) and u < v <= q + 1 - u, less
    those a pair map of their own triple sends lower, all in one
    ``_quads_complete`` call, which runs them in u-then-v order in
    batches across triples and stops after the first batch holding a
    failure.  They hold every orbit's canonical member {0, 1, u, v}: each
    affine orbit has exactly one (point 1 of the ``search`` docstring),
    and its triple {0, 1, u} is canonical too (point 2).  Two rules drop
    only non-canonical quads:

    - The pair (1, 0) maps x -> 1 - x, sending (u, v) to
      (q + 1 - v, q + 1 - u), so a canonical quad has v <= q + 1 - u.
    - Take a pair (a, z) of {0, 1, u} and its map
      phi(x) = (x - a)/(z - a).  The triple is canonical with every pair
      valid, so phi sends its third element to some c >= u.  If
      phi(v) = t with 2 <= t < u, the quad's image sorts as
      (0, 1, t, c) < (0, 1, u, v), so the quad is not canonical.  As
      phi(v) = t is v = a + t (z - a) mod q, the quads dropped are the
      v of four progressions, for (a, z) = (0, u), (u, 0), (1, u) and
      (u, 1), listed without computing c (``_kept_quads``).  The first
      rule is this one for the pair (1, 0); the pair (0, 1) drops
      nothing, its images of v being v itself.

    Every other quad checked is a quad holding {0, 1} too, so it fails
    only when some quad does and cannot change a true verdict.  Over the
    primes 1024-1049 that is 362,452 quads (90,551 of 528,906 at
    q = 1031), of which 179,238 are canonical.
    """
    q = F.q
    us = np.arange(2, q, dtype=np.int64)
    us = us[canonical(F, [0, 1], us, all_pairs=True)]
    return _quads_complete(tally, us, _kept_quads(q, us))


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
    them, C(q - k, n - k).  At r = 2 and n* = 4 ``_all_quads_ok`` checks
    quads that cover every affine orbit and stops at the first failing
    one, so there ``failures`` is 0 or 1: whether some quad fails, not
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
