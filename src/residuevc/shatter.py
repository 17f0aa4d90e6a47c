"""The shattering oracle.

A subset Y = {y_1 < ... < y_n} of F_q is shattered by translates of a
residue table S when every one of the 2^n subsets of Y arises as
Y intersect (S + x) for some allowed translate x.  Each translate x is
encoded as an n-bit signature read low-bit-first: bit i is the membership
of y_i - x in S.  Tallying signatures over all allowed x gives the pattern
counts; Y is shattered exactly when every count is positive.

The minimum pattern count also bounds how far Y can grow and stay
shattered: extending Y by one element can at most split every pattern
class in two, so a minimum count of m allows at most floor(log2 m) more
elements.  ``shattering_index`` returns that floor (or -1 when some count
is zero), which the search module uses as a prune.

Two kernels tally many subsets, each with one ``bincount`` a block.
``row_counts`` tallies unrelated subsets, the rows of an array, such as
the trials of a Monte Carlo point; ``signatures`` and ``pattern_counts``
are its one-row case, so one sentinel rule and one sum check, ``_tally``,
serve every such tally.  ``ChildTally`` tallies related ones, Y + {m}
for a vector of candidates m under an exclusion rule, reusing the
signature of Y: the exact search walks its tree with it, and
``canonical_minima`` feeds it the canonical sets of ``testing_dimension``
and of the theorem check.  Apart from both, the quad check's
``weil._quads_complete`` retires rows once all 16 patterns are seen, a
different algorithm, and ``tests/oracles.py`` stays the independent check.

The table owns the translate columns every tally reads: ``ResidueTable``
builds ``doubled``, its membership vector reflected and doubled, once.
``column`` slices one column out of it; the rows of the strided windows
``row_counts`` and ``ChildTally`` gather are the same slices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import EmptyFold, ModulusMismatch, NTooLarge, WidthOverflow
from .field import ResidueTable, ZeroConvention

MAX_WIDTH = 63
#: Most cells (rows x q) one tally holds, in ``row_counts`` and in
#: ``ChildTally``.  A search block has fewer than q rows, so below
#: q = 2048 it is never split.
MAX_CELLS = 1 << 22
#: Pattern bins a tally may hold per allowed translate (see _require_bins).
BIN_SLACK = 4


@dataclass(frozen=True)
class Subset:
    """A sorted duplicate-free subset of {0, ..., q-1}."""

    q: int
    elems: tuple[int, ...]

    def __post_init__(self):
        if len(self.elems) > MAX_WIDTH:
            raise WidthOverflow(f"subset size {len(self.elems)} exceeds {MAX_WIDTH}")
        prev = -1
        for y in self.elems:
            if not 0 <= y < self.q:
                raise ValueError(f"element {y} outside field of size {self.q}")
            if y <= prev:
                raise ValueError("subset elements must be strictly increasing")
            prev = y

    @classmethod
    def of(cls, q: int, elems: Iterable[int]) -> "Subset":
        vals = sorted(int(y) for y in elems)
        if any(a == b for a, b in zip(vals, vals[1:])):
            raise ValueError("subset elements must be distinct")
        return cls(q=q, elems=tuple(vals))

    @property
    def n(self) -> int:
        return len(self.elems)


SubsetLike = Union[Subset, Sequence[int]]


@dataclass(frozen=True)
class PatternCounts:
    """How often each n-bit restriction pattern is realized by a translate."""

    n: int
    counts: np.ndarray
    convention: ZeroConvention


@dataclass(frozen=True)
class ShatterReport:
    shattered: bool
    index: int
    convention: ZeroConvention


def _coerce(Y: SubsetLike, T: ResidueTable) -> Subset:
    sub = Y if isinstance(Y, Subset) else Subset.of(T.q, Y)
    if sub.q != T.q:
        raise ModulusMismatch(f"subset modulus {sub.q} != table modulus {T.q}")
    return sub


def column(T: ResidueTable, y: int) -> np.ndarray:
    """View of member[(y - x) mod q] over x = 0..q-1."""
    return T.doubled[T.q - y : 2 * T.q - y]


def membership_matrix(Y: SubsetLike, T: ResidueTable) -> np.ndarray:
    """q x n matrix A with A[x, i] = member[(y_i - x) mod q].

    Column i is the indicator of the reflected residue set translated
    by y_i; row x is the restriction of S + x to Y.
    """
    sub = _coerce(Y, T)
    if sub.n == 0:
        return np.zeros((T.q, 0), dtype=np.uint8)
    return np.stack([column(T, y) for y in sub.elems], axis=1).astype(np.uint8)


def signatures(Y: SubsetLike, T: ResidueTable) -> np.ndarray:
    """Length-q vector of row signatures sum_i A[x, i] * 2^i, as a fresh
    array that the caller may overwrite: the one-row case of
    ``_signatures``."""
    sub = _coerce(Y, T)
    return _signatures(np.array([sub.elems], dtype=np.int64), T)[0]


def _signatures(rows: np.ndarray, T: ResidueTable) -> np.ndarray:
    """(m, q) signatures of the m subsets in the rows of ``rows``.

    The column of y is the slice [q - y, 2q - y) of ``T.doubled``, shifted
    to its bit; m > 1 rows gather it in one index, as row q - y of a
    strided view over the table shifted to each bit.  The integer type
    holds m runs of 2^n + 1 bins, the most ``_tally`` adds.
    """
    m, n = rows.shape
    q = T.q
    fits = m * ((1 << n) + 1) < 1 << 31
    doubled = T.doubled.astype(np.int32 if fits else np.int64)
    if m == 1:
        columns = (doubled[q - y : 2 * q - y] << i
                   for i, y in enumerate(rows[0].tolist()))
    else:
        shifted = doubled << np.arange(n, dtype=doubled.dtype)[:, None]
        step, item = shifted.strides
        windows = as_strided(shifted, (n, q + 1, q), (step, item, item),
                             writeable=False)
        columns = (windows[i][q - ys] for i, ys in enumerate(rows.T))
    sig = np.zeros((m, q), dtype=doubled.dtype)
    for col in columns:
        sig += col
    return sig


def _allowed_translates(n: int, T: ResidueTable) -> int:
    return T.q - n if T.convention is ZeroConvention.STRICT else T.q


def _require_bins(n: int, allowed: int, q: int) -> None:
    """Refuse a tally whose 2^n bins outnumber the ``allowed`` translates
    more than ``BIN_SLACK`` times.

    Past 2^n > allowed translates some pattern is missing whatever Y is
    (pigeonhole), so the answer is known without counting; the slack keeps
    small overfull tallies and caps the bins at a few per translate.
    """
    if (1 << n) > BIN_SLACK * allowed:
        raise NTooLarge(f"{1 << n} pattern bins for n = {n} at q = {q} "
                        f"exceed {BIN_SLACK} per allowed translate")


def pattern_counts(Y: SubsetLike, T: ResidueTable) -> PatternCounts:
    """Tally how many allowed translates realize each of the 2^n patterns.

    Under STRICT the translates x in Y are skipped; otherwise all q
    translates contribute.  Raises NTooLarge when 2^n exceeds the allowed
    translates more than ``BIN_SLACK`` times.
    """
    sub = _coerce(Y, T)
    _require_bins(sub.n, _allowed_translates(sub.n, T), T.q)
    rows = np.array([sub.elems], dtype=np.int64)
    counts = _tally(signatures(sub, T)[None], rows, T)[0]
    return PatternCounts(n=sub.n, counts=counts, convention=T.convention)


def _tally(sig: np.ndarray, rows: np.ndarray, T: ResidueTable) -> np.ndarray:
    """Pattern counts of each subset in ``rows`` over its allowed
    translates, from its signatures ``sig`` (overwritten), in one
    ``bincount``.

    Row i gets its own run of 2^n + 1 bins; under STRICT its translates
    x in the subset go to the run's last bin, the sentinel, dropped here.
    Raises RuntimeError when a row's counts miss an allowed translate.
    """
    m, n = rows.shape
    width = 1 << n
    bins = width + 1
    if T.convention is ZeroConvention.STRICT:
        sig[np.arange(m)[:, None], rows] = width
    sig += np.arange(0, m * bins, bins, dtype=sig.dtype)[:, None]
    counts = np.bincount(sig.ravel(), minlength=m * bins)
    counts = counts.reshape(m, bins)[:, :width]
    if (counts.sum(axis=1) != _allowed_translates(n, T)).any():
        raise RuntimeError("pattern counts must cover every allowed translate")
    return counts


def row_counts(rows: np.ndarray, T: ResidueTable) -> Iterator[np.ndarray]:
    """Pattern counts of the subsets in the rows of the (m, n) integer
    array ``rows``, each sorted and in [0, q), over their allowed
    translates.

    Yields a (k, 2^n) count array for each run of k consecutive rows,
    in order, one ``bincount`` each; k x q is at most ``MAX_CELLS`` unless
    k is 1.  Every row is checked as ``Subset`` checks one, and NTooLarge
    is raised as by ``pattern_counts``, before any tally is allocated.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError("subsets must be the rows of a 2-d integer array")
    m, n = rows.shape
    if n > MAX_WIDTH:
        raise WidthOverflow(f"subset size {n} exceeds {MAX_WIDTH}")
    if n and ((rows[:, 0] < 0).any() or (rows[:, -1] >= T.q).any()):
        raise ValueError(f"element outside field of size {T.q}")
    if (np.diff(rows, axis=1) <= 0).any():
        raise ValueError("subset elements must be strictly increasing")
    _require_bins(n, _allowed_translates(n, T), T.q)
    step = max(1, MAX_CELLS // T.q)
    for lo in range(0, m, step):
        block = rows[lo : lo + step]
        yield _tally(_signatures(block, T), block, T)


def shatter_report(Y: SubsetLike, T: ResidueTable) -> ShatterReport:
    """Shattering decision plus the extension-bounding index."""
    sub = _coerce(Y, T)
    if (1 << sub.n) > _allowed_translates(sub.n, T):
        # Pigeonhole: fewer translates than patterns, so some count is zero.
        return ShatterReport(shattered=False, index=-1, convention=T.convention)
    m = int(pattern_counts(sub, T).counts.min())
    if m == 0:
        return ShatterReport(shattered=False, index=-1, convention=T.convention)
    return ShatterReport(shattered=True, index=m.bit_length() - 1,
                         convention=T.convention)


def is_shattered(Y: SubsetLike, T: ResidueTable) -> bool:
    return shatter_report(Y, T).shattered


def shattering_index(Y: SubsetLike, T: ResidueTable) -> int:
    """floor(log2(min pattern count)), or -1 when Y is not shattered."""
    return shatter_report(Y, T).index


def realized(P: PatternCounts) -> np.ndarray:
    """Boolean realized-pattern vector of a counts tally."""
    return P.counts > 0


def fold_patterns(R: Union[PatternCounts, np.ndarray]) -> np.ndarray:
    """OR the two halves of a realized-pattern vector.

    The result is the realized vector of the prefix subset
    {y_1, ..., y_(n-1)}: dropping y_n merges every pattern t with its
    top-bit sibling t + 2^(n-1).
    """
    vec = realized(R) if isinstance(R, PatternCounts) else np.asarray(R, dtype=bool)
    if vec.shape[0] <= 1:
        raise EmptyFold("cannot fold a width-0 pattern vector")
    half = vec.shape[0] // 2
    return vec[:half] | vec[half:]


# ---------------------------------------------------------------------------
# Child blocks and the canonical-subset walker
# ---------------------------------------------------------------------------


class ChildTally:
    """Pattern counts of Y + {m} for a vector of candidates m.

    ``forbidden`` is the exclusion rule: translate x is dropped for a
    subset when y - x is in it for some element y.  None takes the
    convention's rule, {0} under STRICT and nothing otherwise.
    ``windows[n][q - m]`` is the column of m shifted to bit n, a strided
    view, so a block gathers whole rows.  Its entries at the translates m
    drops hold 2^(n+1), which lands the row's value in sentinel bins past
    the 2^(n+1) patterns; the translates Y drops are set to 2^(n+1) once
    a block.  ``offsets[n]`` gives each row its own run of bins.
    """

    def __init__(self, T: ResidueTable, forbidden: Sequence[int] | None = None):
        q = self.q = T.q
        self.T = T
        if forbidden is None:
            forbidden = [0] if T.convention is ZeroConvention.STRICT else []
        self.forbidden = np.asarray(forbidden, dtype=np.int64)
        dropped = np.isin(-np.arange(2 * q) % q, self.forbidden)
        # to floor(log2 q) + 1, the deepest block the bins check lets by
        depths = range(q.bit_length() + 1)
        self.windows = [sliding_window_view(
            np.where(dropped, 2 << n, T.doubled << n), q) for n in depths]
        # a sentinel value plus a signature of Y stays below 3 * 2^n
        self.bins = [(3 if self.forbidden.size else 2) << n for n in depths]
        self.offsets = [np.arange(q, dtype=np.int64)[:, None] * bins
                        for bins in self.bins]

    def children(self, Y: Sequence[int], sig: np.ndarray, ms: np.ndarray
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(ms, sigs, counts)`` for runs of at most ``MAX_CELLS``
        cells, one ``bincount`` each: ``sigs[i]`` is the signature of
        Y + {ms[i]}, ``counts[i]`` its pattern counts over the allowed
        translates.  ``sig`` is the signature of Y, from ``signatures`` or
        from an earlier block.  Raises NTooLarge when the patterns outnumber
        a child's translates more than ``BIN_SLACK`` times (a rule that
        forbids anything forbids 0).
        """
        q, n = self.q, len(Y)
        _require_bins(n + 1, q - (n + 1) * (self.forbidden.size > 0), q)
        width, bins = 2 << n, self.bins[n]
        step = max(1, MAX_CELLS // q)
        for lo in range(0, ms.shape[0], step):
            block = ms[lo : lo + step]
            rows = block.shape[0]
            cols = self.windows[n][q - block]
            cols += sig
            if self.forbidden.size:
                # negative differences index from the end, that is mod q
                cols[:, np.array(Y, dtype=np.int64)[:, None] - self.forbidden] = width
            offsets = self.offsets[n][:rows]
            cols += offsets
            counts = np.bincount(cols.ravel(), minlength=rows * bins)
            cols -= offsets
            yield block, cols, counts.reshape(rows, bins)[:, :width]


def canonical_minima(tally: ChildTally, fixed: int, n: int) -> Iterator[np.ndarray]:
    """Minimum pattern counts of the n-sets holding {0, ..., k - 1},
    k = min(fixed, n), in lexicographic order, a block at a time: each
    canonical (n-1)-set Y gives ``tally`` the candidates m > max(Y).
    """
    q, k = tally.q, min(fixed, n)
    for c in itertools.combinations(range(k, q), max(n - 1 - k, 0)):
        Y = tuple(range(k if n > k else k - 1)) + c
        ms = np.arange(Y[-1] + 1 if Y else 0, q if n > k else k, dtype=np.int64)
        sig = signatures(Y, tally.T)
        for _, _, counts in tally.children(Y, sig, ms):
            yield counts.min(axis=1)
