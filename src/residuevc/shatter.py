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
elements.  ``shatter_report`` returns that floor, the shattering index
(or -1 when some count is zero).  The exact search prunes by the same
bound, read the other way round: a node must reach a fixed threshold
2^(s - |Y| - 1) to grow to s elements (``search`` docstring).

Two kernels tally many subsets, each with one ``bincount`` a block.
``row_counts`` tallies unrelated subsets, the rows of an array, such as
the trials of a Monte Carlo point.  The single-subset functions
(``membership_matrix``, ``signatures``, ``pattern_counts`` and
``shatter_report``) are its one-row case: each sorts its subset into one
row, which ``_check_rows`` checks as it checks every row of
``row_counts``, so one check, one sentinel rule and one sum check,
``_tally``, serve every such tally.  ``prefix_counts`` is the same tally of the
prefix {0, ..., n - 1}, whose signatures it builds by doubling the
window width, for the progressions.  ``ChildTally`` tallies related
ones, Y + {m} for a vector of candidates m under an exclusion rule,
reusing the signature of Y: the exact search walks its tree with it, and
``rooted_minima`` feeds it the rooted sets, those holding {0, ..., k - 1},
of ``testing_dimension`` and of the theorem check.  Two algorithms read
its marked column without tallying children: the search's pair table
(``search._Walk.pairs``) and the quad check's 64-bit words
(``weil._quad_words``), each proved where it lives.  ``tests/oracles.py``
stays the independent check.

The table owns the translate columns every tally reads: ``ResidueTable``
builds ``doubled``, its membership vector reflected and doubled, once;
the rows of the strided windows ``membership_matrix`` and ``row_counts``
gather are slices of it, and those ``ChildTally`` gathers are slices of
its one copy marked with the rule's sentinel.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import EmptyFold, NTooLarge, WidthOverflow
from .field import ResidueTable, ZeroConvention

MAX_WIDTH = 63
#: Most cells (rows x q) one tally holds, in ``row_counts`` and in
#: ``ChildTally``.  A search block has fewer than q rows, so below
#: q = 2048 it is never split.
MAX_CELLS = 1 << 22
#: Pattern bins a tally may hold per allowed translate (see _require_bins).
BIN_SLACK = 4


def _check_rows(rows, q: int) -> np.ndarray:
    """``rows`` as an int64 array, once it is checked to be a 2-d integer
    array of at most ``MAX_WIDTH`` columns whose rows are strictly
    increasing in [0, q).

    Raises WidthOverflow past ``MAX_WIDTH`` columns and ValueError for any
    other fault.  Unsigned rows are checked as int64, where a decrease
    cannot wrap round.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError("subsets must be the rows of a 2-d integer array")
    if rows.shape[1] > MAX_WIDTH:
        raise WidthOverflow(f"subset size {rows.shape[1]} exceeds {MAX_WIDTH}")
    rows = rows.astype(np.int64, copy=False)
    if rows.shape[1] and ((rows[:, 0] < 0).any() or (rows[:, -1] >= q).any()):
        raise ValueError(f"element outside field of size {q}")
    if (np.diff(rows, axis=1) <= 0).any():
        raise ValueError("subset elements must be strictly increasing")
    return rows


def _row(Y: Iterable[int], T: ResidueTable) -> np.ndarray:
    """The subset Y, sorted, as a checked (1, n) int64 array."""
    vals = sorted(int(y) for y in Y)
    # numpy reads [[]] as float, and elements past int64 as uint64 or object
    return _check_rows(np.array([vals], dtype=None if vals else np.int64), T.q)


def membership_matrix(Y: Iterable[int], T: ResidueTable) -> np.ndarray:
    """q x n matrix A with A[x, i] = member[(y_i - x) mod q].

    Column i is the indicator of the reflected residue set translated
    by y_i; row x is the restriction of S + x to Y.
    """
    return sliding_window_view(T.doubled, T.q)[T.q - _row(Y, T)[0]].T


def signatures(Y: Iterable[int], T: ResidueTable) -> np.ndarray:
    """Length-q vector of row signatures sum_i A[x, i] * 2^i, as a fresh
    array that the caller may overwrite: the one-row case of
    ``_signatures``, so uint16 below 16 elements and int64 from 16 on."""
    return _signatures(_row(Y, T), T)[0]


def _signatures(rows: np.ndarray, T: ResidueTable) -> np.ndarray:
    """(m, q) signatures of the m subsets in the rows of ``rows``.

    The column of y is the slice [q - y, 2q - y) of ``T.doubled``, shifted
    to its bit; m > 1 rows gather it in one index, as row q - y of a
    strided view over the table shifted to each bit.  The uint8 table is
    widened once: below n = 16 the columns are gathered and summed as
    uint16, which holds both the largest signature, 2^n - 1, and STRICT's
    sentinel, 2^n; from n = 16 on they are int64.  ``_tally`` widens the
    signatures once more, to index its bins.
    """
    m, n = rows.shape
    q = T.q
    doubled = T.doubled.astype(np.uint16 if n < 16 else np.int64)
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


def _allowed_translates(n: int, q: int, conv: ZeroConvention) -> int:
    """Translates a tally of an n-subset of F_q counts under ``conv``."""
    return q - n if conv is ZeroConvention.STRICT else q


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


def pattern_counts(Y: Iterable[int], T: ResidueTable) -> np.ndarray:
    """How many allowed translates realize each of the 2^n patterns of Y:
    the one-row ``row_counts``.

    Under STRICT the translates x in Y are skipped; otherwise all q
    translates contribute.  Raises NTooLarge when 2^n exceeds the allowed
    translates more than ``BIN_SLACK`` times.
    """
    [counts] = _row_counts(_row(Y, T), T)
    return counts[0]


def prefix_counts(n: int, T: ResidueTable) -> np.ndarray:
    """``pattern_counts(range(n), T)``, from signatures built by
    doubling the window width.

    With D = ``T.doubled``, the signature of {0, ..., a - 1} at translate
    x is w_a[q + x], where w_a[k] = sum_{i < a} D[k - i] << i.  Widths
    grow as w_2a[k] = w_a[k] + (w_a[k - a] << a), and a set bit a of n
    joins w_a to the width b built so far as w_(a+b)[k] =
    w_b[k] + (w_a[k - b] << b): about log2 n + popcount(n) whole-array
    passes, where ``_signatures`` makes n.  Each w_a is kept as its
    values at k < 2q from k = a - 1 on, and the signature as those at
    q <= k < 2q.  Same widths, refusal and tally as ``pattern_counts``.
    """
    q = T.q
    _require_bins(n, _allowed_translates(n, q, T.convention), q)
    w = T.doubled.astype(np.uint16 if n < 16 else np.int64)
    sig, b, a = np.zeros(q, dtype=w.dtype), 0, 1
    while a <= n:
        if n & a:
            sig += w[w.size - b - q : w.size - b] << b
            b += a
        if 2 * a <= n:
            w = w[a:] + (w[:-a] << a)
        a *= 2
    return _tally(sig[None], np.arange(n)[None], T)[0]


def _tally(sig: np.ndarray, rows: np.ndarray, T: ResidueTable) -> np.ndarray:
    """Pattern counts of each subset in ``rows`` over its allowed
    translates, from its signatures ``sig`` (overwritten under STRICT),
    in one ``bincount``.

    Row i gets its own run of 2^n + 1 bins; under STRICT its translates
    x in the subset go to the run's last bin, the sentinel, dropped here.
    The signatures, 16-bit below n = 16 (``_signatures``), are widened to
    ``intp`` once, as each row's bin offset is added: the copy
    ``bincount`` would make of them anyway.  Raises RuntimeError when a
    row's counts miss an allowed translate.
    """
    m, n = rows.shape
    width = 1 << n
    bins = width + 1
    if T.convention is ZeroConvention.STRICT:
        sig[np.arange(m)[:, None], rows] = width
    offsets = np.arange(0, m * bins, bins, dtype=np.intp)[:, None]
    counts = np.bincount(np.add(sig, offsets, dtype=np.intp).ravel(),
                         minlength=m * bins)
    counts = counts.reshape(m, bins)[:, :width]
    allowed = _allowed_translates(n, T.q, T.convention)
    if (counts.sum(axis=1) != allowed).any():
        raise RuntimeError("pattern counts must cover every allowed translate")
    return counts


def row_counts(rows: np.ndarray, T: ResidueTable) -> Iterator[np.ndarray]:
    """Pattern counts of the subsets in the rows of the (m, n) integer
    array ``rows``, each sorted and in [0, q), over their allowed
    translates.

    Yields a (k, 2^n) count array for each run of k consecutive rows,
    in order, one ``bincount`` each; k x q is at most ``MAX_CELLS`` unless
    k is 1.  The rows are checked by ``_check_rows`` and NTooLarge is
    raised as by ``pattern_counts``, both in this call, before any tally
    is allocated.
    """
    return _row_counts(_check_rows(rows, T.q), T)


def _row_counts(rows: np.ndarray, T: ResidueTable) -> Iterator[np.ndarray]:
    """``row_counts`` of rows already checked."""
    m, n = rows.shape
    _require_bins(n, _allowed_translates(n, T.q, T.convention), T.q)
    step = max(1, MAX_CELLS // T.q)
    blocks = (rows[lo : lo + step] for lo in range(0, m, step))
    return (_tally(_signatures(block, T), block, T) for block in blocks)


def shatter_report(Y: Iterable[int], T: ResidueTable) -> int:
    """The shattering index of Y: floor(log2 of its least pattern count),
    or -1 when some pattern is missing."""
    row = _row(Y, T)
    n = row.shape[1]
    if (1 << n) > _allowed_translates(n, T.q, T.convention):
        # Pigeonhole: fewer translates than patterns, so some count is zero.
        return -1
    [counts] = _row_counts(row, T)
    return int(counts.min()).bit_length() - 1


def is_shattered(Y: Iterable[int], T: ResidueTable) -> bool:
    return shatter_report(Y, T) >= 0


def fold_patterns(R: np.ndarray) -> np.ndarray:
    """OR the two halves of a realized-pattern vector, a boolean vector
    such as ``pattern_counts(Y, T) > 0``.

    The result is the realized vector of the prefix subset
    {y_1, ..., y_(n-1)}: dropping y_n merges every pattern t with its
    top-bit sibling t + 2^(n-1).
    """
    vec = np.asarray(R, dtype=bool)
    if vec.shape[0] <= 1:
        raise EmptyFold("cannot fold a width-0 pattern vector")
    half = vec.shape[0] // 2
    return vec[:half] | vec[half:]


# ---------------------------------------------------------------------------
# Child blocks and the rooted-subset walker
# ---------------------------------------------------------------------------


class ChildTally:
    """Pattern counts of Y + {m} for a vector of candidates m.

    ``forbidden`` is the exclusion rule: translate x is dropped for a
    subset when y - x is in it for some element y.  None takes the
    convention's rule, {0} under STRICT and nothing otherwise.
    ``marked`` is the table's ``doubled`` as uint16 with the sentinel 2
    at the entries the rule drops: one array of 2q entries serves every
    depth.  ``window[q - m]``, a strided view over it, is the column of m,
    so a block gathers whole rows.  In general row i, read as y's column,
    starts at the translate x = y + i (mod q), for i <= q.  ``children``
    shifts each gathered block to bit n = |Y| (``shift``), which turns the
    sentinel at the translates m drops into 2^(n+1) and lands the row's
    value in sentinel bins past the 2^(n+1) patterns; the translates Y
    drops are set to 2^(n+1) once a block.  A row's values stay below its
    (3 if the rule forbids anything, else 2) * 2^n bins, so a block, and
    a child's signature built from the same row by ``shift``, are uint16
    while 3 * 2^n < 2^16 (n <= 14) and int64 from there on.  Adding each
    row's offset, its own run of bins, widens a block to ``intp`` once,
    for ``bincount``.
    """

    def __init__(self, T: ResidueTable, forbidden: Sequence[int] | None = None):
        q = self.q = T.q
        self.T = T
        if forbidden is None:
            forbidden = [0] if T.convention is ZeroConvention.STRICT else []
        self.forbidden = np.asarray(forbidden, dtype=np.int64)
        # the k in [0, 2q) with -k mod q forbidden hold the sentinel
        dropped = (-self.forbidden) % q
        self.marked = T.doubled.astype(np.uint16)
        self.marked[dropped] = self.marked[dropped + q] = 2
        self.window = as_strided(self.marked, (q + 1, q),
                                 self.marked.strides * 2, writeable=False)

    @staticmethod
    def shift(cols: np.ndarray, n: int) -> np.ndarray:
        """``cols``, a new array of window entries, shifted to bit n in
        place while a child's values fit uint16, 3 * 2^n < 2^16 (n <= 14),
        and widened to int64 first from there on."""
        if 3 << n >= 1 << 16:
            cols = cols.astype(np.int64)
        cols <<= n
        return cols

    def children(self, Y: Sequence[int], sig: np.ndarray, ms: np.ndarray
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(ms, counts)`` for runs of at most ``MAX_CELLS`` cells,
        one ``bincount`` each: ``counts[i]`` is the pattern counts of
        Y + {ms[i]} over the allowed translates.  ``sig`` is the signature
        of Y, from ``signatures`` or built as Y's parent's signature plus
        Y's last element's ``window`` row, ``shift``-ed to its bit, in
        either case uint16 while |Y| <= 14.
        Raises NTooLarge when the patterns outnumber a child's translates
        more than ``BIN_SLACK`` times (a rule that forbids anything
        forbids 0).
        """
        q, n = self.q, len(Y)
        _require_bins(n + 1, q - (n + 1) * (self.forbidden.size > 0), q)
        width = 2 << n
        # a sentinel value plus a signature of Y stays below 3 * 2^n
        bins = (3 if self.forbidden.size else 2) << n
        step = max(1, MAX_CELLS // q)
        for lo in range(0, ms.shape[0], step):
            block = ms[lo : lo + step]
            rows = block.shape[0]
            cols = self.shift(self.window[q - block], n)
            cols += sig
            if self.forbidden.size:
                # negative differences index from the end, that is mod q
                cols[:, np.array(Y, dtype=np.int64)[:, None] - self.forbidden] = width
            offsets = np.arange(0, rows * bins, bins, dtype=np.intp)[:, None]
            binned = np.add(cols, offsets, dtype=np.intp)
            counts = np.bincount(binned.ravel(), minlength=rows * bins)
            yield block, counts.reshape(rows, bins)[:, :width]


def rooted_minima(tally: ChildTally, fixed: int, n: int) -> Iterator[np.ndarray]:
    """Minimum pattern counts of the n-sets holding {0, ..., k - 1},
    k = min(fixed, n), in lexicographic order, a block at a time: each
    (n-1)-set Y holding them gives ``tally`` the candidates m > max(Y).
    """
    q, k = tally.q, min(fixed, n)
    for c in itertools.combinations(range(k, q), max(n - 1 - k, 0)):
        Y = tuple(range(k if n > k else k - 1)) + c
        ms = np.arange(Y[-1] + 1 if Y else 0, q if n > k else k, dtype=np.int64)
        sig = signatures(Y, tally.T)
        for _, counts in tally.children(Y, sig, ms):
            yield counts.min(axis=1)
