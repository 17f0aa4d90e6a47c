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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import EmptyFold, ModulusMismatch, NTooLarge, WidthOverflow
from .field import ResidueTable, ZeroConvention

MAX_WIDTH = 63
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


def reflected_doubled(T: ResidueTable) -> np.ndarray:
    """member[(y - x) mod q] for x = 0..q-1 is the slice [q-y : 2q-y] of this.

    The returned array has length 2q with entry d[i] = member[-i mod q] for
    i mod q; slicing it gives zero-copy translate columns.
    """
    member = T.member.astype(np.int64)
    rev = np.empty_like(member)
    rev[0] = member[0]
    rev[1:] = member[:0:-1]
    return np.concatenate([rev, rev])


def column(doubled: np.ndarray, q: int, y: int) -> np.ndarray:
    """View of member[(y - x) mod q] over x = 0..q-1."""
    return doubled[q - y : 2 * q - y]


def membership_matrix(Y: SubsetLike, T: ResidueTable) -> np.ndarray:
    """q x n matrix A with A[x, i] = member[(y_i - x) mod q].

    Column i is the indicator of the reflected residue set translated
    by y_i; row x is the restriction of S + x to Y.
    """
    sub = _coerce(Y, T)
    d = reflected_doubled(T)
    if sub.n == 0:
        return np.zeros((T.q, 0), dtype=np.uint8)
    return np.stack([column(d, T.q, y) for y in sub.elems], axis=1).astype(np.uint8)


def signatures(Y: SubsetLike, T: ResidueTable,
               doubled: np.ndarray | None = None) -> np.ndarray:
    """Length-q vector of row signatures sum_i A[x, i] * 2^i."""
    sub = _coerce(Y, T)
    d = reflected_doubled(T) if doubled is None else doubled
    sig = np.zeros(T.q, dtype=np.int64)
    for i, y in enumerate(sub.elems):
        sig += column(d, T.q, y) << i
    return sig


def _allowed_translates(n: int, T: ResidueTable) -> int:
    return T.q - n if T.convention is ZeroConvention.STRICT else T.q


def _require_bins(n: int, T: ResidueTable) -> None:
    """Refuse a tally whose 2^n bins outnumber the allowed translates more
    than ``BIN_SLACK`` times.

    Past 2^n > allowed translates some pattern is missing whatever Y is
    (pigeonhole), so the answer is known without counting; the slack keeps
    small overfull tallies and caps the bins at a few per translate.
    """
    if (1 << n) > BIN_SLACK * _allowed_translates(n, T):
        raise NTooLarge(f"{1 << n} pattern bins for n = {n} at q = {T.q} "
                        f"exceed {BIN_SLACK} per allowed translate")


def pattern_counts(Y: SubsetLike, T: ResidueTable,
                   doubled: np.ndarray | None = None) -> PatternCounts:
    """Tally how many allowed translates realize each of the 2^n patterns.

    Under STRICT the translates x in Y are skipped; otherwise all q
    translates contribute.  Raises NTooLarge when 2^n exceeds the allowed
    translates more than ``BIN_SLACK`` times.  ``doubled``, if given, is
    ``reflected_doubled(T)``, built once by a caller with many subsets.
    """
    sub = _coerce(Y, T)
    n = sub.n
    _require_bins(n, T)
    sig = signatures(sub, T, doubled)
    width = 1 << n
    if T.convention is ZeroConvention.STRICT and n > 0:
        sig = sig.copy()
        sig[list(sub.elems)] = width  # sentinel bin, dropped below
        counts = np.bincount(sig, minlength=width + 1)[:width]
    else:
        counts = np.bincount(sig, minlength=width)
    if int(counts.sum()) != _allowed_translates(n, T):
        raise RuntimeError("pattern counts must cover every allowed translate")
    return PatternCounts(n=n, counts=counts, convention=T.convention)


def shatter_report(Y: SubsetLike, T: ResidueTable,
                   doubled: np.ndarray | None = None) -> ShatterReport:
    """Shattering decision plus the extension-bounding index.

    ``doubled`` is passed on to ``pattern_counts``.
    """
    sub = _coerce(Y, T)
    if (1 << sub.n) > _allowed_translates(sub.n, T):
        # Pigeonhole: fewer translates than patterns, so some count is zero.
        return ShatterReport(shattered=False, index=-1, convention=T.convention)
    m = int(pattern_counts(sub, T, doubled).counts.min())
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
# Batched oracle
# ---------------------------------------------------------------------------

def batch_min_counts(subsets: np.ndarray, T: ResidueTable,
                     max_cells: int = 8_000_000) -> np.ndarray:
    """Minimum pattern count for each row of an (M, n) matrix of subsets.

    Rows must be strictly increasing and share the table's modulus.  Work
    is chunked so no intermediate exceeds ``max_cells`` int64 cells.
    Raises NTooLarge when 2^n exceeds the allowed translates more than
    ``BIN_SLACK`` times.
    """
    subsets = np.asarray(subsets, dtype=np.int64)
    if subsets.ndim != 2:
        raise ValueError("expected an (M, n) matrix of subsets")
    M, n = subsets.shape
    if n > MAX_WIDTH:
        raise WidthOverflow(f"subset size {n} exceeds {MAX_WIDTH}")
    _require_bins(n, T)
    q = T.q
    if M == 0:
        return np.zeros(0, dtype=np.int64)
    strict = T.convention is ZeroConvention.STRICT
    width = 1 << n
    bins = width + 1 if strict else width
    d = reflected_doubled(T)
    xs = np.arange(q, dtype=np.int64)
    out = np.empty(M, dtype=np.int64)
    chunk = max(1, max_cells // max(q, 1))
    for lo in range(0, M, chunk):
        block = subsets[lo : lo + chunk]
        m = block.shape[0]
        sig = np.zeros((m, q), dtype=np.int64)
        for i in range(n):
            # d[q + x - y] == member[(y - x) mod q], gathered per row
            sig += d[q + xs[None, :] - block[:, i : i + 1]] << i
        if strict and n > 0:
            rows = np.arange(m)
            for i in range(n):
                sig[rows, block[:, i]] = width
        offsets = (np.arange(m, dtype=np.int64) * bins)[:, None]
        counts = np.bincount((sig + offsets).ravel(), minlength=m * bins)
        counts = counts.reshape(m, bins)[:, :width]
        out[lo : lo + chunk] = counts.min(axis=1)
    return out


def batch_is_shattered(subsets: np.ndarray, T: ResidueTable) -> np.ndarray:
    """Vector of shattering decisions for an (M, n) matrix of subsets."""
    subsets = np.asarray(subsets, dtype=np.int64)
    n = subsets.shape[1] if subsets.ndim == 2 else 0
    if (1 << n) > _allowed_translates(n, T):
        return np.zeros(subsets.shape[0], dtype=bool)
    return batch_min_counts(subsets, T) > 0
