"""Exact VC-dimension search, testing dimension, and shattered-prefix length.

The search walks the tree of subsets rooted at a canonical seed: a node Y
has children Y + {m}, visited in increasing m.  Each node carries the
candidates it inherited from its parent and counts one block of
children over exactly those candidates (the root's candidates are every
m > max(Y)).  With best the largest shattered size known, only children
whose minimum pattern count is at least 2^(best - |Y|) survive, and the
child Y + {m} inherits the survivors after m.

The prune is sound under every zero convention.  Let Z be shattered with
Y <= W <= Z.  Each pattern of W extends to 2^(|Z| - |W|) patterns of Z,
each realized by its own allowed translate of Z; under STRICT every
translate allowed for Z is allowed for W too.  So W has minimum count at
least 2^(|Z| - |W|), and for z in Z - Y the set Y + {z} has at least
2^(|Z| - |Y| - 1).  A Z larger than best therefore draws every element
after max(Y) from the survivors.  Below a child Y + {m} with minimum
count c and s survivors after m, such a Z has at most |Y| + 1 + s and at
most |Y| + 1 + floor(log2 c) elements; when either bound fails to beat
best the child is not expanded, and when the first fails its later
siblings are skipped too.  Because best only grows, a threshold from an
older best is only more permissive.

Under STRICT, translates landing on the subset go to a sentinel bin
beyond the 2^(|Y|+1) patterns, so excluding them costs one assignment per
block.

Canonicalization uses translation invariance (exact under every zero
convention) plus dilation invariance where the convention supports it:
ZERO_IN and STRICT search supersets of {0, 1}; ZERO_OUT, whose
non-residue dilations are not exact, searches supersets of {0} only.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import (ResidueTable, ZeroConvention, log2, log2_floor,
                    make_field, squares_table)
from .primes import primes_in_range, require_prime
from .shatter import (batch_min_counts, fold_patterns, pattern_counts,
                      reflected_doubled, shatter_report, signatures)


@dataclass(frozen=True)
class VcResult:
    """Outcome of the VC-dimension search for one prime."""

    q: int
    vcdim: int
    alpha_q: float
    convention: ZeroConvention
    witness: tuple[int, ...]
    elapsed_ms: float
    exact: bool
    nodes: int
    cells: int


@dataclass(frozen=True)
class ApResult:
    """Longest shattered initial segment {0, ..., n-1} for one prime."""

    q: int
    longest: int
    ratio: float


def canonical_root(conv: ZeroConvention) -> tuple[int, ...]:
    """Seed of the search tree licensed by the convention's invariances."""
    if conv is ZeroConvention.ZERO_OUT:
        return (0,)
    return (0, 1)


class _TreeSearch:
    """Shared state for one prime's subset-tree walk (thread-safe)."""

    def __init__(self, T: ResidueTable, early_exit_at: int | None):
        self.T = T
        self.q = T.q
        self.strict = T.convention is ZeroConvention.STRICT
        self.doubled = reflected_doubled(T)
        # windows[n][q - m] is the column of m shifted to bit n: a strided
        # view, so gathering a block copies whole rows.  offsets[n] moves
        # each row of a block at depth n to its own run of bins.
        depths = range(log2_floor(self.q) + 1)
        self.windows = [sliding_window_view(self.doubled << n, self.q)
                        for n in depths]
        self.offsets = [np.arange(self.q, dtype=np.int64)[:, None]
                        * self.bins(n) for n in depths]
        # The walk only compares best against the target, so a sentinel
        # above any reachable size disables early exit cheaply.
        self.exit_at = early_exit_at if early_exit_at is not None else 1 << 62
        self.best = 0
        self.witness: tuple[int, ...] = ()
        self.cut_short = False
        self.nodes = 0
        self.cells = 0
        self._lock = threading.Lock()

    def record(self, size: int, elems: tuple[int, ...]) -> None:
        with self._lock:
            if size > self.best:
                self.best = size
                self.witness = elems

    def hit_exit(self) -> bool:
        if self.best >= self.exit_at:
            self.cut_short = True
            return True
        return False

    def threshold(self, n: int) -> int:
        """Least minimum count a child of an n-element node needs to be
        recorded or to lie below a set larger than the best known."""
        return 1 << max(0, self.best - n)

    def bins(self, n: int) -> int:
        """Bins per row of a child block below an n-element node."""
        return (2 << n) + int(self.strict)

    def child_block(self, Y: list[int], sig: np.ndarray, ms: np.ndarray):
        """Signatures and minimum pattern counts of Y + {m} for each m."""
        q, n = self.q, len(Y)
        rows = ms.shape[0]
        cols = self.windows[n][q - ms]
        cols += sig
        width = 2 << n
        if self.strict:
            # Translates landing on the subset go to a sentinel bin that
            # the minimum skips.  A descendant overwrites these columns
            # with its own sentinel, so they need no restore.
            cols[:, Y] = width
            cols[np.arange(rows), ms] = width
        offsets = self.offsets[n][:rows]
        cols += offsets
        bins = self.bins(n)
        counts = np.bincount(cols.ravel(), minlength=rows * bins)
        cols -= offsets
        with self._lock:
            self.nodes += 1
            self.cells += rows * q
        return cols, counts.reshape(rows, bins)[:, :width].min(axis=1)

    def survivors(self, Y: list[int], sig: np.ndarray, cands: np.ndarray):
        """Children of Y over ``cands`` that meet the count threshold."""
        csig, mins = self.child_block(Y, sig, cands)
        keep = mins >= self.threshold(len(Y))
        return cands[keep], mins[keep], csig[keep]

    def expand(self, Y: list[int], sig: np.ndarray, cands: np.ndarray) -> None:
        """Depth-first walk below a shattered node Y over its candidates."""
        ms, mins, csig = self.survivors(Y, sig, cands)
        self.descend(Y, ms, mins, csig, range(len(ms)))

    def descend(self, Y: list[int], ms: np.ndarray, mins: np.ndarray,
                csig: np.ndarray, picks: range) -> None:
        """Visit the surviving children Y + {ms[i]} for i in ``picks``;
        each inherits the survivors after it as its candidates."""
        n = len(Y)
        size = n + 1
        counts = mins.tolist()
        for i in picks:
            if self.hit_exit():
                return
            best = self.best
            c = counts[i]
            if c < self.threshold(n):
                continue  # best has grown since the block was counted
            later = ms[i + 1:]
            if size + later.shape[0] <= best:
                return  # later siblings inherit fewer candidates still
            child = Y + [int(ms[i])]
            if size > best:
                self.record(size, tuple(child))
            if later.shape[0] and c >= self.threshold(n):
                self.expand(child, csig[i], later)


def _search(T: ResidueTable, root: tuple[int, ...],
            early_exit_at: int | None, jobs: int) -> _TreeSearch:
    """Run the tree walk from ``root``; the returned state holds the result."""
    state = _TreeSearch(T, early_exit_at)
    rep0 = shatter_report([root[0]], T)
    if rep0.shattered:
        state.record(1, (root[0],))
    if len(root) == 2:
        rep = shatter_report(root, T)
        if not rep.shattered:
            return state
        state.record(2, root)
    else:
        if not rep0.shattered:
            return state
        rep = rep0
    seed = list(root)
    if state.hit_exit() or len(seed) + rep.index <= state.best:
        return state
    sig = signatures(seed, T, state.doubled)
    cands = np.arange(seed[-1] + 1, state.q, dtype=np.int64)
    if jobs <= 1:
        state.expand(seed, sig, cands)
        return state

    # Split the root's surviving children round-robin across threads; the
    # shared best is a lower bound of the truth at all times, so every
    # prune stays sound regardless of update timing.
    ms, mins, csig = state.survivors(seed, sig, cands)

    def worker(offset: int) -> None:
        state.descend(seed, ms, mins, csig, range(offset, len(ms), jobs))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(worker, range(jobs)))
    return state


def vc_dimension(q: int, conv: ZeroConvention = ZeroConvention.ZERO_IN,
                 early_exit_at: int | None = None, jobs: int = 1,
                 check_canonical: bool = False) -> VcResult:
    """Exact VC dimension of the squares table of F_q under ``conv``.

    ``early_exit_at`` stops the walk once a shattered set of that size is
    found; the result is then flagged as a lower bound (``exact=False``).
    ``check_canonical`` reruns the search from the translation-only root
    {0} (sound under every convention) and raises if the dilation-based
    canonicalization ever disagrees.  ``nodes`` and ``cells`` count the
    child blocks evaluated and their candidate rows times q, over every
    walk the call made.
    """
    require_prime(q)
    start = time.perf_counter()
    T = squares_table(make_field(q), conv)
    root = canonical_root(conv)
    state = _search(T, root, early_exit_at, jobs)
    best, witness = state.best, state.witness
    nodes, cells = state.nodes, state.cells
    if check_canonical:
        ref = _search(T, (0,), None, 1)
        nodes, cells = nodes + ref.nodes, cells + ref.cells
        if not state.cut_short and ref.best != best:
            raise RuntimeError(
                f"canonicalized search found {best} but translation-only "
                f"search found {ref.best} at q={q} under {conv.value}")
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if best > log2_floor(q):
        raise RuntimeError(f"search found size {best} above floor(log2 q) "
                           f"at q={q} under {conv.value}")
    if witness and not shatter_report(witness, T).shattered:
        raise RuntimeError(f"witness {witness} is not shattered at q={q} "
                           f"under {conv.value}")
    return VcResult(q=q, vcdim=best, alpha_q=best / log2(q), convention=conv,
                    witness=witness, elapsed_ms=elapsed_ms,
                    exact=not state.cut_short, nodes=nodes, cells=cells)


def testing_dimension(q: int, conv: ZeroConvention, cap: int) -> int:
    """Largest n <= cap such that every subset of size <= n is shattered.

    Pairs and larger sets are canonicalized to contain 0 by translation
    (exact under every convention); STRICT additionally pins 1 as the
    second element via its full affine invariance.
    """
    require_prime(q)
    if cap < 0:
        raise ValueError("cap must be non-negative")
    T = squares_table(make_field(q), conv)
    for n in range(1, cap + 1):
        if n > q or not _all_n_subsets_shattered(T, n):
            return n - 1
    return cap


def _all_n_subsets_shattered(T: ResidueTable, n: int) -> bool:
    q = T.q
    allowed = q - n if T.convention is ZeroConvention.STRICT else q
    if (1 << n) > allowed:
        return False
    if n == 1:
        return bool(shatter_report([0], T).shattered)
    if T.convention is ZeroConvention.STRICT:
        prefix, rest = (0, 1), range(2, q)
    else:
        prefix, rest = (0,), range(1, q)
    combos = itertools.combinations(rest, n - len(prefix))
    while True:
        block = list(itertools.islice(combos, 100_000))
        if not block:
            return True
        arr = np.array([prefix + c for c in block], dtype=np.int64)
        if not (batch_min_counts(arr, T) > 0).all():
            return False


def longest_shattered_ap(q: int,
                         conv: ZeroConvention = ZeroConvention.ZERO_IN) -> ApResult:
    """Largest n with {0, ..., n-1} shattered; covers every arithmetic
    progression of that length via affine invariance.

    For ZERO_IN and ZERO_OUT a single pattern tally at the maximum width
    floor(log2 q) is folded down until every pattern is realized: the OR
    of the two halves is exactly the realized vector of the one-shorter
    prefix.  Under STRICT the discarded translates differ per width, so
    the fold is only a lower bound; each width is checked directly there.
    """
    require_prime(q)
    T = squares_table(make_field(q), conv)
    n = log2_floor(q)
    if conv is ZeroConvention.STRICT:
        while n > 0 and not shatter_report(range(n), T).shattered:
            n -= 1
    else:
        vec = pattern_counts(range(n), T).counts > 0
        while n > 0 and not vec.all():
            vec = fold_patterns(vec)
            n -= 1
    return ApResult(q=q, longest=n, ratio=n / log2(q))


def _sweep_worker(args) -> VcResult:
    q, conv_name, early_exit = args
    conv = ZeroConvention.parse(conv_name)
    target = log2_floor(q) - 1 if early_exit else None
    return vc_dimension(q, conv, early_exit_at=target)


def vc_sweep(q_lo: int, q_hi: int,
             conv: ZeroConvention = ZeroConvention.ZERO_IN,
             early_exit: bool = False, jobs: int = 1,
             skip: frozenset[int] = frozenset(), on_error=None):
    """Yield a VcResult for each prime in [q_lo, q_hi], ascending.

    Primes in ``skip`` are omitted (checkpoint resume); per-prime failures
    are reported through ``on_error(q, exc)`` and skipped.  With jobs > 1
    the primes are solved in a process pool but still emitted in order.
    """
    qs = [q for q in primes_in_range(q_lo, q_hi) if q not in skip]
    if jobs <= 1:
        for q in qs:
            try:
                yield _sweep_worker((q, conv.value, early_exit))
            except Exception as exc:  # noqa: BLE001 - per-prime isolation
                if on_error is not None:
                    on_error(q, exc)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        args = [(q, conv.value, early_exit) for q in qs]
        futures = {q: pool.submit(_sweep_worker, a) for q, a in zip(qs, args)}
        for q in qs:
            try:
                yield futures[q].result()
            except Exception as exc:  # noqa: BLE001
                if on_error is not None:
                    on_error(q, exc)
