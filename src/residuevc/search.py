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

``shatter.ChildTally`` counts each node's block of children (under STRICT
with sentinel bins for the translates landing on the subset), and
``shatter.canonical_minima`` walks the canonical sets of
``testing_dimension``.  ``vc_sweep`` spreads primes over processes.

Canonicalization uses translation invariance (exact under every zero
convention) plus dilation invariance where the convention supports it:
ZERO_IN and STRICT search supersets of {0, 1}; ZERO_OUT, whose
non-residue dilations are not exact, searches supersets of {0} only.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .field import (ResidueTable, ZeroConvention, log2, log2_floor,
                    make_field, squares_table)
from .primes import primes_in_range, require_prime
from .shatter import (ChildTally, canonical_minima, fold_patterns,
                      pattern_counts, shatter_report, signatures)


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
    """State of one prime's subset-tree walk."""

    def __init__(self, T: ResidueTable, early_exit_at: int | None):
        self.q = T.q
        self.tally = ChildTally(T)
        # The walk only compares best against the target, so a sentinel
        # above any reachable size disables early exit cheaply.
        self.exit_at = early_exit_at if early_exit_at is not None else 1 << 62
        self.best = 0
        self.witness: tuple[int, ...] = ()
        self.cut_short = False
        self.nodes = 0
        self.cells = 0

    def hit_exit(self) -> bool:
        if self.best >= self.exit_at:
            self.cut_short = True
            return True
        return False

    def threshold(self, n: int) -> int:
        """Least minimum count a child of an n-element node needs to be
        recorded or to lie below a set larger than the best known."""
        return 1 << max(0, self.best - n)

    def descend(self, Y: list[int], sig: np.ndarray, cands: np.ndarray) -> None:
        """Depth-first walk below a shattered node Y: count its children
        over ``cands``, keep those meeting the threshold, and visit each
        Y + {m} with the survivors after m as its candidates."""
        n = len(Y)
        kept = []
        for ms, csig, counts in self.tally.children(Y, sig, cands):
            mins = counts.min(axis=1)
            keep = mins >= self.threshold(n)
            kept.append((ms[keep], mins[keep], csig[keep]))
        self.nodes += 1
        self.cells += cands.shape[0] * self.q
        ms, mins, csig = (kept[0] if len(kept) == 1
                          else (np.concatenate(part) for part in zip(*kept)))
        size = n + 1
        counts = mins.tolist()
        for i, c in enumerate(counts):
            if self.hit_exit():
                return
            best = self.best
            if c < self.threshold(n):
                continue  # best has grown since the block was counted
            later = ms[i + 1:]
            if size + later.shape[0] <= best:
                return  # later siblings inherit fewer candidates still
            child = Y + [int(ms[i])]
            if size > best:
                self.best, self.witness = size, tuple(child)
            if later.shape[0] and c >= self.threshold(n):
                self.descend(child, csig[i], later)


def _search(T: ResidueTable, root: tuple[int, ...],
            early_exit_at: int | None) -> _TreeSearch:
    """Run the tree walk from ``root``; the returned state holds the result."""
    state = _TreeSearch(T, early_exit_at)
    for k in range(1, len(root) + 1):
        rep = shatter_report(root[:k], T)
        if not rep.shattered:
            return state  # nor is any superset
        state.best, state.witness = k, root[:k]
    if not state.hit_exit() and len(root) + rep.index > state.best:
        seed = list(root)
        state.descend(seed, signatures(seed, T, state.tally.doubled),
                      np.arange(root[-1] + 1, state.q, dtype=np.int64))
    return state


def vc_dimension(q: int, conv: ZeroConvention = ZeroConvention.ZERO_IN,
                 early_exit_at: int | None = None,
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
    state = _search(T, root, early_exit_at)
    best, witness = state.best, state.witness
    nodes, cells = state.nodes, state.cells
    if check_canonical:
        ref = _search(T, (0,), None)
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
    tally = ChildTally(squares_table(make_field(q), conv))
    strict = conv is ZeroConvention.STRICT
    for n in range(1, cap + 1):
        # pigeonhole: fewer allowed translates than 2^n shatter no n-set
        if (1 << n) > q - n * strict or not all(
                mins.all() for mins in canonical_minima(tally, 1 + strict, n)):
            return n - 1
    return cap


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def vc_sweep(q_lo: int, q_hi: int,
             conv: ZeroConvention = ZeroConvention.ZERO_IN,
             early_exit: bool = False, jobs: int = 1,
             skip: frozenset[int] = frozenset(), on_error=None):
    """Yield a VcResult for each prime in [q_lo, q_hi], ascending.

    Primes in ``skip`` are omitted (checkpoint resume); per-prime failures
    are reported through ``on_error(q, exc)`` and skipped.  The primes are
    solved in a pool of min(jobs, primes left, usable CPUs) processes, or
    in this one when that is 1, and emitted in order.
    """
    qs = [q for q in primes_in_range(q_lo, q_hi) if q not in skip]
    args = [(q, conv.value, early_exit) for q in qs]
    workers = min(jobs, len(qs), _usable_cpus())
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        futures = [pool.submit(_sweep_worker, a) for a in args] if pool else []
        for i, q in enumerate(qs):
            try:
                yield futures[i].result() if pool else _sweep_worker(args[i])
            except Exception as exc:  # noqa: BLE001 - per-prime isolation
                if on_error is not None:
                    on_error(q, exc)
