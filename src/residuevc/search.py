"""Exact VC-dimension search, testing dimension, and shattered-prefix length.

Where the searches start follows from a duality.  Let S be the nonzero
squares and nu a non-square (the field's primitive root g is one).  Then
nu (S + {0}) is the complement of S: translate nu x reads on nu Y under
ZERO_OUT the complement of what translate x reads on Y under ZERO_IN.  So
Y is ZERO_IN-shattered exactly when nu Y is ZERO_OUT-shattered, and, as
1/nu is a non-square too, the other way round: ZERO_IN and ZERO_OUT are
each other's dual convention.  STRICT, whose allowed translates never
read y - x = 0, is its own dual.  Every convention is invariant under
translations and under dilations by nonzero squares.

Pair normalization: let Z be shattered with |Z| >= 2 and (a, z) a pair
in it.  x -> (x - a)/(z - a) maps Z onto a superset of {0, 1}, shattered
under the same convention when z - a is a square and under the dual one
when it is not.  When q = 3 (mod 4), -1 is a non-square, so z - a or
a - z is a square; under STRICT the dual is the same convention.
Otherwise a Z whose differences are all non-squares maps onto a
dual-shattered superset of {0, 1} whose differences are all nonzero
squares (non-squares over a non-square).  So every shattered set of two
or more elements has an image of the same size that one of two walks
from {0, 1} looks for:

- walk A over the convention's own table;
- walk B, only when q = 1 (mod 4) and the convention is not STRICT, over
  the dual table and only through sets whose differences are all nonzero
  squares: a node keeps the candidates m with m - y a nonzero square for
  every y in it.  Walk B maps the sets it finds back by x -> g x.

Each search is one fixed-size question, ``_Walk.find``: does the
walk reach a shattered set of exactly s elements?  One step,
``_Walk.descend``, answers it at every node from the root down: it
decides the node's survivors, counts the node, answers at the last
level and otherwise recurses into the node's children.  ``vc_dimension`` asks
it for s from floor(log2 q) (no more than log2 q elements fit the q
translates) down to 2, of walk A and then walk B, and the first size
found is the answer: every larger size was refuted.  Early exit starts
one size lower; refuting that size refutes every larger one too, as a
shattered set's subsets are shattered.  Each walk counts its own nodes,
and ``vc_dimension`` adds them up.  Each walk decides once whether its
root {0, 1} is shattered over its table: a walk whose root is not finds
nothing at any size, and one whose root is answers size 2 with it, so a
pair is shattered exactly when some walk is rooted.  When no walk is,
the answer is 1: {0} is shattered at every prime q >= 5
(``vc_dimension``).  ``testing_dimension`` uses the same map: from
n = 2 on, every n-set is shattered exactly when every n-set holding
{0, 1} is, over the convention's table and, when q = 1 (mod 4) and the
convention is not STRICT, over the dual table.

A walk visits the tree of supersets of {0, 1}: a node Y has children
Y + {m}, visited in increasing m.  Each node carries the candidates it
inherited from its parent (the root's candidates are every m > 1, in
walk B those passing its filter).  Looking for size s, only the
candidates m with Y + {m} at a minimum pattern count of at least
2^(s - |Y| - 1) survive, and the child Y + {m} inherits the survivors
after m (in walk B, those at a nonzero square's distance from m).  When
|Y| = s - 1 the threshold is 1, and any survivor is a shattered s-set.

The prune is sound under every zero convention.  Let Z be shattered with
Y <= W <= Z.  Each pattern of W extends to 2^(|Z| - |W|) patterns of Z,
each realized by its own allowed translate of Z; under STRICT every
translate allowed for Z is allowed for W too.  So W has minimum count at
least 2^(|Z| - |W|), and for z in Z - Y the set Y + {z} has at least
2^(|Z| - |Y| - 1).  An s-set Z holding Y therefore draws every element
after max(Y) from the survivors, and no child Y + {m} that inherits
fewer than s - |Y| - 1 candidates lies below one.  The threshold is fixed
for the whole search, so with k survivors only the first k + |Y| + 1 - s
can have enough after them, and the later siblings are skipped at once:
their candidates are among those survivors, also in walk B, which is why
the cut reads them before walk B's filter by m.

Each walk is orderly (McKay's canonical augmentation): it expands one
set per orbit.  A pair (a, z) of a set is valid for a walk when its map
x -> (x - a)/(z - a) keeps the walk's shattering: in walk A under
ZERO_IN and ZERO_OUT when z - a is a nonzero square, under STRICT
always, and in walk B always, since all its differences are squares.
The valid pair maps are the maps of the walk's group G that send a set
onto one holding {0, 1}; G is the affine maps x -> s x + t, with s a
nonzero square except under STRICT, which every affine map keeps.  A set
Z holding {0, 1} is canonical when no valid pair maps it onto a
lexicographically smaller sorted tuple.  A walk descends only into
canonical children, but takes any survivor of the last level as the
answer, and a child's candidates are the survivors after it, canonical
or not.

1. The pair images depend only on the orbit.  For psi in G, the pair
   (psi a, psi z) of psi Z is valid exactly when (a, z) is, since psi
   multiplies differences by s, and its map sends psi x to
   (x - a)/(z - a).  So the pair images of Z are the members of its
   orbit that hold {0, 1}, Z among them by the pair (0, 1).  Taking the
   least is idempotent, and each orbit has exactly one canonical member,
   shattered when the orbit's sets are.
2. Heredity: if Z is canonical, so is Z' = Z - {max Z}.  The pairs of Z'
   are pairs of Z.  If A < B (sorted, of one length), then
   A + {x} < B + {y} for any x and any y > max B: B + {y} only appends
   y, and inserting x into A keeps it below B at the first place where
   they differ or earlier.  So a pair mapping Z' below itself maps Z
   below itself, and every canonical set is reached from {0, 1} through
   a chain of canonical nodes.
3. The prune and the cut reason only about which survivors an s-set
   draws from, not about which nodes are expanded.  A set of the target
   size that the walk looks for has a canonical image the walk looks for
   too (1.), whose prefixes are canonical (2.) and each drawn from its
   parent's survivors, so the orderly walk still reaches it.

``canonical`` decides a node's survivors, as far as the sibling cut can
reach, in one pass: survivors times k(k - 1) pairs times k - 2 elements,
dividing through the discrete-log table.  It is the rule's one
evaluation: the theorem check ``weil._all_quads_ok`` takes its canonical
triples {0, 1, u} from it, with every pair valid.

The kernel decides a node's children all at once.  Every child
Y + {m} a node expands draws its candidates from the node's survivors,
so deciding them is the pair question: is Y + {m, z} at the threshold
2^(s - |Y| - 2), for survivors m < z of Y?  Group Y's allowed translates
by their pattern p of Y, s_p of them, and let a_m(x) be the bit of m at
translate x.  In class p, with c_m = the sum of a_m over the class and
G[m, z] = that of a_m a_z, the set Y + {m, z} has G translates with both
new bits set, c_m - G and c_z - G with one of them, and
s_p - c_m - c_z + G with neither, so the pair is at the threshold t
when t <= G <= min(c_m, c_z) - t and G >= c_m + c_z + t - s_p in every
class.  G for every class is one stacked matrix product
(``_Walk.pairs``).  Under STRICT the set
also drops the translates x = m and x = z, each from one cell of its own
class: a_m(m) reads 0, so x = m leaves cell (0, a_z(m)) of class p(m)
and x = z cell (a_m(z), 0) of class p(z).  One such table per node
decides the survivors of all its children, each child reading its own
row.  A node without a row, the root or a child of a node whose
children would count fewer than ``PAIR_MIN_CELLS`` cells in their own
blocks, counts one ``shatter.ChildTally`` block instead (under STRICT
with sentinel bins for the translates landing on the subset).  Either
way the step counts its node once, and its candidates times q as its
cells, so the counters do not depend on which kernel decided it;
``pair_cells`` counts the tables' own entries.
``shatter.rooted_minima`` walks every set holding {0, 1} for
``testing_dimension``.  ``sweep`` maps a per-prime function over a list
of primes, in order and optionally over processes, and ``vc_sweep`` maps
``vc_dimension`` over the primes of a range with it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import (PrimeField, ResidueTable, ZeroConvention, log2_floor,
                    make_field, squares_table)
from .primes import primes_in_range, require_prime
from .shatter import (ChildTally, fold_patterns, prefix_counts,
                      rooted_minima, shatter_report, signatures)


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
    pair_cells: int
    nodes_by_depth: tuple[int, ...]


@dataclass(frozen=True)
class ApResult:
    """Longest shattered initial segment {0, ..., n-1} for one prime."""

    q: int
    longest: int
    ratio: float


@functools.cache
def _pair_maps(k: int) -> tuple[np.ndarray, np.ndarray]:
    """For the ordered pairs (a, z) of a k-set, the element indices of a,
    of z and of the other k - 2 elements in order, one row per pair; and
    the weights 2^(k - 3), ..., 1 that rank a vector of signs by its
    first nonzero entry."""
    rows = [(a, z, *(t for t in range(k) if t not in (a, z)))
            for a, z in itertools.permutations(range(k), 2)]
    maps = (np.array(rows, dtype=np.int64),
            1 << np.arange(k - 3, -1, -1, dtype=np.int64))
    for arr in maps:
        arr.setflags(write=False)  # shared by every caller
    return maps


def canonical(F: PrimeField, Y: list[int], ms: np.ndarray,
              all_pairs: bool) -> np.ndarray:
    """Whether each Y + {m}, m in ``ms``, is canonical: no valid pair
    (a, z) of it maps it by x -> (x - a)/(z - a) onto a smaller sorted
    tuple (module docstring).  A pair is valid when z - a is a nonzero
    square, or always when ``all_pairs``.  Y starts with 0, 1, so every
    image does too and only the images of the other k - 2 elements are
    compared, for all of ``ms`` and all pairs at once."""
    k = len(Y) + 1
    rows, weights = _pair_maps(k)
    Z = np.empty((ms.shape[0], k), dtype=np.int64)
    Z[:, :-1] = Y
    Z[:, -1] = ms
    pairs = Z[:, rows]
    # negative differences index from the end, that is mod q and mod
    # q - 1: logs[..., 0] is dlog(z - a), the rest dlog(x - a)
    logs = F.dlog[pairs[..., 1:] - pairs[..., :1]]
    img = F.powers[logs[..., 1:] - logs[..., :1]]
    img.sort(axis=2)
    smaller = np.sign(img - Z[:, None, 2:]) @ weights < 0
    if not all_pairs:
        smaller &= logs[..., 0] % 2 == 0  # z - a is a square
    return ~smaller.any(axis=1)


#: Fewest cells (candidate rows x q) the children of a node must count
#: for one ``_Walk.pairs`` table to decide them all; below it, each
#: child counts its own ``ChildTally`` block.  Measured in-process over
#: the nodes of ``vc_sweep(5, 167)`` and the STRICT and ZERO_OUT sweeps,
#: the table is faster from about 4,000 cells on and up to 6 times faster
#: past 64,000.
PAIR_MIN_CELLS = 1 << 12
#: Most class-by-row-by-column entries one run of ``_Walk.pairs`` holds.
PAIR_CELLS = 1 << 14


class _Walk:
    """One walk from {0, 1} (module docstring), searching itself: the
    field, ``strict`` (the table's convention is STRICT: every pair is
    valid for ``canonical``, and the pair table drops each set's own
    translates), the tally over its table, the pair table's ``columns``
    (row q - m reads a_m(x) at translate x as a 0/1 float, the tally's
    window with the sentinel read as 0), the scale its sets are mapped
    back by (1 in walk A, a non-square in walk B), walk B's square filter
    (None in walk A), whether its root {0, 1} is shattered over its
    table (``rooted``), the signature and candidates of the root, and the
    walk's own work counters, which ``descend`` adds to once a node."""

    def __init__(self, F: PrimeField, T: ResidueTable, scale: int):
        self.F = F
        self.strict = T.convention is ZeroConvention.STRICT
        self.tally = ChildTally(T)
        # counts are below q, so float32 holds them exactly below q = 2^24
        flat = (self.tally.marked == 1).astype(np.float32 if F.q < 1 << 24
                                               else np.float64)
        self.columns = sliding_window_view(flat, F.q)
        self.scale = scale
        # read at nonzero differences only, where either table is the squares
        self.square = None if scale == 1 else T.member.astype(bool)
        self.rooted = shatter_report((0, 1), T) >= 0
        self.sig = signatures([0, 1], T)
        cands = np.arange(2, F.q, dtype=np.int64)
        if self.square is not None:
            cands = cands[self.square[cands] & self.square[cands - 1]]
        self.cands = cands
        # a shattered node has at most floor(log2 q) elements
        self.nodes_by_depth = [0] * F.q.bit_length()
        self.cells = self.pair_cells = 0

    def witness(self, Y: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(self.scale * y % self.F.q for y in Y))

    def find(self, size: int) -> tuple[int, ...] | None:
        """A shattered set of exactly ``size`` >= 2 elements that the walk
        looks for, mapped by its scale, or None when it has none: at once
        when the root is not shattered, the root itself at size 2, and
        otherwise the first set ``descend`` finds from the root."""
        if not self.rooted:
            return None
        if size == 2:
            return self.witness((0, 1))
        return self.descend([0, 1], self.sig, self.cands, size)

    def descend(self, Y: list[int], sig: np.ndarray, cands: np.ndarray,
                size: int, passed: np.ndarray | None = None
                ) -> tuple[int, ...] | None:
        """Depth-first search from a canonical node Y with |Y| < ``size``
        and signature ``sig``, whose candidates ``cands`` it inherited.

        The node's survivors are the candidates m with Y + {m} at
        2^(size - |Y| - 1) or more: ``passed``, the node's row of its
        parent's pair table, marks them, or, when it is None, one
        ``ChildTally`` block decides them.  The node counts once; one
        element short of ``size`` it answers with its first survivor.
        Otherwise it visits each canonical Y + {m} with enough survivors
        after m (in walk B those at a square distance from m), passing it
        those survivors and its row of one pair table of Y, or None when
        the children would count too few cells for a table.  Returns the
        first set found, mapped by the walk's scale, or None.  ``sig`` may
        be None when ``passed`` is given and |Y| = size - 1: it is then
        not read."""
        q, n = self.F.q, len(Y)
        need = 1 << (size - n - 1)
        if passed is None:
            blocks = self.tally.children(Y, sig, cands)
            passed = np.concatenate([c.min(axis=1) for c in blocks]) >= need
        ms = cands[passed]
        self.nodes_by_depth[n] += 1
        self.cells += cands.shape[0] * q
        if n + 1 == size:
            return self.witness(Y + [int(ms[0])]) if ms.shape[0] else None
        # a child after this prefix has too few later survivors to grow from
        reach = ms[:ms.shape[0] + n + 1 - size]
        if not reach.shape[0]:
            return None
        expand = []
        for i in np.flatnonzero(canonical(self.F, Y, reach,
                                          self.strict)).tolist():
            later, keep = ms[i + 1:], None
            if self.square is not None:
                keep = self.square[later - ms[i]]
                later = later[keep]
            if n + 1 + later.shape[0] >= size:
                expand.append((i, later, keep))
        table = None
        if sum(later.shape[0] for _, later, _ in expand) * q >= PAIR_MIN_CELLS:
            table = self.pairs(Y, sig, ms,
                               np.array([i for i, _, _ in expand]), need >> 1)
        for row, (i, later, keep) in enumerate(expand):
            m = int(ms[i])
            passed = csig = None
            if table is not None:
                passed = table[row, i + 1:]
                passed = passed if keep is None else passed[keep]
            if passed is None or n + 2 < size:
                csig = self.tally.shift(self.tally.window[q - m].copy(), n)
                csig += sig
            found = self.descend(Y + [m], csig, later, size, passed)
            if found:
                return found
        return None

    def pairs(self, Y: list[int], sig: np.ndarray, ms: np.ndarray,
              rows: np.ndarray, need: int) -> np.ndarray:
        """Whether every pattern of Y + {ms[i], ms[j]} is realized by at
        least ``need`` allowed translates, as a boolean array ``ok`` of
        shape (len(rows), len(ms)): ``ok[r, j]`` answers i = rows[r], an
        increasing index into ``ms``, for every j > i; the entries at
        j <= i mean nothing.

        ``sig`` is Y's signature; under STRICT its entries at Y are not
        read.  Each pair is tested against ``need`` by the module
        docstring's class cells, and under STRICT ``_strict_pairs``
        retests the pairs that pass.  G is one stacked matrix product over
        the classes, each padded to the largest with bits read as 0.
        Rows are taken in runs of at most ``PAIR_CELLS`` class-by-row-by-
        column entries, each over the columns after its first row;
        ``pair_cells`` adds up those entries.
        """
        q, n = self.F.q, len(Y)
        width = 1 << n
        if self.strict:
            sig = sig.copy()
            sig[Y] = width
        sizes = np.bincount(sig, minlength=width)[:width]
        ends = np.add.accumulate(sizes)
        order = sig.argsort(kind="stable")[:ends[-1]]
        # the padded slot of each translate of Y's classes; padding reads 0
        L = int(np.maximum.reduce(sizes))
        slots = np.zeros(width * L, dtype=np.intp)
        slots[np.arange(order.size)
              + (np.arange(0, width * L, L) + sizes - ends)[sig[order]]] = order
        # B[j, p, l]: the bit of ms[j] at the l-th translate of class p
        B = self.columns[q - ms][:, slots.reshape(width, L)]
        B *= np.arange(L) < sizes[:, None]
        c = np.add.reduce(B, axis=2).T
        hi = c - need  # G <= c_i - need and G <= c_j - need
        # G >= c_i + c_j + need - s_p; float32 sizes keep the sums float32
        lo = c + (need - sizes[:, None]).astype(c.dtype)
        k = ms.shape[0]
        ok = np.zeros((rows.shape[0], k), dtype=bool)
        r0 = 0
        while r0 < rows.shape[0]:
            j0 = int(rows[r0]) + 1
            part = rows[r0:r0 + max(1, PAIR_CELLS // (width * max(1, k - j0)))]
            self.pair_cells += width * part.shape[0] * (k - j0)
            G = np.matmul(B[part].transpose(1, 0, 2), B[j0:].transpose(1, 2, 0))
            low = np.add(lo[:, part, None], c[:, None, j0:])
            np.maximum(low, need, out=low)
            good = G >= low
            good &= G <= np.minimum(hi[:, part, None], hi[:, None, j0:])
            chunk = ok[r0:r0 + part.shape[0], j0:]
            np.logical_and.reduce(good, axis=0, out=chunk)
            if self.strict:
                self._strict_pairs(sig, ms, part, j0, G, c, sizes, need, chunk)
            r0 += part.shape[0]
        return ok

    def _strict_pairs(self, sig, ms, part, j0, G, c, sizes, need, ok):
        """Clear the pairs ``ok`` passed that fail once STRICT drops their
        own translates: for (r, jj) in ``ok``, i = part[r] and
        j = j0 + jj index ``ms``, and x = i leaves cell (0, a_j(i)) of
        class sig[i], x = j cell (a_i(j), 0) of class sig[j]; when those
        are one cell, it loses both."""
        r, jj = np.nonzero(ok)
        if not r.size:
            return
        i, j = part[r], j0 + jj
        mi, mj = ms[i], ms[j]
        e = self.columns[self.F.q - mj, mi]  # a_j(i)
        f = self.columns[self.F.q - mi, mj]  # a_i(j)
        pi, pj = sig[mi], sig[mj]
        drop = 1 + ((pi == pj) & (e + f == 0))
        n01 = c[pi, j] - G[pi, r, jj]
        left_i = np.where(e, n01, sizes[pi] - c[pi, i] - n01)
        n10 = c[pj, i] - G[pj, r, jj]
        left_j = np.where(f, n10, sizes[pj] - c[pj, j] - n10)
        fail = np.minimum(left_i, left_j) - drop < need
        ok[r[fail], jj[fail]] = False


def _walks(F: PrimeField, conv: ZeroConvention) -> list[_Walk]:
    """Walk A over the convention's squares table, then, when q = 1 (mod 4)
    and the convention is not STRICT, walk B over the dual table, mapped
    back by g (module docstring)."""
    walks = [_Walk(F, squares_table(F, conv), 1)]
    if F.q % 4 == 1 and conv is not ZeroConvention.STRICT:
        dual = (ZeroConvention.ZERO_OUT if conv is ZeroConvention.ZERO_IN
                else ZeroConvention.ZERO_IN)
        walks.append(_Walk(F, squares_table(F, dual), F.g))
    return walks


def vc_dimension(q: int, conv: ZeroConvention = ZeroConvention.ZERO_IN,
                 early_exit: bool = False) -> VcResult:
    """Exact VC dimension of the squares table of F_q under ``conv``.

    Each size from floor(log2 q) down to 2 is looked for by walk A and
    then, when q = 1 (mod 4) and ``conv`` is not STRICT, walk B, and the
    first size either finds is the answer (see the module docstring for
    why that is exact).  When none is found the answer is 1, with the
    witness {0}: at every prime q >= 5 and under every convention, some
    allowed translate x has -x a nonzero square and another has -x a
    non-square, so {0} is shattered.  The witness is re-checked by
    ``shatter_report`` before it is returned.  ``early_exit`` starts one
    size lower, at floor(log2 q) - 1 but not below 2; the result is then
    exact (``exact=True``) only when it is below that start, and
    otherwise a lower bound.
    ``nodes`` and ``cells`` count the nodes decided and their candidates
    times q, over every size and walk the call tried, whichever kernel
    decided them; ``nodes_by_depth[d]`` counts the d-element nodes, and
    ``pair_cells`` the class-by-row-by-column entries of the pair tables
    (module docstring).
    """
    require_prime(q)
    start = time.perf_counter()
    F = make_field(q)
    walks = _walks(F, conv)
    cap = max(log2_floor(q) - early_exit, 2)
    best, witness = 1, (0,)
    for size in range(cap, 1, -1):
        found = next(filter(None, (w.find(size) for w in walks)), None)
        if found:
            best, witness = size, found
            break
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if shatter_report(witness, walks[0].tally.T) < 0:
        raise RuntimeError(f"witness {witness} is not shattered at q={q} "
                           f"under {conv.value}")
    depths = [sum(d) for d in zip(*(w.nodes_by_depth for w in walks))]
    while depths and not depths[-1]:
        depths.pop()
    return VcResult(q=q, vcdim=best, alpha_q=best / math.log2(q),
                    convention=conv, witness=witness, elapsed_ms=elapsed_ms,
                    exact=not early_exit or best < cap, nodes=sum(depths),
                    cells=sum(w.cells for w in walks),
                    pair_cells=sum(w.pair_cells for w in walks),
                    nodes_by_depth=tuple(depths))


def testing_dimension(q: int, conv: ZeroConvention, cap: int) -> int:
    """Largest n <= cap such that every subset of size <= n is shattered.

    Checks every n-set holding {0, 1} (just {0} for n = 1) over
    the convention's table and, when q = 1 (mod 4) and ``conv`` is not
    STRICT, over the dual table: by the module docstring's pair map every
    n-set is shattered exactly when all of those are.
    """
    require_prime(q)
    if cap < 0:
        raise ValueError("cap must be non-negative")
    tallies = [w.tally for w in _walks(make_field(q), conv)]
    for n in range(1, cap + 1):
        # level n is reached only when every (n - 1)-set is shattered, so
        # 2^(n - 1) <= q - (n - 1) [STRICT]: that keeps level n's bins
        # within BIN_SLACK, and past the pigeonhole bound its first rooted
        # block already misses a pattern
        if not all(mins.all() for tally in tallies
                   for mins in rooted_minima(tally, 2, n)):
            return n - 1
    return cap


def longest_shattered_ap(q: int,
                         conv: ZeroConvention = ZeroConvention.ZERO_IN) -> ApResult:
    """Largest n with the prefix {0, ..., n-1} shattered.

    The prefix stands for every arithmetic progression {a + i d} of
    length n when a map x -> a + d x preserves shattering: under STRICT
    always, and under ZERO_IN and ZERO_OUT when q = 3 (mod 4), where d or
    -d is a square and reversing a progression turns d into -d.  When
    q = 1 (mod 4) a progression whose difference is a non-square maps onto
    the prefix under the dual convention, which this does not check
    (ROADMAP item 1).

    One pattern tally at the maximum width floor(log2 q),
    ``prefix_counts``, is folded down until every pattern is realized.
    Under ZERO_IN and ZERO_OUT every width has all q translates, and the
    OR of the two halves is exactly the realized vector of the
    one-shorter prefix.  Under STRICT the
    prefix {0, ..., n-1} keeps the translates x >= n, so the fold gives
    the patterns of {0, ..., n-2} over x >= n; the shorter prefix also
    keeps x = n - 1, whose pattern (bit i is member[(i - (n-1)) mod q],
    that is member[q - (n-1) + i], for i < n - 1) is marked realized
    after the fold.  Each step is then exact under every convention.
    """
    require_prime(q)
    T = squares_table(make_field(q), conv)
    n = log2_floor(q)
    vec = prefix_counts(n, T) > 0
    while n > 0 and not vec.all():
        vec = fold_patterns(vec)
        n -= 1
        if conv is ZeroConvention.STRICT:
            # {0, ..., n-1} also keeps translate n; bit i is member[i - n]
            vec[sum(int(b) << i for i, b in enumerate(T.member[q - n:]))] = True
    return ApResult(q=q, longest=n, ratio=n / math.log2(q))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(solve, qs: list[int], jobs: int = 1, on_error=None):
    """Yield ``solve(q)`` for each prime q of the list ``qs``, in its order.

    A prime whose ``solve`` raises an Exception yields nothing and is
    reported through ``on_error(q, exc)``; without ``on_error`` the
    exception ends the sweep and propagates.  The primes are solved in a
    pool of min(jobs, len(qs), usable CPUs) processes, which needs a
    ``solve`` that pickles, or in this one when that number is 1.  When
    the sweep ends early, by an exception such as KeyboardInterrupt or by
    closing the generator, it waits only for the primes the pool is
    running (``_in_order``).
    """
    workers = min(jobs, len(qs), _usable_cpus())
    pool = None
    if workers > 1:
        # imported only here, so a serial sweep, and ``import residuevc``,
        # load no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        calls = (_in_order(pool, solve, qs, workers) if pool
                 else (functools.partial(solve, q) for q in qs))
        for q, call in zip(qs, calls):
            try:
                yield call()
            except Exception as exc:  # noqa: BLE001 - per-prime isolation
                if on_error is None:
                    raise
                on_error(q, exc)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _in_order(pool, solve, qs: list[int], workers: int):
    """Yield ``future.result`` of ``solve(q)`` for each q of ``qs``, in its
    order, from ``pool``, with at most ``workers`` primes unfinished: the
    next prime is submitted when any running one finishes, and a prime
    that finishes early waits for those before it.  The pool moves every
    submitted task into its call queue, where ``shutdown`` cannot cancel
    it, so this bounds what an interrupted sweep waits for."""
    from concurrent.futures import FIRST_COMPLETED, wait

    futures, running = collections.deque(), set()
    for q in qs:
        if len(running) == workers:
            running = wait(running, return_when=FIRST_COMPLETED).not_done
        future = pool.submit(solve, q)
        running.add(future)
        futures.append(future)
        while futures and futures[0].done():
            yield futures.popleft().result
    while futures:
        yield futures.popleft().result


def vc_sweep(q_lo: int, q_hi: int,
             conv: ZeroConvention = ZeroConvention.ZERO_IN,
             early_exit: bool = False, jobs: int = 1, on_error=None):
    """Yield ``vc_dimension`` for each prime in [q_lo, q_hi], ascending,
    through ``sweep``: a prime that raises is passed to ``on_error`` and
    skipped, or, without ``on_error``, raises out of the sweep."""
    yield from sweep(functools.partial(vc_dimension, conv=conv,
                                       early_exit=early_exit),
                     primes_in_range(q_lo, q_hi), jobs, on_error)
