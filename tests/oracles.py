"""Independent oracles used by the tests.

Everything here recomputes quantities from first principles (direct
modular arithmetic, plain enumeration) without going through the
library's signature machinery, so a bug in the package cannot hide
behind itself.
"""

import functools
import itertools

import numpy as np

from residuevc.field import ZeroConvention


def legendre(a: int, q: int) -> int:
    """Euler's criterion: a^((q-1)/2) mod q mapped to {-1, 0, 1}."""
    a %= q
    if a == 0:
        return 0
    v = pow(a, (q - 1) // 2, q)
    return 1 if v == 1 else -1


def squares_mod(q: int) -> set[int]:
    return {x * x % q for x in range(1, q)}


@functools.cache
def powers_mod(q: int, r: int) -> frozenset[int]:
    return frozenset(pow(x, r, q) for x in range(1, q))


def member_vector(q: int, r: int, t: int, conv: ZeroConvention) -> np.ndarray:
    """Membership of the coset t * {x^r} by direct enumeration."""
    coset = {t * v % q for v in powers_mod(q, r)}
    vec = np.zeros(q, dtype=np.int64)
    for x in coset:
        vec[x] = 1
    if conv is ZeroConvention.ZERO_IN:
        vec[0] = 1
    return vec


def oracle_counts(Y, member: np.ndarray, conv: ZeroConvention) -> np.ndarray:
    """Pattern counts by direct modular indexing (no sliding tables)."""
    q = member.shape[0]
    Y = list(Y)
    n = len(Y)
    counts = np.zeros(1 << n, dtype=np.int64)
    for x in range(q):
        if conv is ZeroConvention.STRICT and x in Y:
            continue
        t = 0
        for i, y in enumerate(Y):
            if member[(y - x) % q]:
                t |= 1 << i
        counts[t] += 1
    return counts


def oracle_shattered(Y, member: np.ndarray, conv: ZeroConvention) -> bool:
    return bool((oracle_counts(Y, member, conv) > 0).all())


def witnesses_complete(q: int, r: int, t: int, Y) -> bool:
    """Constructive witnesses by enumeration: every pattern of Y has a
    translate x with y - x among the rth powers for y in the pattern and
    in the coset t * {x^r} for the other y."""
    powers = powers_mod(q, r)
    coset = {t * v % q for v in powers}
    seen = set()
    for x in range(q):
        pattern = 0
        for i, y in enumerate(Y):
            if (y - x) % q in powers:
                pattern |= 1 << i
            elif (y - x) % q not in coset:
                break
        else:
            seen.add(pattern)
    return len(seen) == 1 << len(Y)


def _batch_shattered(subsets: np.ndarray, member: np.ndarray,
                     conv: ZeroConvention) -> np.ndarray:
    """Vectorized batch variant built on plain modular gathers."""
    M, n = subsets.shape
    q = member.shape[0]
    xs = np.arange(q, dtype=np.int64)
    sig = np.zeros((M, q), dtype=np.int64)
    for i in range(n):
        sig += member[(subsets[:, i : i + 1] - xs[None, :]) % q] << i
    width = 1 << n
    if conv is ZeroConvention.STRICT:
        rows = np.arange(M)
        for i in range(n):
            sig[rows, subsets[:, i]] = width
    bins = width + 1
    offs = (np.arange(M, dtype=np.int64) * bins)[:, None]
    counts = np.bincount((sig + offs).ravel(), minlength=M * bins)
    return (counts.reshape(M, bins)[:, :width] > 0).all(axis=1)


def naive_vc(q: int, member: np.ndarray, conv: ZeroConvention,
             chunk: int = 100_000) -> int:
    """Largest shattered size by full per-level enumeration.

    Scans sizes from floor(log2 q) downward; each level enumerates every
    C(q, n) subset.  Levels where patterns outnumber allowed translates
    are skipped outright (no subset can be shattered there).
    """
    top = q.bit_length() - 1
    for n in range(top, 0, -1):
        allowed = q - n if conv is ZeroConvention.STRICT else q
        if (1 << n) > allowed:
            continue
        combos = itertools.combinations(range(q), n)
        while True:
            block = list(itertools.islice(combos, chunk))
            if not block:
                break
            if _batch_shattered(np.array(block, dtype=np.int64), member, conv).any():
                return n
    return 0


def naive_all_shattered(q: int, n: int, member: np.ndarray,
                        conv: ZeroConvention, chunk: int = 100_000) -> bool:
    """Whether every n-subset is shattered, with no canonicalization."""
    allowed = q - n if conv is ZeroConvention.STRICT else q
    if (1 << n) > allowed:
        return False
    combos = itertools.combinations(range(q), n)
    while True:
        block = list(itertools.islice(combos, chunk))
        if not block:
            return True
        if not _batch_shattered(np.array(block, dtype=np.int64), member, conv).all():
            return False


def char_sum_direct(q: int, r: int, g: int, roots, powers) -> complex:
    """Term-by-term complex character sum using the dlog of each factor."""
    dlog = {}
    v = 1
    for a in range(q - 1):
        dlog[v] = a
        v = v * g % q
    total = 0j
    omega = np.exp(2j * np.pi / r)
    for x in range(q):
        val = 1 + 0j
        for y, k in zip(roots, powers):
            f = (y - x) % q
            if k == 0:
                continue
            if f == 0:
                val = 0j
                break
            val *= omega ** ((dlog[f] * k) % r)
        total += val
    return total


def bitset_vc(q: int, member: np.ndarray, conv: ZeroConvention) -> int:
    """Largest shattered size by a translation-only walk from {0}.

    A set's allowed translates are split into its 2^n pattern classes,
    each a Python-int bitset over x; adding m splits every class by the
    translates x with m - x a member (and, under STRICT, drops x = m).  A
    child is kept only when every class keeps at least 2^(best - n)
    translates, the bound every subset of a shattered set above best
    obeys, and inherits the kept children after it.  No pair
    normalization, duality or numpy is involved.
    """
    strict = conv is ZeroConvention.STRICT
    full = (1 << q) - 1
    hit, miss = [], []
    for m in range(q):
        row = sum(1 << x for x in range(q) if member[(m - x) % q])
        keep = full & ~(1 << m) if strict else full
        hit.append(row & keep)
        miss.append(~row & keep)
    best = 0

    def grow(classes, n, cands):
        nonlocal best
        need = 1 << max(0, best - n)
        kids = []
        for m in cands:
            parts = []
            for c in classes:
                a, b = c & miss[m], c & hit[m]
                if a.bit_count() < need or b.bit_count() < need:
                    break
                parts += (a, b)
            else:
                parts.sort(key=int.bit_count)  # small classes fail soonest
                kids.append((m, parts, parts[0].bit_count()))
        if kids:
            best = max(best, n + 1)
        for i, (m, parts, low) in enumerate(kids):
            need = 1 << max(0, best - n)
            later = [k for k, _, c in kids[i + 1:] if c >= need]
            if n + 1 + len(later) <= best:
                break
            if low >= need:
                grow(parts, n + 1, later)

    # every shattered set translates onto one whose least element is 0
    if miss[0] and hit[0]:
        best = 1
        grow([miss[0], hit[0]], 1, range(1, q))
    return best
