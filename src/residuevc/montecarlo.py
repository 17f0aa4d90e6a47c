"""Monte Carlo estimates of the probability that a random subset is shattered.

For a prime q and size n, ``estimate_p`` draws uniform n-subsets of F_q
and reports the fraction shattered by translates of the squares table.
An interface scan fixes n and sweeps primes q with n/log2(q) inside a
ratio window, in two parts: ``interface_primes`` lists the window's
primes and thins them at random so each scan yields a target number of
points, which is cheap and is where every argument error arises;
``interface_scan`` estimates p at the primes it keeps.

``estimate_p`` and ``interface_scan`` take one path, ``_estimate``;
``estimate_p`` is its one-point case, as ``pattern_counts`` is the
one-row case of ``row_counts``.  It works in three steps:

- Draw.  Each point draws its trials' partial Fisher-Yates swap indices
  from its own generator, a batch of at most ``DRAW_CHUNK`` indices at a
  time (``_swap_batches``).  A point's trials may span batches and a
  batch may span points; the stream, and so every subset, is the one
  ``sample_subset`` gives trial after trial.
- Shuffle.  ``_fisher_yates_rows`` turns a whole batch of swap indices
  into subsets at once, O(n^2) array steps over all its rows.  It holds
  nothing q-sized, whatever q is.
- Tally.  Each point's rows are tallied by ``shatter.row_counts`` over
  that point's table, one ``bincount`` per run of at most
  ``shatter.MAX_CELLS`` cells.  A subset is shattered when its least
  pattern count is positive.

``sample_subset`` stays the scalar dict form, ``_fisher_yates``.  Its
callers, ``weil._weil_specs`` (levels 3 and up of ``verify_weil``) and
``weil.verify_equidistribution``, draw one subset at a time between
other draws, and there the array form of one row takes about 15 times as
long as the dict steps (24 against 1.6 us at n = 4).  The scalar form is
also the reference the row form is tested against.

All randomness flows through numpy's PCG64 generator.  Per-point seeds
are derived from (master seed, n, q), so any single point can be
reproduced in isolation and reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NTooLarge
from .field import PrimeField, ZeroConvention, make_field, squares_table
from .primes import primes_in_range, require_prime
from .shatter import MAX_WIDTH, _allowed_translates, row_counts
# shatter_report stays bound here, where perfbench's tracer test looks it up.
from .shatter import shatter_report  # noqa: F401

DEFAULT_TRIALS = 1000
#: Most swap indices one batch of ``_swap_batches`` holds; bounds the
#: memory of an estimate whatever the number of trials and points.
DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class ProbPoint:
    """One estimated shattering probability at a (q, n) pair."""

    q: int
    n: int
    trials: int
    hits: int
    ratio: float
    p_hat: float
    seed: int


def sample_subset(rng: np.random.Generator, q: int, n: int) -> list[int]:
    """Uniform n-subset of {0, ..., q-1} by partial Fisher-Yates.

    The n swap indices j_i in [i, q) are drawn in one call, which gives the
    same PCG64 stream as n scalar ``rng.integers(i, q)`` draws.
    """
    return _fisher_yates(q, rng.integers(np.arange(n), q).tolist())


def _fisher_yates(q: int, js: list[int]) -> list[int]:
    """Sorted first len(js) entries of range(q) after swapping entry i with
    entry js[i], for i = 0, 1, ... in turn.

    Only the displaced pool entries are stored, so memory is O(len(js)).
    """
    displaced: dict[int, int] = {}
    out = []
    for i, j in enumerate(js):
        vi = displaced.get(i, i)
        displaced[i] = displaced.get(j, j)
        displaced[j] = vi
        out.append(displaced[i])
    out.sort()
    return out


def _fisher_yates_rows(js: np.ndarray) -> np.ndarray:
    """``_fisher_yates`` of each row of the (m, n) swap indices ``js``, as
    the rows of one sorted (m, n) int64 array.

    Column k of ``at_j`` holds the entry at position js[:, k], and column
    k of ``at_k`` the entry at position k.  Step i swaps the entries at i
    and js[:, i]: the entry at js[:, i], ``at_j[:, i]``, is the subset's
    i-th element, and the entry at i goes to every later column, of
    either array, whose position is js[:, i].  Positions below i are
    never read again, so columns up to i are left alone and at_j[:, i]
    keeps the element.  That is n - 1 pairs of compare/``copyto`` steps
    over all rows, O(n^2) a row, and nothing q-sized.
    """
    js = np.asarray(js, dtype=np.int64)
    m, n = js.shape
    at_j, at_k = js.copy(), np.tile(np.arange(n), (m, 1))
    for i in range(n - 1):
        at_i, j = at_k[:, i, None], js[:, i, None]
        np.copyto(at_j[:, i + 1 :], at_i, where=js[:, i + 1 :] == j)
        np.copyto(at_k[:, i + 1 :], at_i, where=np.arange(i + 1, n) == j)
    at_j.sort(axis=1)
    return at_j


def point_seed(master_seed: int, n: int, q: int) -> int:
    """Deterministic per-point seed derived from the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(n, q))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _require_point(q: int, n: int, trials: int) -> None:
    """Refuse the arguments ``estimate_p`` cannot take."""
    require_prime(q, minimum=3)
    if n > MAX_WIDTH:
        raise NTooLarge(f"subset size {n} exceeds the {MAX_WIDTH}-bit pattern bound")
    if not 2 <= n <= q:
        raise ValueError(f"need 2 <= n <= q, got n={n}, q={q}")
    if trials < 1:
        raise ValueError("trials must be positive")


def estimate_p(q: int, n: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
               conv: ZeroConvention = ZeroConvention.ZERO_IN) -> ProbPoint:
    """Estimate the probability that a uniform n-subset of F_q is shattered:
    the one-point case of ``_estimate``.

    Past the pigeonhole bound, 2^n above the allowed translates, the
    estimate is 0 and no subset is drawn.
    """
    _require_point(q, n, trials)
    return _estimate([(q, seed)], n, trials, conv)[0]


def _swap_batches(points: list[tuple[int, int]], n: int, trials: int,
                  conv: ZeroConvention
                  ) -> Iterator[list[tuple[int, PrimeField, np.ndarray]]]:
    """The swap indices of the trials at each (q, seed) of ``points``, in
    batches of at most ``DRAW_CHUNK`` indices.

    A batch lists (point number, field, (m, n) swap indices) pieces, so a
    point's trials may span batches and a batch may span points.  A piece
    carries the field, not the table, so that a batch of many points
    holds no q-sized array.  Each
    point draws from its own ``default_rng(seed)``, m trials a call: the
    same PCG64 stream as ``sample_subset`` trial after trial.  A point
    past the pigeonhole bound, 2^n above its allowed translates, draws
    nothing.
    """
    per_batch = max(1, DRAW_CHUNK // n)
    batch, room = [], per_batch
    for k, (q, seed) in enumerate(points):
        F = make_field(q)
        rng = np.random.default_rng(seed)
        left = trials if (1 << n) <= _allowed_translates(n, q, conv) else 0
        while left:
            m = min(left, room)
            js = rng.integers(np.tile(np.arange(n), m), q).reshape(m, n)
            batch.append((k, F, js))
            left -= m
            room -= m
            if not room:
                yield batch
                batch, room = [], per_batch
    if batch:
        yield batch


def _estimate(points: list[tuple[int, int]], n: int, trials: int,
              conv: ZeroConvention) -> list[ProbPoint]:
    """Estimate p at each (q, seed) of ``points``, all of size n.

    Each batch of ``_swap_batches`` is shuffled by one
    ``_fisher_yates_rows``; each point's rows in it are tallied by
    ``row_counts`` over that point's table, built when its first rows are
    tallied and kept while the next pieces are the same point's.
    """
    hits = [0] * len(points)
    T = None
    for batch in _swap_batches(points, n, trials, conv):
        rows = _fisher_yates_rows(np.concatenate([js for _, _, js in batch]))
        lo = 0
        for k, F, js in batch:
            if T is None or T.q != F.q:
                T = squares_table(F, conv)
            for counts in row_counts(rows[lo : lo + len(js)], T):
                hits[k] += int(np.count_nonzero(counts.min(axis=1)))
            lo += len(js)
    return [ProbPoint(q=q, n=n, trials=trials, hits=h,
                      ratio=n / math.log2(q), p_hat=h / trials, seed=seed)
            for (q, seed), h in zip(points, hits)]


def scan_primes(n: int, ratio_lo: float, ratio_hi: float) -> list[int]:
    """Primes q whose ratio n/log2(q) falls in [ratio_lo, ratio_hi]."""
    q_lo = 2 ** (n / ratio_hi)
    q_hi = 2 ** (n / ratio_lo)
    qs = primes_in_range(max(5, int(np.ceil(q_lo))), int(np.floor(q_hi)))
    return [q for q in qs
            if ratio_lo <= n / math.log2(q) <= ratio_hi]


def interface_primes(n: int, ratio_lo: float = 0.7, ratio_hi: float = 0.85,
                     density: float = 100, trials: int = DEFAULT_TRIALS,
                     seed: int = 0) -> list[int]:
    """The primes an interface scan estimates p at, randomly thinned.

    Each prime in the window is kept with probability density/#primes, so
    the expected number of points is about ``density``; the selection is
    deterministic in ``seed``.  Raises on any argument ``interface_scan``
    with the same arguments would refuse, before estimating anything.
    """
    if ratio_lo <= 0 or ratio_hi <= ratio_lo:
        raise ValueError("need 0 < ratio_lo < ratio_hi")
    if trials < 1:
        raise ValueError("trials must be positive")
    qs = scan_primes(n, ratio_lo, ratio_hi)
    if not qs or density <= 0:
        return []
    keep_p = min(1.0, density / len(qs))
    thin_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    kept = [q for q in qs if thin_rng.random() < keep_p]
    for q in kept:
        _require_point(q, n, trials)
    return kept


def interface_scan(n: int, ratio_lo: float = 0.7, ratio_hi: float = 0.85,
                   density: float = 100, trials: int = DEFAULT_TRIALS,
                   seed: int = 0,
                   conv: ZeroConvention = ZeroConvention.ZERO_IN) -> list[ProbPoint]:
    """Estimate p at the primes ``interface_primes`` keeps in one ratio
    window, each point deterministic in ``seed``: the point at q is
    ``estimate_p(q, n, trials, point_seed(seed, n, q), conv)``."""
    qs = interface_primes(n, ratio_lo, ratio_hi, density, trials, seed)
    return _estimate([(q, point_seed(seed, n, q)) for q in qs], n, trials,
                     conv)
