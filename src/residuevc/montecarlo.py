"""Monte Carlo estimates of the probability that a random subset is shattered.

For a prime q and size n, ``estimate_p`` draws uniform n-subsets of F_q
and reports the fraction shattered by translates of the squares table.
An interface scan fixes n and sweeps primes q with n/log2(q) inside a
ratio window, in two parts: ``interface_primes`` lists the window's
primes and thins them at random so each scan yields a target number of
points, which is cheap and is where every argument error arises;
``interface_scan`` estimates p at the primes it keeps.

All randomness flows through numpy's PCG64 generator.  Per-point seeds
are derived from (master seed, n, q), so any single point can be
reproduced in isolation and reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NTooLarge
from .field import ZeroConvention, log2, make_field, squares_table
from .primes import primes_in_range, require_prime
from .shatter import MAX_WIDTH, shatter_report

DEFAULT_TRIALS = 1000
#: Swap indices ``estimate_p`` draws per ``rng.integers`` call; bounds its
#: memory whatever the number of trials.
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
    """Estimate the probability that a uniform n-subset of F_q is shattered."""
    _require_point(q, n, trials)
    T = squares_table(make_field(q), conv)
    rng = np.random.default_rng(seed)
    per_call = max(1, DRAW_CHUNK // n)
    hits = 0
    for lo in range(0, trials, per_call):
        m = min(per_call, trials - lo)
        # The next m trials' swap indices in one call: the same PCG64
        # stream as ``sample_subset`` trial after trial.
        js = rng.integers(np.tile(np.arange(n), m), q).reshape(m, n)
        for row in js.tolist():
            if shatter_report(_fisher_yates(q, row), T).shattered:
                hits += 1
    return ProbPoint(q=q, n=n, trials=trials, hits=hits, ratio=n / log2(q),
                     p_hat=hits / trials, seed=seed)


def scan_primes(n: int, ratio_lo: float, ratio_hi: float) -> list[int]:
    """Primes q whose ratio n/log2(q) falls in [ratio_lo, ratio_hi]."""
    q_lo = 2 ** (n / ratio_hi)
    q_hi = 2 ** (n / ratio_lo)
    qs = primes_in_range(max(5, int(np.ceil(q_lo))), int(np.floor(q_hi)))
    return [q for q in qs
            if ratio_lo <= n / log2(q) <= ratio_hi]


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
    window, each point deterministic in ``seed``."""
    return [estimate_p(q, n, trials, seed=point_seed(seed, n, q), conv=conv)
            for q in interface_primes(n, ratio_lo, ratio_hi, density, trials,
                                      seed)]
