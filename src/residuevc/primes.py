"""Primality testing, prime enumeration, and factorization helpers.

All moduli handled by the package are desk-scale (well under 64 bits), so a
sieve of the numbers below 2^16, built once on first use, a deterministic
Miller-Rabin witness set above it, and trial-division factorization are
enough.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import NotPrime, TooSmall

# Sufficient for every n < 3.3 * 10^24, which covers all 64-bit inputs;
# also the trial divisors that ``is_prime`` tries first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: The first four witnesses are sufficient below this bound (Jaeschke
#: 1993), which lies above every modulus the package accepts; the bound
#: itself, 151 * 751 * 28351, is a strong pseudoprime to all four.
_SMALL_MR_BOUND = 3_215_031_751
#: Moduli from here on are refused: ``make_field``'s discrete-log table
#: would need 16 GiB and products of two residues would overflow int64, so
#: ``primes_in_range`` lists no prime past them either.
MAX_MODULUS = 1 << 31
#: ``is_prime`` reads every n below this from ``_prime_table``.
_TABLE_BOUND = 1 << 16


@functools.cache
def _prime_table() -> bytes:
    """Byte n is 1 exactly when n < ``_TABLE_BOUND`` is prime: a sieve of
    Eratosthenes, 64 KiB, built on first call."""
    table = bytearray([1]) * _TABLE_BOUND
    table[:2] = b"\0\0"
    for p in range(2, math.isqrt(_TABLE_BOUND)):
        if table[p]:
            table[p * p :: p] = bytes(len(range(p * p, _TABLE_BOUND, p)))
    return bytes(table)


def is_prime(n: int) -> bool:
    """Whether n is prime: read from ``_prime_table`` below 2^16, else
    deterministic Miller-Rabin for 64-bit integers, with witnesses 2, 3,
    5 and 7 below ``_SMALL_MR_BOUND`` and all of ``_MR_WITNESSES``
    above."""
    if n < _TABLE_BOUND:
        return n >= 2 and _prime_table()[n] == 1
    if any(n % p == 0 for p in _MR_WITNESSES):
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:4] if n < _SMALL_MR_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(q: int, minimum: int = 5) -> None:
    """Raise NotPrime / TooSmall unless q is a prime >= minimum."""
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q < minimum:
        raise TooSmall(f"q must be at least {minimum}, got {q}")


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a sieve of that window alone.

    The window's composites are struck out by the primes up to isqrt(hi),
    which this function lists first.  Raises ValueError for
    hi >= ``MAX_MODULUS`` before allocating anything, since no such prime
    can carry a field.
    """
    if hi < 2 or hi < lo:
        return []
    if hi >= MAX_MODULUS:
        raise ValueError(f"cannot list primes up to {hi}: moduli must stay "
                         f"below 2^31")
    lo = max(lo, 2)
    window = bytearray([1]) * (hi - lo + 1)
    for p in primes_in_range(2, math.isqrt(hi)):
        start = max(p * p, -(-lo // p) * p)  # first multiple to strike
        window[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    return list(itertools.compress(range(lo, hi + 1), window))


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out
