"""Prime-field arithmetic, residue-set tables, and multiplicative characters.

A ``PrimeField`` carries an odd prime modulus q.  Its primitive root g,
and the power and discrete-log tables base g, are each found or built on
first read, so a caller that only needs residue tables never pays for
them: the progressions and the interface scans read none of the three.
From it one builds:

- ``ResidueTable``: the 0/1 membership vector of a multiplicative coset
  t * G_r, where G_r is the index-r subgroup of rth powers in F_q^x, built
  as the image of x -> t x^r without logarithms.  The element 0 is neither
  in nor out of such a coset on its own; a ``ZeroConvention`` decides how
  it is treated.
- ``CharacterTable``: an order-r multiplicative character chi_r stored as an
  exponent table (chi_r(x) = exp(2*pi*i*exp_of[x]/r)), with chi_r(0) = 0;
  it reads the discrete-log table.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvenPrime, FieldTooLarge, IndexNotDividing, NotPrime
from .primes import MAX_MODULUS, is_prime, prime_factors

#: Sentinel exponent stored at index 0 of a CharacterTable (chi(0) = 0).
ZERO_EXP = -1


class ZeroConvention(enum.Enum):
    """Policy for the element 0 and for translates that land on the subset.

    ZERO_IN   0 is a full member of every residue table; all q translates
              are allowed.
    ZERO_OUT  0 is a non-member; all q translates are allowed.
    STRICT    0 is a non-member and translates x that belong to the tested
              subset Y are discarded (q - |Y| allowed translates).
    """

    ZERO_IN = "zero-in"
    ZERO_OUT = "zero-out"
    STRICT = "strict"

    @classmethod
    def parse(cls, name: str) -> "ZeroConvention":
        for conv in cls:
            if conv.value == name:
                return conv
        raise ValueError(f"unknown zero convention {name!r}; "
                         f"expected one of {[c.value for c in cls]}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PrimeField:
    """An odd prime modulus, its primitive root and its log tables.

    ``g`` is ``root`` when one is pinned, else the least primitive root
    modulo q.  ``dlog[x]`` is the index a in {0, ..., q-2} with
    g^a = x (mod q) for x != 0; ``dlog[0]`` holds -1 and must never be
    read as a logarithm.  ``powers[a]`` is g^a mod q for 0 <= a <= q - 2,
    the inverse table, a read-only int64 array like ``dlog``.  Each of the
    three is found or built the first time it is read and kept on the
    instance from then on.  Their readers are the search (``canonical``
    reads both tables, walk B maps its sets back by g), the character
    tables (``dlog``) and ``coset_representatives`` (g); no residue table
    reads any of them.
    """

    q: int
    root: int | None = None

    @functools.cached_property
    def g(self) -> int:
        if self.root is not None:
            return self.root
        return _find_primitive_root(self.q)

    @functools.cached_property
    def powers(self) -> np.ndarray:
        return _freeze(power_table(self.q, self.g))

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.powers] = np.arange(self.q - 1, dtype=np.int64)
        return _freeze(dlog)


@dataclass(frozen=True)
class ResidueTable:
    """Length-q membership vector of the coset ``coset_rep * G_r``.

    ``doubled`` holds the translate columns: uint8, length 2q, with
    ``doubled[i] = member[-i mod q]``, so member[(y - x) mod q] over
    x = 0..q-1 is the zero-copy slice [q-y : 2q-y].  It is filled with
    one reversed copy of ``member``, whose first half then repeats.
    Each reader widens it once to the dtype its sums need.  Both arrays
    are read-only.
    """

    q: int
    r: int
    coset_rep: int
    member: np.ndarray = field(repr=False)
    convention: ZeroConvention
    doubled: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        member, q = _freeze(self.member), self.q
        doubled = np.empty(2 * q, dtype=member.dtype)
        doubled[0] = member[0]
        doubled[1:q] = member[:0:-1]
        doubled[q:] = doubled[:q]
        object.__setattr__(self, "doubled", _freeze(doubled))


@dataclass(frozen=True)
class CharacterTable:
    """Order-r multiplicative character as an exponent table.

    ``exp_of[x]`` is dlog(x) mod r for x != 0 and ``ZERO_EXP`` at x = 0.
    The complex character value is exp(2*pi*i*exp_of[x]/r), and 0 at x = 0.
    """

    q: int
    r: int
    exp_of: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self.exp_of)

    def values(self, power: int = 1) -> np.ndarray:
        """Complex values of chi_r**power on all of F_q.

        Nontrivial powers vanish at 0; the trivial power (power = 0 mod r)
        is identically 1, including at 0.
        """
        k = power % self.r
        if k == 0:
            return np.ones(self.q, dtype=complex)
        omega = np.exp(2j * np.pi * k / self.r)
        vals = omega ** np.where(self.exp_of == ZERO_EXP, 0, self.exp_of)
        vals[self.exp_of == ZERO_EXP] = 0.0
        return vals


def _find_primitive_root(q: int) -> int:
    factors = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return g
    raise NotPrime(f"no primitive root modulo {q}; modulus is not prime")


def make_field(q: int, root: int | None = None) -> PrimeField:
    """Build a PrimeField for an odd prime q.

    The primitive root is the smallest one, found on first read of
    ``g``, unless ``root`` pins a specific choice, validated here, which
    downstream character tables then inherit.  No root is searched for
    and no table is built here (``PrimeField``).
    """
    if q == 2:
        raise EvenPrime("q = 2 has no index-r subgroup with r >= 2")
    if q >= MAX_MODULUS:
        raise FieldTooLarge(f"q = {q} is at least 2^31: its discrete-log table "
                            f"would need {8 * q / 2**30:.0f} GiB")
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if root is not None:
        factors = prime_factors(q - 1)
        if not 1 < root < q or any(pow(root, (q - 1) // p, q) == 1 for p in factors):
            raise ValueError(f"{root} is not a primitive root modulo {q}")
    return PrimeField(q=q, root=root)


def power_table(q: int, g: int) -> np.ndarray:
    """g^0, ..., g^(q-2) mod q for 2 < q < ``MAX_MODULUS``, by baby and
    giant steps.

    With b = ceil(sqrt(q - 1)), g^(b j + i) is giant[j] * baby[i] mod q for
    baby[i] = g^i (i < b) and giant[j] = g^(b j), so only about 2 sqrt(q)
    products are taken in Python and the rest in one int64 outer product,
    exact because both factors are below q < 2^31.
    """
    b = math.isqrt(q - 2) + 1
    baby = [1] * b
    for i in range(1, b):
        baby[i] = baby[i - 1] * g % q
    step = baby[-1] * g % q
    giant = [1] * -(-(q - 1) // b)
    for j in range(1, len(giant)):
        giant[j] = giant[j - 1] * step % q
    prod = np.outer(np.array(giant, dtype=np.int64),
                    np.array(baby, dtype=np.int64))
    return prod.ravel()[: q - 1] % q


def _check_index(F: PrimeField, r: int) -> None:
    if r < 2 or (F.q - 1) % r != 0:
        raise IndexNotDividing(f"index r={r} must be >= 2 and divide q-1={F.q - 1}")


def _mul_mod(a: np.ndarray, b, q: int) -> np.ndarray:
    """a * b mod q, for int64 factors below q, as a new array.  The product
    is reduced by floor division by q, which numpy takes for a scalar
    divisor in about half the time of int64 ``%``."""
    prod = a * b
    prod -= prod // q * q
    return prod


def residue_table(F: PrimeField, r: int, t: int = 1,
                  conv: ZeroConvention = ZeroConvention.ZERO_IN) -> ResidueTable:
    """Membership table of the coset t * G_r, with 0 handled per ``conv``.

    t * G_r is the image of x -> t x^r over F_q^x, taken by square and
    multiply on an int64 range; every product stays below q^2 < 2^62.
    For r = 2 the range stops at (q - 1) / 2, as (-x)^2 = x^2, and t = 1
    skips the last product.  Neither the primitive root nor a power or
    discrete-log table is read.
    """
    _check_index(F, r)
    q = F.q
    t %= q
    if t == 0:
        raise ValueError("coset representative t must be nonzero")
    x = np.arange(1, (q + 1) // 2 if r == 2 else q, dtype=np.int64)
    image = x
    for bit in bin(r)[3:]:  # the bits of r below its leading one
        image = _mul_mod(image, image, q)
        if bit == "1":
            image = _mul_mod(image, x, q)
    if t != 1:
        image = _mul_mod(image, t, q)
    member = np.zeros(q, dtype=np.uint8)
    member[image] = 1
    if conv is ZeroConvention.ZERO_IN:
        member[0] = 1
    return ResidueTable(q=F.q, r=r, coset_rep=t, member=member, convention=conv)


def squares_table(F: PrimeField,
                  conv: ZeroConvention = ZeroConvention.ZERO_IN) -> ResidueTable:
    """The table of nonzero squares (r = 2, trivial coset)."""
    return residue_table(F, 2, 1, conv)


def character_table(F: PrimeField, r: int) -> CharacterTable:
    """An order-r character pinned by the field's primitive root.

    For r = 2 the induced +-1 values are the Legendre symbol.
    """
    _check_index(F, r)
    exp_of = np.empty(F.q, dtype=np.int64)
    exp_of[0] = ZERO_EXP
    exp_of[1:] = F.dlog[1:] % r
    return CharacterTable(q=F.q, r=r, exp_of=exp_of)


def coset_representatives(F: PrimeField, r: int) -> list[int]:
    """One representative per coset of G_r, ordered by coset index g^0..g^(r-1)."""
    _check_index(F, r)
    return [pow(F.g, k, F.q) for k in range(r)]


def log2_floor(q: int) -> int:
    return q.bit_length() - 1

