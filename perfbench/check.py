"""Correctness checks for benchmark outputs, with a brute-force oracle.

Nothing here imports ``residuevc``: squares are computed as x*x mod q,
patterns by direct modular indexing, and the Monte Carlo sampling
protocol (documented in the prob manifest: numpy PCG64, per-point seeds
derived from (seed, n, q), partial Fisher-Yates) is re-derived from
numpy directly.  A bug in the package therefore cannot hide behind
itself.

Every checker returns a ``Tally`` of items attempted and failed.  An
item is a prime (vcdim, ap, theorem) or a scan point (prob).  A row that
is missing, duplicated, unexpected or wrong fails its item; a command
that exited nonzero fails every item it was meant to produce.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Output fields a correct program may write differently: another search
#: may find another witness, and timings vary.  The reference files hold
#: every other field, and the checker compares each of them.
VOLATILE = ("witness", "elapsed_ms")

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by trial division."""
    return [p for p in range(max(lo, 2), hi + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))]


def squares_member(q: int, conv: str) -> np.ndarray:
    """0/1 vector of the nonzero squares mod q; 0 is a member under zero-in."""
    member = np.zeros(q, dtype=np.int64)
    member[[x * x % q for x in range(1, q)]] = 1
    member[0] = 1 if conv == "zero-in" else 0
    return member


def is_shattered(Y, member: np.ndarray, conv: str) -> bool:
    """Does every subset of Y arise as Y intersect (S + x), x allowed?

    Bit i of translate x's pattern is member[(y_i - x) mod q]; under
    strict the translates x in Y are not allowed.
    """
    q = member.shape[0]
    Y = [int(y) for y in Y]
    xs = np.arange(q, dtype=np.int64)
    if conv == "strict":
        xs = np.setdiff1d(xs, Y)
    sig = np.zeros(xs.shape[0], dtype=np.int64)
    for i, y in enumerate(Y):
        sig |= member[(y - xs) % q] << i
    return np.unique(sig).shape[0] == 1 << len(Y)


class SlidingOracle:
    """Fast form of ``is_shattered`` for many subsets of one prime.

    Column y of the pattern matrix, member[(y - x) mod q] for x = 0..q-1,
    is the slice [q - 1 - y, 2q - 1 - y) of the reversed member vector
    repeated twice, so no modular index is computed per translate.  The
    tests check this form against ``is_shattered``.
    """

    def __init__(self, member: np.ndarray, conv: str, n: int):
        if conv == "strict":
            raise ValueError("the sliding oracle serves zero-in and zero-out")
        self.q = member.shape[0]
        self.width = 1 << n
        rev = member[::-1].astype(np.int64)
        doubled = np.concatenate([rev, rev])
        self.bits = [doubled << i for i in range(n)]

    def shattered(self, Y) -> bool:
        q = self.q
        if self.width > q:
            return False
        sig = sum(b[q - 1 - y : 2 * q - 1 - y]
                  for b, y in zip(self.bits, Y))
        return np.count_nonzero(np.bincount(sig, minlength=self.width)) \
            == self.width


def _point_seed(master: int, n: int, q: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(n, q))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fisher_yates(rng: np.random.Generator, q: int, n: int) -> list[int]:
    pool: dict[int, int] = {}
    out = []
    for i in range(n):
        j = int(rng.integers(i, q))
        pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
        out.append(pool[i])
    return sorted(out)


def expected_prob_rows(n: int, trials: int, density: float,
                       seed: int) -> list[dict[str, str]]:
    """The prob_n<n>.csv rows the sampling protocol must produce.

    Primes with n/log2 q in the ratio window are thinned at random to
    about ``density`` points; each point draws ``trials`` uniform
    n-subsets from its own derived seed and counts the shattered ones.
    The ratio window [0.7, 0.85] and the zero-in convention are the prob
    command's defaults, which the workloads use.
    """
    ratio_lo, ratio_hi, conv = 0.7, 0.85, "zero-in"
    qs = [q for q in primes_between(5, math.floor(2 ** (n / ratio_lo)))
          if ratio_lo <= n / math.log2(q) <= ratio_hi]
    if not qs:
        return []
    keep_p = min(1.0, density / len(qs))
    thin = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    rows = []
    for q in [q for q in qs if thin.random() < keep_p]:
        pseed = _point_seed(seed, n, q)
        rng = np.random.default_rng(pseed)
        oracle = SlidingOracle(squares_member(q, conv), conv, n)
        hits = sum(oracle.shattered(_fisher_yates(rng, q, n))
                   for _ in range(trials))
        rows.append({"n": str(n), "q": str(q),
                     "ratio": f"{n / math.log2(q):.6f}",
                     "trials": str(trials), "hits": str(hits),
                     "p_hat": f"{hits / trials:.6f}", "seed": str(pseed),
                     "convention": conv})
    return rows


# ---------------------------------------------------------------------------
# Reference files and outputs
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_rows(path: Path, fields, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def reference_rows(name: str) -> list[dict[str, str]]:
    """The rows of reference/<name>.csv."""
    return read_rows(REFERENCE_DIR / f"{name}.csv")


def _match(expected: list[dict[str, str]], actual: list[dict[str, str]],
           label: str, row_ok) -> Tally:
    """Pair rows by prime ``q``; each prime of either side is one item."""
    tally = Tally()
    want = {row["q"]: row for row in expected}
    got: dict[str, list[dict[str, str]]] = {}
    for row in actual:
        got.setdefault(row.get("q", ""), []).append(row)
    for k in sorted(set(want) | set(got), key=lambda s: (len(s), s)):
        tally.attempted += 1
        rows = got.get(k, [])
        if k not in want:
            reason = "unexpected row"
        elif len(rows) != 1:
            reason = f"{len(rows)} rows"
        else:
            reason = row_ok(want[k], rows[0])
        if reason:
            tally.failed += 1
            tally.problems.append(f"{label} q={k}: {reason}")
    return tally


def _fields_differ(want: dict, got: dict) -> str | None:
    """Every field of the expected row must be written as it is."""
    bad = [f"{f} {got.get(f)!r} != {v!r}" for f, v in want.items()
           if got.get(f) != v]
    return "; ".join(bad) or None


def all_failed(expected: list[dict[str, str]], label: str, why: str) -> Tally:
    return Tally(len(expected), len(expected), [f"{label}: {why}"])


def check_rows(expected: list[dict[str, str]], actual: list[dict[str, str]],
               label: str) -> Tally:
    """Every field of every expected row must be written as it is."""
    return _match(expected, actual, label, _fields_differ)


def check_vcdim(expected: list[dict[str, str]], actual: list[dict[str, str]],
                conv: str) -> Tally:
    """Compare vcdim.csv rows with the reference; oracle-check each witness.

    Witnesses are not compared with the reference: a correct search may
    find another one.  Each must be a set of ``vcdim`` distinct field
    elements that the brute-force oracle finds shattered.
    """
    def row_ok(want, got):
        return _fields_differ(want, got) or witness_problem(got, conv)

    return _match(expected, actual, f"vcdim {conv}", row_ok)


def witness_problem(row: dict[str, str], conv: str) -> str | None:
    """Why a vcdim.csv row's witness is not a shattered set, or None."""
    q, dim = int(row["q"]), int(row["vcdim"])
    try:
        wit = [int(y) for y in row["witness"].split(";") if y != ""]
        float(row["elapsed_ms"])
    except (AttributeError, TypeError, ValueError):  # short CSV row
        return "unparsable witness or elapsed_ms"
    if len(set(wit)) != dim or len(wit) != dim:
        return f"witness {row['witness']!r} is not a {dim}-set"
    if any(not 0 <= y < q for y in wit):
        return f"witness {row['witness']!r} leaves F_{q}"
    if not is_shattered(wit, squares_member(q, conv), conv):
        return f"witness {row['witness']!r} is not shattered"
    return None
