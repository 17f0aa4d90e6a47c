"""The four benchmark workloads: cuts of the paper's reproduction jobs.

Each workload is a job of steps run in one process with jobs = 1.  A
step is a ``residuevc`` CLI command (run through ``cli.main`` with its
own output directory) or the constructive theorem check, which is called
as a library function because ``residuevc verify`` cannot reach q >= 1024.
Each job is cut to take about ``JOB_S`` seconds on the 2-vCPU build
machine, so that a run can repeat it (see ``run.py``), while keeping the
cost profile of the job it is cut from:

- vcdim-zero-in: ``vcdim --range 5:167``.  Nearly all time is the search
  tree walk; the primes just below the jump of the dimension to 6 and 7
  (101, 163, 167) dominate, as the primes below 256 do in the full
  criterion-1 sweep.
- vcdim-strict-zero-out: the same search under the two other zero
  conventions (the STRICT self-translate correction, the {0} root of
  ZERO_OUT), so a search change that helps only ZERO_IN shows here.
- prob-ap: the n = 8 interface scan (criterion 4, seeded) and the
  progressions to 10000 (criterion 3 to 20000): many cheap oracle,
  sampling and field-construction calls, no search walk.  The scan keeps
  all 279 primes of its ratio window (``--density 1000``) at 40 trials
  each, so the seed changes which subsets are drawn but not how many
  points are scanned; criterion 4 thins them at random to about 100.
- theorem-quads: ``verify_shattering_theorem(make_field(q), 2, 0.1)`` for
  the primes in [1024, 1049], the quad check behind criterion 10 and the
  only workload that reaches ``weil``.

Only prob-ap uses the seed; the other workloads are fixed prime ranges.
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check

Rows = list[dict[str, str]]

#: Wall time of one job of each workload at the baseline, in seconds.  A
#: run of ``--seconds`` repeats the job round(seconds / JOB_S) times, a
#: count that does not depend on the speed of the code being measured.
JOB_S = 2.0

THEOREM_FIELDS = ("q", "n_star", "checked", "failures", "passed")


@dataclass(frozen=True)
class Step:
    """One command of a workload's job, with what it must write.

    ``argv`` is the CLI command line without ``--out-dir``; the theorem
    step has none and checks ``primes``.  The step writes its rows to
    ``csv``; ``expected`` gives the rows a correct program writes and
    ``compare`` tallies the rows written against them.  ``reference``
    names the file under ``reference/`` that ``expected`` reads, if any.
    """

    command: str
    argv: tuple[str, ...]
    csv: str
    expected: Callable[[], Rows]
    compare: Callable[[Rows, Rows], check.Tally]
    reference: str | None = None
    primes: tuple[int, ...] = ()


def vcdim_step(conv: str, lo: int, hi: int) -> Step:
    ref = f"vcdim-{conv}"
    return Step("vcdim", ("vcdim", "--range", f"{lo}:{hi}", "--convention",
                          conv), "vcdim.csv",
                functools.partial(check.reference_rows, ref),
                functools.partial(check.check_vcdim, conv=conv), ref)


def ap_step(lo: int, hi: int) -> Step:
    return Step("ap", ("ap", "--range", f"{lo}:{hi}"), "ap.csv",
                functools.partial(check.reference_rows, "ap"),
                functools.partial(check.check_rows, label="ap"), "ap")


def prob_step(n: int, trials: int, density: int, seed: int) -> Step:
    return Step("prob", ("prob", "--n", f"{n}:{n}", "--trials", str(trials),
                         "--density", str(density), "--seed", str(seed)),
                f"prob_n{n}.csv",
                functools.partial(check.expected_prob_rows, n, trials,
                                  density, seed),
                functools.partial(check.check_rows, label="prob"))


def theorem_step(lo: int, hi: int) -> Step:
    return Step("theorem", (), "theorem.csv",
                functools.partial(check.reference_rows, "theorem"),
                functools.partial(check.check_rows, label="theorem"),
                "theorem", tuple(check.primes_between(lo, hi)))


WORKLOADS = {
    "vcdim-zero-in": lambda seed: [vcdim_step("zero-in", 5, 167)],
    "vcdim-strict-zero-out": lambda seed: [vcdim_step("strict", 5, 109),
                                           vcdim_step("zero-out", 5, 79)],
    "prob-ap": lambda seed: [prob_step(8, 40, 1000, seed),
                             ap_step(5, 10000)],
    "theorem-quads": lambda seed: [theorem_step(1024, 1049)],
}


def build(workload: str, seed: int) -> list[Step]:
    """The workload's inputs for ``seed``."""
    return WORKLOADS[workload](seed)


def jobs_per_run(seconds: float) -> int:
    return max(1, round(seconds / JOB_S))


def run_step(step: Step, out_dir: Path) -> int:
    """Run one step, writing its rows under ``out_dir``; return its exit
    code.  The program's functions are looked up on their modules at call
    time, so a tracer that replaced them is used."""
    from residuevc import cli, field, weil

    out_dir.mkdir(parents=True, exist_ok=True)
    if step.argv:
        try:
            return cli.main([*step.argv, "--out-dir", str(out_dir)])
        except Exception:  # noqa: BLE001 - a crash fails the step's items
            traceback.print_exc()
            return 1
    rows = []
    for q in step.primes:
        try:
            r = weil.verify_shattering_theorem(field.make_field(q), 2, 0.1)
        except Exception:  # noqa: BLE001 - a crash fails this prime only
            traceback.print_exc()
            continue
        rows.append({"q": str(q), "n_star": str(r.n_star),
                     "checked": str(r.checked), "failures": str(r.failures),
                     "passed": str(r.passed).lower()})
    check.write_rows(out_dir / step.csv, THEOREM_FIELDS, rows)
    return 0


def check_step(step: Step, expected: Rows, code: int,
               out_dir: Path) -> check.Tally:
    """Tally the step's items; a nonzero exit fails all of them."""
    label = " ".join(step.argv) or step.command
    if code != 0:
        return check.all_failed(expected, label, f"exit code {code}")
    path = out_dir / step.csv
    if not path.is_file():
        return check.all_failed(expected, label, f"no {step.csv}")
    return step.compare(expected, check.read_rows(path))
