"""Run a benchmark workload in two checkouts, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N

PARENT and CHANGE are checkouts of the repository.  Pair i (from 1) runs
``perfbench/run.py --workload W --seed i --trace 0`` in each, the parent
first in odd pairs and the change first in even ones, so that neither
side always meets the machine in the same state.  Of each run's output
only the summary line and the last line, the JSON result, are read.

Prints each pair; then, per side, the medians of ``wall_s``, ``setup_s``,
``cpu_s``, ``peak_rss_mb``, ``raw_wall_s`` and ``slowdown``; the number
of pairs whose change run has the lower ``wall_s``; and the failed items
of every run.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

#: Metrics whose medians are printed, in order.
KEYS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "raw_wall_s",
        "slowdown")


def parse_run(stdout: str) -> dict[str, float]:
    """The metrics of one ``run.py`` output: the JSON result's values,
    ``raw_wall_s`` and ``slowdown`` from the summary line, and the
    result's ``failed`` and ``attempted`` item counts."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(line for line in reversed(lines)
                   if line.startswith("perfbench ") and " trace=" in line)
    run = {k: float(v["value"]) for k, v in result["metrics"].items()}
    for key in ("raw_wall_s", "slowdown"):
        run[key] = float(re.search(rf"\b{key}=(\S+)", summary).group(1))
    run["failed"] = result["failed"]
    run["attempted"] = result["attempted"]
    return run


def pair_line(i: int, p: dict, c: dict) -> str:
    """One line for pair i: its parent and change runs."""
    first = "parent" if i % 2 else "change"
    return (f"pair {i} ({first} first): wall_s {p['wall_s']:.4g} -> "
            f"{c['wall_s']:.4g}, raw_wall_s {p['raw_wall_s']:.4g} -> "
            f"{c['raw_wall_s']:.4g}, slowdown {p['slowdown']:.4g} / "
            f"{c['slowdown']:.4g}")


def summarize(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Report lines for (parent, change) runs, pair by pair and then
    their medians, wins and failed items."""
    out = [pair_line(i, p, c) for i, (p, c) in enumerate(pairs, 1)]
    for key in KEYS:
        before = statistics.median(p[key] for p, _ in pairs)
        after = statistics.median(c[key] for _, c in pairs)
        change = f" ({after / before - 1:+.1%})" if before else ""
        out.append(f"median {key}: {before:.4g} -> {after:.4g}{change}")
    wins = sum(c["wall_s"] < p["wall_s"] for p, c in pairs)
    out.append(f"change wins {wins} of {len(pairs)} pairs on wall_s")
    failed = [f"pair {i} {side}: {run['failed']}/{run['attempted']} items"
              for i, pair in enumerate(pairs, 1)
              for side, run in zip(("parent", "change"), pair)
              if run["failed"]]
    out.append("failed items: " + ("; ".join(failed) if failed else "none"))
    return out


def run_once(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)
    pairs = []
    for i in range(1, args.pairs + 1):
        sides = (args.parent, args.change)
        if i % 2:
            p, c = (run_once(side, args.workload, i) for side in sides)
        else:
            c, p = (run_once(side, args.workload, i) for side in sides[::-1])
        pairs.append((p, c))
        print(pair_line(i, p, c), flush=True)
    print("\n".join(summarize(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
