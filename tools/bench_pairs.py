"""Run a benchmark workload in two checkouts, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \
        [--json PATH [--counters PATH]]

PARENT and CHANGE are checkouts of the repository.  Pair i (from 1) runs
``perfbench/run.py --workload W --seed i --trace 0`` in each, the parent
first in odd pairs and the change first in even ones, so that neither
side always meets the machine in the same state.  Of each run's output
only the summary line and the last line, the JSON result, are read.

Prints each pair; then, for each of ``wall_s``, ``setup_s``, ``cpu_s``,
``peak_rss_mb``, ``raw_wall_s`` and ``slowdown`` (all lower is better),
the quartiles of each side, the number of pairs whose change run is
lower, and whether the change passes both rules of a claimed gain: it
is lower in at least 9 of 10 pairs, and its median is below the
parent's by more than the parent's quartile spread (Q3 - Q1).  For the
metrics the parent's ``BENCHMARK.json`` bounds (read, never written), it
also says whether the change's median is within the bound, at most
(1 + bound) times the parent's median, or "unresolved" when the parent's
own quartile spread is wider than the bound.  Last come the failed items
of every run.  Defaults to 10 pairs, the number the
first rule is stated for.  Uses only the standard library.

With ``--json PATH`` the same report is also kept as a record under
``workloads[W]`` of the JSON file at PATH, beside the other workloads
already recorded there: each pair's raw metrics, each metric's quartiles,
wins, gain rules and bound verdict, the failed items, and each side's
``perfbench env`` line and the commit it names.  ``--counters PATH``
also merges the JSON object at PATH, deterministic work counters such as
a search's nodes and cells, into the file's top-level ``counters`` block,
keeping the counters already recorded there under other keys.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

#: Metrics whose quartiles are printed, in order; lower is better.
KEYS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "raw_wall_s",
        "slowdown")
#: Share of the pairs a claimed gain must win: 9 of 10.
WIN_SHARE = 0.9


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


def parse_env(stdout: str) -> dict:
    """The environment a ``run.py`` output gives on its ``perfbench env``
    line."""
    prefix = "perfbench env "
    line = next(line for line in stdout.splitlines()
                if line.startswith(prefix))
    return json.loads(line[len(prefix):])


def pair_line(i: int, p: dict, c: dict) -> str:
    """One line for pair i: its parent and change runs."""
    first = "parent" if i % 2 else "change"
    return (f"pair {i} ({first} first): wall_s {p['wall_s']:.4g} -> "
            f"{c['wall_s']:.4g}, raw_wall_s {p['raw_wall_s']:.4g} -> "
            f"{c['raw_wall_s']:.4g}, slowdown {p['slowdown']:.4g} / "
            f"{c['slowdown']:.4g}")


def load_bounds(checkout: Path) -> dict[str, float]:
    """The relative bound of each end-to-end metric in the checkout's
    ``BENCHMARK.json``; none when it has no such file."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: float(m["bound"]) for m in spec.get("end_to_end", [])
            if "bound" in m}


def metric_stats(key: str, pairs: list[tuple[dict, dict]],
                 bound: float | None = None) -> dict:
    """One metric: each side's Q1, median and Q3 (``statistics.quantiles``,
    exclusive method), the change's wins, the median gap and the parent's
    spread, and the two rules of a claimed gain; then, given the metric's
    relative ``bound``, whether the change's median is within it."""
    before = statistics.quantiles([p[key] for p, _ in pairs], n=4)
    after = statistics.quantiles([c[key] for _, c in pairs], n=4)
    wins = sum(c[key] < p[key] for p, c in pairs)
    gap, spread = before[1] - after[1], before[2] - before[0]
    stats = {"parent": before, "change": after, "wins": wins,
             "pairs": len(pairs), "median_gap": gap, "parent_spread": spread,
             "wins_rule": wins >= WIN_SHARE * len(pairs),
             "gap_rule": gap > spread}
    if bound is not None:
        within = after[1] <= (1 + bound) * before[1]
        stats["bound"] = bound
        stats["within_bound"] = ("unresolved" if spread > bound * before[1]
                                 else "yes" if within else "no")
    return stats


def metric_line(key: str, pairs: list[tuple[dict, dict]],
                bound: float | None = None) -> str:
    """``metric_stats`` as one line."""
    s = metric_stats(key, pairs, bound)
    before, after = s["parent"], s["change"]
    change = f" ({after[1] / before[1] - 1:+.1%})" if before[1] else ""
    holds = s["wins_rule"] and s["gap_rule"]
    line = (f"{key}: parent {' / '.join(f'{v:.4g}' for v in before)}, "
            f"change {' / '.join(f'{v:.4g}' for v in after)}{change}; "
            f"change wins {s['wins']} of {s['pairs']}; median gap "
            f"{s['median_gap']:.4g} vs parent spread "
            f"{s['parent_spread']:.4g}; gain rules "
            f"{'hold' if holds else 'fail'}")
    if bound is None:
        return line
    return f"{line}; within bound {bound:g}: {s['within_bound']}"


def failed_items(pairs: list[tuple[dict, dict]]) -> list[str]:
    """One entry for each run with failed items."""
    return [f"pair {i} {side}: {run['failed']}/{run['attempted']} items"
            for i, pair in enumerate(pairs, 1)
            for side, run in zip(("parent", "change"), pair)
            if run["failed"]]


def summarize(pairs: list[tuple[dict, dict]],
              bounds: dict[str, float] | None = None) -> list[str]:
    """Report lines for (parent, change) runs, printed after their pair
    lines: one line per metric (``metric_line``, with its bound in
    ``bounds`` if any), then the failed items."""
    bounds = bounds or {}
    out = [metric_line(key, pairs, bounds.get(key)) for key in KEYS]
    failed = failed_items(pairs)
    out.append("failed items: " + ("; ".join(failed) if failed else "none"))
    return out


def record(pairs: list[tuple[dict, dict]], bounds: dict[str, float],
           envs: dict[str, dict]) -> dict:
    """The report of one workload as JSON data: ``envs`` holds each
    side's ``perfbench env`` line, parsed."""
    return {
        "pairs": [{"pair": i, "first": "parent" if i % 2 else "change",
                   "parent": p, "change": c}
                  for i, (p, c) in enumerate(pairs, 1)],
        "metrics": {key: metric_stats(key, pairs, bounds.get(key))
                    for key in KEYS},
        "failed_items": failed_items(pairs),
        "commits": {side: env.get("git_commit") for side, env in envs.items()},
        "env": envs,
    }


def write_record(path: Path, workload: str, rec: dict,
                 counters: dict | None = None) -> None:
    """Put ``rec`` under ``workloads[workload]`` of the JSON file at
    ``path``, keeping the other workloads recorded there, and merge
    ``counters`` into its ``counters`` block."""
    data = (json.loads(path.read_text(encoding="utf-8")) if path.exists()
            else {"workloads": {}})
    data["workloads"][workload] = rec
    if counters:
        data.setdefault("counters", {}).update(counters)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The metrics and the environment of one run; a failed run raises
    with its stderr."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout} seed {seed}: run.py exited "
                           f"{proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout), parse_env(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also record the report in this JSON file")
    parser.add_argument("--counters", type=Path, metavar="PATH",
                        help="merge this JSON object of work counters into "
                             "the record (needs --json)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")
    counters = None
    if args.counters:
        if not args.json:
            parser.error("--counters needs --json")
        counters = json.loads(args.counters.read_text(encoding="utf-8"))
        if not isinstance(counters, dict):
            parser.error(f"{args.counters} must hold a JSON object")
    checkouts = {"parent": args.parent, "change": args.change}
    pairs, envs = [], {}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        runs = {side: run_once(checkouts[side], args.workload, i)
                for side in order}
        envs = {side: runs[side][1] for side in checkouts}
        p, c = runs["parent"][0], runs["change"][0]
        pairs.append((p, c))
        print(pair_line(i, p, c), flush=True)
    bounds = load_bounds(args.parent)
    print("\n".join(summarize(pairs, bounds)))
    if args.json:
        write_record(args.json, args.workload, record(pairs, bounds, envs),
                     counters)
    return 0


if __name__ == "__main__":
    sys.exit(main())
