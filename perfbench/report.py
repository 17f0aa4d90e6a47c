"""Run every workload ten times and print each metric by name and unit.

    python3 perfbench/report.py
    python3 perfbench/report.py --baseline perfbench/baseline.json

For each workload of BENCHMARK.json and each end-to-end metric it prints
the median over seeds 1-10, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over the median) next to the metric's bound, and fail_frac over all
runs.  A spread above the bound is marked OVER and fails the command;
above a third of it, noisy.  Two traced runs of seed 1 print the
per-layer metrics and check that every count repeats exactly.
``--baseline`` also writes all of it, with the environment, to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

SEEDS = range(1, 11)
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One benchmark run; returns (result JSON, env JSON)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    env = next(json.loads(line[len("perfbench env "):]) for line in lines
               if line.startswith("perfbench env "))
    return json.loads(lines[-1]), env


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--baseline", type=Path, default=None,
                   help="write medians, quartiles and traced numbers here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in SEEDS:
            result, out["env"] = run_once(workload, seed,
                                          spec["run_seconds"], 0)
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"fail_frac": failed / attempted, "end_to_end": {},
                 "per_layer": {}}
        print(f"\n{workload}: {len(SEEDS)} runs, fail_frac "
              f"{failed / attempted:.6g} ({failed}/{attempted} items)")
        print(f"  {'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            unit = results[0]["metrics"][name]["unit"]
            s = stats([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {"unit": unit, **s}
            # Above a third of the bound a metric is too noisy to
            # resolve small changes.
            flag = ("" if s["spread"] <= bound / 3
                    else " noisy" if s["spread"] <= bound else " OVER")
            ok &= flag != " OVER"
            print(f"  {name:<14}{unit:<6}{s['median']:>12.6g}"
                  f"{s['q1']:>12.6g}{s['q3']:>12.6g}{s['spread']:>9.4f}"
                  f"{bound:>7}{flag}")
        seed = SEEDS[0]
        traced = [run_once(workload, seed, spec["run_seconds"], 1)[0]
                  for _ in range(TRACE_RUNS)]
        print(f"  traced ({TRACE_RUNS} runs, seed {seed}):")
        for name, m in traced[0]["metrics"].items():
            values = [t["metrics"][name]["value"] for t in traced]
            repeat = ""
            if name.endswith(spans.COUNTS):
                repeat = "  repeats" if len(set(values)) == 1 else "  DIFFERS"
                ok &= repeat == "  repeats"
            entry["per_layer"][name] = {"unit": m["unit"], "values": values}
            print(f"    {name:<40}{m['unit']:<6}"
                  f"{statistics.median(values):>14.6g}{repeat}")
        out["workloads"][workload] = entry
        ok &= failed == 0
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
        print(f"\nwrote {args.baseline}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
