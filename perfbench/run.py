"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload prob-ap --seed 3 --seconds 16 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, without installing it.  Outputs and spans go under
``.perfbench_out/`` at the repository root.

Untraced (``--trace 0``) the run does the workload's job
``workloads.jobs_per_run(--seconds)`` times, a count fixed by
``--seconds`` alone, and reports the end-to-end metrics:

- ``wall_s`` and ``cpu_s``: the median over the jobs of one job's wall
  time and user plus system CPU time, each at the reference speed.
- ``setup_s``: the median, at the reference speed, of the time from a
  fresh process's start until ``residuevc`` is imported and the
  workload's inputs are built.  One such process runs before each job,
  so the probes spread over the whole run.
- ``peak_rss_mb``: the process's peak resident memory.

"At the reference speed": other tenants of a shared machine slow it by
up to 1.7 times, for seconds to minutes at a time.  ``calibrate()``, a
fixed loop of benchmark code, runs before the first job and after each
job; every timing is divided by its neighbouring calibrations' time
over ``CAL_REF_S``, the calibration's time on the build machine when it
ran fastest.  The summary line also prints the raw median wall time and
the median slowdown.

Traced (``--trace 1``) the run does the job once to warm up, once
untraced and once with ``spans.Tracer`` installed, and reports the
per-layer metrics plus ``trace.overhead_s``, the traced wall time minus
the untraced one.

Every job's outputs are checked (see ``check``).  The share of items
whose output is wrong, ``fail_frac``, is printed with the metrics; the
last line of standard output is the JSON result, whose ``attempted`` and
``failed`` count those items over all jobs of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Least time of ``calibrate()`` on the 2-vCPU build machine, in seconds.
CAL_REF_S = 0.0226

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Put ``src/`` first on the path and import the package."""
    if not (SRC / "residuevc" / "__init__.py").is_file():
        raise ProgramMissing(f"no residuevc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import residuevc  # noqa: F401


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Time a fixed pure-Python loop, the machine's speed of the moment.

    Its work is the same on every commit, and its time follows the jobs'
    when other tenants slow the machine (correlation 0.5 to 0.75, job by
    job, on the build machine).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Time from a fresh process's start to its inputs being built."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise ProgramMissing(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


class Job:
    """A workload's steps with their expected outputs, run repeatedly."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload, self.seed = workload, seed
        self.steps = workloads.build(workload, seed)
        self.expected = [step.expected() for step in self.steps]
        self.out_dir = out_dir
        self.runs = 0
        self.tally = check.Tally()

    def run(self) -> tuple[float, float]:
        """Run and check the job once; returns (wall_s, cpu_s)."""
        rep_dir = self.out_dir / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        dirs = [rep_dir / f"step{i}" for i in range(len(self.steps))]
        gc.collect()
        c0, t0 = cpu_seconds(), time.perf_counter()
        codes = [workloads.run_step(step, d)
                 for step, d in zip(self.steps, dirs)]
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.runs += 1
        for step, expected, code, d in zip(self.steps, self.expected, codes,
                                           dirs):
            self.tally.add(workloads.check_step(step, expected, code, d))
        shutil.rmtree(rep_dir, ignore_errors=True)
        return wall, cpu


def untraced(job: Job, seconds: float) -> tuple[dict[str, float], str]:
    """End-to-end metrics at the reference speed, and a summary of the
    raw timings."""
    cal = [calibrate() + calibrate()]
    walls, cpus, setups = [], [], []
    for _ in range(workloads.jobs_per_run(seconds)):
        setups.append(measure_setup(job.workload, job.seed))
        wall, cpu = job.run()
        walls.append(wall)
        cpus.append(cpu)
        cal.append(calibrate() + calibrate())
    # Slowdown during each job: its two neighbouring calibrations'
    # mean time (two loops each) over the reference time.
    slow = [(a + b) / (4 * CAL_REF_S) for a, b in zip(cal, cal[1:])]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(w / f for w, f in zip(walls, slow)),
        "setup_s": statistics.median(p / f for p, f in zip(setups, slow)),
        "cpu_s": statistics.median(c / f for c, f in zip(cpus, slow)),
        "peak_rss_mb": peak_kb / 1024}
    raw = (f"raw_wall_s={statistics.median(walls):.6g} "
           f"slowdown={statistics.median(slow):.4g}")
    return metrics, raw


def traced(job: Job, spans_path: Path, meta: dict) -> dict[str, float]:
    job.run()
    plain_wall, _ = job.run()
    with spans.Tracer() as tracer:
        traced_wall, _ = job.run()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    tracer.save(spans_path, **meta)
    return metrics


def _cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "residuevc").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "caches": _cache_sizes(), "git_commit": _git_commit(),
            "src_lines": src_lines}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        print(repr(time.time()))
        return 0

    env = environment()
    print("perfbench env " + json.dumps(env), flush=True)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    job = Job(args.workload, args.seed, out_dir)
    try:
        if args.trace:
            metrics = traced(job, OUT / f"spans-{args.workload}.npz",
                             {"workload": args.workload, "seed": args.seed,
                              "env": env})
            units = {name: "count" if name.endswith(spans.COUNTS) else "s"
                     for name in metrics}
            raw = ""
        else:
            metrics, raw = untraced(job, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    tally = job.tally
    for problem in tally.problems[:20]:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    summary = " ".join(f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={job.runs} {summary} {raw} "
          f"fail_frac={tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} items)")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
