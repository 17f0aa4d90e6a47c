"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs every workload step that reads a reference file once, keeps every
field the checker compares (all but ``check.VOLATILE``), and cross-checks
what the brute-force oracle can afford before writing anything: each
vcdim witness is shattered, each progression length is exactly the
longest shattered prefix, and each theorem count is the number of
canonical quads.  The ranges are the workloads' own.  The reference is
regenerated only when an intended change of results is accepted; a
faster program must reproduce it as it is.
"""

from __future__ import annotations

import shutil
import sys

import check
import run
import workloads


def _ap_problem(row: dict[str, str]) -> str | None:
    q, n = int(row["q"]), int(row["longest"])
    member = check.squares_member(q, "zero-in")
    if not check.is_shattered(range(n), member, "zero-in") or (
            n < q.bit_length() - 1
            and check.is_shattered(range(n + 1), member, "zero-in")):
        return f"longest={n} is not the longest shattered prefix"
    return None


def _theorem_problem(row: dict[str, str]) -> str | None:
    q = int(row["q"])
    if row["checked"] != str((q - 2) * (q - 3) // 2) or row["passed"] != "true":
        return f"unexpected report {row}"
    return None


#: The oracle's cross-check of one output row, by step command.
ORACLE = {
    "vcdim": lambda row: check.witness_problem(row, row["convention"]),
    "ap": _ap_problem,
    "theorem": _theorem_problem,
}


def main() -> int:
    run.import_program()
    scratch = run.OUT / "reference-scratch"
    written = set()
    try:
        for workload in workloads.WORKLOADS:
            for i, step in enumerate(workloads.build(workload, seed=0)):
                if step.reference is None:
                    continue
                if step.reference in written:
                    raise SystemExit(f"two steps read {step.reference}.csv")
                out = scratch / f"{workload}-{i}"
                if workloads.run_step(step, out) != 0:
                    raise SystemExit(f"{workload} step {i} failed")
                rows = check.read_rows(out / step.csv)
                for row in rows:
                    problem = ORACLE[step.command](row)
                    if problem:
                        raise SystemExit(f"{step.reference} q={row['q']}: "
                                         f"{problem}")
                fields = [f for f in rows[0] if f not in check.VOLATILE]
                path = check.REFERENCE_DIR / f"{step.reference}.csv"
                check.write_rows(path, fields, rows)
                written.add(step.reference)
                print(f"wrote {path} ({len(rows)} rows)")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
