"""Tests of the benchmark's checker, oracle and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q

They run small cuts of the workloads' commands, so they take seconds.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from residuevc import cli, field, weil  # noqa: E402


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] \
        == spans.metric_names() + ["trace.overhead_s"]
    for m in spec["per_layer"]:
        assert m["unit"] == ("count" if m["name"].endswith(spans.COUNTS)
                             else "s")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _rewrite(path: Path, edit) -> None:
    rows = check.read_rows(path)
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _row(rows, q):
    return next(r for r in rows if r["q"] == str(q))


def _reference(name, hi):
    return [r for r in check.reference_rows(name) if int(r["q"]) <= hi]


@pytest.mark.parametrize("conv", ["zero-in", "zero-out"])
def test_sliding_oracle_matches_direct_oracle(conv):
    rng = np.random.default_rng(7)
    for q in (37, 101, 257):
        member = check.squares_member(q, conv)
        for n in (2, 3, 4, 5):
            oracle = check.SlidingOracle(member, conv, n)
            for _ in range(30):
                Y = sorted(rng.choice(q, size=n, replace=False).tolist())
                assert oracle.shattered(Y) == check.is_shattered(Y, member,
                                                                  conv)


def test_oracle_known_cases():
    member = check.squares_member(29, "zero-in")
    assert check.is_shattered([0, 1, 4], member, "zero-in")
    # 2^3 patterns need 8 allowed translates; q = 7 under strict has 4.
    assert not check.is_shattered([0, 1, 2], check.squares_member(7, "strict"),
                                  "strict")


def test_corrupted_vcdim_reference_row_raises_fail_frac(tmp_path):
    assert cli.main(["vcdim", "--range", "5:60", "--out-dir",
                     str(tmp_path)]) == 0
    rows = check.read_rows(tmp_path / "vcdim.csv")
    expected = _reference("vcdim-zero-in", 60)
    assert check.check_vcdim(expected, rows, "zero-in").failed == 0

    _row(expected, 37)["vcdim"] = str(int(_row(expected, 37)["vcdim"]) + 1)
    tally = check.check_vcdim(expected, rows, "zero-in")
    assert (tally.failed, tally.attempted) == (1, len(expected))
    assert tally.failed / tally.attempted > 0


def test_wrong_witness_fails_its_prime(tmp_path):
    assert cli.main(["vcdim", "--range", "5:60", "--out-dir",
                     str(tmp_path)]) == 0
    out = tmp_path / "vcdim.csv"
    expected = _reference("vcdim-zero-in", 60)
    # A different but valid witness passes; a non-shattered one fails.
    q = 53
    member = check.squares_member(q, "zero-in")
    dim = int(_row(expected, q)["vcdim"])
    subsets = [list(range(k, k + dim)) for k in range(q - dim)]
    bad = next(s for s in subsets
               if not check.is_shattered(s, member, "zero-in"))
    _rewrite(out, lambda rows: _row(rows, q).update(
        witness=";".join(map(str, bad))))
    tally = check.check_vcdim(expected, check.read_rows(out), "zero-in")
    assert tally.failed == 1 and f"q={q}" in tally.problems[0]


def test_corrupted_ap_row_and_missing_row_fail(tmp_path):
    assert cli.main(["ap", "--range", "5:3000", "--out-dir",
                     str(tmp_path)]) == 0
    out = tmp_path / "ap.csv"
    expected = _reference("ap", 3000)
    assert check.check_rows(expected, check.read_rows(out), "ap").failed == 0
    _row(expected, 2999)["longest"] = "99"
    _rewrite(out, lambda rows: rows.remove(_row(rows, 11)))
    assert check.check_rows(expected, check.read_rows(out), "ap").failed == 2


def test_prob_rows_match_the_program(tmp_path):
    step = workloads.prob_step(5, 60, 12, 11)
    expected = step.expected()
    assert expected
    code = workloads.run_step(step, tmp_path)
    tally = workloads.check_step(step, expected, code, tmp_path)
    assert (tally.attempted, tally.failed) == (len(expected), 0)
    expected[0]["hits"] = str(int(expected[0]["hits"]) + 1)
    assert workloads.check_step(step, expected, code, tmp_path).failed == 1


def test_nonzero_exit_fails_every_item(tmp_path):
    step = workloads.vcdim_step("zero-in", 5, 60)
    expected = step.expected()
    tally = workloads.check_step(step, expected, 2, tmp_path)
    assert tally.failed == tally.attempted == len(expected)


def _traced_counts(tmp_path: Path) -> dict:
    with spans.Tracer() as tracer:
        workloads.run_step(workloads.ap_step(5, 3000), tmp_path / "ap")
        weil.verify_shattering_theorem(field.make_field(257), 2, 0.1)
    return {k: v for k, v in tracer.metrics().items()
            if k.endswith(spans.COUNTS)}


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    originals = {name: getattr(sys.modules[f"residuevc.{name.split('.')[0]}"],
                               name.split(".")[1]) for name in spans.LAYERS}
    first = _traced_counts(tmp_path / "a")
    assert first == _traced_counts(tmp_path / "b")
    assert first["cli.main.calls"] == 1
    assert first["field.make_field.calls"] == len(
        check.primes_between(5, 3000)) + 1
    assert first[spans.SUBSETS_CHECKED] == 255
    for name, fn in originals.items():
        module, func = name.split(".")
        assert getattr(sys.modules[f"residuevc.{module}"], func) is fn
    from residuevc import montecarlo, search
    assert search.make_field is field.make_field
    assert montecarlo.shatter_report is sys.modules[
        "residuevc.shatter"].shatter_report


def test_self_time_excludes_children(tmp_path):
    with spans.Tracer() as tracer:
        workloads.run_step(workloads.ap_step(5, 400), tmp_path)
    m = tracer.metrics()
    assert 0 < m["cli.main.self_s"] < m["cli.main.s"]
    assert m["shatter.pattern_counts.s"] >= m["shatter.signatures.s"]


def test_theorem_step_writes_rows_the_checker_reads(tmp_path):
    step = dataclasses.replace(workloads.build("theorem-quads", 0)[0],
                               primes=(1031,))
    expected = [r for r in step.expected() if r["q"] == "1031"]
    code = workloads.run_step(step, tmp_path)
    assert workloads.check_step(step, expected, code, tmp_path).failed == 0
    expected[0]["checked"] = "1"
    assert workloads.check_step(step, expected, code, tmp_path).failed == 1


def test_untraced_reports_medians_at_reference_speed(monkeypatch):
    # Calibration loops before, between and after the three jobs.
    slow = iter([1, 2, 2, 1, 1, 2, 2, 2])
    monkeypatch.setattr(run, "calibrate", lambda: next(slow) * run.CAL_REF_S)
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.3)

    class FakeJob:
        workload, seed = "theorem-quads", 0
        times = iter([(3.0, 2.8), (1.0, 0.9), (2.8, 2.6)])

        def run(self):
            return next(self.times)

    metrics, raw = run.untraced(FakeJob(), 3 * workloads.JOB_S)
    # Slowdowns 1.5, 1.5 and 1.75 give 2.0, 0.667 and 1.6 s.
    assert metrics["wall_s"] == pytest.approx(1.6)
    assert metrics["cpu_s"] == pytest.approx(2.6 / 1.75)
    assert metrics["setup_s"] == pytest.approx(0.2)  # 0.2, 0.2, 0.171
    assert "raw_wall_s=2.8 " in raw
