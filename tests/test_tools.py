import ast
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 15 lines; code lines are 5, 8, 11, 13, 14 and 15: the multi-line string
# assigned to ``text`` is not a docstring, and a trailing comment does not
# make its line a comment-only one
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """not a
docstring"""
        return text  # trailing comment
'''


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert load_src_lines().count(path) == (15, 6)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text("x = 1\n", encoding="utf-8")
    assert load_src_lines().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["15", "6", "mod.py"], ["1", "1", "pkg/one.py"], ["16", "7", "total"]]


BENCH_PAIRS = SCRIPT.parent / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(wall, raw, slowdown, failed=0):
    """The last lines of a ``perfbench/run.py --trace 0`` run."""
    metrics = {"wall_s": wall, "setup_s": 0.2, "cpu_s": wall - 0.01,
               "peak_rss_mb": 43.0}
    return "\n".join([
        'perfbench env {"python": "3.11.7"}',
        f"perfbench prob-ap seed=1 trace=0 jobs=8 wall_s={wall} s "
        f"setup_s=0.2 s cpu_s={wall - 0.01} s peak_rss_mb=43 MB "
        f"raw_wall_s={raw} slowdown={slowdown} "
        f"fail_frac={failed / 300:.6g} ({failed}/300 items)",
        json.dumps({"correct": not failed, "attempted": 300,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": "s"}
                                for k, v in metrics.items()}})]) + "\n"


def test_bench_pairs_reads_the_summary_and_json_lines():
    run = load_bench_pairs().parse_run(canned_run(0.5, 0.9, 1.8, failed=2))
    assert run == {"wall_s": 0.5, "setup_s": 0.2, "cpu_s": 0.49,
                   "peak_rss_mb": 43.0, "raw_wall_s": 0.9, "slowdown": 1.8,
                   "failed": 2, "attempted": 300}


def test_bench_pairs_summary_gives_medians_wins_and_failures():
    bp = load_bench_pairs()
    pairs = [(bp.parse_run(canned_run(p, 2 * p, s)),
              bp.parse_run(canned_run(c, 2 * c, s, failed)))
             for p, c, s, failed in [(0.6, 0.45, 1.5, 0), (0.58, 0.6, 1.6, 0),
                                     (0.62, 0.44, 1.7, 3)]]
    assert bp.pair_line(1, *pairs[0]) == (
        "pair 1 (parent first): wall_s 0.6 -> 0.45, "
        "raw_wall_s 1.2 -> 0.9, slowdown 1.5 / 1.5")
    assert bp.pair_line(2, *pairs[1]).startswith(
        "pair 2 (change first): wall_s 0.58 -> 0.6,")
    lines = bp.summarize(pairs)
    assert [line.split(":")[0] for line in lines[:-1]] == list(bp.KEYS)
    assert lines[0].startswith("wall_s: parent 0.58 / 0.6 / 0.62, "
                               "change 0.44 / 0.45 / 0.6 (-25.0%); "
                               "change wins 2 of 3;")
    assert lines[3].startswith("peak_rss_mb: parent 43 / 43 / 43, "
                               "change 43 / 43 / 43 (+0.0%); "
                               "change wins 0 of 3;")
    assert lines[-1] == "failed items: pair 3 change: 3/300 items"
    assert bp.summarize(pairs[:2])[-1] == "failed items: none"


def wall_pairs(bp, parent, change):
    return [(bp.parse_run(canned_run(p, p, 1.0)),
             bp.parse_run(canned_run(c, c, 1.0)))
            for p, c in zip(parent, change)]


def test_bench_pairs_gain_rules():
    bp = load_bench_pairs()
    parent = list(range(10, 20))  # quartiles 11.75, 14.5, 17.25
    # 9 of 10 wins, and a median gap of 6 over a spread of 5.5
    change = [20] + [p - 7 for p in parent[1:]]
    assert bp.metric_line("wall_s", wall_pairs(bp, parent, change)) == (
        "wall_s: parent 11.75 / 14.5 / 17.25, change 5.75 / 8.5 / 11.25 "
        "(-41.4%); change wins 9 of 10; median gap 6 vs parent spread 5.5; "
        "gain rules hold")
    # a median gap of 7 over the spread, but 8 of 10 wins
    lost = [20, 21] + [p - 9 for p in parent[2:]]
    assert bp.metric_line("wall_s", wall_pairs(bp, parent, lost)).endswith(
        "change wins 8 of 10; median gap 7 vs parent spread 5.5; "
        "gain rules fail")
    # 10 of 10 wins, but a median gap of 5 within the spread
    near = [p - 5 for p in parent]
    assert bp.metric_line("wall_s", wall_pairs(bp, parent, near)).endswith(
        "change wins 10 of 10; median gap 5 vs parent spread 5.5; "
        "gain rules fail")


def test_bench_pairs_reads_the_parents_bounds(tmp_path):
    bp = load_bench_pairs()
    assert bp.load_bounds(tmp_path) == {}
    spec = {"end_to_end": [{"name": "wall_s", "bound": 0.25},
                           {"name": "peak_rss_mb", "bound": 0.1},
                           {"name": "items"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bp.load_bounds(tmp_path) == {"wall_s": 0.25, "peak_rss_mb": 0.1}


def test_bench_pairs_says_whether_the_median_is_within_the_bound():
    bp = load_bench_pairs()
    parent = [10.0, 10.2, 10.4, 10.6, 10.8]  # quartiles 10.1, 10.4, 10.7
    within = wall_pairs(bp, parent, [p * 1.2 for p in parent])
    outside = wall_pairs(bp, parent, [p * 1.3 for p in parent])
    assert bp.metric_line("wall_s", within, 0.25).endswith(
        "gain rules fail; within bound 0.25: yes")
    assert bp.metric_line("wall_s", outside, 0.25).endswith(
        "; within bound 0.25: no")
    # a parent spread of 0.6 is wider than a bound of 5 % of 10.4
    assert bp.metric_line("wall_s", within, 0.05).endswith(
        "; within bound 0.05: unresolved")
    assert "bound" not in bp.metric_line("wall_s", within)
    lines = bp.summarize(within, {"wall_s": 0.25, "setup_s": 0.25})
    assert lines[0].endswith("within bound 0.25: yes")
    assert lines[1].endswith("within bound 0.25: yes")  # setup_s is 0.2 each
    assert "bound" not in lines[2]


def test_bench_pairs_reports_a_failed_runs_stderr(monkeypatch, tmp_path):
    bp = load_bench_pairs()
    monkeypatch.setattr(bp.subprocess, "run",
                        lambda args, **kw: bp.subprocess.CompletedProcess(
                            args, 1, "", "ProgramMissing: setup probe failed"))
    with pytest.raises(RuntimeError, match="exited 1\nProgramMissing"):
        bp.run_once(tmp_path, "prob-ap", 6)


def test_bench_pairs_writes_a_json_record(tmp_path, monkeypatch, capsys):
    bp = load_bench_pairs()
    walls = {"parent": [0.6, 0.58, 0.62], "change": [0.45, 0.6, 0.44]}

    def fake_run(checkout, workload, seed):
        side = checkout.name
        out = canned_run(walls[side][seed - 1], 1.0, 1.0,
                         failed=3 if (side, seed) == ("change", 3) else 0)
        env = json.dumps({"python": "3.11.7", "git_commit": side[0] * 40})
        out = out.replace('{"python": "3.11.7"}', env)
        return bp.parse_run(out), bp.parse_env(out)

    monkeypatch.setattr(bp, "run_once", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "bound": 0.25}]}))
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"workloads": {"prob-ap": {"stale": 1},
                                              "theorem-quads": {"kept": 1}}}))
    assert bp.main([str(parent), str(change), "--workload", "prob-ap",
                    "--pairs", "3", "--json", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    data = json.loads(path.read_text())
    assert data["workloads"]["theorem-quads"] == {"kept": 1}
    rec = data["workloads"]["prob-ap"]
    assert [(r["pair"], r["first"], r["parent"]["wall_s"], r["change"]["wall_s"])
            for r in rec["pairs"]] == [(1, "parent", 0.6, 0.45),
                                       (2, "change", 0.58, 0.6),
                                       (3, "parent", 0.62, 0.44)]
    assert rec["pairs"][0]["change"] == {
        "wall_s": 0.45, "setup_s": 0.2, "cpu_s": 0.44, "peak_rss_mb": 43.0,
        "raw_wall_s": 1.0, "slowdown": 1.0, "failed": 0, "attempted": 300}
    wall = rec["metrics"]["wall_s"]
    assert wall["parent"] == [0.58, 0.6, 0.62]
    assert wall["change"] == [0.44, 0.45, 0.6]
    assert (wall["wins"], wall["pairs"]) == (2, 3)
    assert wall["median_gap"] == pytest.approx(0.15)
    assert wall["parent_spread"] == pytest.approx(0.04)
    assert (wall["wins_rule"], wall["gap_rule"]) == (False, True)
    assert (wall["bound"], wall["within_bound"]) == (0.25, "yes")
    assert "bound" not in rec["metrics"]["cpu_s"]
    assert list(rec["metrics"]) == list(bp.KEYS)
    assert rec["failed_items"] == ["pair 3 change: 3/300 items"]
    assert rec["commits"] == {"parent": "p" * 40, "change": "c" * 40}
    assert rec["env"]["change"] == {"python": "3.11.7", "git_commit": "c" * 40}
    # the printed report and the record agree
    assert printed[3] == bp.metric_line("wall_s", [
        (bp.parse_run(canned_run(p, 1.0, 1.0)),
         bp.parse_run(canned_run(c, 1.0, 1.0)))
        for p, c in zip(walls["parent"], walls["change"])], 0.25)


def test_bench_pairs_merges_work_counters(tmp_path, monkeypatch, capsys):
    bp = load_bench_pairs()

    def fake_run(checkout, workload, seed):
        out = canned_run(0.5 if checkout.name == "parent" else 0.4, 1.0, 1.0)
        return bp.parse_run(out), bp.parse_env(out)

    monkeypatch.setattr(bp, "run_once", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"workloads": {}, "counters": {
        "kept": {"nodes": 1}, "replaced": {"nodes": 2}}}))
    counters = tmp_path / "counters.json"
    counters.write_text(json.dumps({"replaced": {"nodes": 3, "cells": 4},
                                    "new": {"pair_cells": 5}}))
    args = [str(parent), str(change), "--workload", "prob-ap", "--pairs", "2",
            "--json", str(path), "--counters", str(counters)]
    assert bp.main(args) == 0
    data = json.loads(path.read_text())
    assert data["counters"] == {"kept": {"nodes": 1},
                                "replaced": {"nodes": 3, "cells": 4},
                                "new": {"pair_cells": 5}}
    assert list(data["workloads"]) == ["prob-ap"]
    # counters need a record to go in, and must be a JSON object
    for bad in ([str(parent), str(change), "--workload", "prob-ap",
                 "--counters", str(counters)], args):
        if bad is args:
            counters.write_text("[1, 2]")
        with pytest.raises(SystemExit) as exit_info:
            bp.main(bad)
        assert exit_info.value.code == 2
    capsys.readouterr()


MUTANTS = SCRIPT.parent / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutants_report_killed_survived_and_anchor_missing(tmp_path, capsys):
    mt = load_mutants()
    source = "def add(a, b):\n    return a + b\n"
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "calc.py").write_text(source, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_calc.py").write_text(
        "from calc import add\n\n\ndef test_add():\n"
        "    assert add(2, 3) == 5\n\n\ndef test_add_zero():\n"
        "    assert add(4, 0) == 4\n", encoding="utf-8")
    tests = ("tests/test_calc.py::test_add",)
    both = tests + ("tests/test_calc.py::test_add_zero",)
    mutants = [mt.Mutant("minus", "src/calc.py", "a + b", "a - b", tests),
               mt.Mutant("swapped", "src/calc.py", "a + b", "b + a", tests),
               mt.Mutant("moved", "src/calc.py", "a * b", "a / b", tests),
               mt.Mutant("unnamed-test", "src/calc.py", "a + b", "a - b",
                         ("tests/test_none.py",)),
               # each named test runs, and each kills it alone
               mt.Mutant("times", "src/calc.py", "a + b", "a * b", both)]
    results = mt.run(tmp_path, mutants)
    assert [(name, status) for name, status, _ in results] == [
        ("minus", "killed"), ("swapped", "survived"),
        ("moved", "anchor-missing"), ("unnamed-test", "error"),
        ("times", "killed")]
    assert results[-1][2].startswith("2 failed in ")
    # the edits went into a copy
    assert (tmp_path / "src" / "calc.py").read_text(encoding="utf-8") == source
    assert capsys.readouterr().out.splitlines()[0].startswith("killed")


def test_mutants_anchors_occur_once_at_head():
    mt = load_mutants()
    root = MUTANTS.parent.parent
    assert len({m.name for m in mt.MUTANTS}) == len(mt.MUTANTS)
    for mutant in mt.MUTANTS:
        text = (root / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name


PACKAGE = SCRIPT.parent.parent / "src" / "residuevc"


def unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads, apart from those listed in
    its ``__all__`` or imported on a line marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read - exported)


def test_unread_imports_finds_what_no_line_reads():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import log2, pi\n"
              "from json import dumps  # noqa: F401\n"
              "from csv import writer\n"
              "__all__ = ['writer']\n"
              "print(os.path.sep, log2(system.maxsize))\n")
    assert unread_imports(source) == ["pi"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_modules_read_every_import(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each named parameter of a function or
    lambda, apart from ``self`` and ``cls``, that its body never reads;
    a read in a nested function's body counts.  ``*args`` and
    ``**kwargs`` are not named: they take what a protocol passes, as
    ``__exit__(self, *exc)`` does."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        named = [a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{arg}" for arg in named
                   if arg not in read and arg not in ("self", "cls")]
    return sorted(unread)


def test_unread_parameters_finds_what_no_body_reads():
    source = ("class A:\n"
              "    def f(self, a, b, *rest, c=1, **extra):\n"
              "        def inner(d):\n"
              "            return a + c\n"
              "        b = 2\n"
              "        return inner\n"
              "    @classmethod\n"
              "    def g(cls, /, e):\n"
              "        return lambda x, y: x\n")
    assert unread_parameters(source) == [
        "<lambda>.y", "f.b", "g.e", "inner.d"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_functions_read_every_parameter(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []
