import importlib.util
import json
from pathlib import Path

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
    lines = bp.summarize(pairs)
    assert lines[0] == ("pair 1 (parent first): wall_s 0.6 -> 0.45, "
                        "raw_wall_s 1.2 -> 0.9, slowdown 1.5 / 1.5")
    assert lines[1].startswith("pair 2 (change first): wall_s 0.58 -> 0.6,")
    assert "median wall_s: 0.6 -> 0.45 (-25.0%)" in lines
    assert "median raw_wall_s: 1.2 -> 0.9 (-25.0%)" in lines
    assert "median slowdown: 1.6 -> 1.6 (+0.0%)" in lines
    assert "median peak_rss_mb: 43 -> 43 (+0.0%)" in lines
    assert "change wins 2 of 3 pairs on wall_s" in lines
    assert lines[-1] == "failed items: pair 3 change: 3/300 items"
    assert bp.summarize(pairs[:2])[-1] == "failed items: none"
