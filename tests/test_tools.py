import importlib.util
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
