"""Smoke test of tools/src_lines.py, the line counter that ROADMAP's
line counts come from."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines",
                                               ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_each_line_is_one_kind():
    source = ('"""Module\n'
              'docstring."""\n'
              '\n'
              '# a comment\n'
              'def f(x):  # trailing\n'
              '    """One line."""\n'
              '    return ("a",\n'
              '\n'
              '            x)\n')
    assert src_lines.count_lines(source) == {
        "wc": 9, "code": 3, "docstring": 3, "comment": 1, "blank": 2}


def test_the_kinds_of_every_package_file_sum_to_its_wc():
    files = sorted((ROOT / "src" / "kharita").glob("*.py"))
    assert files
    for path in files:
        counts = src_lines.count_lines(path.read_text(encoding="utf-8"))
        assert sum(counts[k] for k in src_lines.KINDS) == counts["wc"], path.name
