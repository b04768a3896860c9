"""``tools/code_lines.py``, the code-line count every size figure of ``src`` rests on."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Code lines: 5, 8, 11, 13, 15-16 (a string that is not a docstring counts on
# each of its lines), 19 and 21-24.  Docstrings, comments and blank lines do not count.
SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os


class Thing:
    """Class docstring."""

    value = 1  # a trailing comment

    def method(self):
        """Method docstring."""
        return """not a
docstring"""


def function():
    \'\'\'One line.\'\'\'
    text = (
        "a"
    )
    return text
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n# and a comment\n')
    assert load_tool().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "    11  mod.py\n"
        "     0  pkg/empty.py\n"
        "    11  total\n"
    )
