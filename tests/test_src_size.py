"""The source size script, on a fixture with known counts and on the package."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "src_size.py"

# 14 non-blank, non-comment lines; the docstrings span lines 1-4, 11 and
# 16-17, so 6 of them lie inside a docstring and 8 outside; TEXT is a
# string but no docstring
DOCUMENTED = '''"""Module docstring.

Second paragraph.
"""

# a comment
import os


class Box:
    """One line."""

    size = 1  # a trailing comment leaves the line code

    def grow(self):
        """Two
        lines."""
        # a comment inside a function
        return os.sep


TEXT = """not a docstring
still a string
"""
'''


def load_script():
    spec = importlib.util.spec_from_file_location("src_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(out: str) -> dict[str, tuple[int, int]]:
    lines = out.splitlines()
    assert lines[0].split() == ["module", "lines", "outside", "docstrings"]
    return {name: (int(total), int(code)) for name, total, code in map(str.split, lines[1:])}


def test_counts_lines_outside_docstrings(tmp_path, capsys):
    (tmp_path / "documented.py").write_text(DOCUMENTED)
    (tmp_path / "plain.py").write_text("x = 1\n\n\ny = '''#'''\n")
    (tmp_path / "comments.py").write_text("# only\n    # comments\n\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert load_script().main([str(tmp_path)]) == 0
    assert rows(capsys.readouterr().out) == {
        "comments.py": (0, 0),
        "documented.py": (14, 8),
        "plain.py": (2, 2),
        "total": (16, 10),
    }


def test_package_totals_and_empty_directory(tmp_path, capsys):
    script = load_script()
    assert script.main([]) == 0
    counts = rows(capsys.readouterr().out)
    total = counts.pop("total")
    assert "tangent.py" in counts and "__init__.py" in counts
    assert total == tuple(map(sum, zip(*counts.values())))
    assert all(0 < code <= lines for lines, code in counts.values())
    assert script.main([str(tmp_path)]) == 1
    assert "no *.py" in capsys.readouterr().err
