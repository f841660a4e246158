"""tools/src_lines.py counts code lines: no blanks, comments or
docstrings, but every line of any other string."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

# 7 code lines: the import, the def, its return, the two lines of the
# class and field, and the two lines of TEXT's string
MODULE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment counts as code


def f(x):
    """Function docstring."""

    return x + 1


class C:
    """Class docstring."""
    field = 1

TEXT = """not a
docstring"""
'''

# 2 code lines, in a subpackage
SUBMODULE = '''
def g():
    # only a comment above the body
    pass
'''


def test_counts_a_fixture(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "inner.py").write_text(SUBMODULE, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split() for line in proc.stdout.splitlines()] \
        == [["7", "mod.py"], ["2", "sub/inner.py"], ["9", "total"]]
