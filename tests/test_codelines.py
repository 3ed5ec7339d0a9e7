"""tools/codelines.py counts the lines that hold code: not blank lines,
comment-only lines or docstring lines, but every line of a multi-line
statement or of a string that is not a docstring."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "codelines.py")

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a trailing comment: code


# a comment-only line
def f(x):
    """One-line docstring."""
    text = """a string that
    is not a docstring"""
    return (x +
            1)


class C:
    """Class
    docstring."""

    value = f(1)
'''


def test_counts_a_snippet(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    out = subprocess.run([sys.executable, TOOL, str(tmp_path)], check=True, capture_output=True, text=True).stdout
    # import, def, text (2 lines), return (2 lines), class, value
    assert out.splitlines()[-1].split() == ["8", "total"]
    assert out.splitlines()[0].split()[0] == "8"
