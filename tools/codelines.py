"""Count code lines: non-blank lines that are neither comment-only nor part
of a docstring.

    python3 tools/codelines.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files
(default: ``src/``).  Prints one line per file, then the total.  Lines are
found with ``tokenize``: a line counts when a token other than a comment or
a line break lies on it, so every line of a multi-line expression or string
counts.  Docstrings, found with ``ast`` (a string statement first in a
module, class or function body), do not count.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def _files(paths):
    for path in paths:
        if os.path.isdir(path):
            for folder, _, names in sorted(os.walk(path)):
                yield from (os.path.join(folder, name) for name in sorted(names) if name.endswith(".py"))
        else:
            yield path


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [os.path.join(ROOT, "src")]
    total = 0
    for path in _files(paths):
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
