#!/usr/bin/env python3
"""Code lines per file: non-blank, non-comment, non-docstring.

    python3 tools/code_lines.py PATH [PATH ...]

A directory stands for every ``*.py`` under it.  A line counts when a token other
than a comment, a newline or an indent starts or continues on it (``tokenize``) and
it is not part of a module, class or function docstring (``ast``).  Prints one
``count  path`` row per file and the total — the figure a "less code" claim quotes.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """How many lines of ``path`` hold code."""
    with tokenize.open(path) as source:
        tokens = list(tokenize.generate_tokens(source.readline))
    lines = {line for token in tokens if token.type not in SKIPPED
             for line in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines -= set(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    files = [file for arg in sys.argv[1:] or ["."] for file in
             (sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)])]
    counts = {file: code_lines(file) for file in files}
    for file, count in counts.items():
        print(f"{count:7d}  {file}")
    print(f"{sum(counts.values()):7d}  total")
