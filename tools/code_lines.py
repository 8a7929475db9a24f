"""Print the code lines of each module under a source tree, and their sum.

A code line holds at least one token that is neither a comment nor part
of a docstring; blank lines count for nothing.  Run it as

    python tools/code_lines.py [ROOT]

with ROOT defaulting to src/.  It prints only and sets no limit.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text):
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(root="src"):
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%5d  %s" % (n, path))
    print("%5d  total" % total)


if __name__ == "__main__":
    main(*sys.argv[1:])
