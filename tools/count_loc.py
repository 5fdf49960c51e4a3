"""Count the lines of code of src/tilestream, per module and in total.

A line of code holds at least one token that is not part of a comment
or of a docstring (the string that opens a module, class or function
body); blank lines and lines inside docstrings do not count. Standard
library only. Counts src/tilestream beside this script, or the package
directory given:

    python3 tools/count_loc.py [package directory]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_loc(source):
    """Lines of code in one module's source text."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(code)


def main(argv=None):
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "tilestream"
    if argv:
        root = pathlib.Path(argv[0])
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count_loc(path.read_text())
        total += n
        print(f"{path.name:20s} {n:6d}")
    print(f"{'total':20s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
