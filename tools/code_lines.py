"""Count the code lines of each module under src/triorbit.

A code line is a line holding a token other than a comment, a newline or
an indent, outside the module's, classes' and functions' docstrings.  The
script prints each module's code lines and its ``wc -l`` line count, then
both totals.  Standard library only; run it from anywhere:

    python tools/code_lines.py
"""

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "triorbit"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in one source file."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(package=PACKAGE):
    total_code = total_lines = 0
    for path in sorted(package.glob("*.py")):
        code = code_lines(path)
        lines = len(path.read_bytes().splitlines())
        total_code += code
        total_lines += lines
        print(f"{path.name:16} {code:5} code lines {lines:5} lines")
    print(f"{'total':16} {total_code:5} code lines {total_lines:5} lines")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
