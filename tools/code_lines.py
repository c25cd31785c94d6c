"""Count the code lines and code tokens of each module of src/lieext.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines, comment lines and docstring lines do not count.
A code token is such a token, one that starts on no docstring line.  A
docstring is the string statement that opens a module, class or function.

The token count is what compiling a module costs: with no bytecode cache
(PYTHONDONTWRITEBYTECODE), each run compiles the package again, and the
compile of the largest module sets the process's peak memory, about 1 MB
per 1000 code tokens.  Comments and docstrings cost almost nothing there.

    python tools/code_lines.py [DIR]

prints one line per module of DIR (default: src/lieext of this checkout),
its code lines and then its code tokens, and last the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_counts(source: str) -> tuple:
    """(code lines, code tokens) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines, tokens = set(), 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and tok.start[0] not in skip:
            tokens += 1
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines), tokens


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "lieext"
    total_lines = total_tokens = 0
    for path in sorted(root.glob("*.py")):
        lines, tokens = code_counts(path.read_text())
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<16}{lines:>6}{tokens:>8}")
    print(f"{'total':<16}{total_lines:>6}{total_tokens:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
