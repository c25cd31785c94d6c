"""Count the code lines and code tokens of each module of src/lieext, and
measure the peak memory of compiling it.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines, comment lines and docstring lines do not count.
A code token is such a token, one that starts on no docstring line.  A
docstring is the string statement that opens a module, class or function.

The token count is what compiling a module costs: with no bytecode cache
(PYTHONDONTWRITEBYTECODE), each run compiles the package again, and the
compile of the largest module sets the process's peak memory.  That peak
follows the tokens in steps, not smoothly: with CPython 3.11.7 on Linux,
solve.py, the largest module at about 3680 code tokens, compiles at a
14.96-15.0 MB peak, padded with 60 more code tokens still at 14.96-14.98
MB, with 90 to 300 more at 15.08-15.13 MB, and with 450 more at 15.2 MB
(medians of 7 runs, three rounds; one run spreads by up to 0.15 MB, as
much as the step).
Comments and docstrings cost almost nothing there.  So the last column
measures it: the peak RSS, in MB, of a fresh interpreter that compiles the
module and nothing else, as the median of RUNS such interpreters run one
after another, since a single run is as noisy as the step.

A cold start pays for the standard library too.  When DIR holds a
cli.py, a line lists the standard-library modules that importing it
(`import lieext.cli` for src/lieext) loads in a fresh interpreter, beyond
those a bare interpreter holds, with their count.  When DIR holds an
__init__.py, a last line lists the package's own modules that a bare
`import lieext` compiles in a fresh interpreter, with their count and
their summed code tokens: the package resolves its names at first read,
so that is less than the whole package.

    python tools/code_lines.py [DIR]

prints one line per module of DIR (default: src/lieext of this checkout),
its code lines, its code tokens and its compile peak, then the totals and
the largest peak, and last the modules of the cold start.
"""

from __future__ import annotations

import ast
import io
import os
import statistics
import subprocess
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


# ru_maxrss is in KiB on Linux
COMPILE = (
    "import resource, sys; compile(open(sys.argv[1]).read(), sys.argv[1], 'exec'); "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


RUNS = 5


def compile_peak_mb(path: Path) -> float:
    """The median over RUNS fresh interpreters, started one after another,
    of the peak RSS, in MB, of one that compiles the module at path.  Linux
    carries ru_maxrss over fork and exec, so a child of this process, which
    has read every module, would report this process's peak.  Each
    interpreter is forked by sh instead, whose peak is a fraction of an
    interpreter's; the `; exit` keeps sh from replacing itself by it."""
    script = '"$0" -c "$1" "$2"; exit $?'
    command = ["sh", "-c", script, sys.executable, COMPILE, str(path)]
    peaks = [int(subprocess.run(command, capture_output=True, text=True, check=True).stdout) for _ in range(RUNS)]
    return statistics.median(peaks) / 1024


def cold_start_modules(root: Path, statement: str) -> list:
    """The modules that a fresh interpreter, with the package at root on
    its path, holds after running statement and does not hold bare,
    sorted."""
    env = dict(os.environ, PYTHONPATH=str(root.parent))

    def loaded(code: str) -> set:
        run = subprocess.run(
            [sys.executable, "-c", code + "import sys; print(*sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        return set(run.stdout.split())

    return sorted(loaded(statement + "; ") - loaded(""))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "lieext"
    total_lines = total_tokens = top = 0
    tokens_of = {}
    for path in sorted(root.glob("*.py")):
        lines, tokens = code_counts(path.read_text())
        peak = compile_peak_mb(path)
        total_lines += lines
        total_tokens += tokens
        top = max(top, peak)
        tokens_of[path.name] = tokens
        print(f"{path.name:<16}{lines:>6}{tokens:>8}{peak:>8.2f}")
    print(f"{'total':<16}{total_lines:>6}{total_tokens:>8}{top:>8.2f}")
    if (root / "cli.py").is_file():
        names = [
            name for name in cold_start_modules(root, f"import {root.name}.cli")
            if name.partition(".")[0] in sys.stdlib_module_names
        ]
        print(f"{'stdlib':<16}{len(names):>6}  {' '.join(names)}")
    if (root / "__init__.py").is_file():
        files = [
            f"{name.partition('.')[2] or '__init__'}.py"
            for name in cold_start_modules(root, f"import {root.name}")
            if name.partition(".")[0] == root.name
        ]
        tokens = sum(tokens_of[name] for name in files)
        print(f"{'import':<16}{len(files):>6}{tokens:>8}  {' '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
