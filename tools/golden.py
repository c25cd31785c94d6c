"""Golden outputs of the command line: a fixed list of lieext invocations.

Each case is a list of invocations run in process through `lieext.cli.main`.
Its record under tests/golden/<case>.txt holds, for each invocation, the
command, the exit code and every line of stdout and stderr, so a change in
any byte of the output shows as a diff.  `tests/test_golden.py` reruns the
list and compares; only

    python tools/golden.py --write

rewrites the records.

The runs see a fixed environment: a temporary working directory holding the
.lie and JSON files of SOURCES, COLUMNS=80 for argparse's help layout, and
no LIEEXT_PRESET_PATH.  The records of argparse's help texts and usage
errors were written with Python 3.11 (ARGPARSE_PYTHON), whose layout
differs from other versions'.

A second record, tests/golden/null-vectors.txt (null_vectors), holds the
sha256 of the primitive null vectors of every window `h2` solves on the
runs of null_vector_runs, so a change to the solver or to the compiled
brackets that moves one entry of one null vector shows too.  `--write`
rewrites it with the others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lieext import cli, engine, solve  # noqa: E402
from lieext.dsl import parse  # noqa: E402
from lieext.presets import load_algebra  # noqa: E402

# The Witt algebra acting on the module W(lambda, mu), all of weight 0: at
# lambda = 1 the grading is not inner.
WAB_SOURCE = """
algebra wab(lambda, mu) {
    family L weight 0;
    family W weight 0;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = (lambda + m + mu*n) W(n + m);
}
"""

# svir with a wrong L-Y coefficient: the Jacobi identity fails on L, Y, Y.
CORRUPT_SOURCE = """
algebra bad(lambda, mu) {
  family L weight 0;
  family Y weight mu;
  family M weight 2*mu;
  bracket [L n, L m] = (m - n) L(n + m);
  bracket [L n, Y m] = (m + n) Y(n + m);
  bracket [Y n, Y m] = (m - n) M(n + m);
  bracket [L n, M m] = (m - lambda*n + 2*mu) M(n + m);
  bracket [Y n, M m] = 0;
  bracket [M n, M m] = 0;
}
"""

SOURCES = {
    "wab.lie": WAB_SOURCE,
    "corrupt.lie": CORRUPT_SOURCE,
    "abel.lie": "algebra abel() {\n    family A weight 0;\n    bracket [A n, A m] = 0;\n}\n",
    "mix.lie": (
        "algebra mix() {\n    family L weight 0;\n    family W weight 1;\n"
        "    bracket [L n, L m] = (m - n) L(n + m);\n    bracket [L n, W m] = m W(n + m);\n"
        "    bracket [W n, W m] = 0;\n    cocycle bad-mix {\n"
        "        [L n, L m] = m on n + m = 0;\n        [L n, W m] = 1 on n + m = 0;\n    }\n}\n"
    ),
    # .lie files that fail to parse
    "bad-character.lie": "algebra a() {\n    family L weight 0$;\n}\n",
    "underscore.lie": "algebra a() {\n    family _L weight 0;\n}\n",
    "syntax.lie": "algebra a() {\n    family L weight 0\n    family Y weight 1;\n}\n",
    "undeclared.lie": "algebra a() {\n    family L weight 0;\n    bracket [L n, Q m] = (m - n) L(n + m);\n}\n",
    "reserved.lie": "algebra a(on) {\n    family L weight 0;\n}\n",
    "duplicate-parameter.lie": "algebra a(p, p) {\n    family L weight 0;\n}\n",
    "duplicate-family.lie": "algebra a() {\n    family L weight 0;\n    family L weight 1;\n}\n",
    "name-collision.lie": "algebra a(p) {\n    family p weight 0;\n}\n",
    "unclosed-comment.lie": "algebra a() {\n    family L weight 0;  # no closing brace",
    "deep.lie": "algebra deep() {\n  family L weight " + "-" * 5000 + "1;\n}\n",
    "multi-error.lie": (
        "algebra a() {\nfamily L weight 0;\nbracket [L n, L m] = (m - n);\n"
        "bracket [L n, D m] = m L(n + m);\nfamily K weight 1 $;\n}\n"
    ),
    "empty.lie": "",
    # JSON cocycle assignments
    "fails.json": '{"values": {"L:-3,L:3": "1"}}',
    "list.json": "[1, 2]",
    "bad-key.json": '{"values": {"L:1_0,L:-10": "1"}}',
}

ARGPARSE_PYTHON = (3, 11)
SVIR = ["--algebra", "svir"]
GRID = ["--lambda-values=-3,-2,-1,0,1/2,1,2,5", "--mu-values=-2,-1,1,2,1/2,1/3,2/3,4/3,1/4,1/5"]
SVIR_CLASSES = ["virasoro", "c1", "c2", "ly-linear", "ly-cubic", "ly-constant", "lm-yy-cubic",
                "yy-reciprocal"]
# The eight points of perfbench/run.py:VERIFY_POINTS, each with the classes
# that apply there: all but yy-reciprocal at integer mu, the three that need
# 2*mu integer at mu = 1/2, and the two that need 3*mu integer at thirds.
# tests/test_tools.py checks both the points and the classes.
INTEGER_MU = [name for name in SVIR_CLASSES if name != "yy-reciprocal"]
HALF_MU = ["virasoro", "lm-yy-cubic", "yy-reciprocal"]
THIRD_MU = ["virasoro", "c2"]
VERIFY_POINTS = {
    ("-3", "1"): INTEGER_MU, ("-1", "1"): INTEGER_MU, ("1", "2"): INTEGER_MU,
    ("-3", "1/2"): HALF_MU, ("1", "1/2"): HALF_MU,
    ("-1", "1/3"): THIRD_MU, ("-1", "2/3"): THIRD_MU, ("-1", "4/3"): THIRD_MU,
}

CASES = {
    "scan-grid-csv": [
        ["scan", *GRID, "--jobs", "1"],
        ["scan", "--lambda-values=1", "--mu-values=0", "--jobs", "1"],
    ],
    "scan-grid-md": [["scan", *GRID, "--jobs", "1", "--format", "md"]],
    "h2-json-wide": [
        ["h2", *SVIR, "--lambda=-3", "--mu=1", "--format", "json", "--window", "40"],
        ["h2", *SVIR, "--lambda=1", "--mu=1/2", "--format", "json", "--window", "40"],
    ],
    "h2-text-md": [
        ["h2", *SVIR, "--lambda=-1", "--mu", "1/3"],
        ["h2", *SVIR, "--lambda=1", "--mu=1", "--format", "md"],
        ["h2", "--algebra", "witt", "--steps", "4"],
        ["h2", *SVIR, "--lambda=-1", "--mu", "0", "--window", "8"],
    ],
    "verify-svir": [
        ["verify", *SVIR, f"--lambda={lam}", f"--mu={mu}", "--cocycle", name]
        for lam in ("-3", "-1", "1") for mu in ("1", "1/2", "1/3") for name in SVIR_CLASSES
    ],
    "verify-wide": [
        ["verify", *SVIR, f"--lambda={lam}", f"--mu={mu}", "--cocycle", name, "--window", "30"]
        for (lam, mu), names in VERIFY_POINTS.items() for name in names
    ],
    "jacobi": [
        ["jacobi", *SVIR, "--symbolic"],
        ["jacobi", *SVIR, "--lambda=1", "--mu=1/2"],
        ["jacobi", "--algebra", "corrupt.lie", "--symbolic"],
        ["jacobi", "--algebra", "corrupt.lie", "--lambda", "0", "--mu", "1", "--window", "4"],
    ],
    "wab": [
        ["h2", "--algebra", "wab.lie", "--lambda=1", "--mu=0", "--window", "8", "--format", "json"],
        ["h2", "--algebra", "wab.lie", "--lambda=0", "--mu=0", "--window", "8", "--format", "json"],
        ["scan", "--algebra", "wab.lie", "--lambda-values=0,1", "--mu-values=0", "--window", "8",
         "--jobs", "1"],
    ],
    # argparse's own output, whose layout follows the running Python
    "argparse": [
        ["--help"], ["jacobi", "--help"], ["h2", "--help"], ["scan", "--help"],
        ["verify", "--help"], [], ["h2"], ["h2", *SVIR, "--window", "abc"],
        ["h2", *SVIR, "--format", "xml"],
    ],
    "errors": [
        ["h2", "--algebra", "nosuch"],
        ["h2", *SVIR, "--lambda=-1", "--param", "lambda=0", "--mu", "1"],
        ["h2", *SVIR, "--lambda=-1", "--param", "mu"],
        ["h2", *SVIR, "--lambda=1.5", "--mu=1"],
        ["h2", *SVIR, "--lambda", "0", "--mu", "1", "--window", "3", "--margin", "3"],
        ["h2", *SVIR, "--lambda=0", "--mu=1", "--window", "6", "--steps", "2"],
        ["h2", "--algebra", "corrupt.lie", "--lambda=-3", "--mu=1", "--window", "8"],
        ["h2", "--algebra", "abel.lie", "--window", "6"],
        ["h2", "--algebra", "mix.lie"],
        ["scan", "--algebra", "witt", "--lambda-values", "1", "--mu-values", "1"],
        ["scan", "--lambda-values=1", "--mu-values=1,2", "--jobs", "1", "--steps", "0"],
        ["scan", "--lambda-values=1", "--mu-values=1", "--jobs", "1", "--degree", "x/y"],
        ["verify", "--algebra", "witt", "--cocycle", "nosuch"],
        ["verify", "--algebra", "witt", "--cocycle", "fails.json", "--window", "8"],
        ["verify", "--algebra", "witt", "--cocycle", "list.json", "--window", "8"],
        ["verify", "--algebra", "witt", "--cocycle", "bad-key.json", "--window", "8"],
        ["verify", "--algebra", "mix.lie", "--cocycle", "bad-mix"],
    ],
    "parse-errors": [
        ["jacobi", "--algebra", name, "--symbolic"]
        for name in ("bad-character.lie", "underscore.lie", "syntax.lie", "undeclared.lie",
                     "reserved.lie", "duplicate-parameter.lie", "duplicate-family.lie",
                     "name-collision.lie", "unclosed-comment.lie", "deep.lie", "empty.lie",
                     "multi-error.lie")
    ],
}


NULL_VECTORS = GOLDEN / "null-vectors.txt"


def null_vector_runs() -> list:
    """The (label, spec, params, window N, degree) of each recorded h2 run:
    svir at the 80 grid points at N = 12 and at both wide points at N = 40
    and N = 80, five more algebras at degrees -1, 0, 1/2 and 1 at N = 12,
    and two runs whose index totals lie far from 0, so that most entries of
    their identity tables leave the window: wab_a at lambda = 20 (W of
    weight 20) at N = 24, and witt at degree 13 at N = 12.  The sources are
    the ones the tests keep."""
    from test_acceptance import GRID_LAMBDAS, GRID_MUS
    from test_cli import HV_SOURCE, W22_SOURCE, WAB_A_SOURCE
    from test_differential import NO_WEIGHT_ZERO_SOURCE

    svir = load_algebra("svir")
    runs = [(f"svir({lam},{mu})", svir, {"lambda": lam, "mu": mu}, 12, 0)
            for lam in GRID_LAMBDAS for mu in GRID_MUS]
    runs += [(f"svir({lam},{mu})", svir, {"lambda": lam, "mu": mu}, n, 0)
             for n in (40, 80) for lam, mu in ((-3, 1), (1, "1/2"))]
    others = [
        ("witt", load_algebra("witt"), {}),
        ("graded3", parse(NO_WEIGHT_ZERO_SOURCE).spec, {}),
        ("wab(1,0)", parse(WAB_SOURCE).spec, {"lambda": 1, "mu": 0}),
        ("wab(2,1)", parse(WAB_SOURCE).spec, {"lambda": 2, "mu": 1}),
        ("hv", parse(HV_SOURCE).spec, {}),
        ("w22", parse(W22_SOURCE).spec, {}),
    ]
    runs += [(label, spec, params, 12, degree) for label, spec, params in others for degree in ("-1", "0", "1/2", "1")]
    wab_a = parse(WAB_A_SOURCE).spec
    runs += [(f"wab_a(20,{mu})", wab_a, {"lambda": 20, "mu": mu}, 24, "0") for mu in (0, "1/2")]
    runs.append(("witt", load_algebra("witt"), {}, 12, "13"))
    return runs


def null_vectors() -> str:
    """The null-vector record: for each run, one line per window h2 solves,
    with the number and the sha256 of that window's null vectors as
    _Plan.cocycles returns them, each vector's entries in column order.
    h2 accepts every run's window."""
    lines = []
    cocycles = solve._Plan.cocycles
    for label, spec, params, n, degree in null_vector_runs():
        def recorded(plan, window):
            vectors = cocycles(plan, window)
            text = repr([sorted(vector.items()) for vector in vectors])
            lines.append(f"{label} degree {degree} N {n} window {window}: {len(vectors)} "
                         f"{hashlib.sha256(text.encode()).hexdigest()}")
            return vectors

        with mock.patch.object(solve._Plan, "cocycles", recorded):
            engine.h2(spec, params, solve.Window(n), degree)
    return "".join(line + "\n" for line in lines)


@contextlib.contextmanager
def workdir():
    """Run inside a temporary directory holding SOURCES, in the fixed
    environment of the module docstring."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("LIEEXT_PRESET_PATH", None)
        os.chdir(tmp)
        try:
            for name, text in SOURCES.items():
                Path(name).write_text(text)
            yield Path(tmp)
        finally:
            os.chdir(cwd)


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process `lieext` invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv: list, code: int, stdout: str, stderr: str) -> str:
    """One invocation's entry: each output line behind its stream's tag, so
    that the entry also shows where a stream lacks a final newline, and a
    carriage return (the csv module ends its rows with one) as \\r."""
    lines = [" ".join(["$ lieext", *map(shlex.quote, argv)]), f"exit: {code}"]
    for tag, text in (("out", stdout), ("err", stderr)):
        lines += [f"{tag}|{line}" for line in text.replace("\r", "\\r").split("\n")]
    return "\n".join(lines) + "\n"


def render(case: str) -> str:
    """The record of one case, from a fresh run of its invocations."""
    with workdir():
        return "".join(record(argv, *run(argv)) for argv in CASES[case])


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv) != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render(case))
    NULL_VECTORS.write_text(null_vectors())
    return 0


if __name__ == "__main__":
    sys.exit(main())
