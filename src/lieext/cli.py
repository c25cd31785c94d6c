"""Command line interface.

Subcommands: jacobi (bracket closure checks), h2 (windowed H^2 report),
scan (parameter grid against the closed-form dimension table), verify
(check a named or file-based cocycle).  Exit codes: 0 success / agreement,
1 mathematical disagreement or verification failure, 2 usage or parse
problems, 3 stabilization failure, 141 a stdout closed before the output
was written (128 + SIGPIPE, with no message).

h2 and scan print the closed-form table's dimension and whether the run
agrees with it wherever lieext.presets.predicted_dim gives one, and "n/a"
elsewhere.  Apart from scan's default --algebra, nothing here is specific
to svir.

Rationals on the command line are "p/q" literals.  For negative values use
the equals form (--mu=-1/3): a bare "-1/3" looks like an option to the
argument parser.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from .algebra import ParameterError, check_jacobi_symbolic, check_jacobi_window, validate_parameters
from .engine import CocycleAssignment, KnownCocycle, h2, is_coboundary, verify_cocycle
from .presets import load_algebra, predicted_dim
from .rational import _BLANKS, format_rational, parse_integer, parse_rational
from .solve import Window


def _add_algebra_options(parser: argparse.ArgumentParser):
    parser.add_argument("--algebra", required=True, metavar="REF",
                        help="preset name (svir, witt, virasoro-sector) or a .lie file")
    parser.add_argument("--lambda", dest="lambda_", metavar="Q", default=None,
                        help="lambda parameter as p/q (write --lambda=-1 for negatives)")
    parser.add_argument("--mu", metavar="Q", default=None,
                        help="mu parameter as p/q (write --mu=-1/3 for negatives)")
    parser.add_argument("--param", action="append", metavar="NAME=Q", default=[],
                        help="any other algebra parameter, repeatable")


def _gather_params(args) -> dict:
    values = {}
    if args.lambda_ is not None:
        values["lambda"] = args.lambda_
    if args.mu is not None:
        values["mu"] = args.mu
    for item in args.param:
        name, sep, value = item.partition("=")
        name = name.strip(_BLANKS)
        if not sep or not name:
            raise ParameterError(f"bad --param {item!r} (expected NAME=VALUE)")
        if name in values:
            raise ParameterError(f"parameter {name!r} given twice")
        values[name] = value.strip(_BLANKS)
    return values


def _integer(text: str) -> int:
    """An integer option's value, as parse_integer reads it."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_window_options(parser: argparse.ArgumentParser, solve: bool = True):
    """--window and --margin; with solve, also --degree and --steps."""
    parser.add_argument("--window", type=_integer, default=12, metavar="N")
    parser.add_argument("--margin", type=_integer, default=3, metavar="M")
    if solve:
        parser.add_argument("--degree", default="0", metavar="Q")
        parser.add_argument("--steps", type=_integer, default=3, metavar="S",
                            help="stabilization windows N, N+2, ... (default 3)")


def _bound_algebra(args):
    spec = load_algebra(args.algebra)
    params = validate_parameters(spec, _gather_params(args))
    return spec, params


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text into a closed pipe
    raises BrokenPipeError up to main: argparse's own _print_message
    swallows every OSError of its write, so --help into a closed,
    unbuffered stdout would exit 0.  Subparsers are made of this class too."""

    def _print_message(self, message, file=None):
        if message:
            try:
                (file or sys.stderr).write(message)
            except BrokenPipeError:
                raise
            except (AttributeError, OSError):  # what argparse's own swallows
                pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lieext",
        description="Exact central-extension (H^2) computations for graded Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_jacobi = sub.add_parser("jacobi", help="check the Jacobi identity")
    _add_algebra_options(p_jacobi)
    p_jacobi.add_argument("--symbolic", action="store_true",
                          help="check once with symbolic indices and parameters")
    p_jacobi.add_argument("--window", type=_integer, default=6, metavar="N",
                          help="index bound for the triple-by-triple check (default 6)")
    p_jacobi.set_defaults(func=cmd_jacobi)

    p_h2 = sub.add_parser("h2", help="windowed H^2 dimensions at one degree")
    _add_algebra_options(p_h2)
    _add_window_options(p_h2)
    p_h2.add_argument("--format", choices=("text", "json", "md"), default="text")
    p_h2.set_defaults(func=cmd_h2)

    p_scan = sub.add_parser("scan", help="svir parameter grid vs the predicted dimensions")
    p_scan.add_argument("--algebra", default="svir", metavar="REF")
    p_scan.add_argument("--lambda-values", required=True, metavar="Q,Q,...",
                        dest="lambda_values", help="comma-separated rationals")
    p_scan.add_argument("--mu-values", required=True, metavar="Q,Q,...",
                        dest="mu_values", help="comma-separated rationals")
    _add_window_options(p_scan)
    p_scan.add_argument("--jobs", type=_integer, default=0, metavar="J",
                        help="worker processes (default: usable CPUs); never more "
                        "than the grid points or the usable CPUs")
    p_scan.add_argument("--format", choices=("csv", "md"), default="csv")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="check a cocycle against the identity")
    _add_algebra_options(p_verify)
    p_verify.add_argument("--cocycle", required=True, metavar="NAME_OR_FILE",
                          help="a cocycle class the algebra declares, or a JSON assignment file")
    _add_window_options(p_verify, solve=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def cmd_jacobi(args) -> int:
    spec = load_algebra(args.algebra)
    if args.symbolic:
        report = check_jacobi_symbolic(spec)
        if report.passed:
            print(f"jacobi symbolic: PASS ({spec.name}, all family triples)")
            return 0
        for families, out_family, poly in report.residuals:
            print(f"jacobi symbolic: FAIL on families {families} -> {out_family}: "
                  f"residual {poly.to_text()}")
        return 1
    params = validate_parameters(spec, _gather_params(args))
    report = check_jacobi_window(spec, params, args.window)
    if report.passed:
        print(f"jacobi window: PASS ({report.triples_checked} triples, indices in "
              f"[-{args.window}, {args.window}])")
        return 0
    x, y, z, residual = report.witness
    terms = ", ".join(f"{format_rational(c)}*{e}" for e, c in sorted(
        residual.items(), key=lambda item: spec.element_key(item[0])))
    print(f"jacobi window: FAIL at ({x}, {y}, {z}): residual {terms}")
    return 1


def _h2_run(spec, params, window, degree, steps):
    """(report, predicted dim, agreement, warning) of h2 at one point; the
    agreement is None without a prediction, the stderr warning None when
    the grading is inner and the Jacobi identity holds, and otherwise one
    line for each."""
    report = h2(spec, params, window, degree=degree, stabilization_steps=steps)
    predicted = predicted_dim(spec, report.params, degree)
    agree = None if predicted is None else report.core_h2_dim == predicted
    warnings = [
        report.grading and (
            f"warning: the grading is not inner ({report.grading}): no family's index-0 "
            "element acts by the weights, so other degrees than this one may carry H^2 too"),
        report.jacobi and (
            f"warning: the Jacobi identity fails ({report.jacobi}): the bracket is not a "
            "Lie algebra, so these H^2 numbers describe none"),
    ]
    return report, predicted, agree, "\n".join(filter(None, warnings)) or None


def _h2_json(report, predicted, agree) -> dict:
    params = report.params
    out = {
        "algebra": report.algebra,
        "lambda": format_rational(params["lambda"]) if "lambda" in params else None,
        "mu": format_rational(params["mu"]) if "mu" in params else None,
        "window": report.window.n,
        "margin": report.window.margin,
        "degree": format_rational(report.degree),
        "cocycle_dim": report.cocycle_dim,
        "coboundary_dim": report.coboundary_dim,
        "h2_dim": report.h2_dim,
        "core_h2_dim": report.core_h2_dim,
        "stabilized": report.stabilized,
        "matched_known": [
            {"name": m.name, "matched": m.matched} for m in report.matched_known
        ],
        "predicted_dim": predicted,
        "agree": agree,
    }
    if report.grading:
        out["grading_inner"] = False
    if report.jacobi:
        out["jacobi_holds"] = False
    if set(params) - {"lambda", "mu"}:
        # every parameter, as the text report's parameters row lists them
        out["parameters"] = {name: format_rational(value) for name, value in params.items()}
    return out


def cmd_h2(args) -> int:
    spec, params = _bound_algebra(args)
    window = Window(args.window, args.margin)
    degree = parse_rational(args.degree)
    report, predicted, agree, warning = _h2_run(spec, params, window, degree, args.steps)
    if warning:
        print(warning, file=sys.stderr)
    if args.format == "json":
        print(json.dumps(_h2_json(report, predicted, agree), indent=2))
    else:
        rows = [
            ("algebra", report.algebra),
            ("parameters", " ".join(
                f"{k}={format_rational(v)}" for k, v in report.params.items()) or "(none)"),
            ("window", f"N={window.n} margin={window.margin}"),
            ("degree", format_rational(degree)),
            ("cocycle_dim", report.cocycle_dim),
            ("coboundary_dim", report.coboundary_dim),
            ("h2_dim", report.h2_dim),
            ("core_h2_dim", report.core_h2_dim),
            ("stabilized", _yesno(report.stabilized) + " (" + ", ".join(
                f"N={n}: {dim}" for n, dim in report.core_history) + ")"),
            ("matched", ", ".join(
                f"{m.name}={_yesno(m.matched)}" for m in report.matched_known) or "(none)"),
            ("predicted_dim", "n/a" if predicted is None else predicted),
            ("agree", "n/a" if agree is None else _yesno(agree)),
        ]
        if args.format == "md":
            _print_md(("field", "value"), rows)
        else:
            for name, value in rows:
                print(f"{name}: {value}")
    if not report.stabilized:
        return 3
    if agree is False:
        return 1
    return 0


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_md(header, rows):
    for cells in (header, ["---"] * len(header), *rows):
        print("| " + " | ".join(map(str, cells)) + " |")


def _scan_point(settings, point) -> dict:
    """One scan row: h2's JSON record (_h2_json) at the point (lambda, mu),
    with the matched names joined by ";" and the stderr warning, or None.
    settings are what every point shares: (spec, window, degree, steps)."""
    (spec, window, degree, steps), (lam, mu) = settings, point
    report, predicted, agree, warning = _h2_run(spec, {"lambda": lam, "mu": mu}, window, degree, steps)
    matched = ";".join(m.name for m in report.matched_known if m.matched)
    return {**_h2_json(report, predicted, agree), "matched": matched, "warning": warning}


def _scan_workers(jobs: int, points: int, cpus: int | None) -> int:
    """Processes for a scan, its own among them: the requested count (0 or
    less means the usable CPUs), capped by the grid size and the usable
    CPUs, and at 1 where os has no fork."""
    cpus = (cpus or 1) if hasattr(os, "fork") else 1
    return max(1, min(jobs if jobs > 0 else cpus, points, cpus))


def _claim(settings, grid, tickets: int, step: int) -> dict:
    """{index: row} of the points this process claims from the ticket pipe
    until it is empty; a failing point ends the claims, with its exception
    as its row."""
    rows = {}
    while ticket := os.read(tickets, 1):
        for index in range(ticket[0] * step, min(ticket[0] * step + step, len(grid))):
            try:
                rows[index] = _scan_point(settings, grid[index])
            except Exception as exc:
                return {**rows, index: exc}
    return rows


def _scan_rows(settings, grid, workers: int) -> list:
    """The rows of the grid's points, in grid order.  This process and
    workers - 1 forked children, which inherit the parsed spec, claim the
    points from one pipe of one-byte tickets, all written before the first
    fork: ticket t is the points [t*c, (t+1)*c) with c = ceil(points / 256),
    so the at most 256 tickets fit one write of less than PIPE_BUF.  Each
    child sends its rows back pickled through a pipe of its own.  The first
    failing point in grid order raises, as it does when one process runs
    the points one after another."""
    import pickle  # here: no other run needs it

    step = -(-len(grid) // 256)
    tickets, end = os.pipe()
    os.write(end, bytes(range(-(-len(grid) // step))))
    os.close(end)
    pipes = {}  # each child's pid: the read end of its rows' pipe
    try:
        for _ in range(workers - 1):
            read, write = os.pipe()
            if not (pid := os.fork()):
                try:
                    os.close(read)  # so that the parent's close ends a blocked write
                    with open(write, "wb") as out:
                        out.write(pickle.dumps(_claim(settings, grid, tickets, step)))
                finally:
                    os._exit(0)
            os.close(write)
            pipes[pid] = open(read, "rb")
        rows = _claim(settings, grid, tickets, step)
        for pipe in pipes.values():
            try:
                rows.update(pickle.load(pipe))
            except EOFError:
                raise ChildProcessError("a scan worker ended without its rows") from None
    finally:
        os.close(tickets)
        # every pipe before any wait: a child may be blocked writing to one,
        # and later children hold the read ends of earlier ones
        for pipe in pipes.values():
            pipe.close()
        for pid in pipes:
            os.waitpid(pid, 0)
    rows = [rows[index] for index in sorted(rows)]
    for row in rows:
        if isinstance(row, Exception):
            raise row
    return rows


def cmd_scan(args) -> int:
    """One row per point of the (lambda, mu) grid, in grid order.  The
    points are computed by _scan_workers processes, this one among them,
    which claim them from one pipe of tickets (_scan_rows)."""
    spec = load_algebra(args.algebra)
    if set(spec.parameters) != {"lambda", "mu"}:
        raise ParameterError(
            "scan needs an algebra with exactly the parameters lambda and mu"
        )
    lams = [parse_rational(part) for part in args.lambda_values.split(",")]
    mus = [parse_rational(part) for part in args.mu_values.split(",")]
    grid = sorted({(lam, mu) for lam in lams for mu in mus})
    # fail fast on bad options before forking workers, so that no worker
    # meets them; every exact lambda and mu binds
    degree = parse_rational(args.degree)
    window = Window(args.window, args.margin)
    if args.steps < 1:
        raise ValueError("need at least one stabilization step")
    settings = (spec, window, degree, args.steps)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    rows = _scan_rows(settings, grid, _scan_workers(args.jobs, len(grid), cpus))

    columns = ["lambda", "mu", "window", "core_h2_dim", "predicted_dim", "agree", "matched"]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    else:
        _print_md(columns, ([_cell(row[c]) for c in columns] for row in rows))
    for row in rows:
        for line in (row["warning"] or "").splitlines():
            print(f"lambda={row['lambda']} mu={row['mu']}: {line}", file=sys.stderr)
        if not row["stabilized"]:
            print(f"warning: lambda={row['lambda']} mu={row['mu']} did not stabilize",
                  file=sys.stderr)
    if any(row["agree"] is False for row in rows):
        return 1
    if any(not row["stabilized"] for row in rows):
        return 3
    return 0


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cmd_verify(args) -> int:
    spec, params = _bound_algebra(args)
    window = Window(args.window, args.margin)
    if args.cocycle in spec.cocycles:
        cocycle = KnownCocycle(args.cocycle, spec.cocycles[args.cocycle])
    elif os.path.isfile(args.cocycle):
        with open(args.cocycle) as handle:
            data = json.load(handle)
        cocycle = CocycleAssignment.from_json_dict(spec, window, data)
    else:
        raise ParameterError(
            f"unknown cocycle {args.cocycle!r}: not a class {spec.name} declares "
            f"({', '.join(spec.cocycles) or 'none'}) and not a file"
        )
    report = verify_cocycle(spec, params, window, cocycle)
    if not report.passed:
        x, y, z, residual = report.witness
        print(f"verify: FAIL at ({x}, {y}, {z}): residual {format_rational(residual)}")
        return 1
    print(f"verify: PASS ({report.triples_checked} admissible triples, window "
          f"[-{window.n}, {window.n}])")
    try:
        nontrivial = not is_coboundary(spec, params, window, report.assignment)
        print(f"nontrivial: {_yesno(nontrivial)}")
    except ValueError:
        print("nontrivial: n/a (assignment mixes degrees)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not at the interpreter's exit
    except BrokenPipeError:
        # the reader stopped reading: end as quietly as a writer that SIGPIPE
        # kills, and let the interpreter's last flush write to devnull
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # ParameterError is a ValueError
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            # a closed stderr loses the message, not the exit code; the
            # interpreter's last flush of it writes to devnull
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
