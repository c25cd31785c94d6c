#!/usr/bin/env python3
"""Benchmark for lieext: exact degree-zero H^2 of the svir family.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Run from the root of a lieext checkout; the program is imported from its
`src/` directory and the CLI is started as `python -m lieext`.  Each
workload repeats one fixed block of ops until `--seconds` have passed (whole
blocks only, so every run times the same ops in the same proportions, and a
faster program repeats them more often), checks every answer against the
hand-written tables in `expected.py`, and prints a readable report followed
by one JSON result line.  `--trace 1` runs the block once, layer by layer,
instead and reports per-layer metrics; see README.md.

End-to-end times are in reference seconds: each measured interval, less the
reference samples taken inside it, is scaled by REFERENCE_NOMINAL_S over the
mean time of a short fixed exact-arithmetic loop sampled every 0.1 s on the
same CPU.  On a shared machine the speed of the same code drifts by up to
1.7x within minutes; the scaled times drift far less.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 15  # cold starts per run for setup_s, after one discarded
REFERENCE_LOOP = 1000  # iterations of the reference loop
REFERENCE_NOMINAL_S = 0.0033  # about its time on an idle 2-CPU Xeon; a scale only
REFERENCE_PERIOD_S = 0.1
REFERENCE_WINDOW_S = 0.5  # samples this close to an op also estimate its speed
CPUS = os.sched_getaffinity(0)
SCAN_JOBS = min(2, len(CPUS))
CLI_WINDOW = 12  # the CLI's default --window


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LIEEXT_PRESET_PATH", None)
    return env


def load_program():
    """Import lieext from this checkout's src/, never from anywhere else."""
    if not (SRC / "lieext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lieext package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lieext

    if Path(lieext.__file__).resolve().parent != SRC / "lieext":
        raise SystemExit(f"perfbench: imported lieext from {lieext.__file__}, not {SRC}")
    return lieext


lieext = load_program()
from lieext import REGISTRY, Window, h2, is_coboundary, load_algebra, verify_cocycle  # noqa: E402

import expected  # noqa: E402
from spans import Tracer, counting_brackets, distinct_rows, replay_h2, replay_verify  # noqa: E402

SVIR = load_algebra("svir")


def _params(lam, mu) -> dict:
    return {"lambda": Fraction(lam), "mu": Fraction(mu)}


# ops: run() is timed, check() compares its result with expected.py


class H2Op:
    def __init__(self, lam, mu, n):
        self.lam, self.mu, self.n = Fraction(lam), Fraction(mu), n
        self.label = f"h2 lambda={self.lam} mu={self.mu} N={n}"

    def run(self):
        return h2(SVIR, _params(self.lam, self.mu), Window(self.n, 3))

    def check(self, report):
        want = expected.point(self.lam, self.mu)
        windows = [self.n, self.n + 2, self.n + 4]
        got = {m.name: m.matched for m in report.matched_known}
        problems = []
        if report.core_h2_dim != want.core_h2_dim:
            problems.append(f"core_h2_dim {report.core_h2_dim} != {want.core_h2_dim}")
        if not report.stabilized or report.core_history != [(n, want.core_h2_dim) for n in windows]:
            problems.append(f"core_history {report.core_history}")
        if set(got) != want.applicable:
            problems.append(f"applicable {sorted(got)} != {sorted(want.applicable)}")
        if {name for name, ok in got.items() if ok} != want.matched:
            problems.append(f"matched {got} != {sorted(want.matched)}")
        return "; ".join(problems) or None


class VerifyOp:
    """`verify_cocycle` of one registry class, then `is_coboundary` when the
    identity holds, as `lieext verify` does."""

    def __init__(self, lam, mu, name, n):
        self.lam, self.mu, self.name, self.n = Fraction(lam), Fraction(mu), name, n
        self.label = f"verify {name} lambda={self.lam} mu={self.mu} N={n}"

    def run(self):
        params, window = _params(self.lam, self.mu), Window(self.n, 3)
        report = verify_cocycle(SVIR, params, window, REGISTRY[self.name])
        if not report.passed:
            return report, None
        return report, not is_coboundary(SVIR, params, window, report.assignment)

    def check(self, result):
        report, nontrivial = result
        want = expected.verify_passes(self.lam, self.mu, self.name)
        if report.passed != want:
            return f"passed={report.passed}, expected {want}"
        if want and not nontrivial:
            return "verified but found to be a coboundary"
        return None


# No subprocess timeouts in timed code: a wait with a timeout polls the
# child in sleeps of up to 50 ms, which quantizes every measured time.


def _lieext(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "lieext", *args],
        cwd=ROOT, env=program_env(), capture_output=True, text=True, **kwargs,
    )


def _all_cpus():
    os.sched_setaffinity(0, CPUS)


class CliH2Op:
    """`lieext h2` at the CLI's default window, margin and steps."""

    def __init__(self, lam, mu):
        self.lam, self.mu = Fraction(lam), Fraction(mu)
        self.label = f"lieext h2 --lambda={self.lam} --mu={self.mu}"

    def run(self):
        return _lieext("h2", "--algebra", "svir", f"--lambda={self.lam}", f"--mu={self.mu}",
                       "--format", "json")

    def check(self, proc):
        want = expected.point(self.lam, self.mu)
        if proc.returncode != want.h2_exit_code:
            return f"exit {proc.returncode} != {want.h2_exit_code}: {proc.stderr.strip()[-200:]}"
        out = json.loads(proc.stdout)
        got = (out["core_h2_dim"], out["stabilized"], out["predicted_dim"], out["agree"],
               {m["name"] for m in out["matched_known"]},
               {m["name"] for m in out["matched_known"] if m["matched"]})
        wanted = (want.core_h2_dim, True, want.predicted_dim, want.agree, want.applicable, want.matched)
        return None if got == wanted else f"report {got} != {wanted}"


class CliScanOp:
    """`lieext scan --jobs SCAN_JOBS` at the CLI's default window."""

    def __init__(self, lams, mus):
        self.lams, self.mus = list(lams), list(mus)
        self.points = [(lam, mu) for lam in self.lams for mu in self.mus]
        self.label = f"lieext scan {len(self.points)} points --jobs {SCAN_JOBS}"

    def run(self):
        # the scan's workers may use every CPU, even while the benchmark is pinned
        return _lieext("scan", "--lambda-values=" + ",".join(map(str, self.lams)),
                       "--mu-values=" + ",".join(map(str, self.mus)),
                       "--jobs", str(SCAN_JOBS), preexec_fn=_all_cpus)

    def check(self, proc):
        wants = {p: expected.point(*p) for p in self.points}
        code = 0 if all(w.agree for w in wants.values()) else 1
        if proc.returncode != code:
            return f"exit {proc.returncode} != {code}: {proc.stderr.strip()[-200:]}"
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        if len(rows) != len(wants):
            return f"{len(rows)} rows for {len(wants)} points"
        for row in rows:
            want = wants.get((Fraction(row["lambda"]), Fraction(row["mu"])))
            if want is None:
                return f"unexpected row {row}"
            got = (int(row["core_h2_dim"]), int(row["predicted_dim"]), row["agree"],
                   set(filter(None, row["matched"].split(";"))))
            wanted = (want.core_h2_dim, want.predicted_dim, "true" if want.agree else "false",
                      set(want.matched))
            if got != wanted:
                return f"row {row} != {wanted}"
        return None


# workloads: an endless stream of the same block of ops; the seed only
# orders the ops inside each block, so every run of a workload does the same work


def grid_blocks(rng):
    """Nine points of the README's acceptance grid at N=12: every mu but
    1/5 once, with the lambdas in turn, so all eight lambdas appear.  mu sets
    the matrix size, and each point is repeated as often as every other, so
    the median op is always a run of the middle point, the one at mu = 1/2.
    With all ten mus the median would fall between two points.  The mu = 1/5
    points are one-dimensional problems of about 0.04 s, 1% of the grid's
    time."""
    lams = expected.GRID_LAMBDAS
    mus = [mu for mu in expected.GRID_MUS if mu != Fraction(1, 5)]
    while True:
        block = [H2Op(lams[j % len(lams)], mu, 12) for j, mu in enumerate(mus)]
        rng.shuffle(block)
        yield block


WIDE_POINTS = ((-3, 1), (1, Fraction(1, 2)))


def wide_blocks(rng):
    while True:
        block = [H2Op(lam, mu, 40) for lam, mu in WIDE_POINTS]
        rng.shuffle(block)
        yield block


# Every applicable class at these points: 19 full passes and 14 stops at a
# witness.  Sorted by triples checked (about 450, 1.8k, 4k, 6k and 12k), the
# median op falls in the middle of the 8 ops near 4k triples.
VERIFY_POINTS = ((-3, 1), (-1, 1), (1, 2), (-3, Fraction(1, 2)), (1, Fraction(1, 2)),
                 (-1, Fraction(1, 3)), (-1, Fraction(2, 3)), (-1, Fraction(4, 3)))


def verify_blocks(rng):
    while True:
        block = [VerifyOp(lam, mu, name, 30) for lam, mu in VERIFY_POINTS
                 for name in sorted(expected.point(lam, mu).applicable)]
        rng.shuffle(block)
        yield block


CLI_H2_POINT = (-3, 1)
CLI_SCAN_LAMBDAS = (-3, 1)
CLI_SCAN_MUS = (1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


def cli_blocks(rng):
    """Three `lieext h2` runs at the defaults and one `lieext scan`: h2 is
    the majority, so the median op is an h2 run."""
    while True:
        lams, mus = list(CLI_SCAN_LAMBDAS), list(CLI_SCAN_MUS)
        rng.shuffle(lams)
        rng.shuffle(mus)
        block = [CliH2Op(*CLI_H2_POINT) for _ in range(3)] + [CliScanOp(lams, mus)]
        rng.shuffle(block)
        yield block


BLOCKS = {"grid": grid_blocks, "wide": wide_blocks, "verify": verify_blocks, "cli": cli_blocks}


# measurement


def run_op(op):
    """(start, end, result, problem or None) of one op; an op that raises
    counts as failed."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return start, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    try:
        return start, end, result, op.check(result)
    except Exception as exc:
        return start, end, result, f"check raised {type(exc).__name__}: {exc}"


def reference_sample() -> tuple:
    """(start, end, CPU seconds) of one pass of a fixed loop of Fraction
    arithmetic, the kind of work lieext does.  CPU time, not wall time, so
    that a child sharing the CPU does not count as slowness; the garbage
    collector is off so that no garbage left by lieext is collected inside."""
    enabled = gc.isenabled()
    gc.disable()
    start, cpu = time.perf_counter(), time.thread_time()
    acc = Fraction(0)
    for i in range(1, REFERENCE_LOOP):
        acc = (acc + Fraction(i % 97 - 48, i % 13 + 1)) % 7
    cpu, end = time.thread_time() - cpu, time.perf_counter()
    if enabled:
        gc.enable()
    return start, end, cpu


class Reference:
    """Machine speed, sampled with the reference loop from a timer signal,
    so also in the middle of a long op.  Each CPU of a shared machine slows
    down on its own, so the caller pins itself to one CPU first."""

    def __enter__(self):
        self.samples = [reference_sample()]
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(reference_sample()))
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """An interval in reference seconds: its length less the CPU time of
        the samples taken inside it, times nominal over the mean CPU time of
        the samples within REFERENCE_WINDOW_S of it.  Call it once the
        samples after the interval have been taken."""
        inside = [cpu for s, e, cpu in self.samples if start <= s and e <= end]
        near = [cpu for s, e, cpu in self.samples
                if start - REFERENCE_WINDOW_S <= s and e <= end + REFERENCE_WINDOW_S]
        return (end - start - sum(inside)) * REFERENCE_NOMINAL_S / statistics.mean(near)


def cold_starts(code: str, starts: int) -> list:
    """(start, end) of fresh interpreters running `code`, after one
    discarded start that may compile bytecode."""
    intervals = []
    for _ in range(starts + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=program_env(),
                       check=True, stdout=subprocess.DEVNULL)
        intervals.append((start, time.perf_counter()))
    return intervals[1:]


def tail(times: list):
    """(percentile, value, beyond): the highest nearest-rank percentile with
    at least ten samples above it, or None with ten samples or fewer."""
    n = len(times)
    if n <= 10:
        return None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, sorted(times)[rank - 1], n - rank


def measure(workload: str, seed: int, seconds: float) -> dict:
    blocks = BLOCKS[workload](random.Random(seed))
    intervals, failures = [], []
    with Reference() as reference:
        setup = cold_starts("import lieext; lieext.load_algebra('svir')", SETUP_STARTS)
        if workload != "cli":
            run_op(H2Op(3, Fraction(1, 5), 12))  # warm-up at a point no workload uses
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            for op in next(blocks):
                start, end, _, problem = run_op(op)
                intervals.append((start, end))
                if problem:
                    failures.append(f"{op.label}: {problem}")
        time.sleep(REFERENCE_WINDOW_S)  # samples after the last op
    raw = [end - start for start, end in intervals]
    times = [reference.seconds(start, end) for start, end in intervals]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "times": times,
        "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_s": statistics.median(raw),
                "reference_ms": statistics.median(cpu for *_, cpu in reference.samples) * 1000},
        "failures": failures,
        "metrics": {
            "setup_s": (statistics.median(reference.seconds(*i) for i in setup), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        },
    }


# traced run


def trace_h2(tracer: Tracer, op: H2Op):
    """Untraced h2, straight after it the layer replay, which must reproduce
    the untraced report, then a bracket-counting pass and the counts too slow
    for a span; then every matched class must verify as a nontrivial cocycle.
    Both timed runs start from a collected heap.  Returns ((start, end) of
    the untraced h2, problem)."""
    gc.collect()
    start, end, report, problem = run_op(op)
    if problem:
        return (start, end), problem
    params, window = _params(op.lam, op.mu), Window(op.n, 3)
    tracer.new_op()
    gc.collect()
    with tracer.span("op.h2") as root:
        replay, matrices = replay_h2(tracer, SVIR, params, window)
    tracer.replayed.append(((start, end), root))
    with counting_brackets(tracer):
        op.run()
    tracer.count("engine.assemble_constraints.rows_distinct", sum(map(distinct_rows, matrices)))
    for key, value in replay.items():
        if getattr(report, key) != value:
            return (start, end), f"replay {key} {value} != h2 {getattr(report, key)}"
    tracer.new_op()
    for name in sorted(m.name for m in report.matched_known if m.matched):
        verified, nontrivial = replay_verify(tracer, SVIR, params, window, REGISTRY[name])
        if not (verified.passed and nontrivial):
            return (start, end), f"matched class {name} does not verify as nontrivial"
    return (start, end), None


def trace_verify(tracer: Tracer, op: VerifyOp):
    _, _, result, problem = run_op(op)
    if problem:
        return problem
    report, nontrivial = result
    tracer.new_op()
    with tracer.span("op.verify"):
        replayed, replayed_nontrivial = replay_verify(
            tracer, SVIR, _params(op.lam, op.mu), Window(op.n, 3), REGISTRY[op.name])
    with counting_brackets(tracer):
        op.run()
    same = (replayed.passed, replayed.triples_checked, replayed.witness, replayed_nontrivial) == (
        report.passed, report.triples_checked, report.witness, nontrivial)
    return None if same else "replay differs from verify_cocycle/is_coboundary"


def cli_pass(tracer: Tracer, h2_ops: list, scan: CliScanOp, outcomes: list) -> dict:
    """Time CLI runs, then the in-process h2 of the scan's points (the
    sequential reference for parallel efficiency), each traced.  Returns the
    (start, end) intervals, to be converted once the run has ended."""
    intervals = {"h2": [], "scan": None, "sequential": []}
    for op in h2_ops:
        start, end, _, problem = run_op(op)
        intervals["h2"].append((start, end))
        outcomes.append((op, problem))
    start, end, _, problem = run_op(scan)
    intervals["scan"] = (start, end)
    outcomes.append((scan, problem))
    for lam, mu in scan.points:
        op = H2Op(lam, mu, CLI_WINDOW)
        interval, problem = trace_h2(tracer, op)
        intervals["sequential"].append(interval)
        outcomes.append((op, problem))
    return intervals


PER_LAYER = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def traced(workload: str, seed: int) -> dict:
    """One block of the workload, then a CLI pass, layer by layer.  Every
    interval is converted to reference milliseconds once the run has ended."""
    tracer = Tracer()
    outcomes = []  # (op, problem or None)
    OUT.mkdir(exist_ok=True)
    lie_file = OUT / "svir.lie"
    lie_file.write_text(lieext.presets.preset_source("svir"))
    ops = next(BLOCKS[workload](random.Random(seed)))
    with Reference() as reference:
        bare = cold_starts("pass", SETUP_STARTS)
        cli_import = cold_starts("import lieext.cli", SETUP_STARTS)
        loads = []
        for _ in range(SETUP_STARTS):
            start = time.perf_counter()
            load_algebra(str(lie_file))  # a file path is parsed on every call
            loads.append((start, time.perf_counter()))
        if workload == "cli":
            scan = next(op for op in ops if isinstance(op, CliScanOp))
            cli = cli_pass(tracer, [op for op in ops if isinstance(op, CliH2Op)], scan, outcomes)
        else:
            for op in ops:
                if isinstance(op, H2Op):
                    problem = trace_h2(tracer, op)[1]
                else:
                    problem = trace_verify(tracer, op)
                outcomes.append((op, problem))
            # CLI at its defaults on the first two points' lambda and mus
            points = list(dict.fromkeys((op.lam, op.mu) for op in ops))
            lam, mu = points[0]
            other = next(m for _, m in points if m != mu)
            scan = CliScanOp([lam], [mu, other])
            cli = cli_pass(tracer, [CliH2Op(lam, mu)], scan, outcomes)
        time.sleep(REFERENCE_WINDOW_S)  # samples after the last span

    def median_ms(intervals):
        return statistics.median(reference.seconds(*i) for i in intervals) * 1000

    tracer.finish(reference.seconds)
    totals = tracer.totals
    totals["cli.import.ms"] = median_ms(cli_import) - median_ms(bare)
    totals["presets.load_algebra.ms"] = median_ms(loads)
    totals["cli.h2.ms"] = median_ms(cli["h2"])
    scan_s = reference.seconds(*cli["scan"])
    totals["cli.scan.ms"] = scan_s * 1000
    sequential = sum(reference.seconds(*i) for i in cli["sequential"])
    totals["cli.scan.parallel_efficiency"] = sequential / (scan_s * SCAN_JOBS)
    rows = totals["engine.assemble_constraints.rows"]
    totals["sparse.nullspace.useful_ratio"] = totals["sparse.nullspace.rank"] / rows if rows else 0.0
    spans_file = OUT / f"spans-{workload}-{seed}.json"
    tracer.write(spans_file)
    return {
        "attempted": len(outcomes),
        "failures": [f"{op.label}: {problem}" for op, problem in outcomes if problem],
        "spans_file": spans_file,
        "metrics": {name: (totals[name], unit) for name, unit in PER_LAYER.items()},
    }


def environment() -> dict:
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or sha
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    # Each CPU of a shared machine slows down on its own: the reference loop
    # (and a traced layer) must share the op's CPU.  Children inherit the
    # pinning; the workers of `lieext scan` are let out again.
    os.sched_setaffinity(0, {min(CPUS)})
    if args.trace:
        result = traced(args.workload, args.seed)
        attempted = result["attempted"]
    else:
        result = measure(args.workload, args.seed, args.seconds)
        attempted = len(result["times"])
    failed = len(result["failures"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed")
    print("env: " + json.dumps(env))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<42} {value:.6g} {unit}")
    if not args.trace:
        spot = tail(result["times"])
        print(f"  {'op_tail_s':<42} " + (
            f"{spot[1]:.6g} s (p{spot[0]} of {attempted} ops, {spot[2]} beyond)" if spot
            else f"n/a ({attempted} ops; needs more than 10)"))
        print(f"  {'failed_frac':<42} {failed / attempted:.6g} ({failed}/{attempted})")
        print("  raw wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    else:
        print(f"  spans written to {result['spans_file'].relative_to(ROOT)}")
    for line in result["failures"][:20]:
        print("FAILED " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
