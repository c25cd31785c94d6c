"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Criterion 1 compares the computed core dimensions on an 80-point parameter
grid against the closed-form dimension table.  Ten points carry verified
nontrivial generators the table does not count (ly-constant at lambda = -3
with integer mu, lm-yy-cubic at lambda = 1 with 2*mu integer, and
yy-reciprocal at lambda = -3 with 2*mu odd), so that criterion reports the
discrepancy and fails; the other criteria pass.
"""

import csv
import io
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES
from oracle_dense import dense_in_span, dense_nullspace, dense_rank
from test_dsl import _random_spec_source
from test_sparse import _random_dense

from lieext.algebra import (
    BasisElement,
    check_jacobi_symbolic,
    validate_parameters,
)
from lieext.dsl import parse, render
from lieext.engine import (
    REGISTRY,
    Window,
    constraint_row,
    enumerate_pairs,
    h2,
    is_coboundary,
    nonzero_degree_triviality,
    theorem_predicted_dim,
    verify_cocycle,
)
from lieext.presets import load_algebra, preset_source
from lieext.rational import format_rational
from lieext.sparse import SparseMatrix, in_span, nullspace, rank, span_basis

SVIR = load_algebra("svir")
WITT = load_algebra("witt")


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def L(n):
    return BasisElement("L", n)


def Y(n):
    return BasisElement("Y", n)


def M(n):
    return BasisElement("M", n)


GRID_LAMBDAS = (-3, -2, -1, 0, Fraction(1, 2), 1, 2, 5)
GRID_MUS = (
    -2,
    -1,
    1,
    2,
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(4, 3),
    Fraction(1, 4),
    Fraction(1, 5),
)


def test_criterion_1_dimension_table_reproduction():
    start = time.perf_counter()
    mismatches = []
    unstable = []
    total = 0
    for lam in GRID_LAMBDAS:
        for mu in GRID_MUS:
            total += 1
            report = h2(
                SVIR,
                {"lambda": lam, "mu": mu},
                Window(12, 3),
                stabilization_steps=3,
            )
            predicted = theorem_predicted_dim(lam, mu)
            if not report.stabilized:
                unstable.append((lam, mu))
            if report.core_h2_dim != predicted:
                mismatches.append((lam, mu, report.core_h2_dim, predicted))
    elapsed = time.perf_counter() - start
    ok = not mismatches and not unstable and elapsed < 600
    if mismatches:
        points = "; ".join(
            f"lambda={format_rational(lam)} mu={format_rational(mu)}"
            f" computed {got} vs table {want}"
            for lam, mu, got, want in mismatches
        )
        detail = (
            f"{len(mismatches)}/{total} grid points exceed the closed-form table"
            f" ({points}); the surplus classes are the independently verified"
            " nontrivial generators ly-constant (lambda = -3, integer mu),"
            " lm-yy-cubic (lambda = 1, 2*mu integer), and yy-reciprocal"
            " (lambda = -3, 2*mu odd), so the table undercounts those cases;"
            f" stabilized everywhere, {elapsed:.0f}s"
        )
    elif unstable:
        detail = f"points did not stabilize: {unstable} ({elapsed:.0f}s)"
    elif elapsed >= 600:
        detail = f"grid matched but took {elapsed:.0f}s (budget 600s)"
    else:
        detail = (
            f"all {total} grid points match the closed-form table,"
            f" stabilized across N=12,14,16, {elapsed:.0f}s"
        )
    assert _report(1, ok, detail), detail


# The README's list of grid points where the engine finds more classes than
# the closed-form table: lambda in {-3, 1} at each of these mu values.
DOCUMENTED_SURPLUS = {
    (lam, mu)
    for lam in ("-3", "1")
    for mu in ("-2", "-1", "1/2", "1", "2")
}


def test_grid_disagreements_are_exactly_the_documented_ones():
    # criterion 1 is red by design; this pins the shape of that red so a new
    # regression on the grid fails here instead of hiding behind it
    proc = subprocess.run(
        [
            sys.executable, "-m", "lieext", "scan",
            "--lambda-values=" + ",".join(format_rational(Fraction(v)) for v in GRID_LAMBDAS),
            "--mu-values=" + ",".join(format_rational(Fraction(v)) for v in GRID_MUS),
            "--jobs", "2", "--format", "csv",
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 1, proc.stderr
    assert "did not stabilize" not in proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == len(GRID_LAMBDAS) * len(GRID_MUS)
    disagreeing = {(row["lambda"], row["mu"]) for row in rows if row["agree"] == "false"}
    assert disagreeing == DOCUMENTED_SURPLUS
    for row in rows:
        matched = [name for name in row["matched"].split(";") if name]
        assert int(row["core_h2_dim"]) == len(matched), row


def test_criterion_2_virasoro_cocycle():
    window = Window(20, 3)
    report = verify_cocycle(WITT, {}, window, REGISTRY["virasoro"])
    spot = report.assignment.value(L(3), L(-3))
    trivial = is_coboundary(WITT, {}, window, report.assignment)
    ok = report.passed and spot == 2 and not trivial
    detail = (
        f"identity holds on {report.triples_checked} admissible L-triples in"
        f" [-20, 20], value(L_3, L_-3) = {spot}, coboundary = {trivial}"
    )
    assert _report(2, ok, detail), detail


GENERATOR_POINTS = (
    ({"lambda": -1, "mu": "1/3"}, ("c2",)),
    ({"lambda": -3, "mu": 2}, ("ly-linear",)),
    ({"lambda": 1, "mu": -1}, ("ly-cubic",)),
    ({"lambda": -1, "mu": 1}, ("c1", "c2")),
)


def test_criterion_3_explicit_generators():
    window = Window(12, 3)
    problems = []
    checked = 0
    for params, names in GENERATOR_POINTS:
        report = h2(SVIR, params, window)
        matched = {m.name for m in report.matched_known if m.matched}
        for name in names:
            checked += 1
            vrep = verify_cocycle(SVIR, params, window, REGISTRY[name])
            if not vrep.passed:
                problems.append(f"{name} fails the identity at {params}")
                continue
            if is_coboundary(SVIR, params, window, vrep.assignment):
                problems.append(f"{name} is a coboundary at {params}")
            if name not in matched:
                problems.append(f"{name} not matched at {params}")
    ok = not problems
    detail = (
        f"{checked} generators verified, nontrivial, and matched at 4 parameter points"
        if ok
        else "; ".join(problems)
    )
    assert _report(3, ok, detail), detail


def test_criterion_4_symbolic_jacobi():
    svir_report = check_jacobi_symbolic(SVIR)
    witt_report = check_jacobi_symbolic(WITT)
    ok = svir_report.passed and witt_report.passed
    detail = (
        "Jacobi holds symbolically in the indices and parameters for svir and witt"
        if ok
        else f"svir={svir_report.passed} witt={witt_report.passed}"
    )
    assert _report(4, ok, detail), detail


def test_criterion_5_nonzero_degree_triviality():
    window = Window(12, 3)
    worst = 0.0
    failures = []
    for lam, mu in ((-1, 1), (1, 2)):
        for degree in (1, -1, 2, -2):
            t0 = time.perf_counter()
            flat = nonzero_degree_triviality(
                SVIR, {"lambda": lam, "mu": mu}, window, degree
            )
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            if not flat:
                failures.append((lam, mu, degree))
            if dt >= 30:
                failures.append((lam, mu, degree, f"{dt:.1f}s"))
    ok = not failures
    detail = (
        f"8 nonzero-degree sectors have equal core cocycle and coboundary"
        f" dimensions, worst point {worst:.2f}s"
        if ok
        else f"failures: {failures}"
    )
    assert _report(5, ok, detail), detail


def _put(expected, x, y, coeff):
    if x == y or coeff == 0:
        return
    if SVIR.element_key(x) > SVIR.element_key(y):
        x, y, coeff = y, x, -coeff
    total = expected.get((x, y), Fraction(0)) + coeff
    if total:
        expected[(x, y)] = total
    else:
        expected.pop((x, y), None)


def _golden_row(shape, m, n, lam, mu):
    """Hand-derived cocycle identity rows for (L_0, A_m, B_n) triples."""
    expected = {}
    if shape == "YY":
        _put(expected, Y(m), Y(n), m + n + 2 * mu)
        _put(expected, L(0), M(m + n), m - n)
        return (L(0), Y(m), Y(n)), expected
    if shape == "LM":
        _put(expected, L(m), M(n), m + n + 2 * mu)
        _put(expected, L(0), M(m + n), -(n - lam * m + 2 * mu))
        return (L(0), L(m), M(n)), expected
    if shape == "YM":
        _put(expected, Y(m), M(n), m + n + 3 * mu)
        return (L(0), Y(m), M(n)), expected
    if shape == "MM":
        _put(expected, M(m), M(n), m + n + 4 * mu)
        return (L(0), M(m), M(n)), expected
    if shape == "LY":
        _put(expected, L(m), Y(n), m + n + mu)
        _put(expected, L(0), Y(m + n), -(n - (lam + 1) * m / 2 + mu))
        return (L(0), L(m), Y(n)), expected
    raise AssertionError(shape)


def test_criterion_6_constraint_row_golden_relations():
    rng = random.Random(1106)
    window = Window(12, 3)
    shapes = ("YY", "LM", "YM", "MM", "LY")
    samples = 0
    failures = []
    while samples < 20:
        shape = shapes[samples % len(shapes)]
        m = rng.randint(-4, 4)
        n = rng.randint(-4, 4)
        if m == n:
            continue
        lam = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
        mu = Fraction(rng.choice([v for v in range(-4, 5) if v]), rng.choice((1, 2, 3)))
        params = validate_parameters(SVIR, {"lambda": lam, "mu": mu})
        (x, y, z), expected = _golden_row(shape, m, n, lam, mu)
        degree = sum(SVIR.weight(e, params) for e in (x, y, z))
        pairs = enumerate_pairs(SVIR, params, window, degree)
        row = constraint_row(SVIR, params, window, x, y, z, pairs)
        named = {pairs.pair_at(col): value for col, value in row.items()}
        if named != expected:
            failures.append((shape, m, n, lam, mu, named, expected))
        samples += 1
    ok = not failures
    detail = (
        "20 sampled rows match the hand-derived relations for all five"
        " (L_0, *, *) triple shapes"
        if ok
        else f"mismatches: {failures[:2]} (+{max(len(failures) - 2, 0)} more)"
    )
    assert _report(6, ok, detail), detail


def test_criterion_7_solver_against_dense_oracle():
    rng = random.Random(77)
    checked = 0
    failures = []
    for _ in range(200):
        dense = _random_dense(rng, max_dim=12, max_num=20)
        n_cols = len(dense[0])
        matrix = SparseMatrix.from_dense(dense)
        r_sparse = rank(matrix)
        r_dense = dense_rank([list(row) for row in dense], n_cols)
        if r_sparse != r_dense:
            failures.append(("rank", dense))
            continue
        null = nullspace(matrix)
        if len(null) != n_cols - r_dense:
            failures.append(("nullity", dense))
            continue
        if any(any(v != 0 for v in matrix.multiply_vector(list(vec))) for vec in null):
            failures.append(("residual", dense))
            continue
        if dense_rank([list(vec) for vec in null], n_cols) != len(null):
            failures.append(("dependence", dense))
            continue
        # span membership must agree with the oracle on a random probe
        probe = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n_cols)
        ]
        basis = span_basis(n_cols, [list(row) for row in dense])
        got = in_span(probe, basis)
        want = dense_in_span(probe, [list(row) for row in dense], n_cols)
        if got != want:
            failures.append(("span", dense))
            continue
        checked += 1
    ok = not failures and checked == 200
    detail = (
        f"rank, nullspace, and span membership agree with the dense reference"
        f" on {checked} random matrices up to 12x12"
        if ok
        else f"first failure kind: {failures[0][0]}"
    )
    assert _report(7, ok, detail), detail


def test_criterion_8_parser_round_trip_and_fuzz():
    problems = []
    for name in ("svir", "witt"):
        source = preset_source(name)
        first = parse(source)
        if not first.ok:
            problems.append(f"preset {name} does not parse")
            continue
        second = parse(render(first.spec))
        if not second.ok or second.spec != first.spec:
            problems.append(f"preset {name} does not round-trip")
    rng = random.Random(808)
    # sources with cocycle blocks, to be fuzzed by mutation below
    seeds = [preset_source("svir")]
    for _ in range(20):
        source = _random_spec_source(rng)
        first = parse(source)
        if not first.ok:
            problems.append("random spec does not parse")
            continue
        second = parse(render(first.spec))
        if not second.ok or second.spec != first.spec:
            problems.append("random spec does not round-trip")
        if first.spec.cocycles:
            seeds.append(source)
    if len(seeds) < 5:
        problems.append("too few random specs with cocycle blocks")
    crashes = 0
    fuzzed = 0
    for count in range(11_000):
        if count < 10_000:
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            text = raw.decode("utf-8", errors="replace")
        else:
            chars = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 6)):
                chars[rng.randrange(len(chars))] = chr(rng.randrange(1, 256))
            text = "".join(chars)
        try:
            result = parse(text)
        except Exception:
            crashes += 1
            continue
        fuzzed += 1
        if result.spec is None and not result.diagnostics:
            problems.append("parse returned neither a spec nor diagnostics")
            break
    if crashes:
        problems.append(f"{crashes} fuzz inputs raised")
    ok = not problems
    detail = (
        f"presets and 20 random specs ({len(seeds) - 1} with cocycle blocks) round-trip;"
        f" {fuzzed} fuzz inputs, 1000 of them mutated sources with cocycle blocks,"
        " produced a spec or diagnostics without crashing"
        if ok
        else "; ".join(problems[:3])
    )
    assert _report(8, ok, detail), detail
