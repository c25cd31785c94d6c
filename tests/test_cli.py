"""End-to-end command line tests driving the installed entry point through
subprocesses: output formats, exit codes, and file/preset resolution."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieext import cli
from lieext.cli import _scan_workers
from lieext.presets import load_algebra
from lieext.solve import Window

from golden import CORRUPT_SOURCE, WAB_SOURCE

CLI = [sys.executable, "-m", "lieext"]

# Named svir, with other L-Y and L-M brackets than the bundled preset.
IMPOSTOR_SVIR_SOURCE = """
algebra svir(lambda, mu) {
    family L weight 0;
    family Y weight mu;
    family M weight 2*mu;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, Y m] = (m - lambda*n) Y(n + m);
    bracket [L n, M m] = (m - 2*lambda*n) M(n + m);
    bracket [Y n, Y m] = (m - n) M(n + m);
    bracket [Y n, M m] = 0;
    bracket [M n, M m] = 0;
}
"""

# The twisted Heisenberg-Virasoro algebra and W(2,2), each declaring the
# classes that span its degree-zero H^2.
HV_SOURCE = """
algebra hv() {
    family L weight 0;
    family I weight 0;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, I m] = m I(n + m);
    bracket [I n, I m] = 0;
    cocycle virasoro { [L n, L m] = (m - m*m*m)/12 on n + m = 0; }
    cocycle ii { [I n, I m] = m on n + m = 0; }
    cocycle li-square { [L n, I m] = m*m on n + m = 0; }
}
"""

W22_SOURCE = """
algebra w22() {
    family L weight 0;
    family W weight 0;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = (m - n) W(n + m);
    bracket [W n, W m] = 0;
    cocycle virasoro { [L n, L m] = (m - m*m*m)/12 on n + m = 0; }
    cocycle lw-cubic { [L n, W m] = m*m*m - m on n + m = 0; }
}
"""

ABELIAN_SOURCE = """
algebra abel() {
    family A weight 0;
    bracket [A n, A m] = 0;
}
"""


def run_cli(*argv, env=None):
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=env, timeout=300
    )


def test_jacobi_symbolic_pass():
    proc = run_cli("jacobi", "--algebra", "svir", "--symbolic")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "jacobi symbolic: PASS (svir, all family triples)"


def test_jacobi_window_pass():
    proc = run_cli("jacobi", "--algebra", "witt", "--window", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("jacobi window: PASS")


def test_jacobi_window_fail_names_witness(tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text(CORRUPT_SOURCE)
    proc = run_cli("jacobi", "--algebra", str(bad), "--lambda", "0", "--mu", "1",
                   "--window", "4")
    assert proc.returncode == 1
    assert proc.stdout.strip() == (
        "jacobi window: FAIL at (L(-4), Y(-4), Y(-3)): residual -14*M(-11)"
    )


def test_jacobi_symbolic_fail_names_families(tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text(CORRUPT_SOURCE)
    proc = run_cli("jacobi", "--algebra", str(bad), "--symbolic")
    assert proc.returncode == 1
    assert proc.stdout == (
        "jacobi symbolic: FAIL on families ('L', 'Y', 'Y') -> M: residual "
        "-_i*_j*lambda + _i*_k*lambda - 3*_i*_j + 3*_i*_k + 2*_j*mu - 2*_k*mu\n"
    )


def test_deep_unary_signs_are_a_parse_error(tmp_path):
    deep = tmp_path / "deep.lie"
    deep.write_text("algebra deep() {\n  family L weight " + "-" * 5000 + "1;\n}\n")
    proc = run_cli("jacobi", "--algebra", str(deep), "--symbolic")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot parse algebra")


def test_h2_json_schema_and_agreement():
    proc = run_cli("h2", "--algebra", "svir", "--lambda=-1", "--mu", "1/3",
                   "--window", "10", "--steps", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert list(data) == [
        "algebra",
        "lambda",
        "mu",
        "window",
        "margin",
        "degree",
        "cocycle_dim",
        "coboundary_dim",
        "h2_dim",
        "core_h2_dim",
        "stabilized",
        "matched_known",
        "predicted_dim",
        "agree",
    ]
    assert data["algebra"] == "svir"
    assert data["lambda"] == "-1"
    assert data["mu"] == "1/3"
    assert data["window"] == 10
    assert data["margin"] == 3
    assert data["degree"] == "0"
    assert data["cocycle_dim"] == 3
    assert data["coboundary_dim"] == 1
    assert data["h2_dim"] == 2
    assert data["core_h2_dim"] == 2
    assert data["stabilized"] is True
    assert data["predicted_dim"] == 2
    assert data["agree"] is True
    assert data["matched_known"] == [
        {"name": "virasoro", "matched": True},
        {"name": "c2", "matched": True},
    ]


def test_h2_text_disagreement_exits_one():
    proc = run_cli("h2", "--algebra", "svir", "--lambda=-3", "--mu", "1",
                   "--window", "10", "--steps", "2")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert "core_h2_dim: 3" in lines
    assert "predicted_dim: 2" in lines
    assert "agree: no" in lines
    assert (
        "matched: virasoro=yes, c1=no, c2=no, ly-linear=yes, ly-cubic=no, "
        "ly-constant=yes, lm-yy-cubic=no" in lines
    )


def test_h2_markdown_format_and_negative_mu_equals_form():
    proc = run_cli("h2", "--algebra", "svir", "--lambda=-1", "--mu=-1/3",
                   "--window", "10", "--steps", "2", "--format", "md")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "| field | value |"
    assert lines[1] == "| --- | --- |"
    assert "| parameters | lambda=-1 mu=-1/3 |" in lines
    assert "| core_h2_dim | 2 |" in lines
    assert "| agree | yes |" in lines


def test_h2_stabilization_failure_exits_three(tmp_path):
    abel = tmp_path / "abel.lie"
    abel.write_text(ABELIAN_SOURCE)
    proc = run_cli("h2", "--algebra", str(abel), "--window", "8", "--steps", "2")
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert "stabilized: no (N=8: 5, N=10: 7)" in lines
    assert "predicted_dim: n/a" in lines


def test_disagreeing_unstabilized_point_exit_codes(monkeypatch, capsys):
    # a point that disagrees with the prediction and does not stabilize:
    # h2 exits 3 (stabilization first), scan exits 1 (disagreement first)
    h2_run = cli._h2_run

    def unstabilized(*args):
        report, predicted, agree, warning = h2_run(*args)
        report.stabilized = False
        return report, predicted, False, warning

    monkeypatch.setattr(cli, "_h2_run", unstabilized)
    options = ["--window", "6", "--steps", "1"]
    assert cli.main(["h2", "--algebra", "svir", "--lambda=0", "--mu=1", *options]) == 3
    assert "agree: no" in capsys.readouterr().out.splitlines()
    assert cli.main(["scan", "--lambda-values=0", "--mu-values=1", "--jobs", "1", *options]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "0,1,6,1,1,false,virasoro"
    assert "warning: lambda=0 mu=1 did not stabilize" in captured.err


def test_preset_path_environment_resolution(tmp_path):
    (tmp_path / "abel.lie").write_text(ABELIAN_SOURCE)
    env = dict(os.environ)
    env["LIEEXT_PRESET_PATH"] = str(tmp_path)
    proc = run_cli("jacobi", "--algebra", "abel", "--window", "4", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("jacobi window: PASS (84 triples")


def test_mu_zero_is_reported():
    # svir(lambda, 0) is svir(lambda, 1) up to a graded isomorphism, and
    # gets its report: at lambda = -1 the core and classes of mu = 1
    proc = run_cli("h2", "--algebra", "svir", "--lambda=-1", "--mu", "0",
                   "--window", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "core_h2_dim: 3" in lines
    assert "stabilized: yes (N=8: 3, N=10: 3, N=12: 3)" in lines
    assert ("matched: virasoro=yes, c1=yes, c2=yes, ly-linear=no, ly-cubic=no, "
            "ly-constant=no, lm-yy-cubic=no") in lines
    assert "predicted_dim: 3" in lines
    assert "agree: yes" in lines


def test_parameter_given_twice_is_a_usage_error():
    for argv in (("--lambda=-1", "--param", "lambda=0", "--mu", "1"),
                 ("--lambda=-1", "--param", "mu=1", "--param", "mu=2")):
        proc = run_cli("h2", "--algebra", "svir", *argv, "--window", "6",
                       "--steps", "1")
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: parameter ")
        assert "given twice" in proc.stderr


def test_user_algebra_named_svir_gets_no_svir_rules(tmp_path):
    path = tmp_path / "impostor.lie"
    path.write_text(IMPOSTOR_SVIR_SOURCE)
    for mu in ("1", "0"):
        proc = run_cli("h2", "--algebra", str(path), "--lambda=-1", "--mu", mu,
                       "--window", "6", "--steps", "2")
        assert proc.returncode == 0, proc.stderr
        assert "algebra: svir" in proc.stdout.splitlines()
        assert "predicted_dim: n/a" in proc.stdout.splitlines()
        # it declares no classes, so it is matched against none of svir's
        assert "matched: (none)" in proc.stdout.splitlines()


# The FOO_SOURCE algebra has one parameter, neither lambda nor mu.
FOO_SOURCE = """
algebra foo(a) {
    family L weight 0;
    family W weight a;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = (m + a*n) W(n + m);
    bracket [W n, W m] = 0;
}
"""


def test_h2_json_names_every_parameter(tmp_path):
    # the text report's parameters row and the JSON record name the same
    # parameters; svir's record has no "parameters" key (its key list is
    # pinned above), and an algebra without lambda or mu writes them null
    path = tmp_path / "foo.lie"
    path.write_text(FOO_SOURCE)
    argv = ["h2", "--algebra", str(path), "--param", "a=1", "--window", "8", "--steps", "1"]
    text = run_cli(*argv)
    assert text.returncode == 0, text.stderr
    assert "parameters: a=1" in text.stdout.splitlines()
    proc = run_cli(*argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["lambda"], data["mu"], data["parameters"]) == (None, None, {"a": "1"})
    assert list(data)[-1] == "parameters"


def test_file_scan_parses_its_file_once(tmp_path, monkeypatch, capsys):
    # every point of a scan of a .lie file reads the one parsed spec
    from lieext import dsl
    from lieext.presets import preset_source

    path = tmp_path / "svcopy.lie"
    path.write_text(preset_source("svir").replace("algebra svir(", "algebra svcopy("))
    calls = []
    parse = dsl.parse
    monkeypatch.setattr(dsl, "parse", lambda source: calls.append(source) or parse(source))
    grid = ["--lambda-values=-3,1", "--mu-values=1,1/2,1/3,2/3", "--window", "8", "--steps", "1", "--jobs", "1"]
    assert cli.main(["scan", "--algebra", str(path), *grid]) == 1
    # the svir preset, which the closed-form table compares with, may be
    # parsed too, the first time this process needs it
    assert calls.count(path.read_text()) == 1
    rows = capsys.readouterr().out
    assert len(rows.splitlines()) == 9
    assert cli.main(["scan", "--algebra", "svir", *grid]) == 1
    assert capsys.readouterr().out == rows


def test_scan_worker_reads_the_settings_of_its_initializer(monkeypatch):
    # a pool worker is handed the parsed spec once, by the pool's
    # initializer, and then each point alone
    monkeypatch.setattr(cli, "_worker_settings", None)
    settings = (load_algebra("svir"), Window(8), 0, 1)
    cli._scan_worker(*settings)
    assert cli._scan_worker_point((-3, 1)) == cli._scan_point(settings, (-3, 1))


def test_renamed_svir_copy_gets_the_svir_rules(tmp_path):
    from lieext.presets import preset_source

    path = tmp_path / "svcopy.lie"
    path.write_text(preset_source("svir").replace("algebra svir(", "algebra svcopy("))
    for mu in ("1", "0"):
        proc = run_cli("h2", "--algebra", str(path), "--lambda=-1", "--mu", mu,
                       "--window", "8", "--steps", "2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "algebra: svcopy" in lines
        assert "predicted_dim: 3" in lines
        assert "agree: yes" in lines


# svir's bracket table with Y declared before L, so that the L-Y bracket is
# stored as [Y, L] = -[L, Y]
SVIR_Y_FIRST_SOURCE = """
algebra svir(lambda, mu) {
    family Y weight mu;
    family L weight 0;
    family M weight 2*mu;
    bracket [Y n, Y m] = (m - n) M(n + m);
    bracket [Y m, L n] = -(m - (lambda + 1)/2*n + mu) Y(n + m);
    bracket [Y n, M m] = 0;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, M m] = (m - lambda*n + 2*mu) M(n + m);
    bracket [M n, M m] = 0;
}
"""


def _svir_with(old, new):
    from lieext.presets import preset_source

    return preset_source("svir").replace(old, new)


@pytest.mark.parametrize("source, predicted, agree, code", [
    (_svir_with("[L n, L m] = (m - n) L(n + m)", "[L a, L b] = (b - a) L(a + b)"), "2", "no", 1),
    (_svir_with("[L n, L m] = (m - n) L(n + m)", "[L a, L b] = (2*b - 2*a) L(a + b)"), "n/a", "n/a", 0),
    (SVIR_Y_FIRST_SOURCE, "2", "no", 1),
    (_svir_with("algebra svir(lambda, mu)", "algebra svir(mu, lambda)"), "2", "no", 1),
    (SVIR_Y_FIRST_SOURCE.replace("(m - n) M(n + m)", "(n - m) M(n + m)"), "n/a", "n/a", 0),
    (SVIR_Y_FIRST_SOURCE.replace("= -(m - (lambda", "= (m - (lambda"), "n/a", "n/a", 0),
], ids=["relettered", "rescaled", "y-first", "mu-first", "y-first-yy-negated", "y-first-ly-negated"])
def test_svir_prediction_ignores_the_index_letters(tmp_path, source, predicted, agree, code):
    # the same bracket table with other index variables, or declared in
    # another order, is svir; twice the L-L bracket, or either sign of a
    # reordered copy's brackets flipped, is another table
    path = tmp_path / "copy.lie"
    path.write_text(source)
    proc = run_cli("h2", "--algebra", str(path), "--lambda=-3", "--mu=1", "--window", "8")
    assert proc.returncode == code, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"predicted_dim: {predicted}" in lines
    assert f"agree: {agree}" in lines


@pytest.mark.parametrize("source, core, classes", [
    (HV_SOURCE, 3, ["virasoro", "ii", "li-square"]),
    (W22_SOURCE, 2, ["virasoro", "lw-cubic"]),
])
def test_user_algebra_matches_its_own_classes(tmp_path, source, core, classes):
    path = tmp_path / "user.lie"
    path.write_text(source)
    proc = run_cli("h2", "--algebra", str(path), "--window", "16")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"core_h2_dim: {core}" in lines
    assert f"stabilized: yes (N=16: {core}, N=18: {core}, N=20: {core})" in lines
    assert "matched: " + ", ".join(f"{name}=yes" for name in classes) in lines
    for name in classes:
        proc = run_cli("verify", "--algebra", str(path), "--cocycle", name, "--window", "20")
        assert proc.returncode == 0, (name, proc.stdout, proc.stderr)
        assert proc.stdout.splitlines()[1:] == ["nontrivial: yes"], name


def test_scan_workers_clamped_without_starting_processes():
    assert _scan_workers(10**6, 80, 2) == 2
    assert _scan_workers(10**6, 3, 64) == 3
    assert _scan_workers(0, 80, 4) == 4
    assert _scan_workers(-1, 80, 4) == 4
    assert _scan_workers(0, 80, None) == 1
    assert _scan_workers(1, 80, 8) == 1
    assert _scan_workers(8, 1, 8) == 1


@pytest.mark.parametrize("affinity", [{0}, None], ids=["affinity", "no-affinity"])
def test_scan_caps_workers_at_usable_cpus(monkeypatch, capsys, affinity):
    # a one-point scan runs in this process: one worker, no pool
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    calls = []

    def spy(jobs, points, cpus):
        calls.append((jobs, points, cpus))
        return _scan_workers(jobs, points, cpus)

    monkeypatch.setattr(cli, "_scan_workers", spy)
    code = cli.main(["scan", "--lambda-values", "0", "--mu-values", "1",
                     "--window", "6", "--steps", "1"])
    assert code == 0, capsys.readouterr().err
    assert calls == [(0, 1, 1 if affinity else 3)]


@pytest.mark.parametrize(
    "option, message",
    [
        (["--window", "4"], "window too small"),
        (["--steps", "0"], "need at least one stabilization step"),
        (["--degree", "x/y"], "not a rational literal: 'x/y'"),
    ],
    ids=["window", "steps", "degree"],
)
def test_scan_bad_option_exits_before_any_pool(monkeypatch, capsys, option, message):
    class NoPool:
        def __init__(self, *args, **kwargs):
            pytest.fail("scan built a process pool for a bad option")

    # cmd_scan imports the pool class from here when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    # two usable CPUs and two grid points: a good scan would build a pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code = cli.main(["scan", "--lambda-values=1", "--mu-values=1,2", "--jobs", "2", *option])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u0661\u0662", "1_2"], ids=["arabic-indic", "underscore"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["h2", "--algebra", "svir", "--lambda=1", "--mu=1"], "--window"),
        (["h2", "--algebra", "svir", "--lambda=1", "--mu=1"], "--margin"),
        (["h2", "--algebra", "svir", "--lambda=1", "--mu=1"], "--steps"),
        (["scan", "--lambda-values=1", "--mu-values=1"], "--jobs"),
        (["jacobi", "--algebra", "svir", "--lambda=1", "--mu=1"], "--window"),
    ],
    ids=["h2-window", "h2-margin", "h2-steps", "scan-jobs", "jacobi-window"],
)
def test_integer_options_read_only_ascii_digits(capsys, argv, option, value):
    # int() would read both values as 12
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


def test_negative_jobs_is_an_integer_option(capsys):
    # a negative count means the usable CPUs, like 0; one point runs here
    argv = ["scan", "--lambda-values=0", "--mu-values=1", "--window", "6", "--steps", "1"]
    assert cli.build_parser().parse_args([*argv, "--jobs", "-2"]).jobs == -2
    assert cli.main([*argv, "--jobs", "-2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,1,6,1,1,true,virasoro"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["h2", "--algebra", "svir", "--lambda=0", "--mu=1", "--window", "6"]) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_the_real_cli_quietly(unbuffered):
    # buffered, the output meets the closed pipe at main's last flush; then
    # the interpreter's own flush at exit must not raise again.  Unbuffered,
    # argparse's help meets it at argparse's own write, which swallows errors
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["h2", "--algebra", "svir", "--lambda=0", "--mu=1", "--window", "6"], ["--help"], ["h2", "--help"]):
        proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child has imported lieext, let alone printed
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=300), stderr) == (141, b""), argv


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stderr_keeps_the_usage_error_exit_code(unbuffered):
    # the error message meets the closed pipe at once; buffered, the
    # interpreter's own flush at exit must not meet it again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(CLI + ["h2", "--algebra", "nosuch"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stderr.close()  # before the child has imported lieext
    stdout = proc.stdout.read()
    assert (proc.wait(timeout=300), stdout) == (2, b"")


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("blank, accepted", [
    (" ", True), ("\t", True), ("\u2003", False), ("\x1c", False), ("\x85", False), ("\n", False),
], ids=["space", "tab", "em-space", "file-separator", "next-line", "newline"])
def test_values_take_the_lie_scanners_blanks_only(tmp_path, capsys, blank, accepted):
    # space, tab and CR around a value are blanks, as in a .lie file; other
    # Unicode blanks, which str.strip() would also drop, are refused
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({f"L:-3,{blank}L:3{blank}": "1"}))
    svir = ["--algebra", "svir", "--mu=1", "--window", "6", "--steps", "1"]
    runs = [
        ["h2", "--algebra", "witt", "--window", f"{blank}8{blank}", "--steps", "1"],
        ["h2", *svir, f"--lambda={blank}0{blank}"],
        ["h2", *svir, "--param", f"{blank}lambda{blank}={blank}0{blank}"],
        ["verify", "--algebra", "witt", "--cocycle", str(pair), "--window", "8"],
    ]
    for argv in runs:
        code = _exit_code(argv)
        assert (code != 2) == accepted, (argv, capsys.readouterr().err)


def test_cli_import_leaves_the_process_pool_out():
    # only a parallel scan needs concurrent.futures (and multiprocessing)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lieext.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cold_start_leaves_dataclasses_and_inspect_out():
    # importing the CLI and running h2 in a fresh interpreter, with the
    # checkout's src/ on the path, loads neither module
    code = (
        "import contextlib, io, sys\n"
        "import lieext.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = lieext.cli.main(['h2', '--algebra', 'svir', '--lambda=-3', '--mu=1', '--window', '8'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "1 []"]


def test_cold_start_loads_a_module_at_the_first_read_of_its_names():
    # in a fresh interpreter without site (whose start-up imports
    # importlib.resources on some installs), dir() lists every exported name
    # before any is read; loading a preset compiles neither the engine, the
    # solve nor sparse and reads the preset without importlib.resources;
    # reading cocycle_space loads the solve alone and reading h2 the
    # engine, and each exported name is its home module's object
    code = (
        "import importlib, sys\n"
        "import lieext\n"
        "print(set(lieext.__all__) <= set(dir(lieext)))\n"
        "lieext.load_algebra('svir')\n"
        "print(sorted({'lieext.engine', 'lieext.solve', 'lieext.sparse', 'importlib.resources'} & set(sys.modules)))\n"
        "lieext.cocycle_space\n"
        "print(sorted({'lieext.engine', 'lieext.solve'} & set(sys.modules)))\n"
        "lieext.h2\n"
        "print('lieext.engine' in sys.modules)\n"
        "print([name for name in lieext.__all__\n"
        "       if getattr(lieext, name) is not getattr(importlib.import_module(lieext._HOME[name], 'lieext'), name)])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "[]", "['lieext.solve']", "True", "[]"]


@pytest.mark.parametrize("argv", [
    ["h2", "--algebra", "witt", "--window", "8", "--steps", "1"],
    ["verify", "--algebra", "witt", "--cocycle", "virasoro", "--window", "8"],
    ["jacobi", "--algebra", "witt"],
    ["h2", "--algebra", "{user}", "--window", "10", "--steps", "1"],
    ["verify", "--algebra", "{user}", "--cocycle", "ii", "--window", "8"],
], ids=["h2-witt", "verify-witt", "jacobi-witt", "h2-user", "verify-user"])
def test_other_algebras_leave_the_svir_preset_unparsed(tmp_path, argv):
    # REGISTRY is built at first use, and the closed-form prediction turns
    # away an algebra without lambda and mu before it loads svir
    path = tmp_path / "user.lie"
    path.write_text(HV_SOURCE)
    argv = [arg.format(user=path) for arg in argv]
    code = (
        "import contextlib, io\n"
        "from lieext import cli, presets\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, sorted(presets._cache))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split(" ", 1) == ["0", "['witt']\n" if "witt" in argv else "[]\n"]


def test_lazy_registry_is_the_svir_classes():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import lieext, lieext.presets as p\n"
         "before = sorted(p._cache)\n"
         "from lieext import REGISTRY\n"
         "print(before, sorted(p._cache), REGISTRY is p.REGISTRY is lieext.REGISTRY, 'REGISTRY' in lieext.__all__,\n"
         "      hasattr(lieext.engine, 'REGISTRY'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] ['svir'] True True False"


# at lambda = 1, [L(0), W(m)] = (m + 1) W(m) and the grading is not inner
GRADING_WARNING = "warning: the grading is not inner ([L(0), W(m)] = (m + 1) W(m);"


def test_non_inner_grading_warns_and_keeps_the_exit_code(tmp_path):
    path = tmp_path / "wab.lie"
    path.write_text(WAB_SOURCE)
    for lam, warned in (("1", True), ("0", False)):
        proc = run_cli("h2", "--algebra", str(path), f"--lambda={lam}", "--mu=0",
                       "--window", "8", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        if warned:
            assert proc.stderr.startswith(GRADING_WARNING)
            assert out["grading_inner"] is False
        else:
            assert proc.stderr == ""
            assert "grading_inner" not in out
    proc = run_cli("scan", "--algebra", str(path), "--lambda-values=0,1", "--mu-values=0",
                   "--window", "8", "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lambda=1 mu=0: " + GRADING_WARNING)


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["h2", "--lambda=1", "--mu=0", "--window", "8"], 1),
        (["scan", "--lambda-values=0,1", "--mu-values=0", "--window", "8", "--jobs", "1"], 2),
    ],
    ids=["h2", "scan"],
)
def test_grading_verdict_is_decided_once_per_h2_call(monkeypatch, capsys, tmp_path, argv, calls):
    from lieext import engine

    path = tmp_path / "wab.lie"
    path.write_text(WAB_SOURCE)
    seen = []

    def spy(alg):
        seen.append(alg)
        return verdict(alg)

    verdict = engine._grading_failure
    monkeypatch.setattr(engine, "_grading_failure", spy)
    # a module that imported the function holds its own reference to it
    monkeypatch.setattr(cli, "_grading_failure", spy, raising=False)
    assert cli.main([*argv, "--algebra", str(path)]) == 0
    assert capsys.readouterr().err.count(GRADING_WARNING) == 1
    assert len(seen) == calls


JACOBI_WARNING = "warning: the Jacobi identity fails (L, Y, Y -> M): the bracket is not a Lie algebra"


def test_bracket_failing_jacobi_warns_and_keeps_stdout(tmp_path):
    """h2 and scan answer on a bracket that fails the Jacobi identity as
    they did before the check, and say on stderr where it fails."""
    bad = tmp_path / "bad.lie"
    bad.write_text(CORRUPT_SOURCE)
    proc = run_cli("h2", "--algebra", str(bad), "--lambda=-3", "--mu=1", "--window", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "core_h2_dim: 0" in lines
    assert "stabilized: yes (N=8: 0, N=10: 0, N=12: 0)" in lines
    warnings = proc.stderr.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: the grading is not inner")
    assert warnings[1].startswith(JACOBI_WARNING)
    proc = run_cli("h2", "--algebra", str(bad), "--lambda=-3", "--mu=1", "--window", "8", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["jacobi_holds"] is False and out["grading_inner"] is False
    proc = run_cli("scan", "--algebra", str(bad), "--lambda-values=-3,1", "--mu-values=1",
                   "--window", "8", "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "lambda,mu,window,core_h2_dim,predicted_dim,agree,matched",
        "-3,1,8,0,,,",
        "1,1,8,0,,,",
    ]
    warnings = proc.stderr.splitlines()
    assert len(warnings) == 4
    for line, prefix in zip(warnings, ["lambda=-3 mu=1: "] * 2 + ["lambda=1 mu=1: "] * 2):
        assert line.startswith(prefix + "warning: ")
    assert warnings[1].startswith("lambda=-3 mu=1: " + JACOBI_WARNING)
    assert warnings[3].startswith("lambda=1 mu=1: " + JACOBI_WARNING)
    proc = run_cli("h2", "--algebra", "svir", "--lambda=0", "--mu=1", "--window", "8", "--format", "json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "jacobi_holds" not in json.loads(proc.stdout)


def test_jacobi_identity_is_expanded_once_per_h2_call(monkeypatch, capsys, tmp_path):
    from lieext import solve

    bad = tmp_path / "bad.lie"
    bad.write_text(CORRUPT_SOURCE)
    seen = []

    def spy(rules):
        seen.append(rules)
        return expand(rules)

    expand = solve._jacobi_residuals
    monkeypatch.setattr(solve, "_jacobi_residuals", spy)
    argv = ["scan", "--algebra", str(bad), "--lambda-values=-3,1", "--mu-values=1", "--window", "8", "--jobs", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err.count(JACOBI_WARNING) == 2
    assert len(seen) == 2


def test_negative_jacobi_window_is_a_usage_error():
    proc = run_cli("jacobi", "--algebra", "svir", "--lambda=0", "--mu=1", "--window=-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: window bound must be nonnegative\n"


def test_window_too_small_is_a_usage_error():
    proc = run_cli("h2", "--algebra", "svir", "--lambda", "0", "--mu", "1",
                   "--window", "3", "--margin", "3")
    assert proc.returncode == 2
    assert "window too small" in proc.stderr


# Witt acting on a module of weight lambda: at lambda = 20 the degree-0
# pairs of the L-W sector have index total -20 and those of W-W -40.
WAB_A_SOURCE = """
algebra wab_a(lambda, mu) {
    family L weight 0;
    family W weight lambda;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = (lambda + m + mu*n) W(n + m);
    bracket [W n, W m] = 0;
}
"""


def test_window_missing_a_sector_is_a_usage_error(tmp_path):
    path = tmp_path / "wab_a.lie"
    path.write_text(WAB_A_SOURCE)
    # at N = 23 the core reaches W(-20), but W(-20), W(-20) is not a pair
    for n, sector, need in (("6", "L-W", 13), ("12", "L-W", 13), ("18", "W-W", 24), ("23", "W-W", 24)):
        proc = run_cli("h2", "--algebra", str(path), "--lambda=20", "--mu=0", "--window", n)
        assert proc.returncode == 2, n
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: window too small: the {sector} sector has no pair of degree 0 "
            f"in the core; it needs N >= {need}\n"
        )
    proc = run_cli("h2", "--algebra", str(path), "--lambda=20", "--mu=0", "--window", "24")
    assert proc.returncode == 0, proc.stderr
    assert "stabilized: yes (N=24: 3, N=26: 3, N=28: 3)" in proc.stdout.splitlines()
    proc = run_cli("scan", "--algebra", str(path), "--lambda-values=20", "--mu-values=0", "--jobs", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: window too small: the L-W sector")


def test_weights_that_do_not_add_are_a_usage_error(tmp_path):
    path = tmp_path / "ab.lie"
    path.write_text("""
algebra ab(p) {
    family A weight 0;
    family B weight p;
    bracket [A n, A m] = (m - n) B(n + m);
    bracket [A n, B m] = 0;
    bracket [B n, B m] = 0;
}
""")
    proc = run_cli("h2", "--algebra", str(path), "--param", "p=1")
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: algebra is not graded by its weights: [A, A] -> B breaks weight "
        "additivity at these parameters\n"
    )
    proc = run_cli("h2", "--algebra", str(path), "--param", "p=0")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith("algebra: ab\n")


def test_class_of_mixed_degrees_is_a_usage_error(tmp_path):
    path = tmp_path / "mix.lie"
    path.write_text("""
algebra mix() {
    family L weight 0;
    family W weight 1;
    bracket [L n, L m] = (m - n) L(n + m);
    bracket [L n, W m] = m W(n + m);
    bracket [W n, W m] = 0;
    cocycle bad-mix {
        [L n, L m] = m on n + m = 0;
        [L n, W m] = 1 on n + m = 0;
    }
}
""")
    for command in (("h2",), ("verify", "--cocycle", "bad-mix")):
        proc = run_cli(*command, "--algebra", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: cocycle 'bad-mix' mixes degrees 0, 1\n"


def test_scan_csv_agreeing_grid():
    proc = run_cli("scan", "--lambda-values=-1,0", "--mu-values=1/3,1",
                   "--window", "10", "--steps", "2", "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "lambda,mu,window,core_h2_dim,predicted_dim,agree,matched",
        "-1,1/3,10,2,2,true,virasoro;c2",
        "-1,1,10,3,3,true,virasoro;c1;c2",
        "0,1/3,10,1,1,true,virasoro",
        "0,1,10,1,1,true,virasoro",
    ]
    # each row is lieext h2's JSON record at its point
    for row in csv.DictReader(io.StringIO(proc.stdout)):
        h2 = run_cli("h2", "--algebra", "svir", f"--lambda={row['lambda']}", f"--mu={row['mu']}",
                     "--window", "10", "--steps", "2", "--format", "json")
        assert h2.returncode == 0, h2.stderr
        record = json.loads(h2.stdout)
        assert row == {
            "lambda": record["lambda"],
            "mu": record["mu"],
            "window": str(record["window"]),
            "core_h2_dim": str(record["core_h2_dim"]),
            "predicted_dim": str(record["predicted_dim"]),
            "agree": json.dumps(record["agree"]),
            "matched": ";".join(m["name"] for m in record["matched_known"] if m["matched"]),
        }


def test_scan_reports_undercounted_point_and_exits_one():
    proc = run_cli("scan", "--lambda-values", "1", "--mu-values", "1",
                   "--window", "10", "--steps", "2", "--jobs", "1")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[1] == (
        "1,1,10,3,2,false,virasoro;ly-cubic;lm-yy-cubic"
    )


def test_scan_markdown_format():
    proc = run_cli("scan", "--lambda-values", "0", "--mu-values", "1",
                   "--window", "10", "--steps", "2", "--jobs", "1",
                   "--format", "md")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "| lambda | mu | window | core_h2_dim | predicted_dim | agree | matched |",
        "| --- | --- | --- | --- | --- | --- | --- |",
        "| 0 | 1 | 10 | 1 | 1 | true | virasoro |",
    ]


def test_scan_requires_lambda_mu_parameters():
    proc = run_cli("scan", "--algebra", "witt", "--lambda-values", "1",
                   "--mu-values", "1")
    assert proc.returncode == 2
    assert "exactly the parameters lambda and mu" in proc.stderr


def test_verify_registry_cocycle_passes():
    proc = run_cli("verify", "--algebra", "witt", "--cocycle", "virasoro",
                   "--window", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "verify: PASS (50 admissible triples, window [-10, 10])",
        "nontrivial: yes",
    ]


def test_verify_inapplicable_parameters_is_usage_error():
    proc = run_cli("verify", "--algebra", "svir", "--lambda=-1", "--mu", "1/2",
                   "--cocycle", "c1")
    assert proc.returncode == 2
    assert "not applicable: requires mu integer" in proc.stderr


def test_verify_unknown_name_lists_registry():
    proc = run_cli("verify", "--algebra", "witt", "--cocycle", "nosuch")
    assert proc.returncode == 2
    assert "unknown cocycle 'nosuch'" in proc.stderr
    assert "virasoro" in proc.stderr


def test_verify_reads_the_algebras_own_classes(tmp_path):
    # svir's classes are not reachable from an algebra that does not
    # declare them, even one with the same families
    path = tmp_path / "impostor.lie"
    path.write_text(IMPOSTOR_SVIR_SOURCE)
    proc = run_cli("verify", "--algebra", str(path), "--lambda=-1", "--mu", "1",
                   "--cocycle", "virasoro")
    assert proc.returncode == 2
    assert "not a class svir declares (none)" in proc.stderr


def test_verify_failing_assignment_file(tmp_path):
    payload = {"values": {"L:-3,L:3": "1"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    proc = run_cli("verify", "--algebra", "witt", "--cocycle", str(path),
                   "--window", "8")
    assert proc.returncode == 1
    assert proc.stdout.strip() == (
        "verify: FAIL at (L(-8), L(3), L(5)): residual -13"
    )


def test_verify_fractional_witness():
    # (lambda + 1)/2 = 3/4 here, so the brackets share the denominator 4
    proc = run_cli("verify", "--algebra", "svir", "--lambda=1/2", "--mu", "1",
                   "--cocycle", "c1", "--window", "12")
    assert proc.returncode == 1
    assert proc.stdout == "verify: FAIL at (L(-12), L(1), Y(10)): residual 117/2\n"


def test_verify_non_object_assignment_file_is_usage_error(tmp_path):
    for name, payload in (("list.json", [1, 2]), ("wrapped.json", {"values": [1]})):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        proc = run_cli("verify", "--algebra", "witt", "--cocycle", str(path),
                       "--window", "8")
        assert proc.returncode == 2, name
        assert proc.stderr.startswith("error: cocycle assignment must be a JSON object")
        assert "Traceback" not in proc.stderr


def test_verify_assignment_file_round_trip(tmp_path):
    from lieext import REGISTRY, Window, load_algebra, validate_parameters

    svir = load_algebra("svir")
    params = validate_parameters(svir, {"lambda": -1, "mu": "1/3"})
    psi = REGISTRY["c2"].instantiate(svir, params, Window(10, 3))
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(psi.to_json_dict()))
    proc = run_cli("verify", "--algebra", "svir", "--lambda=-1", "--mu", "1/3",
                   "--cocycle", str(path), "--window", "10")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "verify: PASS (454 admissible triples, window [-10, 10])",
        "nontrivial: yes",
    ]
