"""End-to-end command line tests driving the installed entry point through
subprocesses: output formats, exit codes, and file/preset resolution."""

import json
import os
import subprocess
import sys

from lieext.cli import _scan_workers

CLI = [sys.executable, "-m", "lieext"]

CORRUPT_SOURCE = """
algebra bad(lambda, mu) {
  family L weight 0;
  family Y weight mu;
  family M weight 2*mu;
  bracket [L n, L m] = (m - n) L(n + m);
  bracket [L n, Y m] = (m + n) Y(n + m);   # wrong coefficient on purpose
  bracket [Y n, Y m] = (m - n) M(n + m);
  bracket [L n, M m] = (m - lambda*n + 2*mu) M(n + m);
  bracket [Y n, M m] = 0;
  bracket [M n, M m] = 0;
}
"""

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
    assert "FAIL on families ('L', 'Y', 'Y') -> M" in proc.stdout


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


def test_preset_path_environment_resolution(tmp_path):
    (tmp_path / "abel.lie").write_text(ABELIAN_SOURCE)
    env = dict(os.environ)
    env["LIEEXT_PRESET_PATH"] = str(tmp_path)
    proc = run_cli("jacobi", "--algebra", "abel", "--window", "4", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("jacobi window: PASS (84 triples")


def test_mu_zero_is_a_usage_error():
    proc = run_cli("h2", "--algebra", "svir", "--lambda=-1", "--mu", "0",
                   "--window", "8")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: mu = 0 is out of scope")


def test_user_algebra_named_svir_gets_no_svir_rules(tmp_path):
    path = tmp_path / "impostor.lie"
    path.write_text(IMPOSTOR_SVIR_SOURCE)
    for mu in ("1", "0"):
        proc = run_cli("h2", "--algebra", str(path), "--lambda=-1", "--mu", mu,
                       "--window", "6", "--steps", "2")
        assert proc.returncode == 0, proc.stderr
        assert "algebra: svir" in proc.stdout.splitlines()
        assert "predicted_dim: n/a" in proc.stdout.splitlines()


def test_scan_workers_clamped_without_starting_processes():
    assert _scan_workers(10**6, 80, 2) == 2
    assert _scan_workers(10**6, 3, 64) == 3
    assert _scan_workers(0, 80, 4) == 4
    assert _scan_workers(-1, 80, 4) == 4
    assert _scan_workers(0, 80, None) == 1
    assert _scan_workers(1, 80, 8) == 1
    assert _scan_workers(8, 1, 8) == 1


def test_window_too_small_is_a_usage_error():
    proc = run_cli("h2", "--algebra", "svir", "--lambda", "0", "--mu", "1",
                   "--window", "3", "--margin", "3")
    assert proc.returncode == 2
    assert "window too small" in proc.stderr


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
