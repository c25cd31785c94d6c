"""The command line's golden outputs (tools/golden.py): every recorded
invocation gives the same exit code, stdout and stderr as its record under
tests/golden/, and the in-process runs that make the records give what the
real `python -m lieext` prints.  Every window h2 solves on the recorded runs
gives null vectors with the recorded digest."""

import os
import subprocess
import sys

import pytest

import golden


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_cli_output_matches_its_record(case):
    if case == "argparse" and sys.version_info[:2] != golden.ARGPARSE_PYTHON:
        pytest.skip("argparse's layout differs from the Python that wrote the record")
    # a deliberate change of output rewrites the record with
    # `python tools/golden.py --write`, and says why
    assert golden.render(case) == (golden.GOLDEN / f"{case}.txt").read_text()


def test_null_vectors_match_their_record():
    # only `python tools/golden.py --write` rewrites the record
    assert golden.null_vectors() == golden.NULL_VECTORS.read_text()


SUBPROCESS_RUNS = {
    "jacobi": golden.CASES["jacobi"][2],
    "h2": golden.CASES["wab"][0],
    "scan": golden.CASES["wab"][2],
    "verify": golden.CASES["errors"][-4],
    "help": golden.CASES["argparse"][2],
}


@pytest.mark.parametrize("argv", SUBPROCESS_RUNS.values(), ids=SUBPROCESS_RUNS)
def test_in_process_run_is_the_real_cli(argv):
    with golden.workdir():
        # bytes, so that the csv rows keep their "\r\n"
        proc = subprocess.run([sys.executable, "-m", "lieext", *argv], capture_output=True,
                              timeout=300, env=os.environ)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == golden.run(argv)
