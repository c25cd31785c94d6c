"""Shared pytest hooks.

The acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal summary reprints them after the run so the verdicts are visible
regardless of output capturing.

The CLI tests start `python -m lieext` in subprocesses; PYTHONPATH gets the
checkout's src/ so they import the same package pytest does, installed or not.

The tests import tools/golden.py as `golden`: it keeps the sources that the
golden records and the tests share.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
sys.path.append(str(ROOT / "tools"))

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
