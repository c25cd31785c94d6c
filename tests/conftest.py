"""Shared pytest hooks.

The acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal summary reprints them after the run so the verdicts are visible
regardless of output capturing.

The CLI tests start `python -m lieext` in subprocesses; PYTHONPATH gets the
checkout's src/ so they import the same package pytest does, installed or not.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
