"""The repository tools under tools/, and the benchmark's use of lieext."""

import ast
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import lieext

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

CODE_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line


# a comment line
def f(x):
    """Function docstring."""
    text = """a string
    that is no docstring"""
    return x, text
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    tool = _load("code_lines")
    assert tool.code_lines(CODE_SAMPLE) == 5  # import, def, the two text lines, return
    (tmp_path / "sample.py").write_text(CODE_SAMPLE)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["sample.py", "5", "total", "5"]


def test_benchmark_names_exist():
    # perfbench/ changes only with the benchmark, so a name deleted from
    # lieext while it still reads it would stop the benchmark's runs
    for name in ("run.py", "spans.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lieext":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
            elif isinstance(node, ast.Attribute) and re.fullmatch(r"lieext(\.\w+)+", ast.unparse(node)):
                functools.reduce(getattr, ast.unparse(node).split(".")[1:], lieext)
