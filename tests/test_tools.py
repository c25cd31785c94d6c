"""The repository tools under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

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
