import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_comments_blanks_and_docstrings():
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f():
    """Docstring."""
    text = """a string
that is not a statement"""
    return (text,
            os)
'''
    # import, def, the two lines of the assigned string, the two of the return
    assert _code_lines()(source) == 6
