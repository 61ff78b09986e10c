import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = ('"""Module\n'
            'docstring."""\n'
            '\n'
            'import os  # a trailing comment keeps its line\n'
            '# a comment line\n'
            'X = 1\n'
            '"""The docstring of X."""\n'
            '\n'
            'def f():\n'
            '    """Function docstring."""\n'
            '    s = """a string\n'
            '    that is not a docstring"""\n'
            '    return s\n')
    assert src_lines.counts(text) == (13, 6)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\n')
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "2", "1"],
                    ["b.py", "2", "1"], ["total", "4", "2"]]
