"""The README's examples and the package docstrings run as shown."""

import ast
import doctest
import importlib
import pkgutil
import shlex
from pathlib import Path

import nielsencalc
from nielsencalc import cli

README = Path(__file__).parent.parent / "README.md"


def _block(fence, after=""):
    text = README.read_text(encoding="utf-8")
    start = text.index(fence, text.index(after)) + len(fence)
    return text[start:text.index("```", start)]


def test_readme_command_line_block_shows_the_first_lines_of_stdout(
        monkeypatch, capsys):
    # the '#' lines right after a command are the start of its stdout
    monkeypatch.delenv("NIELSEN_DB", raising=False)
    shown, command = {}, None
    for line in _block("```sh\n", "## Command line").splitlines():
        if line.startswith("nielsencalc "):
            command = shown[line] = []
        elif line.startswith("#") and command is not None:
            command.append(line[1:].strip())
        else:
            command = None
    assert len(shown) == 7
    for line, expected in shown.items():
        assert cli.main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        assert out.splitlines()[:len(expected)] == expected, line
    assert sum(map(len, shown.values())) == 7


def test_readme_python_block_gives_its_commented_results():
    block = _block("```python\n")
    lines = block.splitlines()
    namespace, checked = {}, []
    for node in ast.parse(block).body:
        code = compile(ast.Module([node], []), str(README), "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        # the result is commented after the expression or on the next line
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not comment:
            comment = lines[node.end_lineno].strip()
        expected = ast.literal_eval(comment.lstrip("#").split(":")[0].strip())
        value = eval(compile(ast.Expression(node.value), str(README), "eval"),
                     namespace)
        assert value == expected, ast.unparse(node)
        checked.append(expected)
    assert checked == [(2, (0, 1, 1)), True, (5, 5, None)]


def test_every_module_docstring_example_passes():
    attempted = 0
    for info in pkgutil.iter_modules(nielsencalc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"nielsencalc.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 3
