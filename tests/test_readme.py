"""The README's library tour runs, and each value it shows is the value it gets.

The tour is the README's one ```python block. A line that is a bare
expression ends in a comment that starts with the repr of its value, so a
renamed or deleted function, or a wrong value in the prose, fails here.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs_and_shows_its_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    tour = blocks[0]
    comments = {tok.start[0]: tok.string.removeprefix("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(tour).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    shown = 0
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert comments.get(stmt.end_lineno, "").startswith(repr(value)), ast.unparse(stmt)
            shown += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown
