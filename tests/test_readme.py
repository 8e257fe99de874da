"""The README's library example runs as written, and the package's top level
exports exactly the names it imports."""

import ast
import re
from pathlib import Path

import mridecomp

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(after: str) -> str:
    """The first python code block of the README after the text after."""
    section = README.read_text().split(after, 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def library_example() -> str:
    return python_block("## Library use")


def test_readme_library_example_runs_and_matches_exports(tmp_path, monkeypatch):
    code = library_example()
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_example"}
    exec(compile(code, str(README), "exec"), namespace)

    assert 0.0 <= namespace["report"].composed_accuracy <= 1.0
    assert (tmp_path / "runs" / "api-demo" / "metrics.json").is_file()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "mridecomp"
        for alias in node.names
    }
    assert set(mridecomp.__all__) == imported | {"__version__"}

