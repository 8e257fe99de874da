"""The README's library example and CLI commands run as written, and the
package's top level exports exactly the names the example imports."""

import ast
import re
import shlex
from pathlib import Path

import mridecomp
from mridecomp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(after: str, language: str = "python") -> str:
    """The first code block in language of the README after the text after."""
    section = README.read_text().split(after, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def library_example() -> str:
    return code_block("## Library use")


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


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    """The quick start's commands, then the partial-run commands, each exit 0."""
    monkeypatch.chdir(tmp_path)
    commands = code_block("## Quick start (CLI)", "sh") + code_block("for partial runs:", "sh")
    lines = [shlex.split(line, comments=True) for line in commands.splitlines()]
    assert [argv[1] for argv in lines] == ["synth", "pipeline", "features", "fit", "fit"]
    for argv in lines:
        assert argv[0] == "mridecomp"
        assert main(argv[1:]) == 0, argv
