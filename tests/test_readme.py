"""The README's library example runs as written, and the package's top level
exports exactly the names it imports; its recipe for the validation rows'
reduced values gives the rows a run projected."""

import ast
import re
from pathlib import Path

import numpy as np

import mridecomp
from mridecomp import pipeline
from mridecomp.config import PipelineConfig, TrainingConfig
from mridecomp.synth import generate_dataset

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


def test_readme_validation_rows_recipe_gives_the_rows_the_run_projected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest, _ = generate_dataset("data", subjects_per_class=4, nz=8, seed=0)
    stages = []
    stage = pipeline.run_decompose_stage

    def recorded(*args):
        stages.append(stage(*args))
        return stages[-1]

    monkeypatch.setattr(pipeline, "run_decompose_stage", recorded)
    cfg = PipelineConfig(training=TrainingConfig(learning_rates=(0.01,), epochs=5))
    pipeline.run_pipeline(manifest, cfg, "runs/demo")

    namespace = {}
    exec(python_block("The reduced rows are written once"), namespace)
    validation = namespace["validation"]
    projected = stages[0].reduced
    expected = projected.rows(np.isin(projected.subject_ids, namespace["validation_subjects"]))
    assert validation.n > 0
    assert validation.subject_ids == expected.subject_ids
    assert validation.values.tobytes() == expected.values.tobytes()
