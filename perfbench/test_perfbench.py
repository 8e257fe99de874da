"""Self-tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import onnxgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from spans import Span  # noqa: E402

# --- span self time ------------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert spans.self_times([Span("a", 1.0, 3.5, None, 0)]) == [2.5]


def test_self_time_subtracts_direct_children_only():
    s = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 5.0, 6.0, 0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    s = [
        Span("root", 0.0, 10.0, None, 0),
        Span("c1", 1.0, 5.0, 0, 0),
        Span("c2", 3.0, 7.0, 0, 0),
        Span("c3", 9.0, 12.0, 0, 0),
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_restores_attributes():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    mod.inner = inner
    mod.alias = inner
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer()
    targets = [
        (mod, "outer", "m.outer", None),
        (mod, "inner", "m.inner", lambda a, r: {"seen": r}),
        (mod, "alias", "m.inner", None),
    ]
    tracer.run = 7
    with tracer.installed(targets):
        assert mod.inner is mod.alias  # one wrapper per function
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.alias is inner
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("m.outer", None, 7),
        ("m.inner", 0, 7),
    ]
    assert tracer.spans[1].counts == {"seen": 2}
    assert mod.outer(1) == 4 and len(tracer.spans) == 2  # nothing recorded once removed


def test_tracer_restores_attributes_when_the_call_raises():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    original = mod.f
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed([(mod, "f", "m.f", None)]):
            mod.f()
    assert mod.f is original
    assert tracer.spans[0].end >= tracer.spans[0].start


# --- tail percentile -----------------------------------------------------------------


def test_tail_keeps_exactly_ten_samples_beyond():
    samples = [float(v) for v in np.random.default_rng(0).permutation(100)]
    value, pct, beyond = stats.tail(samples)
    assert value == 89.0 and pct == 90.0 and beyond == 10
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, _ = stats.tail([float(v) for v in range(11, 0, -1)])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11)


def test_tail_refuses_ten_or_fewer_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# --- digest exclusion list -----------------------------------------------------------


def _run_dir(root: Path) -> Path:
    (root / "cache").mkdir(parents=True)
    (root / "models").mkdir()
    (root / "metrics.json").write_text("{}")
    (root / "models" / "cell-0.json").write_text("[1]")
    (root / "run_info.json").write_text('{"elapsed_seconds": 1.0}')
    (root / "cache" / "S1.npz").write_bytes(b"x")
    return root


def test_digest_ignores_run_info_and_cache(tmp_path):
    d = _run_dir(tmp_path / "a")
    before = stats.run_digest(d)
    (d / "run_info.json").write_text('{"elapsed_seconds": 2.0}')
    (d / "cache" / "S1.npz").write_bytes(b"changed")
    (d / "cache" / "S2.npz").write_bytes(b"new")
    assert stats.run_digest(d) == before
    assert [p.as_posix() for p in stats.digest_files(d)] == ["metrics.json", "models/cell-0.json"]


def test_digest_sees_every_other_change(tmp_path):
    d = _run_dir(tmp_path / "a")
    before = stats.run_digest(d)
    (d / "models" / "cell-0.json").write_text("[2]")
    changed = stats.run_digest(d)
    assert changed != before
    (d / "models" / "run_info.json").write_text("{}")  # only the top-level one is excluded
    assert stats.run_digest(d) != changed


def test_digest_depends_on_names_not_only_bytes(tmp_path):
    d = _run_dir(tmp_path / "a")
    before = stats.run_digest(d)
    (d / "metrics.json").rename(d / "other.json")
    assert stats.run_digest(d) != before


# --- computed counts and per-layer metrics -------------------------------------------


def test_train_steps_is_epochs_times_batches_rounded_up():
    assert spans.train_steps(100, 200, 64) == 400
    assert spans.train_steps(128, 3, 64) == 6
    assert spans.train_steps(1, 5, 64) == 5


def _run_spans():
    return [
        Span("pipeline.run_pipeline", 0.0, 10.0, None, 1),
        Span("pipeline.run_slices_stage", 0.5, 6.0, 0, 1, {"subjects": 3}),
        Span("nifti.read_nifti", 1.0, 2.0, 1, 1, {"gz": 0, "bytes": 4_000_000}),
        Span("nifti.read_nifti", 2.0, 4.0, 1, 1, {"gz": 1, "bytes": 4_000_000}),
        Span("entropy.rank_slices", 4.0, 5.0, 1, 1, {"scored": 256}),
        Span("entropy.select_top_k", 5.0, 5.5, 1, 1, {"selected": 40}),
        Span("features.save_features", 6.0, 7.0, 0, 1, {"floats": 1000}),
        Span("classifier.train", 7.0, 9.0, 0, 1, {"steps": 400}),
    ]


def test_run_layer_metrics_counts_and_rates():
    s = _run_spans()
    m = spans.run_layer_metrics(s, spans.self_times(s), {"cache_mb": 2.0, "artifact_mb": 1.5})
    assert m["nifti.read_nifti.busy_s"] == 3.0
    assert m["nifti.read_nifti_gz.busy_s"] == 2.0
    assert m["nifti.read_nifti.calls"] == 2
    assert m["nifti.decoded_mb_per_s"] == pytest.approx(8.0 / 3.0)
    assert m["pipeline.cache_misses"] == 2 and m["pipeline.cache_hits"] == 1
    assert m["entropy.slices_scored"] == 256
    assert m["entropy.selected_ratio"] == pytest.approx(40 / 256)
    assert m["entropy.slices_per_s"] == 256.0
    assert m["pipeline.run_slices_stage.self_s"] == pytest.approx(5.5 - 3.0 - 1.0 - 0.5)
    assert m["pipeline.run_pipeline.self_s"] == pytest.approx(10.0 - 5.5 - 1.0 - 2.0)
    assert m["features.csv_floats_per_s"] == 1000.0
    assert m["classifier.steps_per_s"] == 200.0
    assert m["minionnx.run_model.calls"] == 0 and m["minionnx.run_model.busy_s"] == 0.0


def test_layer_that_did_not_run_reports_zero_rates():
    s = [Span("pipeline.run_pipeline", 0.0, 1.0, None, 1)]
    m = spans.run_layer_metrics(s, spans.self_times(s), {"cache_mb": 0.0, "artifact_mb": 0.0})
    assert m["nifti.decoded_mb_per_s"] == 0.0
    assert m["entropy.selected_ratio"] == 0.0
    assert m["classifier.steps_per_s"] == 0.0


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    s = _run_spans()
    sizes = {"cache_mb": 0.0, "artifact_mb": 0.0}
    layer_keys = set(spans.run_layer_metrics(s, spans.self_times(s), sizes))
    assert {m["name"] for m in spec["per_layer"]} == layer_keys | {"trace.overhead_s"}
    w = run.WORKLOADS["onnx_elbow_mlp"]
    raw = {
        "run_s": [1.0] * 11,
        "first_run_s": [2.0],
        "setup_s": [3.0],
        "peak_rss_mb": 50.0,
        "measuring_processes": 1,
        "composed_accuracy": 1.0,
    }
    values, _ = run.end_to_end(w, raw)
    assert {m["name"] for m in spec["end_to_end"]} == set(values)
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)


# --- generated ONNX encoder ----------------------------------------------------------


def test_encoder_computes_relu_of_affine_map(tmp_path):
    from mridecomp import minionnx

    sidecar = onnxgen.write_encoder(tmp_path / "e.onnx", side=4, out_dim=3, seed=5, std=2.0)
    model = minionnx.load_model(tmp_path / "e.onnx")
    init = {k: np.asarray(v) for k, v in model.initializers.items()}
    x = np.random.default_rng(1).normal(size=(1, 1, 4, 4))
    expected = np.maximum(x.reshape(1, -1) @ init["W"].T + init["b"], 0.0)
    assert np.array_equal(minionnx.run_model(model, x), expected)
    assert init["W"].shape == (3, 16)
    assert json.loads(sidecar.read_text())["input_shape"] == [1, 1, 4, 4]
    assert onnxgen.encoder_bytes(4, 3, 5) == (tmp_path / "e.onnx").read_bytes()
    assert onnxgen.encoder_bytes(4, 3, 6) != onnxgen.encoder_bytes(4, 3, 5)
